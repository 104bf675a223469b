"""Source hygiene: every name a solsurf module imports is used in it, no
module imports another solsurf module's private names, and the package
exports exactly what its __init__ binds."""

import ast
from pathlib import Path

import pytest

import solsurf

SRC = Path(__file__).resolve().parent.parent / "src" / "solsurf"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read as a Name."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def private_imports(source: str) -> list:
    """Underscore names (not dunders) imported from solsurf modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "solsurf"):
            found += [a.name for a in node.names
                      if a.name.startswith("_") and not a.name.endswith("__")]
    return sorted(found)


def export_gaps(source: str) -> tuple:
    """(names __all__ lists that no top-level statement binds, names bound at
    top level by an assignment or a relative import that __all__ leaves out)."""
    listed, bound = set(), set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if target.id == "__all__":
                    listed = set(ast.literal_eval(node.value))
                else:
                    bound.add(target.id)
    return sorted(listed - bound), sorted(bound - listed)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Tuple, Sequence\nx: Sequence = np.zeros(2)\n")
    assert unused_imports(source) == ["Tuple", "os"]


def test_checker_finds_private_imports():
    source = ("from . import __version__\nfrom .surface import _form_curvatures, reconstruct\n"
              "from solsurf.spin import _advance\nfrom os.path import _joinrealpath\n"
              "from .gauss_codazzi import _gauss_mean as gm\n")
    assert private_imports(source) == ["_advance", "_form_curvatures", "_gauss_mean"]


def test_checker_finds_export_gaps():
    source = ("__version__ = '1'\nfrom .frames import matrix_a, gram_deviation\n"
              "from . import fixtures\nimport numpy as np\n"
              "__all__ = ['__version__', 'matrix_a', 'matrix_b', 'fixtures']\n")
    assert export_gaps(source) == (["matrix_b"], ["gram_deviation"])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_exports_match_init():
    assert export_gaps((SRC / "__init__.py").read_text(encoding="utf-8")) == ([], [])
    assert [name for name in solsurf.__all__ if not hasattr(solsurf, name)] == []
