"""Source hygiene: every name a solsurf module imports is used in it."""

import ast
from pathlib import Path

import pytest

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


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Tuple, Sequence\nx: Sequence = np.zeros(2)\n")
    assert unused_imports(source) == ["Tuple", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
