"""Seeded fixtures: the in-repo uniform stream against numpy's default_rng,
typed seed errors, and CLI runs that never load numpy.random."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solsurf as ss
from solsurf.fixtures import _uniforms, random_ct, random_smooth_spin

SMALL_LINE = ss.Grid1D(0.0, 2.0 * np.pi / 32, 33, "one_sided")


def numpy_uniforms(seed, m, chunk=None):
    """default_rng(seed).uniform(-1.0, 1.0) as m doubles, drawn in one call
    or in calls of chunk doubles each, as the fixtures draw them."""
    rng = np.random.default_rng(seed)
    if chunk is None:
        return rng.uniform(-1.0, 1.0, size=m)
    return np.concatenate([rng.uniform(-1.0, 1.0, size=chunk) for _ in range(m // chunk)])


def stream(seed, m):
    draw = _uniforms(seed)
    return np.array([next(draw) for _ in range(m)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), m=st.integers(1, 64))
def test_stream_matches_default_rng(seed, m):
    assert stream(seed, m).tobytes() == numpy_uniforms(seed, m).tobytes()
    for chunk in (2, 4):
        k = -(-m // chunk) * chunk  # m rounded up to whole chunks
        assert stream(seed, k).tobytes() == numpy_uniforms(seed, k, chunk).tobytes()


# 0 hashes an empty word list as [0]; 2**32 and up take two or more words;
# 2**160 + 7 has six words, two past the 4-word pool.
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 + 1, 2 ** 128 + 3,
                                  2 ** 160 + 7])
def test_stream_pinned_seeds(seed):
    assert stream(seed, 64).tobytes() == numpy_uniforms(seed, 64).tobytes()


def test_numpy_integer_seed_draws_as_int():
    assert stream(np.int64(7), 8).tobytes() == stream(7, 8).tobytes()
    g2 = ss.Grid2D(SMALL_LINE, SMALL_LINE)
    assert random_ct(g2, seed=np.int64(5)).k.tobytes() == random_ct(g2, seed=5).k.tobytes()


@pytest.mark.parametrize("seed", [-1, -2 ** 70, 1.0, np.float64(2.0), "1", None])
@pytest.mark.parametrize("build", [
    lambda seed: random_smooth_spin(SMALL_LINE, seed=seed),
    # no harmonic draws at all: the seed is still checked
    lambda seed: random_smooth_spin(SMALL_LINE, seed=seed, n_modes=0),
    lambda seed: random_ct(ss.Grid2D(SMALL_LINE, SMALL_LINE), seed=seed),
], ids=["random_smooth_spin", "random_smooth_spin_no_modes", "random_ct"])
def test_bad_seed_raises_config_error(build, seed):
    with pytest.raises(ss.ConfigError, match="seed must be an int >= 0"):
        build(seed)


GUARD = """
import sys, tempfile
from solsurf.cli import main
runs = [(["convergence", "--scenario", "random_smooth", "--n", "17", "--steps", "4",
          "--levels", "2", "--format", "json"], 1),
        (["check", "--scenario", "random_ct", "--n", "17"], 1),
        (["simulate", "--scenario", "random_smooth", "--n", "17", "--steps", "4",
          "--format", "json"], 0)]
with tempfile.TemporaryDirectory() as out:
    for i, (argv, code) in enumerate(runs):
        assert main(argv + ["--out", f"{out}/{i}"]) == code, argv
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


@pytest.mark.parametrize("script", [GUARD, "import sys, solsurf\nprint(sorted("
                                    "m for m in sys.modules if m.startswith('numpy.random')))"],
                         ids=["cli_runs", "bare_import"])
def test_runs_never_import_numpy_random(script):
    """In a fresh interpreter: pytest and hypothesis load numpy.random here."""
    src = str(Path(ss.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
                           + script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
