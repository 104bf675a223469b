"""The writers' float text kernel against Python's own formatting, value for
value: '%.17g' % v for CSV and OBJ, json.dumps([v])[1:-1] for JSON."""

import json

import numpy as np
import pytest

import solsurf as ss
from solsurf import _floattext as ft
from solsurf.fixtures import random_smooth_spin

CHUNK = ss.surface.LINES_PER_WRITE


def _kernel(values, shortest, chunk=CHUNK) -> str:
    """The kernel's text of the values, one a line, chunk values a call."""
    return b"".join(ft.text([ft.slots(values[i:i + chunk], shortest), b"\n"])
                    for i in range(0, len(values), chunk)).decode("ascii")


def _oracle(values, shortest) -> str:
    """'%.17g' % v, or json.dumps([v])[1:-1], of each value, one a line; the
    JSON text is cut from one json.dumps of the whole list, whose encoder
    writes each float as it writes a list of one."""
    if shortest:
        lines = json.dumps(values.tolist())[1:-1].split(", ")
    else:
        lines = ["%.17g" % v for v in values.tolist()]
    return "\n".join(lines) + "\n"


def _assert_same(values, got: str, want: str):
    if got != want:
        pairs = zip(got.split("\n"), want.split("\n"))
        bad = next(i for i, (g, w) in enumerate(pairs) if g != w)
        raise AssertionError((repr(float(values[bad])), got.split("\n")[bad],
                              want.split("\n")[bad]))


def _bits(rng, size, exponents=None):
    """Doubles of random 64-bit patterns; with exponents, random signs and
    mantissas over that range of biased exponents."""
    bits = rng.integers(0, 2 ** 64, size, dtype=np.uint64)
    if exponents is not None:
        e = rng.integers(*exponents, size, dtype=np.uint64)
        bits = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (e << np.uint64(52))
    return bits.view(np.float64)


def _drawn_values() -> np.ndarray:
    """Over 10^6 values: random 64-bit patterns (NaN payloads, subnormals,
    +-inf among them), random mantissas within and around the fast decades,
    uniform and log-uniform draws, 10^k and its neighbours for k in -6..18,
    every power of two, 16-, 17- and 18-digit halfway cases, integral values
    of 15 digits, 16-digit decimals above 2^53 and 15-digit ones read as
    doubles in every fast decade with their neighbours, and +-0.0."""
    rng = np.random.default_rng(31)
    ten = np.array([float(10 ** k) if k >= 0 else 10.0 ** k for k in range(-6, 19)])
    two = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.concatenate([ten, two])
    edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    # k + f is exact for k < 2^49 and eighths f: 15 integer digits then 1 to 3
    # fraction digits ending in 5, a tie at 15, 16 or 17 digits
    k = rng.integers(10 ** 14, 2 ** 49, 10_000).astype(float)
    halves = k + rng.choice([0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875], k.size)
    # the correctly rounded double of a decimal d, where d's digits may or may
    # not be the double's repr
    d = np.concatenate([rng.integers(2 ** 53, 10 ** 16, 20_000),
                        rng.integers(10 ** 14, 10 ** 15, 20_000)])
    read = np.array([float(f"{m}e{e}") for m, e in
                     zip(d.tolist(), (rng.integers(-19, 0, d.size) + (d < 10 ** 15)).tolist())])
    read = np.concatenate([read, np.nextafter(read, 0), np.nextafter(read, np.inf)])
    special = np.array([0.0, 562949953421312.125, 562949953421312.375, np.inf, np.nan,
                        np.array(0x7FF0_0000_0000_0001).view(np.float64),
                        np.array(0x7FF8_0000_DEAD_BEEF).view(np.float64), 1.5, 0.1, 100.0])
    values = np.concatenate([
        _bits(rng, 60_000),
        _bits(rng, 10_000, (0, 2)),  # subnormals and the least normals
        _bits(rng, 200_000, (1023 - 16, 1023 + 52)),  # 1.5e-5 .. 4.5e15
        rng.uniform(-1.0, 1.0, 120_000),
        10 ** rng.uniform(-6, 18, 100_000),
        edges, k, halves, read, special])
    return np.concatenate([values, -values])


@pytest.fixture(scope="module")
def drawn():
    return _drawn_values()


@pytest.mark.parametrize("shortest", [False, True], ids=["g17", "json"])
def test_kernel_matches_python_on_a_million_values(drawn, shortest):
    assert drawn.size >= 10 ** 6
    _assert_same(drawn, _kernel(drawn, shortest), _oracle(drawn, shortest))


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("shortest", [False, True], ids=["g17", "json"])
def test_kernel_matches_python_in_small_chunks(drawn, shortest, chunk):
    """A sample of every family, a chunk of 1 or 7 values a call, against the
    per-value oracles themselves."""
    values = drawn[::401]
    fmt = (lambda v: json.dumps([v])[1:-1]) if shortest else "%.17g".__mod__
    want = "".join(fmt(v) + "\n" for v in values.tolist())
    _assert_same(values, _kernel(values, shortest, chunk), want)


def test_random_smooth_series_mostly_takes_the_fast_path(monkeypatch):
    """At least 98% of a random_smooth series' values get their JSON text, and
    99.9% their %.17g text, without Python's formatting: a fast path that
    quietly falls back fails here."""
    grid = ss.Grid1D(0.0, 2.0 * np.pi / 128, 129, "one_sided")
    series = ss.evolve_series(random_smooth_spin(grid, seed=1, theta_amp=0.05), grid.dx / 4, 64)
    values = np.concatenate([series.S.ravel(), series.u.ravel(), series.v.ravel()])
    for shortest, floor, name in ((True, 0.98, "_json_rows"), (False, 0.999, "_python_rows")):
        formatted = []
        python_rows = getattr(ft, name)
        monkeypatch.setattr(ft, name, lambda v, rows=python_rows: formatted.extend(v) or rows(v))
        _assert_same(values, _kernel(values, shortest), _oracle(values, shortest))
        assert 1 - len(formatted) / values.size >= floor, (shortest, len(formatted))


def test_rows_hold_the_separators_they_are_given():
    cells = ft.slots(np.array([1.0, -0.0, np.nan, 2.5e-5, 123456789.125]), shortest=True)
    assert ft.text([b"[", cells, b"]\n"]) == b"[1.0]\n[-0.0]\n[NaN]\n[2.5e-05]\n[123456789.125]\n"


@pytest.mark.parametrize("digits", range(1, 16))
@pytest.mark.parametrize("shortest", [False, True], ids=["g17", "json"])
def test_rows_are_as_wide_as_the_chunk_needs(shortest, digits):
    """A chunk whose largest value below 1e15 has `digits` integer digits gets
    rows of 28, 32, 36 or 40 bytes, the sign in their first byte at 3, 7, 11
    and 15 digits, beside values Python formats (a 24-char one among them)
    and +-0.0."""
    rng = np.random.default_rng(digits)
    top = np.nextafter(10.0 ** digits, 0.0)  # digits 9s, then a fraction
    values = np.concatenate([[-top, top, np.nan, 0.0, -0.0, 1e-5, -1e16, -np.inf,
                              -1.2345678901234567e-100],
                             rng.uniform(-1.0, 1.0, 64) * 10.0 ** rng.uniform(-4, digits, 64)])
    assert ft.slots(values, shortest).shape == (values.size, 28 + 4 * (digits // 4))
    _assert_same(values, _kernel(values, shortest), _oracle(values, shortest))


@pytest.mark.parametrize("shortest", [False, True], ids=["g17", "json"])
def test_rows_of_values_python_formats_are_the_narrowest(shortest):
    values = np.array([np.nan, -np.inf, 1e16, -1.2345678901234567e-100, 1e-5])
    assert ft.slots(values, shortest).shape == (values.size, 28)
    _assert_same(values, _kernel(values, shortest), _oracle(values, shortest))


def test_zeros_take_the_fast_path(monkeypatch):
    """+-0.0 are the rows of the integer 0, "0" and "-0", or "0.0" and "-0.0"
    for JSON, with no call to Python's formatting."""
    for name in ("_python_rows", "_json_rows"):
        monkeypatch.setattr(ft, name, lambda v: pytest.fail(f"{v.size} values fell back"))
    zeros = np.tile([0.0, -0.0], 2048)
    assert ft.text([ft.slots(zeros), b"\n"]) == b"0\n-0\n" * 2048
    assert ft.text([ft.slots(zeros, shortest=True), b"\n"]) == b"0.0\n-0.0\n" * 2048
