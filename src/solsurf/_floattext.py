"""Float64 arrays as the exact text Python writes for each value, a whole
array at a time.

slots(values) gives each value a row of bytes holding ``'%.17g' % v``,
NUL-padded; slots(values, shortest=True) holds the JSON encoder's text of
v (float.__repr__, or NaN, Infinity, -Infinity).  text(cells) lays such rows
side by side with separator bytes and drops every NUL, which leaves the
text.  index_text(m) gives the rows of integers 0 <= m < 10^16 the same way.

Where the digits come from.  For 1e-4 <= |v| < 1e15, log10 estimates the
decade X, and TwoProduct (Veltkamp's split, Dekker's product) gives
|v| 10^(16 - X) exactly as hi + lo: 10^p is an exact double for p <= 22, and
each numpy ufunc rounds once, so nothing fuses into an FMA.  The decade is
then confirmed exactly against 1e16 <= hi + lo < 1e17 (and redone once where
log10 was off by one), and hi + lo is rounded half-even to an int64, which
is %.17g's 17-digit integer.  The shortest repr tests the correctly rounded
15- and 16-digit integers N for a round trip by Clinger's fast path: for
N <= 2^53 and k <= 22, N / 10^k is one correctly rounded division, so it
equals v exactly when N's digits read back as v.  A 16-digit N above 2^53
is tested on the TwoProduct instead: there hi is an even integer, so
N - |v| 10^k is rint(lo) - lo exactly, and N reads back as v where that is
under half an ulp of v times 10^k, itself exact (a 16-digit decimal is never
a midpoint of two doubles).  repr then has 15 digits where the 15-digit N
round trips, 16 where only the 16-digit one does, else 17 (%.17g's digits);
an integral repr ends in ".0".  +-0.0 take the rows of the integer 0.

Among the shortest strings that read back, repr takes the nearest, and the
round-trip interval is symmetric about v except at a power of two, so the
correctly rounded N is repr's digits; a tie rounds half-even in both.  The
interval is under a quarter of a unit of the 15th digit wide, so it holds at
most one 15-digit decimal, and a shorter repr exists exactly where the
15-digit N that reads back ends in 0.  No 16- or 17-digit rounding of a
double carries into the next decade (the gap below 10^k exceeds half a unit
of the 16th digit), and a 15-digit carry reads back as 10^k, never as v.

Python formats, one value at a time, every value the fast path cannot
prove: NaN, +-inf, |v| < 1e-4 or >= 1e15 (exponent notation), a decade that
does not resolve, and for the repr a 15-digit N that round trips and ends in
0 (the shortest form is shorter); every nonzero power of two here is one of
those.

A row is made of 4-char words, the first char in the low byte: the sign and
up to 15 integer digits (up to four words), the point, then up to 20
fraction digits (five words).  The words come from one 4-digit table that
holds each group plain, with its leading zeros blanked (NUL) or with its
trailing zeros blanked, so that blanking does %.17g's leading and trailing
zero removal.  A chunk's rows are only as wide as its digits: where its
largest |v| < 1e15 has D integer digits (D = 1 below 1), they start at the
integer word 3 - D // 4 and are 28, 32, 36 or 40 bytes.  The digits of every
value that takes the fast path fill at most that word's last three chars
(no rounding carries into the next decade), so its first is blank and takes
the sign.  Python's text of a value, at most 24 chars, fills a row of any
width from the left.
"""

from __future__ import annotations

import json

import numpy as np

WIDTH = 40  # bytes of the widest row

_P10 = np.array([float(10 ** k) for k in range(23)])  # every one an exact double
_I10 = 10 ** np.arange(17, dtype=np.int64)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant


def _split(a):
    """a as hi + lo, each with at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_P10_HI, _P10_LO = _split(_P10)


def _scaled(ax, p):
    """ax * 10^p exactly, as hi + lo (TwoProduct)."""
    b, b_hi, b_lo = _P10[p], _P10_HI[p], _P10_LO[p]
    hi = ax * b
    a_hi, a_lo = _split(ax)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _round(hi, lo):
    """hi + lo rounded half-even to an int64.  From 2^53 up hi is an even
    integer, and lo, here |lo| <= 8, rounds on its own (rint, half-even);
    below it |lo| <= 1/2, so rint(lo) is 0, hi has fraction bits, and the sign
    of (frac(hi) - 1/2) + lo decides, which rounding cannot flip (the fraction
    of lo past rint(lo) is exact)."""
    f = np.floor(hi)
    r = np.rint(lo)
    d = (hi - f - 0.5) + (lo - r)
    n = f.astype(np.int64) + r.astype(np.int64)
    return n + ((d > 0) | ((d == 0) & (n & 1 == 1)))


def _in_decade(hi, lo):
    """1e16 <= hi + lo < 1e17, exactly."""
    return (((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))
            & ((hi < 1e17) | ((hi == 1e17) & (lo < 0))))


def _tables():
    """The 4-digit word table: each group 0..9999 plain, with its leading zeros
    blank, the same but "0" for 0, and with its trailing zeros blank; then
    the words NUL and ".".  Built as chars by broadcasting, a digit
    place at a time."""
    words = np.empty(4 * 10 ** 4 + 2, dtype="<u4")
    t = words[:-2].view(np.uint8).reshape((4,) + (10,) * 4 + (4,))  # table, digits, char
    digits = np.arange(48, 58, dtype=np.uint8)
    for j in range(4):
        t[..., j] = digits.reshape((10,) + (1,) * (3 - j))
    for j in range(4):
        t[(1,) + (0,) * (j + 1)][..., j] = 0  # zero, and only zeros before it
        if j < 3:
            t[(2,) + (0,) * (j + 1)][..., j] = 0
        t[(3, ...) + (0,) * (4 - j) + (j,)] = 0  # zero, and only zeros after it
    words[-2:] = 0, ord(".")
    return words


_WORDS = _tables()
_LEAD, _LEAD0, _TRAIL = 10000, 20000, 30000  # offsets of the blanked groups
_NUL, _DOT = 40000, 40001
_BLANK_AT = np.array([[_LEAD], [_LEAD], [_LEAD0]], dtype=np.int32)  # for integer words 1, 2, 3


def _groups(m, out):
    """Write the 4-digit groups of m < 10^16 into out's 4 rows, the most
    significant first (numpy divides by a scalar fast, with % slowly)."""
    top = m // 10 ** 8
    for row, eight in ((0, top), (2, m - top * 10 ** 8)):
        out[row] = eight // 10 ** 4
        out[row + 1] = eight - out[row] * 10 ** 4


def _integer(m, out):
    """The table indices of integers m < 10^16 into out's 4 rows, as four
    words with leading zeros blank and "0" for 0."""
    _groups(m, out)
    # a word takes its leading-blank group where all before it are 0, the
    # last one its "0" for 0
    blank = out[:3] == 0
    blank[1] &= blank[0]
    blank[2] &= blank[1]
    out[1:] += blank * _BLANK_AT
    out[0] += _LEAD


def _indices(n, X, shortest):
    """The (10, len(n)) table indices of the words of 17-digit integers n of
    decades X."""
    # X >= 0: integer part n // 10^(16 - X); X < 0: "0", then the first four
    # fraction digits n // 10^(12 - X) as one group, zeros kept
    q = np.where(X >= 0, X, X + 4)
    a, rest = np.divmod(n, _I10[16 - q])
    small = X < 0
    whole = rest == 0  # no fraction digit after a's
    integral = whole & ~small
    idx = np.empty((10, n.size), dtype=np.int32)  # word by word
    _integer(np.where(small, 0, a), idx[:4])
    # after an integral value %.17g writes no point, repr ".0"
    idx[4] = _DOT if shortest else np.where(integral, _NUL, _DOT)
    idx[5] = np.where(small, a + whole * _TRAIL, np.where(integral & shortest, _LEAD0, _NUL))
    # the other 16 fraction digits, left-aligned; a fraction word takes its
    # trailing-blank group where all after it are 0
    _groups(rest * _I10[q], idx[6:])
    blank = idx[7:] == 0
    blank[1] &= blank[2]
    blank[0] &= blank[1]
    idx[6:9] += blank * _TRAIL
    idx[9] += _TRAIL
    return idx


_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _rows(text: str) -> np.ndarray:
    """The (n, WIDTH) uint8 rows of text, n fields of WIDTH chars that are
    space-padded (float text holds no space), NUL-padded."""
    data = text.encode("ascii").translate(_SPACE_TO_NUL)
    return np.frombuffer(data, np.uint8).reshape(-1, WIDTH)


def _python_rows(values) -> np.ndarray:
    """The rows of Python's own '%.17g' % v of each value: one % format of
    them all."""
    return _rows((f"%-{WIDTH}.17g" * values.size) % tuple(values.tolist()))


def _json_rows(values) -> np.ndarray:
    """The rows of the JSON encoder's own text of each value (float.__repr__,
    NaN, Infinity or -Infinity): one json.dumps of them all."""
    texts = json.dumps(values.tolist())[1:-1].split(", ")
    return _rows((f"%-{WIDTH}s" * len(texts)) % tuple(texts))


def slots(values, shortest: bool = False) -> np.ndarray:
    """(len(values), width(values)) uint8: row i holds '%.17g' % values[i]
    (with shortest, its JSON text), NUL-padded."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    n, X, fast = _digits(v, shortest)
    words = _WORDS.take(_indices(n, X, shortest)[10 - width(v) // 4:].T)
    words[:, 0] |= np.signbit(v) * np.uint32(ord("-"))
    out = words.view(np.uint8)
    back = np.flatnonzero(~fast)
    if back.size:
        out[back] = (_json_rows if shortest else _python_rows)(v[back])[:, :out.shape[1]]
    return out


def width(values) -> int:
    """The width of the rows slots gives values, 28, 32, 36 or 40 bytes: as
    wide as the integer digits of their largest |v| < 1e15 need."""
    ax = np.abs(np.asarray(values, dtype=np.float64))
    digits = 1 + np.searchsorted(_P10[1:15], np.max(ax, where=ax < 1e15, initial=0.0), "right")
    return 28 + 4 * int(digits // 4)


def _digits(v, shortest):
    """n, X, fast: the 17-digit integer and decade of each value (for the
    shortest, repr's digits padded to 17), and where they are its text."""
    ax = np.abs(v)
    zero = ax == 0
    fast = (ax >= 1e-4) & (ax < 1e15)  # NaN is neither
    ax[~fast] = 1.0
    X = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _scaled(ax, 16 - X)
    ok = _in_decade(hi, lo)
    if not ok.all():  # log10 was off by one
        X += ~ok * np.where(hi <= 1e16, -1, 1)
        hi, lo = _scaled(ax, 16 - X)
        ok = _in_decade(hi, lo)
    n = _round(hi, lo)
    fast &= ok
    if shortest:  # the 16- and 15-digit candidates, a row each
        k = 15 - X - np.arange(2)[:, None]
        hi, lo = _scaled(ax, k)
        m = _round(hi, lo)
        rt = m.astype(np.float64) / _P10[k] == ax  # Clinger: m <= 2^53, k <= 22
        # above 2^53: |m - |v| 10^k| = |rint(lo) - lo| against half an ulp
        half = np.spacing(ax) * 0.5 * _P10[k[0]]
        rt[0] = np.where(m[0] > 2 ** 53, np.abs(lo[0] - np.rint(lo[0])) < half, rt[0])
        # a 15-digit m that reads back and ends in 0 has a shorter repr
        fast &= ~rt[1] | (m[1] - m[1] // 10 * 10 != 0)
        n = np.where(rt[1], m[1] * 100, np.where(rt[0], m[0] * 10, n))
    n[zero] = 0  # of decade X = 0, as ax is 1.0 there
    return n, X, fast | zero


def index_text(m) -> np.ndarray:
    """(len(m), w) uint8: row i holds the text of the integer 0 <= m[i] < 10^16,
    NUL-padded, in as many words as the largest needs (w = 4, 8 or 16)."""
    m = np.asarray(m, dtype=np.int64)
    idx = np.empty((4, m.size), dtype=np.int32)
    _integer(m, idx)
    top = np.max(m, initial=0)
    return _WORDS.take(idx[3 - (top >= 10 ** 4) - 2 * (top >= 10 ** 8):].T).view(np.uint8)


def text(cells) -> bytes:
    """Rows of cells side by side, every NUL dropped.  A cell is an (n, w)
    uint8 array, or bytes that every row holds there."""
    n = next(len(c) for c in cells if isinstance(c, np.ndarray))
    parts = [np.broadcast_to(np.frombuffer(c, np.uint8), (n, len(c)))
             if isinstance(c, bytes) else c for c in cells]
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")
