"""`repr` of many floats at once, for the run log's CSV files.

`reprs(values)` equals `[repr(v).encode() for v in values]`, with `b""` for
NaN.  A value with 1e-3 <= |v| < 1e15 gets Python's shortest round-trip
digits (as in Ryu: Adams, PLDI 2018) from integer arithmetic on whole
arrays; any other value, and a tie between two shortest candidates, goes
through `repr`.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

# Values per pass, at about 200 bytes of scratch arrays each.
_BATCH = 1400

_U = np.uint64

# Offsets, in the four-digit table, of the variants without trailing zeros:
# for three fraction groups and, last, for the group with the point.
_TRAIL = np.array([[10000], [10000], [10000], [1000]], dtype=np.uint64)


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables, built on first use.

    Per binade of the domain, indexed by its biased exponent less 1013, with
    10**j scaling the binade into [10**17.1, 2 * 10**18.1): the shift
    t = 1077 - e - j, at least 2, and 2**t - 1; 5**j and 2 * 5**j + 2**t - 1;
    4 * 5**j * 2**(1011 - e), which turns |x| into the float of
    4m * 5**j / 2**64 for the significand m; 10**i and j - i for
    i = min(j, 19), and the factor that turns the fraction times 10**j,
    shifted right by j - i, into the fraction times 10**19; 17 - j.  `quads`
    holds the ASCII of each four-digit group as a little-endian uint32: as
    it is, and with trailing zeros as NUL bytes; then of each group below
    1000 with the point for its leading "0", as it is and with at least one
    digit kept.
    """
    e = np.arange(1013, 1073)
    j = np.ceil(17.1 - (e - 1023) * np.log10(2)).astype(np.int64)
    t = (1077 - e - j).astype(np.uint64)
    mask = (_U(1) << t) - _U(1)
    pow5 = np.array([5**k for k in range(22)], dtype=np.uint64)[j]
    pow10 = _U(10) ** np.arange(20, dtype=np.uint64)
    i = np.minimum(j, 19)
    # 1 / 5**k modulo 2**64, which divides exact multiples of 5**k.
    inverse5 = np.array([pow(5**k, -1, 2**64) for k in range(3)], dtype=np.uint64)
    g = np.arange(10000, dtype=np.uint32)
    full = np.zeros_like(g)
    trail = np.zeros_like(g)
    for k in range(4):
        digit = g // np.uint32(10 ** (3 - k)) % np.uint32(10) + np.uint32(48)
        full |= digit << np.uint32(8 * k)
        trail |= np.where(g % np.uint32(10 ** (4 - k)) != 0, digit, np.uint32(0)) << np.uint32(8 * k)
    dotted = [quads[:1000] & np.uint32(0xFFFFFF00) | np.uint32(point) for quads, point in ((full, 0x2E), (trail, 0x302E))]
    return SimpleNamespace(
        shift=t, mask=mask, pow5=pow5, below=2 * pow5 + mask, scale=np.ldexp(4.0 * pow5, 1011 - e),
        int_pow10=pow10[i], drop=(j - i).astype(np.uint64),
        frac_mul=np.where(j <= 19, pow10[19 - i], inverse5[j - i]), digits17=17 - j,
        quads=np.concatenate([full, trail, *dotted]),
    )


def reprs(values: np.ndarray) -> list[bytes]:
    """`repr(v).encode()` for each float64 `v`, and `b""` for NaN."""
    x = np.asarray(values, dtype=np.float64).ravel()
    out: list[bytes] = []
    for part in np.array_split(x, max(1, -(-len(x) // _BATCH))):
        out += _reprs(part)
    return out


def _reprs(x: np.ndarray) -> list[bytes]:
    a = np.abs(x)
    inside = (a >= 1e-3) & (a < 1e15)
    a = np.where(inside, a, 1.5)  # keeps every table lookup in range
    e = (a.view(np.int64) >> 52) - 1013
    n, tie = _shortest(a, e)
    inside &= ~tie
    # The text starts at the sign or at the integer part's first digit.
    neg = np.signbit(x)
    lead = 15 - np.maximum(_tables().digits17[e] + (n >= _U(10**18)), 0) - neg
    # A row is 40 bytes: the integer part's 16 digits, the point and the
    # fraction's 19 digits, then NUL bytes, which `tolist` drops.
    rows = np.empty((len(x), 10), dtype=np.uint32)
    np.take(_tables().quads, _groups(a, e, n).view(np.int64), out=rows.T[::-1])
    neg = np.flatnonzero(neg)
    rows.view(np.uint8)[neg, lead[neg]] = ord("-")
    nan = np.isnan(x)
    lead[nan] = 40  # an empty cell
    out = np.strings.slice(rows.view("S40")[:, 0], lead, 40).tolist()
    for i in np.flatnonzero(~(inside | nan)).tolist():
        out[i] = repr(float(x[i])).encode()
    return out


def _shortest(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**j rounded to the shortest digits that read back as a, and
    where two such numbers were equally near."""
    tables = _tables()
    t, p = tables.shift[e], tables.pow5[e]
    bits = a.view(np.uint64)
    # 4m * 5**j / 2**t = |x| * 10**j: the low 64 bits of 4m * 5**j wrap
    # exactly, and the float product, within 2**51 of it, gives the rest.
    low = ((bits & _U(2**52 - 1) | _U(2**52)) << _U(2)) * p
    v = np.rint(a * tables.scale[e] - low * 2.0**-64).astype(np.uint64) << (_U(64) - t)
    v |= low >> t
    rem = low & tables.mask[e]
    # v = floor(|x| * 10**j).  The rounding interval runs from (4m - 2) to
    # (4m + 2) times 5**j / 2**t; its bounds are not integers, as t >= 2, so
    # it does not matter whether they belong to it.  Below a power of two it
    # reaches only 4m - 1, but such a value has at most 15 significant digits
    # here, so |x| * 10**j is itself the one multiple of 1000 in both.
    upper = v + ((rem + _U(2) * p) >> t)
    lower = v - ((tables.below[e] - rem) >> t)
    # The bounds lie 14 to 560 apart: a multiple of 10 lies between them and
    # of 1000 at most one.  The largest power of ten q with a multiple inside
    # gives the shortest digits, and the nearest multiple of q to |x| * 10**j
    # lies inside too, the interval being symmetric.  A tie goes to `repr`.
    q = np.where(upper // _U(100) > lower // _U(100), _U(100), _U(10))
    q[upper // _U(1000) > lower // _U(1000)] = 1000
    v += q >> _U(1)
    n = v // q * q
    return n, (n == v) & (rem == 0)


def _groups(a: np.ndarray, e: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Indices into the four-digit table, last group first: padding; the
    fraction's 19 digits after a "0" that becomes the point; the integer
    part's 16 digits.  From the fraction's last nonzero group on, groups
    drop trailing zeros."""
    tables = _tables()
    # The integer part is that of |x|: a value with the digits of an integer
    # above |x| would round to that integer, not to |x|.  When j > 19 the
    # fraction times 10**j is a multiple of 10**(j - 19).
    whole = a.astype(np.uint64)
    frac = ((n - whole * tables.int_pow10[e]) >> tables.drop[e]) * tables.frac_mul[e]
    eights = np.empty((4, len(a)), dtype=np.uint64)
    groups = np.empty((10, len(a)), dtype=np.uint64)
    np.floor_divide(whole, _U(10**8), out=eights[3])
    np.subtract(whole, eights[3] * _U(10**8), out=eights[2])
    np.floor_divide(frac, _U(10**12), out=eights[1])
    frac -= eights[1] * _U(10**12)
    np.floor_divide(frac, _U(10**4), out=eights[0])
    np.subtract(frac, eights[0] * _U(10**4), out=groups[1])
    pairs = groups[2:].reshape(4, 2, -1)
    np.floor_divide(eights, _U(10**4), out=pairs[:, 1])
    np.subtract(eights, pairs[:, 1] * _U(10**4), out=pairs[:, 0])
    later = eights  # later[r]: any nonzero among groups[1 : r + 2]
    later[0] = groups[1]
    for r in range(1, 4):
        np.bitwise_or(later[r - 1], groups[r + 1], out=later[r])
    np.add(groups[2:6], _TRAIL, out=groups[2:6], where=later == 0)
    groups[5] += _U(20000)
    groups[1] += _U(10000)
    groups[0] = 10000
    return groups
