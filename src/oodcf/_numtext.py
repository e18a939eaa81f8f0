"""Exact text of numpy number columns, whole chunks of a column at a time.

`float_text` maps a float64 column to a (n, w) uint8 matrix whose rows,
once their NUL bytes are dropped, are byte for byte `repr(float(x))`;
`int_text` does the same for an integer column and `str(int(x))`. No
Python object is made per value, except for the few values the fast path
cannot decide, which take `repr` (or `str`) itself.

Shortest round-trip digits, after Grisu (Loitsch, PLDI 2010): |x| is
scaled by the exact double 10**p to N, a number of 17 integer digits, and
Dekker's product gives N = hi + lo exactly, so the integer V nearest to N
and f = N - V are exact. x's rounding interval scales to [N - hl, N + hu],
where hu is half the gap above x and hl half the gap below (half as wide
at a power of two); both are a power of two times 10**p, so exact. The
decimals that read back as x are the integers in that interval, and repr
prints the one with the most trailing zeros, the one nearest N among
those. A value goes to `repr` instead when an endpoint lies within 1e-6 of
an integer (it could be in or out), when N is a tie between two
candidates, or when repr would print an exponent (|x| < 1e-4 or |x| >=
1e16, nan, inf, 0.0, -0.0 and subnormals among them).

A row is made of 4-byte cells: a sign where any value of the column is
negative, the integer digits, the point and the fraction digits, with NUL
in each place that a value does not print, so every step works on whole
(n,) arrays of cells.
"""

from __future__ import annotations

import numpy as np

_TEN = np.array([10**k for k in range(18)])
_POW10 = np.array([float(10**k) for k in range(23)])     # exact doubles


def _cell_tables() -> tuple:
    """Each v in 0..9999 as its 4 digits at v, and at 10000 + v with its
    leading (then its trailing) zeros NUL; a sign, a point and a "0"; all
    as 4-byte cells, read as uint32. Only copies and fills make them, with
    one axis per digit place, so the import touches no other numpy code."""
    cells = np.empty((3, 10, 10, 10, 10, 4), dtype=np.uint8)
    for i in range(4):
        cells[..., i] = np.frombuffer(b"0123456789", dtype=np.uint8).reshape(
            [10 if j == i else 1 for j in range(4)])
        cells[(1,) + (0,) * (i + 1) + (..., i)] = 0  # zeros up to place i
        cells[(2, ...) + (0,) * (4 - i) + (i,)] = 0  # zeros from place i on
    leading, trailing = (cells[[0, k]].reshape(20000, 4).view(np.uint32).ravel()
                         for k in (1, 2))
    return leading, trailing, *np.frombuffer(b"-\0\0\0.\0\0\0" b"0\0\0\0", dtype=np.uint32)


_LEADING, _TRAILING, _MINUS, _DOT, _ZERO = _cell_tables()


def _groups(v: np.ndarray, n: int) -> tuple[list, list]:
    """v // 10**e for e = 4(n - 1), ..., 4, 0, and the n 4-digit groups of
    each v in [0, 10**(4n)), highest first; each division has a scalar
    divisor."""
    quotients = [v // 10**(4 * e) for e in range(n - 1, 0, -1)] + [v]
    groups = quotients[:1] + [q - higher * 10**4
                              for higher, q in zip(quotients, quotients[1:])]
    return quotients, groups


def _sign_cells(negative: np.ndarray) -> list:
    """A sign cell, where some value is negative."""
    return [np.where(negative, _MINUS, 0)] if negative.any() else []


def _integer_cells(v: np.ndarray) -> list:
    """The digits of each v in [0, 10**16), NUL for the leading zeros and
    "0" for v = 0, in as many cells as the largest v needs."""
    quotients, groups = _groups(v, 1 + int((v.max(initial=0) >= _TEN[4:16:4]).sum()))
    cells = [_LEADING[10000 + groups[0]]] + [_LEADING[g + 10000 * (higher == 0)]
                                             for higher, g in zip(quotients, groups[1:])]
    cells[-1][v == 0] = _ZERO
    return cells


def _merge(fast: np.ndarray, text: np.ndarray, slow_values) -> np.ndarray:
    """`text` on the `fast` rows and each of the str `slow_values` on the
    others, in order."""
    if fast.all():
        return text
    slow = np.array([s.encode() for s in slow_values], dtype=bytes)
    slow = slow.view(np.uint8).reshape(len(slow), slow.dtype.itemsize)
    out = np.zeros((len(fast), max(text.shape[1], slow.shape[1])), dtype=np.uint8)
    out[fast, :text.shape[1]] = text
    out[~fast, :slow.shape[1]] = slow
    return out


def _nearest(V, f, low, top, m):
    """N = V + f's nearest multiple of `m` (10 or more) in [low, top], which
    holds one, and whether N is a tie between two."""
    Q = V // m
    rem, half = V - Q * m, m // 2
    q = (Q + ((rem > half) | ((rem == half) & (f > 0)))) * m
    return np.clip(q, -(-low // m) * m, top // m * m), (rem == half) & (f == 0)


def _split(v):
    """v = high + low with each half on 26 bits (Veltkamp)."""
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


_POW10_SPLIT = np.array([_split(v) for v in _POW10.tolist()]).T


def _interval(x: np.ndarray) -> tuple:
    """For each v of `x`: whether |v| is in [1e-4, 1e16) (repr's positional
    range; no nan, inf or 0) and the ends of its rounding interval are
    safely apart from integers; there p, N = |v| * 10**p = V + f exactly,
    and the integers low..top inside the interval."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    p = 16 - np.floor(np.log10(a)).astype(np.int64)   # 0 <= p <= 20
    scale = _POW10[p]
    # Dekker's product, no FMA: hi + lo = a * scale exactly
    hi = a * scale
    (ah, al), sh, sl = _split(a), _POW10_SPLIT[0][p], _POW10_SPLIT[1][p]
    lo = ((ah * sh - hi) + ah * sl + al * sh) + al * sl
    r = np.rint(lo)
    V = hi.astype(np.int64) + r.astype(np.int64)
    f = lo - r                     # N - V, exact
    mant, exp = np.frexp(a)
    hu = np.ldexp(scale, exp - 54)  # half of a's ulp, scaled
    up, down = f + hu, f - np.where(mant == 0.5, 0.5 * hu, hu)  # the ends less V
    fast &= (np.abs(up - np.rint(up)) > 1e-6) & (np.abs(down - np.rint(down)) > 1e-6)
    return fast, p, V, f, V + np.ceil(down).astype(np.int64), V + np.floor(up).astype(np.int64)


def _shortest(x: np.ndarray) -> tuple:
    """For each v of `x`: whether the fast path decides it, and there repr's
    digits as the 17-digit C, the count K of C's trailing zeros that repr
    leaves out, and decpt, the place of C's first digit plus one."""
    fast, p, V, f, low, top = _interval(x)
    fast &= (np.abs(f) < 0.5) & (V >= _TEN[16]) & (V < _TEN[17])
    # [low, top] holds at most 24 integers; 10**k has a multiple there iff
    # top % 10**k < width, so past k = 1 only where top % 100 < width, and
    # then over top's zero digits
    width = top - low + 1
    C, tie = _nearest(V, f, low, top, 10)
    tens = top - top // 10 * 10 < width
    C = np.where(tens, C, V)
    tie &= tens
    K = tens.astype(np.int64)
    more = np.flatnonzero(top - top // 100 * 100 < width)
    if more.size:
        hundreds, zeros = top[more] // 100, np.zeros(more.size, dtype=np.int64)
        for step in (8, 4, 2, 1):  # trailing zeros of top // 100, below 16
            zeros += step * (hundreds % _TEN[zeros + step] == 0)
        K[more] = 2 + zeros
        C[more], tie[more] = _nearest(V[more], f[more], low[more], top[more], _TEN[K[more]])
    fast &= ~tie

    carry = C == _TEN[17]          # rounds up to one more digit: "1" then zeros
    C[carry] = _TEN[16]
    decpt = 17 - p + carry
    fast &= decpt <= 16            # repr prints 1e+16 and above with an exponent
    return fast, C, K, decpt


def _fraction_cells(R: np.ndarray, s: np.ndarray, places: int) -> list:
    """The first `places` of the s digits of each R < 10**s after the point,
    in cells, NUL for the trailing zeros and "0" for R = 0. The 20 places
    are F16 * 10**4 + F4 (int64 holds 18 digits)."""
    over = np.maximum(s - 16, 0)
    F16 = np.where(over == 0, R * _TEN[16 - s + over], R // _TEN[over])
    F4 = np.where(over == 0, 0, (R - R // _TEN[over] * _TEN[over]) * _TEN[4 - over])
    quotients, groups = _groups(F16, 4)
    cells = [_TRAILING[g + 10000 * ((F16 == q * 10**(12 - 4 * k)) & (F4 == 0))]
             for k, (q, g) in enumerate(zip(quotients, groups))]
    cells[0][R == 0] = _ZERO
    cells.append(_TRAILING[10000 + F4])
    return cells[:-(-places // 4)]


def float_text(x) -> np.ndarray:
    """repr(float(v)) of each v of the 1-d float column `x`, as the rows of
    a (n, w) uint8 matrix with NUL bytes to drop."""
    x = np.asarray(x, dtype=np.float64)
    fast, C, K, decpt = _shortest(x)
    C, K, decpt = C[fast], K[fast], decpt[fast]
    # C = I * 10**s + R: I before the point, and R's s digits after it
    s = 17 - decpt
    I, R = np.divmod(C, _TEN[np.minimum(s, 17)])
    places = np.maximum(np.maximum(17 - K, 1) - decpt, 1).max(initial=1)
    cells = [*_sign_cells(np.signbit(x[fast])), *_integer_cells(I),
             np.full(len(C), _DOT), *_fraction_cells(R, s, places)]
    text = np.stack(cells, axis=1).view(np.uint8)
    return _merge(fast, text, map(repr, x[~fast].tolist()))


def int_text(x) -> np.ndarray:
    """str(int(v)) of each v of the 1-d integer column `x`, as the rows of
    a (n, w) uint8 matrix with NUL bytes to drop."""
    x = np.asarray(x, dtype=np.int64)
    fast = (x > -_TEN[16]) & (x < _TEN[16])
    v = x[fast]
    text = np.stack([*_sign_cells(v < 0), *_integer_cells(np.abs(v))], axis=1).view(np.uint8)
    return _merge(fast, text, map(str, x[~fast].tolist()))
