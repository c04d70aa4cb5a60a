"""CSV cell text of numpy columns, a block of rows at a time.

`cells(values)` gives the text of each cell of a 1-D column as one column
of a NUL-padded `uint8` matrix of shape (width, rows): byte i of every
cell is one contiguous row, so the numpy loops that build it run over
the rows.  NUL bytes may sit anywhere in a cell and are not part of its
text, so a writer can place these matrices side by side, drop every NUL
and write what is left.  The text depends on the dtype:

* float64 cells are exactly `repr`'s text;
* bool cells are 1 or 0;
* integer cells are the decimal, or empty where negative (k's -1: no
  lock integer);
* bytes (`S`) cells are text formatted earlier.

`repr` of a float is the shortest decimal that reads back as the same
double and, of those, the nearest to it (Gay, "Correctly rounded
binary-decimal and decimal-binary conversions", 1990).  `_shortest` finds
those digits for a whole array at once.  For x with 10^16 <= y = |x| 10^k
< 10^17 and 0 <= k <= 22, 10^k is an exact double, and Dekker's
two-product (Numer. Math. 18, 1971) gives y exactly as hi + lo.  The
decimals of 15, 16 and 17 significant digits just below and just above y
are whole numbers of units, so each one's distance to y is one rounding
of an integer minus lo.  A decimal reads back as x when that distance is
below half the spacing of the doubles next to x, an exact double in these
units.  Rounding is monotone, so comparing the rounded distance with it
gives the exact answer unless the distance rounds onto it.  repr's digits
are the nearest such decimal of the fewest digits.  The doubles below a
power of two are closer together, but no power of two in the k range has
a decimal that this changes (the tests try them all).  Distances that
round onto their bound, or onto the midpoint when both sides read back,
anything outside the k range, inf and nan go to `repr` itself, one call
per distinct value.
"""

from __future__ import annotations

import sys

import numpy as np

_POW10 = np.array([10.0**k for k in range(23)])  # each exact in float64
_K_MAX = _POW10.size - 1

_DOT, _MINUS, _PLUS, _ZERO = b".-+0"


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _two_product(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo == a 10^k exactly and hi the rounded product."""
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    lo = a_lo * b_lo - (((hi - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    return hi, lo


def _outside(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where y = hi + lo lies below 10^16 and where at or above 10^17."""
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    return low, high


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of positive finite a, where this kernel can find them.

    Returns (c, decpt, ok): where ok is True, a's shortest round-trip
    digits are those of the 17-digit integer c less its trailing zeros,
    and a = 0.ddd... 10^decpt.
    """
    # k puts y = a 10^k in [10^16, 10^17); log10 can be one off either way
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    ok = (k >= 0) & (k <= _K_MAX)
    if not ok.all():
        a = np.where(ok, a, 1.0)
        k[~ok] = 16
    hi, lo = _two_product(a, k)
    low, high = _outside(hi, lo)
    redo = np.flatnonzero(low | high)
    if redo.size:
        k[redo] += low[redo].astype(np.int64) - high[redo]
        moved = (k[redo] >= 0) & (k[redo] <= _K_MAX)
        ok[redo] &= moved
        a = a.copy()
        a[redo[~moved]] = 1.0
        k[redo[~moved]] = 16
        hi[redo], lo[redo] = _two_product(a[redo], k[redo])
        low, high = _outside(hi[redo], lo[redo])
        ok[redo] &= ~(low | high)  # two steps off: give it to repr
    # y = hi + lo = f + r with f = hi + floor(lo) an integer, 0 <= r < 1
    lo_floor = np.floor(lo)
    f = hi.astype(np.int64) + lo_floor.astype(np.int64)
    # f's last two digits, and its last digit
    t100 = (f - f // 100 * 100).astype(np.float64)
    t10 = t100 - np.floor(t100 / 10.0) * 10.0
    # half the spacing of the doubles next to a, in units of y
    half = np.ldexp(_POW10[k], np.frexp(a)[1] - 54)

    # 17, 16 and 15 digits; a hit with fewer digits replaces one with more
    for step, t in ((1.0, 0.0), (10.0, t10), (100.0, t100)):
        below = lo_floor - t  # the decimal at or below y, less hi
        d_below = lo - below
        d_above = (below + step) - lo
        fit_below = d_below < half
        fit_above = d_above < half
        near = (d_below == half) | (d_above == half)
        if step < 100.0:  # both sides fit only 1 or 10 units apart
            both = fit_below & fit_above
            near |= both & (d_below == 0.5 * step)
            up = fit_above & ~(both & (d_below < 0.5 * step))
        else:
            up = fit_above
        hit = fit_below | fit_above
        if step == 1.0:
            found, tie, offset = hit, near, up - t
        else:
            found |= hit
            tie = near | (~hit & tie)
            offset = np.where(hit, up * step - t, offset)
    ok &= found & ~tie
    c = f + offset.astype(np.int64)
    decpt = 17 - k
    carried = c == 10**17
    c[carried] = 10**16
    decpt += carried
    return c, decpt, ok


def _digits(c: np.ndarray) -> np.ndarray:
    """ASCII digits of 0 <= c < 10^17 as a (17, n) uint8 matrix.

    c is split into 8-digit, then 4-digit, then 2-digit parts, each in
    the narrowest unsigned type that holds it.
    """
    out = np.empty((17, c.size), np.uint8)
    first = c // 10**16
    out[0] = first
    rest = c - first * 10**16
    high = rest // 10**8
    for row, eight in ((1, high), (9, rest - high * 10**8)):
        eight = eight.astype(np.uint32)
        hi4 = eight // np.uint32(10**4)
        for row4, four in ((row, hi4), (row + 4, eight - hi4 * np.uint32(10**4))):
            four = four.astype(np.uint16)
            hi2 = four // np.uint16(100)
            for row2, two in ((row4, hi2), (row4 + 2, four - hi2 * np.uint16(100))):
                two = two.astype(np.uint8)
                tens = two // np.uint8(10)
                out[row2] = tens
                out[row2 + 1] = two - tens * np.uint8(10)
    out += np.uint8(_ZERO)
    return out


def _float_cells(x: np.ndarray) -> np.ndarray:
    """repr's text of each float64 of x."""
    n = x.size
    if sys.float_repr_style != "short":  # repr's digits are not the shortest
        return _fallback(x, np.arange(n), np.zeros((0, n), np.uint8))
    a = np.abs(x)
    nonzero = np.isfinite(a) & (a != 0.0)
    c, decpt, ok = _shortest(np.where(nonzero, a, 1.0))
    simple = ok & nonzero  # zeros are "0.0", the digit 0 before the point
    fallback = ~(simple | (a == 0.0))
    c *= simple
    decpt = np.where(simple, decpt, 1).astype(np.int8)

    digits = _digits(c)
    # significant digits: 17 less the trailing zeros, and one for zeros
    nd = np.full(n, 17, np.int8)
    seen = ~simple
    for row in range(16, 0, -1):
        seen |= digits[row] != _ZERO
        nd -= ~seen
    nd[~simple] = 1

    exponent = (decpt <= -4) | (decpt > 16)
    before = ~exponent & (decpt <= 0)  # 0.000ddd
    after = ~exponent & (decpt > 0)  # ddd.ddd, ".0" on integers
    # digits kept, and the point placed before digit `point`
    kept = np.where(after, np.maximum(nd, decpt + 1), nd).astype(np.int8)
    point = np.where(after, decpt, np.where(exponent, 1, 18)).astype(np.int8)
    dot = (after | (exponent & (nd > 1))) * np.uint8(_DOT)

    width = int(kept.max(initial=1)) + 1
    rows = np.arange(width, dtype=np.int8)[:, None]
    padded = np.zeros((width + 1, n), np.uint8)  # digit j at row j + 1
    padded[1:width] = digits[: width - 1] * (rows[:-1] < kept)
    left = rows < point
    at = rows == point
    body = padded[1:] * left + padded[:-1] * ~(left | at) + dot * at

    parts = []
    sign = np.signbit(x)
    if sign.any():
        parts.append((sign * np.uint8(_MINUS))[None])
    if before.any():
        zeros = -decpt * before  # after "0."
        lead = [before * np.uint8(_ZERO), before * np.uint8(_DOT)]
        lead += [(zeros > i) * np.uint8(_ZERO) for i in range(int(zeros.max()))]
        parts.append(np.array(lead))
    parts.append(body)
    if exponent.any():
        e = (decpt - 1).astype(np.int16)  # |e| < 100 in the k range
        magnitude = np.abs(e)
        tens = magnitude // 10
        parts.append(
            exponent
            * np.array(
                [
                    np.full(n, ord("e"), np.uint8),
                    np.where(e < 0, _MINUS, _PLUS).astype(np.uint8),
                    (tens + _ZERO).astype(np.uint8),
                    (magnitude - tens * 10 + _ZERO).astype(np.uint8),
                ]
            )
        )
    out = np.concatenate(parts) if len(parts) > 1 else body
    if fallback.any():
        out = _fallback(x, np.flatnonzero(fallback), out)
    return out


def _fallback(x: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out with the cells of rows set to `repr`, one call per distinct value."""
    distinct, index = np.unique(x.view(np.uint64)[rows], return_inverse=True)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype="S")[index]
    if text.itemsize > out.shape[0]:
        out = np.concatenate([out, np.zeros((text.itemsize - out.shape[0], out.shape[1]), np.uint8)])
    out[:, rows] = 0
    out[: text.itemsize, rows] = text.view(np.uint8).reshape(rows.size, text.itemsize).T
    return out


def _int_cells(values: np.ndarray) -> np.ndarray:
    """Decimal text of each integer, empty where negative."""
    negative = values < 0
    v = (values * ~negative).astype(np.uint64)
    width = len(str(int(v.max(initial=0))))
    out = np.empty((width, v.size), np.uint8)
    for row in range(width - 1, -1, -1):
        q = v // np.uint64(10)
        digit = v - q * np.uint64(10)
        # leading zeros are dropped, as is all of a negative value
        shown = (q > 0) | (digit > 0) if row < width - 1 else ~negative
        np.multiply(digit + _ZERO, shown, out=out[row], casting="unsafe")
        v = q
    return out


def cells(values: np.ndarray) -> np.ndarray:
    """Each cell's text of a 1-D column, by its dtype, as a (width, rows) matrix."""
    kind = values.dtype.kind
    if kind == "f":
        return _float_cells(np.asarray(values, dtype=np.float64))
    if kind == "b":
        return (values.astype(np.uint8) + np.uint8(_ZERO))[None]
    if kind in "iu":
        return _int_cells(values)
    if kind == "S":
        return np.ascontiguousarray(values).view(np.uint8).reshape(values.size, values.itemsize).T
    raise TypeError(f"no cell text for dtype {values.dtype}")
