"""Low-level directed-rounding kernels on (lo, hi) float64 arrays.

Hardware rounding-mode control is not portably available from Python, so
every potentially inexact operation widens its round-to-nearest result
outward by one ulp.  Additions and subtractions use the 2Sum error-free
transformation to skip the widening when the float result is exact, which
keeps long accumulation chains (series recurrences, dot products) from
bloating and preserves exact zeros.

All kernels operate elementwise on numpy arrays (or scalars) and assume
finite inputs; callers enforce the bounded-interval invariant.
"""

from __future__ import annotations

import numpy as np

_INF = np.inf
_TINY = 2.0 ** -1022  # smallest positive normal float64


def _down(x):
    return np.nextafter(x, -_INF)


def _up(x):
    return np.nextafter(x, _INF)


def _add_down(a, b):
    """Lower bound of a+b: exact when representable, else one ulp down.

    When the sum overflows, err is NaN and the step down turns +inf into
    the largest finite float (and leaves -inf, a sound lower bound).
    """
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return np.where(err >= 0, s, _down(s))


def _add_up(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return np.where(err <= 0, s, _up(s))


def vadd(alo, ahi, blo, bhi):
    return _add_down(alo, blo), _add_up(ahi, bhi)


def vsub(alo, ahi, blo, bhi):
    return _add_down(alo, -bhi), _add_up(ahi, -blo)


def vmul(alo, ahi, blo, bhi):
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    # an exactly-zero operand gives an exactly-zero product; skip widening
    # there so structural zeros in jets stay zero
    azero = (alo == 0) & (ahi == 0)
    bzero = (blo == 0) & (bhi == 0)
    zero = azero | bzero
    return np.where(zero, 0.0, _down(lo)), np.where(zero, 0.0, _up(hi))


def vscale(c: float, alo, ahi):
    """Multiply by a point scalar; exact (no widening) for powers of two
    with normal or zero results."""
    if c == 0.0:
        z = np.zeros_like(np.asarray(alo, dtype=float))
        return z, z.copy()
    if c > 0:
        lo, hi, src_lo, src_hi = c * alo, c * ahi, alo, ahi
    else:
        lo, hi, src_lo, src_hi = c * ahi, c * alo, ahi, alo
    m, _ = np.frexp(c)
    if m == 0.5 or m == -0.5:
        # power of two: exact unless a nonzero input lands below the normal range
        lo = np.where((np.abs(lo) < _TINY) & (src_lo != 0), _down(lo), lo)
        hi = np.where((np.abs(hi) < _TINY) & (src_hi != 0), _up(hi), hi)
        return lo, hi
    return _down(lo), _up(hi)


def vdiv(alo, ahi, blo, bhi):
    """Quotient enclosure; denominator intervals must not contain zero."""
    if np.any((blo <= 0) & (bhi >= 0)):
        raise ZeroDivisionError("interval division by an interval containing zero")
    p1 = alo / blo
    p2 = alo / bhi
    p3 = ahi / blo
    p4 = ahi / bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    azero = (alo == 0) & (ahi == 0)
    return np.where(azero, 0.0, _down(lo)), np.where(azero, 0.0, _up(hi))


def vsqr(alo, ahi):
    """Elementwise enclosure of x^2 (tighter than vmul(a, a))."""
    lo_m = np.minimum(np.abs(alo), np.abs(ahi))
    hi_m = np.maximum(np.abs(alo), np.abs(ahi))
    straddle = (alo <= 0) & (ahi >= 0)
    lo = np.where(straddle, 0.0, lo_m * lo_m)
    hi = hi_m * hi_m
    zero = (alo == 0) & (ahi == 0)
    lo = np.where(zero, 0.0, np.maximum(_down(lo), 0.0))
    hi = np.where(zero, 0.0, _up(hi))
    return lo, hi


def vsqrt(alo, ahi):
    """Elementwise sqrt enclosure; requires alo >= 0."""
    if np.any(alo < 0):
        raise ValueError("interval sqrt of a negative lower endpoint")
    lo = np.maximum(_down(np.sqrt(alo)), 0.0)
    hi = _up(np.sqrt(ahi))
    zero = ahi == 0
    return np.where(alo == 0, 0.0, lo), np.where(zero, 0.0, hi)


def vhull(alo, ahi, blo, bhi):
    return np.minimum(alo, blo), np.maximum(ahi, bhi)


def vmag(alo, ahi):
    """max |x| over the interval (exact)."""
    return np.maximum(np.abs(alo), np.abs(ahi))


def vmig(alo, ahi):
    """min |x| over the interval (exact); 0 where the interval straddles 0."""
    m = np.minimum(np.abs(alo), np.abs(ahi))
    return np.where((alo <= 0) & (ahi >= 0), 0.0, m)


def isum(lo, hi, axis):
    """Interval sum reduction along one axis (pairwise tree, sound rounding)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if axis != 0:
        lo = np.moveaxis(lo, axis, 0)
        hi = np.moveaxis(hi, axis, 0)
    if lo.shape[0] == 0:
        z = np.zeros(lo.shape[1:])
        return z, z.copy()
    while lo.shape[0] > 1:
        k = lo.shape[0]
        even = k - (k % 2)
        nlo, nhi = vadd(lo[0:even:2], hi[0:even:2], lo[1:even:2], hi[1:even:2])
        if k % 2:
            nlo = np.concatenate([nlo, lo[even:]])
            nhi = np.concatenate([nhi, hi[even:]])
        lo, hi = nlo, nhi
    return lo[0], hi[0]


def idot(alo, ahi, blo, bhi):
    """Interval matrix product over the last/first axes.

    Shapes follow numpy matmul for 2-d operands: (n,k) @ (k,m) -> (n,m);
    a 1-d second operand is treated as a column vector.
    """
    a_lo = np.asarray(alo, dtype=float)
    a_hi = np.asarray(ahi, dtype=float)
    b_lo = np.asarray(blo, dtype=float)
    b_hi = np.asarray(bhi, dtype=float)
    vec = b_lo.ndim == 1
    if vec:
        b_lo = b_lo[:, None]
        b_hi = b_hi[:, None]
    plo, phi = vmul(a_lo[:, :, None], a_hi[:, :, None], b_lo[None, :, :], b_hi[None, :, :])
    rlo, rhi = isum(plo, phi, axis=1)
    if vec:
        return rlo[:, 0], rhi[:, 0]
    return rlo, rhi


def widen_abs(lo, hi, eps):
    """Pad both endpoints outward by an absolute amount (rounded outward)."""
    return _add_down(lo, -eps), _add_up(hi, eps)
