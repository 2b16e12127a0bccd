"""Low-level directed-rounding kernels on (lo, hi) float64 arrays.

Hardware rounding-mode control is not portably available from Python, so
every potentially inexact operation widens its round-to-nearest result
outward by one ulp.  Pairwise additions and subtractions use the 2Sum
error-free transformation to skip the widening when the float result is
exact, which preserves exact zeros.  Reductions of four or more terms
(``isum``, ``idot``) instead take one float sum per endpoint and pad it by
an a-priori bound on its rounding error, valid for any summation order;
sums of three or fewer terms stay 2Sum chains.  Because numpy chooses the
summation order, the last bits of a long sum may differ between numpy
builds or CPUs; every result still encloses the exact sum.

All kernels operate elementwise on numpy arrays (or scalars) and assume
finite inputs; callers enforce the bounded-interval invariant.
"""

from __future__ import annotations

import math

import numpy as np

_INF = np.inf
_TINY = 2.0 ** -1022  # smallest positive normal float64


def _error(msg: str):
    """The package's IntervalError; imported here on use because
    ``intervals`` imports this module."""
    from .intervals import IntervalError

    return IntervalError(msg)


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
        raise _error("interval division by an interval containing zero")
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


def _chain(lo, hi, axes):
    """Left-to-right ``vadd`` chain over the terms of ``axes`` (row-major)."""
    idx = [slice(None)] * lo.ndim
    slo = shi = None
    for pos in np.ndindex(*(lo.shape[a] for a in axes)):
        for a, p in zip(axes, pos):
            idx[a] = p
        tlo, thi = lo[tuple(idx)], hi[tuple(idx)]
        slo, shi = (tlo, thi) if slo is None else vadd(slo, shi, tlo, thi)
    return slo, shi


def isum(lo, hi, axis):
    """Interval sum reduction over ``axis`` (an int or a tuple of ints).

    Up to three terms are added left to right with ``vadd`` (2Sum, exact
    sums stay unwidened).  For n >= 4 terms each endpoint is one float sum
    ``s = fl(sum x)`` padded by ``e = up(c * fl(sum |x|))`` with
    ``c = (n-1) 2^-53 (1 + 2^-30)``, then rounded outward once more.

    Why ``e`` bounds the error of ``s`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., sec. 4.2; Rump, BIT 39, 1999):

    * Any summation order (numpy's pairwise or strided reduction included)
      passes each term through at most n-1 additions, so
      ``|s - sum x| <= g * sum |x|`` with ``g = (n-1)u / (1 - (n-1)u)``,
      ``u = 2^-53``.  Addition has no underflow error (a subnormal sum is
      exact), so this holds down to zero; an overflow makes ``s`` or ``e``
      non-finite, and those entries take the chain instead.
    * The same bound on the nonnegative terms gives
      ``a = fl(sum |x|) >= (1 - g) sum |x|``, so the error is at most
      ``g / (1 - g) * a = (n-1)u / (1 - 2(n-1)u) * a <= c * a`` while
      ``n < 2^21``.
    * ``c`` is exact in floats for ``n < 2^21`` (at most 52 significant
      bits), and one step up after the rounded product gives ``e >= c * a``,
      also when ``c * a`` is subnormal.

    Where ``a == 0`` every term is zero and the exact float sum is kept.
    The chain never yields NaN and only moves an endpoint outward on
    overflow (``_add_down``/``_add_up``), so no endpoint lands on the wrong
    side of the exact sum.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if isinstance(axis, (int, np.integer)):
        axis = (axis,)
    axes = tuple(a % lo.ndim for a in axis)
    n = math.prod(lo.shape[a] for a in axes)
    if n == 0:
        z = np.zeros(tuple(d for i, d in enumerate(lo.shape) if i not in axes))
        return z, z.copy()
    if n <= 3:
        return _chain(lo, hi, axes)
    if n >= 2 ** 21:
        raise _error("isum error bound holds for fewer than 2^21 terms")
    c = (n - 1) * 2.0 ** -53 * (1.0 + 2.0 ** -30)
    slo = np.add.reduce(lo, axis=axes)
    shi = np.add.reduce(hi, axis=axes)
    alo = np.add.reduce(np.abs(lo), axis=axes)
    ahi = np.add.reduce(np.abs(hi), axis=axes)
    rlo = np.where(alo == 0, slo, _down(slo - _up(c * alo)))
    rhi = np.where(ahi == 0, shi, _up(shi + _up(c * ahi)))
    # one test for the common case: the sum is finite only if all four are
    if not np.isfinite(slo + shi + rlo + rhi).all():
        ok = np.isfinite(slo) & np.isfinite(shi) & np.isfinite(rlo) & np.isfinite(rhi)
        clo, chi = _chain(lo, hi, axes)
        rlo = np.where(ok, rlo, clo)
        rhi = np.where(ok, rhi, chi)
    return rlo, rhi


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
