"""Low-level directed-rounding kernels on (lo, hi) float64 arrays.

Hardware rounding-mode control is not portably available from Python, so
every potentially inexact operation widens its round-to-nearest result
outward by one ulp.  Pairwise additions and subtractions use the 2Sum
error-free transformation to skip the widening when the float result is
exact, which preserves exact zeros.  Reductions of four or more terms
(``isum``) instead take one float sum per endpoint and pad it by an
a-priori bound on its rounding error, valid for any summation order;
sums of three or fewer terms stay 2Sum chains.  ``imulsum`` fuses an
elementwise product with such a reduction over the last axis (every Cauchy
product and matrix product of the package): its terms are the unwidened
float products, and one pad covers their rounding and the summation's.
The padded sums stack their two endpoints, so one reduction, one pad and
one outward rounding serve both; ``imulsum`` returns that (lo, hi) stack,
and the ``stack_`` kernels take and return such stacks.  Because numpy
chooses the summation order, the last bits of a long sum may differ
between numpy builds or CPUs; every result still encloses the exact sum.

All kernels operate elementwise on numpy arrays (or scalars) and assume
finite inputs; callers enforce the bounded-interval invariant.  An
overflowing sum or product gives an infinite endpoint, never one on the
wrong side of the exact result.
"""

from __future__ import annotations

import math

import numpy as np

_INF = np.inf
_TINY = 2.0 ** -1022  # smallest positive normal float64
# nonzero factors at least this large have normal or zero products
_SCALE_MIN = 2.0 ** -511


def _error(msg: str):
    """The package's IntervalError; imported here on use because
    ``intervals`` imports this module."""
    from .intervals import IntervalError

    return IntervalError(msg)


def _down(x):
    return np.nextafter(x, -_INF)


def _up(x):
    return np.nextafter(x, _INF)


# per-endpoint signs and rounding directions of a (lo, hi) stack, shaped to
# broadcast against a stacked result with d axes (the endpoint axis first)
_SIGN = [np.array([-1.0, 1.0]).reshape((2,) + (1,) * (d - 1)) for d in range(1, 17)]
_OUTWARD = [np.array([-_INF, _INF]).reshape((2,) + (1,) * (d - 1)) for d in range(1, 17)]


def _two_sum(a, b):
    """The float sum s = fl(a + b) and its rounding error (a + b) - s,
    exact by Knuth's 2Sum; the error is NaN where the sum overflows."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _add_down(a, b):
    """Lower bound of a+b: exact when representable, else one ulp down.

    When the sum overflows, err is NaN and the step down turns +inf into
    the largest finite float (and leaves -inf, a sound lower bound).
    """
    s, err = _two_sum(a, b)
    return np.where(err >= 0, s, _down(s))


def _add_up(a, b):
    s, err = _two_sum(a, b)
    return np.where(err <= 0, s, _up(s))


# An overflowing 2Sum yields inf and NaN intermediates by design and its
# result is still sound, so the callers of _add_down/_add_up silence numpy's
# warnings about them (one errstate per pair of endpoints).  The padded sums
# of isum and imulsum (four or more terms) overflow to inf the same way before
# they fall back to the 2Sum chain, so those paths are silenced as a whole,
# for about 1 us per call; short sums are vadd chains, silenced there.
_QUIET_2SUM = np.errstate(over="ignore", invalid="ignore")


@_QUIET_2SUM
def vadd(alo, ahi, blo, bhi):
    return _add_down(alo, blo), _add_up(ahi, bhi)


@_QUIET_2SUM
def stack_add(a, b):
    """:func:`vadd` of two (lo, hi) stacks, the endpoints on axis 0 (as
    :func:`imulsum` returns them): the stack of the sums, by one 2Sum for
    both endpoints, each endpoint bit-identical to :func:`vadd`'s."""
    s, err = _two_sum(a, b)
    d = s.ndim - 1
    return np.where(_SIGN[d] * err <= 0, s, np.nextafter(s, _OUTWARD[d]))


@_QUIET_2SUM
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


def stack_divint(d: int, x):
    """x / d for a (lo, hi) stack x (the endpoints on axis 0) and a
    positive integer d below 2^53, so exact as a float.

    Each endpoint is the correctly rounded quotient stepped outward by one
    ulp, which encloses x / d itself: ``vscale(1.0 / d, ...)`` encloses
    fl(1/d) x instead, which misses x / d when fl(1/d) is off by more than
    half an ulp (d = 49: 71.46976991543784 / 49 lies above its upper
    endpoint).  Exact zeros stay exact, and a power-of-two d is exact
    unless a quotient is subnormal, as in :func:`vscale`."""
    q = x / d
    step = x != 0
    if d & (d - 1) == 0:
        step &= np.abs(q) < _TINY
    return np.where(step, np.nextafter(q, _OUTWARD[q.ndim - 1]), q)


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


def _ipow(memo: dict, n: int):
    """Enclosure of x ** n (n >= 1), elementwise, by square and multiply: the
    square of x ** (n // 2), times x for odd n.  ``memo`` maps an exponent
    to its (lo, hi) arrays, holds ``x ** 1`` and gains every power formed.
    An odd power is monotone, so an exactly-0 endpoint of x stays an
    exactly-0 endpoint of x ** n, which the outward step of vmul would
    move to a subnormal."""
    if n not in memo:
        lo, hi = vsqr(*_ipow(memo, n // 2))
        if n % 2:
            xlo, xhi = memo[1]
            lo, hi = vmul(lo, hi, xlo, xhi)
            lo = np.where(xlo == 0.0, 0.0, lo)
            hi = np.where(xhi == 0.0, 0.0, hi)
        memo[n] = lo, hi
    return memo[n]


def vsqrt(alo, ahi):
    """Elementwise sqrt enclosure; requires alo >= 0."""
    if np.any(alo < 0):
        raise _error("interval sqrt of a negative lower endpoint")
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


def _axes(ndim: int, axis) -> tuple:
    if isinstance(axis, (int, np.integer)):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _padded_sum(t, axes, c):
    """The (lo, hi) terms stacked on axis 0 of ``t``, summed over ``axes``:
    one float sum per endpoint, padded outward by ``up(c * fl(sum |x|))``
    and rounded outward once more, by one reduction, one pad and one
    ``nextafter`` for both endpoints; the float sum is kept where every
    term is zero.  Returns the (2, ...) stack of the results; ``t`` is
    overwritten."""
    s = np.add.reduce(t, axis=axes)
    a = np.add.reduce(np.abs(t, out=t), axis=axes)
    d = s.ndim - 1
    r = np.nextafter(s + _SIGN[d] * _up(c * a), _OUTWARD[d])
    return np.where(a == 0, s, r)


def _where_finite(r, fallback):
    """Keep the entries of the (lo, hi) stack ``r`` where both endpoints are
    finite; elsewhere take the (lo, hi) pair that ``fallback()`` returns."""
    ok = np.isfinite(r)
    if ok.all():
        return r
    ok = ok.all(axis=0)
    return np.where(ok, r, np.array(fallback()))


def _bound_terms(n: int, kernel: str):
    if n >= 2 ** 21:
        raise _error(f"{kernel} error bound holds for fewer than 2^21 terms")


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
    axes = _axes(lo.ndim, axis)
    n = math.prod(lo.shape[a] for a in axes)
    if n == 0:
        z = np.zeros(tuple(d for i, d in enumerate(lo.shape) if i not in axes))
        return z, z.copy()
    if n <= 3:
        return _chain(lo, hi, axes)
    _bound_terms(n, "isum")
    return _isum_padded(lo, hi, axes, n)


@_QUIET_2SUM
def _isum_padded(lo, hi, axes, n: int):
    r = _padded_sum(np.array((lo, hi)), tuple(a + 1 for a in axes),
                    (n - 1) * 2.0 ** -53 * (1.0 + 2.0 ** -30))
    return _where_finite(r, lambda: _chain(lo, hi, axes))


def is_scaled(*arrays) -> bool:
    """True when every nonzero entry of the arrays is at least 2^-511 in
    magnitude, so that no product of two entries underflows: the
    precondition of the fused path of :func:`imulsum`."""
    x = np.abs(np.concatenate([np.ravel(a) for a in arrays]))
    return not ((x < _SCALE_MIN) & (x != 0)).any()


def imulsum(alo, ahi, blo, bhi, scaled: bool = False):
    """Enclosure of the sum over the last axis of the elementwise interval
    products a*b; as a set it is what ``isum(*vmul(a, b), -1)`` encloses.

    The operands are float arrays that broadcast against each other, and
    ``alo``/``ahi`` (``blo``/``bhi``) share a shape.  The result is the
    (2, ...) stack of the (lo, hi) sums, so ``lo, hi = imulsum(...)``
    unpacks it.  The reduced axis is the last one because that is the
    contiguous one: a caller that lays out its operands with the summed
    indices last, merged into one axis, pays one reduction over contiguous
    memory.

    For n >= 4 terms whose operands meet the scaling precondition (every
    nonzero operand entry at least 2^-511 in magnitude, :func:`is_scaled`),
    the terms are ``t = min`` (``max``) of the four float products of the
    endpoints, with no per-product widening and no zero masks.  The two
    endpoints' terms are stacked, so one reduction gives both float sums
    ``s = fl(sum t)``, one more both magnitude sums ``a = fl(sum |t|)``,
    and each endpoint is ``s`` padded by ``e = up(c * a)`` with
    ``c = n 2^-53 (1 + 2^-30)`` (``s - e`` for lo, ``s + e`` for hi; the
    negation is exact), then rounded outward by one ``nextafter`` whose
    direction is -inf for lo and +inf for hi.  This is Rump's a-priori
    summation bound (BIT 39, 1999) extended by one rounding per product.

    Why ``e`` bounds the distance from ``s`` to the exact endpoint
    ``sum m``, where ``m`` is the exact min (max) of the four exact
    endpoint products, so that the interval product is ``[m_lo, m_hi]``:

    * Rounding is monotone, so ``t = min_j fl(p_j) = fl(min_j p_j) = fl(m)``.
      Under the precondition every exact product is 0 or at least 2^-1022
      in magnitude, so none underflows and ``|t - m| <= u |t|``,
      ``u = 2^-53`` (``fl(x) = x / (1 + d)`` with ``|d| <= u``); summed,
      ``|sum t - sum m| <= u sum |t|``.
    * As in :func:`isum`, ``|s - sum t| <= g sum |t|`` with
      ``g = (n-1)u / (1 - (n-1)u)`` for any summation order, and
      ``a = fl(sum |t|) >= (1 - g) sum |t|``.
    * Together ``|s - sum m| <= (u + g) / (1 - g) * a
      <= n u / (1 - 2(n-1)u) * a <= c * a`` while ``n < 2^21``; ``c`` is
      exact in floats and the step up after the rounded product gives
      ``e >= c * a``.
    * The float difference ``fl(s - e)`` may lie above ``s - e`` by one
      rounding, and ``nextafter(fl(x), -inf) <= x`` for every finite ``x``
      (rounding to nearest never passes the neighbouring float), so the
      final step toward -inf gives a lower bound; likewise toward +inf for
      hi.  The stacked evaluation does the same float operations on each
      endpoint as two separate ones would, so its results are bit-identical
      to theirs.

    Where ``a == 0`` every term is exactly 0 (a nonzero product would be at
    least 2^-1022), so the sum is exact and structural zeros stay 0.

    The result is ``isum(*vmul(a, b), -1)`` instead for n <= 3 terms (so
    short sums are bit-identical to it), where an operand may underflow,
    and at entries whose fused result is not finite (``_where_finite``).
    ``scaled=True`` is the caller's promise that the operands meet the
    precondition, which skips the scan; a caller that checks only after the
    call must discard the result when the check fails.
    """
    n = max(alo.shape[-1], blo.shape[-1])
    if n <= 3:
        return np.array(isum(*vmul(alo, ahi, blo, bhi), -1))
    return _imulsum_long(alo, ahi, blo, bhi, n, scaled)


@_QUIET_2SUM
def _imulsum_long(alo, ahi, blo, bhi, n: int, scaled: bool):
    def fallback():
        return isum(*vmul(alo, ahi, blo, bhi), -1)

    if not (scaled or is_scaled(alo, ahi, blo, bhi)):
        return np.array(fallback())
    _bound_terms(n, "imulsum")
    # the four endpoint products and the stacked terms share one workspace:
    # one allocation per call instead of five keeps the heap from being
    # trimmed and faulted back in from call to call
    w = np.empty((6, *np.broadcast_shapes(alo.shape, blo.shape)))
    p1, p2, p3, p4, t = w[0], w[1], w[2], w[3], w[4:]
    np.multiply(alo, blo, out=p1)
    np.multiply(alo, bhi, out=p2)
    np.multiply(ahi, blo, out=p3)
    np.multiply(ahi, bhi, out=p4)
    np.minimum(p1, p2, out=t[0])
    np.maximum(p1, p2, out=t[1])
    np.minimum(t[0], np.minimum(p3, p4, out=p1), out=t[0])
    np.maximum(t[1], np.maximum(p3, p4, out=p2), out=t[1])
    r = _padded_sum(t, -1, n * 2.0 ** -53 * (1.0 + 2.0 ** -30))
    return _where_finite(r, fallback)


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
    rlo, rhi = imulsum(a_lo[:, None, :], a_hi[:, None, :], b_lo.T[None], b_hi.T[None])
    if vec:
        return rlo[:, 0], rhi[:, 0]
    return rlo, rhi


@_QUIET_2SUM
def widen_abs(lo, hi, eps):
    """Pad both endpoints outward by an absolute amount (rounded outward)."""
    return _add_down(lo, -eps), _add_up(hi, eps)
