"""Low-level directed-rounding kernels on (lo, hi) float64 arrays.

Hardware rounding-mode control is not portably available from Python, so
every potentially inexact operation widens its round-to-nearest result
outward by one ulp.  Pairwise additions and subtractions use the 2Sum
error-free transformation to skip the widening when the float result is
exact, which preserves exact zeros.  Reductions of four or more terms
(``isum``) instead take one float sum per endpoint and pad it by an
a-priori bound on its rounding error, valid for any summation order;
sums of three or fewer terms stay 2Sum chains (``stack_chain``).
``imulsum`` fuses an elementwise product with such a reduction over the
last axis (every Cauchy product and matrix product of the package): its
terms are the unwidened float products, and one pad covers their rounding
and the summation's.  The padded sums lay out the terms' magnitudes beside
the terms of both endpoints, [|t|; t], so one reduction gives all four
sums, and one pad and one outward rounding serve both endpoints;
``imulsum`` returns the (lo, hi) stack, and the ``stack_`` kernels take and
return such stacks.  Because numpy
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
# for about 1 us per call; short sums are stack_add chains, silenced there.
# An overflowing product (vmul, vsqr) is a sound infinite endpoint too.
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


def stack_chain(t):
    """The sums over the last axis of the (lo, hi) stack ``t``, added left
    to right by :func:`stack_add` (so bit for bit the :func:`vadd` chain);
    an empty sum is an exact zero."""
    s = t[..., 0] if t.shape[-1] else np.zeros(t.shape[:-1])
    for j in range(1, t.shape[-1]):
        s = stack_add(s, t[..., j])
    return s


@_QUIET_2SUM
def vsub(alo, ahi, blo, bhi):
    return _add_down(alo, -bhi), _add_up(ahi, -blo)


@_QUIET_2SUM
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


@_QUIET_2SUM
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


def _padded_finish(r, c: float, fallback):
    """The padded sums of the (lo, hi) terms from ``r = [a; s]``, their
    reduced magnitude sums and float sums: ``s`` padded by ``up(c * a)``
    and rounded outward, as :func:`imulsum` describes, written into ``r``.
    Entries with a non-finite endpoint take those of ``fallback()``."""
    a, s = r[:2], r[2:]
    d = s.ndim - 1
    e = np.multiply(a, c * _SIGN[d])
    np.nextafter(e, _OUTWARD[d], out=e)
    np.add(s, e, out=e)
    np.nextafter(e, _OUTWARD[d], out=s, where=a != 0)
    if a.sum() < 1e300:
        return s
    ok = np.isfinite(s).all(axis=0)
    return s if ok.all() else np.where(ok, s, fallback())


def _bound_terms(n: int, kernel: str):
    if n >= 2 ** 21:
        raise _error(f"{kernel} error bound holds for fewer than 2^21 terms")


def isum(lo, hi, axis):
    """Interval sum reduction over ``axis`` (an int or a tuple of ints).

    Up to three terms are added left to right by :func:`stack_chain` (2Sum,
    exact sums stay unwidened).  For n >= 4 terms each endpoint is one float
    sum ``s = fl(sum x)`` padded by ``e = up(c * fl(sum |x|))`` with
    ``c = (n-1) 2^-53 (1 + 2^-30)``, then rounded outward once more, by the
    finish of :func:`imulsum`.

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
    axes = tuple(a % lo.ndim for a in (axis if np.iterable(axis) else (axis,)))
    n = math.prod(lo.shape[a] for a in axes)
    if n <= 3:
        return stack_chain(_terms_last(np.array((lo, hi)), axes, n))
    _bound_terms(n, "isum")
    return _isum_padded(lo, hi, axes, n)


def _terms_last(t, axes, n: int):
    """The (lo, hi) stack ``t`` with the summed ``axes`` of its endpoints
    merged into its last axis, the first of them outermost."""
    k = len(axes)
    t = np.moveaxis(t, [a + 1 for a in axes], range(-k, 0))
    return t.reshape(t.shape[:t.ndim - k] + (n,))


@_QUIET_2SUM
def _isum_padded(lo, hi, axes, n: int):
    w = np.empty((4, *lo.shape))
    w[2], w[3] = lo, hi
    np.abs(w[2:], out=w[:2])
    r = np.add.reduce(w, axis=tuple(a + 1 for a in axes))
    return _padded_finish(r, (n - 1) * 2.0 ** -53 * (1.0 + 2.0 ** -30),
                          lambda: stack_chain(_terms_last(w[2:], axes, n)))


def is_scaled(*arrays) -> bool:
    """True when every nonzero entry of the arrays is at least 2^-511 in
    magnitude, so that no product of two entries underflows: the
    precondition of the fused path of :func:`imulsum`."""
    x = np.abs(np.concatenate(arrays, axis=None))
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
    endpoints, one ``np.minimum.reduce`` (``np.maximum.reduce``) over them,
    with no per-product widening and no zero masks.  One workspace holds
    the products, then ``[|t|; t]`` for both endpoints, so one reduction
    gives the magnitude sums ``a = fl(sum |t|)`` and the float sums
    ``s = fl(sum t)``.  Each endpoint is ``s`` padded by ``e = up(c * a)``
    with ``c = n 2^-53 (1 + 2^-30)``, formed as one product
    ``a * (c * sign)`` (the negation for lo is exact) and one ``nextafter``
    away from zero, then rounded outward by one ``nextafter`` toward -inf
    for lo and +inf for hi, where ``a != 0``.  This is Rump's a-priori
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
    least 2^-1022), so the sum ``s`` is exact and structural zeros stay 0.

    For n <= 3 terms the result is the :func:`stack_chain` of the
    :func:`vmul` products, bit-identical to ``isum(*vmul(a, b), -1)``.
    That is the result where an operand may underflow, and at entries whose
    fused result is not finite; a sum of ``a`` below 1e300 shows that every
    result is finite, and only otherwise is each entry checked.
    ``scaled=True`` is the caller's promise that the operands meet the
    precondition, which skips the scan; a caller that checks only after the
    call must discard the result when the check fails.
    """
    n = max(alo.shape[-1], blo.shape[-1])
    if n <= 3:
        return stack_chain(np.array(vmul(alo, ahi, blo, bhi)))
    return _imulsum_long(alo, ahi, blo, bhi, n, scaled)


@_QUIET_2SUM
def _imulsum_long(alo, ahi, blo, bhi, n: int, scaled: bool):
    def fallback():
        return isum(*vmul(alo, ahi, blo, bhi), -1)

    if not (scaled or is_scaled(alo, ahi, blo, bhi)):
        return fallback()
    _bound_terms(n, "imulsum")
    # the products, then [|t|; t] in rows 2-5: one allocation per call keeps
    # the heap from being trimmed and faulted back in from call to call
    w = np.empty((6, *np.broadcast(alo, blo).shape))
    np.multiply(alo, blo, out=w[0])
    np.multiply(alo, bhi, out=w[1])
    np.multiply(ahi, blo, out=w[2])
    np.multiply(ahi, bhi, out=w[3])
    np.minimum.reduce(w[:4], axis=0, out=w[4])
    np.maximum.reduce(w[:4], axis=0, out=w[5])
    np.abs(w[4:], out=w[2:4])
    return _padded_finish(np.add.reduce(w[2:], axis=-1),
                          n * 2.0 ** -53 * (1.0 + 2.0 ** -30), fallback)


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
