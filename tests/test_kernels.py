"""Directed-rounding kernels against exact rational arithmetic."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from splitcert import kernels as ku
from splitcert.intervals import Interval, IntervalBox, IntervalError
from splitcert.polys import PolyMap


@pytest.mark.parametrize("c, x", [(0.5, 5e-324), (0.5, 1.5e-323), (-0.5, 5e-324),
                                  (0.25, -1.5e-323), (0.5, 2.0 ** -1022)])
def test_vscale_power_of_two_underflow_contains_exact(c, x):
    # a power-of-two scale is exact only while the result stays normal
    lo, hi = ku.vscale(c, np.array([x]), np.array([x]))
    exact = Fraction(c) * Fraction(x)
    assert Fraction(float(lo[0])) <= exact <= Fraction(float(hi[0]))


def test_vscale_power_of_two_exact_results_unwidened():
    lo, hi = ku.vscale(0.5, np.array([0.0, 3.0, -5.0, 2.0 ** -1020]),
                       np.array([0.0, 5.0, -3.0, 2.0 ** -1020]))
    assert lo.tolist() == [0.0, 1.5, -2.5, 2.0 ** -1021]
    assert hi.tolist() == [0.0, 2.5, -1.5, 2.0 ** -1021]
    lo, hi = ku.vscale(-4.0, np.array([1.0]), np.array([2.0]))
    assert (lo[0], hi[0]) == (-8.0, -4.0)



def test_stack_divint_encloses_the_exact_quotient():
    # thin operands of every magnitude, subnormals included, divided by
    # d = 2..200; vscale(1/d) encloses fl(1/d) x, which misses x / d
    rng = np.random.default_rng(5)
    x = np.concatenate([[71.46976991543784, 1.0, -3.0, 0.1, 5e-324, -1.5e-323,
                         2.0 ** -1022, 1.7e308, -1.7e308],
                        rng.uniform(1, 2, 40) * 2.0 ** rng.integers(-1070, 1020, 40)
                        * rng.choice([-1.0, 1.0], 40)])
    for d in range(2, 201):
        lo, hi = ku.stack_divint(d, np.array([x, x]))
        for a, b, c in zip(lo.tolist(), hi.tolist(), x.tolist()):
            assert Fraction(a) <= Fraction(c) / d <= Fraction(b), (c, d)
    a = np.array([71.46976991543784])
    _, hi = ku.vscale(1.0 / 49, a, a)
    assert Fraction(float(hi[0])) < Fraction(float(a[0])) / 49
    _, hi = ku.stack_divint(49, np.array([a, a]))
    assert Fraction(float(hi[0])) >= Fraction(float(a[0])) / 49


def test_stack_divint_keeps_exact_zeros_and_power_of_two_quotients():
    lo, hi = ku.stack_divint(3, np.array([[0.0, -0.0, -1.0], [0.0, 0.0, 0.0]]))
    assert lo[:2].tolist() == [0.0, 0.0] and hi.tolist() == [0.0, 0.0, 0.0]
    assert lo[2] < -1.0 / 3
    lo, hi = ku.stack_divint(4, np.array([[3.0, 0.0, -5.0], [5.0, 0.0, -3.0]]))
    assert lo.tolist() == [0.75, 0.0, -1.25] and hi.tolist() == [1.25, 0.0, -0.75]


def test_stack_add_equals_vadd_bit_for_bit():
    # exact, inexact and overflowing sums, zeros of both signs
    rng = np.random.default_rng(8)
    a = np.sort(rng.uniform(-2, 2, (2, 3, 40)) * 2.0 ** rng.integers(-60, 60, (1, 3, 40)), axis=0)
    b = np.sort(rng.uniform(-2, 2, (2, 3, 40)) * 2.0 ** rng.integers(-60, 60, (1, 3, 40)), axis=0)
    a[:, 0, :4] = [[0.0, -0.0, 1.0, BIG], [0.0, 0.0, 1.0, BIG]]
    b[:, 0, :4] = [[-0.0, 0.0, 2.0 ** -60, BIG], [0.0, 0.0, 2.0 ** -60, BIG]]
    got = ku.stack_add(a, b)
    want = np.array(ku.vadd(a[0], a[1], b[0], b[1]))
    assert got.tobytes() == want.tobytes()


BIG = 1.7e308  # BIG + BIG overflows, but the exact sum is finite
MAX = np.finfo(float).max


@pytest.mark.parametrize("op, a, b", [
    ("add", (BIG, BIG), (BIG, BIG)),
    ("add", (-BIG, -BIG), (-BIG, -BIG)),
    ("add", (BIG, BIG), (MAX, MAX)),
    ("add", (-BIG, BIG), (-BIG, BIG)),
    ("sub", (-BIG, -BIG), (BIG, BIG)),
    ("sub", (BIG, BIG), (-BIG, -BIG)),
])
def test_overflowing_sum_keeps_a_finite_inner_bound(op, a, b):
    fn, sign = (ku.vadd, 1) if op == "add" else (ku.vsub, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = fn(np.float64(a[0]), np.float64(a[1]), np.float64(b[0]), np.float64(b[1]))
    lo_exact = Fraction(a[0]) + sign * Fraction(b[0] if sign > 0 else b[1])
    hi_exact = Fraction(a[1]) + sign * Fraction(b[1] if sign > 0 else b[0])
    # an overflow may only push a bound outward: lo to -inf, hi to +inf
    assert lo != np.inf and hi != -np.inf
    assert lo == -np.inf or Fraction(float(lo)) <= lo_exact
    assert hi == np.inf or hi_exact <= Fraction(float(hi))
    if lo_exact > MAX:
        assert lo == MAX
    if hi_exact < -MAX:
        assert hi == -MAX


def test_vdiv_by_interval_containing_zero_raises_interval_error():
    with pytest.raises(IntervalError):
        ku.vdiv(np.array([1.0]), np.array([2.0]), np.array([-1.0]), np.array([1.0]))
    with pytest.raises(IntervalError):
        ku.vdiv(np.float64(1.0), np.float64(2.0), np.float64(0.0), np.float64(3.0))


# --- isum: one float sum per endpoint plus an a-priori error bound ---------

# term counts n = a * b, reduced over axis 0 of (n, 3) (int axis) and over
# axes (0, 2) of (a, 3, b) (tuple axis)
ISUM_SPLITS = {0: (0, 3), 1: (1, 1), 2: (2, 1), 3: (1, 3), 4: (2, 2), 5: (5, 1),
               19: (1, 19), 76: (4, 19), 95: (5, 19)}


def _isum_both_ways(lo, hi):
    """isum of (n, 3) terms over an int axis and, reshaped to (a, 3, b),
    over the tuple axis (0, 2); both see the same terms per output."""
    n = lo.shape[0]
    a, b = ISUM_SPLITS[n]

    def to3(x):
        return x.reshape(a, b, 3).transpose(0, 2, 1)

    return ku.isum(lo, hi, axis=0), ku.isum(to3(lo), to3(hi), axis=(0, 2))


def _assert_encloses(r, lo, hi):
    rlo, rhi = (np.asarray(x, dtype=float) for x in r)
    assert not (np.isnan(rlo).any() or np.isnan(rhi).any())
    assert not (rlo == np.inf).any() and not (rhi == -np.inf).any()
    for j in range(lo.shape[1]):
        exact_lo = sum((Fraction(x) for x in lo[:, j]), Fraction(0))
        exact_hi = sum((Fraction(x) for x in hi[:, j]), Fraction(0))
        assert rlo[j] == -np.inf or Fraction(float(rlo[j])) <= exact_lo
        assert rhi[j] == np.inf or exact_hi <= Fraction(float(rhi[j]))


def _random_terms(rng, n, spread):
    mid = rng.standard_normal((n, 3)) * 2.0 ** rng.integers(-spread, spread + 1, (n, 3))
    rad = np.abs(mid) * 2.0 ** rng.integers(-52, -20, (n, 3)) * (rng.random((n, 3)) < 0.5)
    return mid - rad, mid + rad


@pytest.mark.parametrize("n", sorted(ISUM_SPLITS))
@pytest.mark.parametrize("spread", [0, 30, 300])
def test_isum_contains_exact_sum(n, spread):
    lo, hi = _random_terms(np.random.default_rng(1000 * n + spread), n, spread)
    for r in _isum_both_ways(lo, hi):
        assert np.shape(r[0]) == (3,)
        _assert_encloses(r, lo, hi)


@pytest.mark.parametrize("n", [2, 4, 5, 19, 76, 95])
def test_isum_exact_cancellation_and_zeros(n):
    rng = np.random.default_rng(n)
    half = rng.standard_normal((n // 2, 3)) * 2.0 ** rng.integers(-40, 40, (n // 2, 3))
    lo = np.concatenate([half, -half[::-1], np.zeros((n % 2, 3))])
    for r in _isum_both_ways(lo, lo):
        _assert_encloses(r, lo, lo)
    z = np.zeros((n, 3))
    for rlo, rhi in _isum_both_ways(z, z):
        assert np.all(rlo == 0.0) and np.all(rhi == 0.0)


@pytest.mark.parametrize("terms", [
    [2.0 ** 600, -2.0 ** 600, 2.0 ** -600, 1.0, 0.5],
    [2.0 ** -1074] * 7 + [-(2.0 ** -1073)],            # subnormal terms, exact sum
    [3 * 2.0 ** -1074, -(2.0 ** -1074), 2.0 ** -1022, -(2.0 ** -1022), 5e-324],
    [1.7e308, 1.7e308, -1.7e308],                      # overflowing partial sum
    [1.7e308, 1.7e308, -1.7e308, -1.7e308, 1.0],       # sum of |x| overflows
    [1.7e308] * 4,                                     # true sum overflows
    [-1.7e308] * 5 + [1e308],
    [np.finfo(float).max, -np.finfo(float).max, 1.0, 2.0 ** -1074],
])
def test_isum_edge_terms_contain_exact_sum(terms):
    t = np.array(terms, dtype=float)
    for k in range(len(t)):
        # every prefix length, so the short chain and the bound both run
        lo = np.repeat(t[: k + 1, None], 3, axis=1)
        _assert_encloses(ku.isum(lo, lo, axis=0), lo, lo)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_isum_short_sums_are_the_vadd_chain(n):
    rng = np.random.default_rng(7 + n)
    lo, hi = _random_terms(rng, n, 60)
    clo, chi = (lo[0], hi[0]) if n else (np.zeros(3), np.zeros(3))
    for i in range(1, n):
        clo, chi = ku.vadd(clo, chi, lo[i], hi[i])
    for rlo, rhi in _isum_both_ways(lo, hi):
        assert np.array_equal(rlo, clo) and np.array_equal(rhi, chi)
        assert np.array_equal(np.signbit(rlo), np.signbit(clo))


# --- imulsum: fused product-sum, against exact rational arithmetic ---------

def _exact_mulsum(alo, ahi, blo, bhi, axes):
    """Exact endpoints of sum over ``axes`` of the interval products, as
    Fractions in an object array of the reduced shape."""
    shape = np.broadcast_shapes(alo.shape, ahi.shape, blo.shape, bhi.shape)
    keep = [i for i in range(len(shape)) if i not in axes]
    perm = keep + list(axes)
    out_shape = tuple(shape[i] for i in keep)

    def flat(x):
        return np.broadcast_to(x, shape).transpose(perm).reshape(int(np.prod(out_shape)), -1)

    al, ah, bl, bh = (flat(x) for x in (alo, ahi, blo, bhi))
    lo = np.empty(al.shape[0], dtype=object)
    hi = np.empty(al.shape[0], dtype=object)
    for j in range(al.shape[0]):
        slo = shi = Fraction(0)
        for t in range(al.shape[1]):
            ps = [Fraction(float(x)) * Fraction(float(y))
                  for x in (al[j, t], ah[j, t]) for y in (bl[j, t], bh[j, t])]
            slo += min(ps)
            shi += max(ps)
        lo[j], hi[j] = slo, shi
    return lo.reshape(out_shape), hi.reshape(out_shape)


def _assert_encloses_exact(r, exact):
    rlo, rhi = (np.asarray(x, dtype=float) for x in r)
    elo, ehi = exact
    assert rlo.shape == elo.shape
    assert not (np.isnan(rlo).any() or np.isnan(rhi).any())
    assert not (rlo == np.inf).any() and not (rhi == -np.inf).any()
    for x, e in zip(rlo.ravel(), elo.ravel()):
        assert x == -np.inf or Fraction(float(x)) <= e
    for x, e in zip(rhi.ravel(), ehi.ravel()):
        assert x == np.inf or e <= Fraction(float(x))


def _series_operands(rng, k, lo_exp=-30, hi_exp=30):
    """A-like (2, 4, 1, T) and V-like (2, 1, 5, T) operands of the batch-2
    V contraction (n = 4, m = 5) in the series layout: the summed indices
    (order, state) merged into the last axis, T = 4 (k+1).  Mixed signs,
    point and wide (zero-straddling) entries, row c=1 of A and column 2 of
    V exactly zero."""

    def draw(shape):
        mid = rng.standard_normal(shape) * 2.0 ** rng.integers(lo_exp, hi_exp + 1, shape)
        u = rng.random(shape)
        rad = np.where(u < 0.4, 0.0, np.abs(mid) * np.where(u < 0.8, 2.0 ** -40, 1.5))
        return mid - rad, mid + rad

    T = 4 * (k + 1)
    alo, ahi = draw((2, 4, 1, T))
    blo, bhi = draw((2, 1, 5, T))
    for x in (alo, ahi):
        x[:, 1] = 0.0
    for x in (blo, bhi):
        x[:, :, 2] = 0.0
    return alo, ahi, blo, bhi


@pytest.mark.parametrize("k", [0, 1, 18])
def test_imulsum_vmul_contain_exact_at_series_shapes(k):
    rng = np.random.default_rng(40 + k)
    alo, ahi, blo, bhi = _series_operands(rng, k)
    assert ku.is_scaled(alo, ahi, blo, bhi)
    exact = _exact_mulsum(alo, ahi, blo, bhi, (3,))
    r = ku.imulsum(alo, ahi, blo, bhi)
    assert r.shape == (2, 2, 4, 5)
    _assert_encloses_exact(r, exact)
    # structural zeros stay exactly zero
    for x in r:
        assert np.all(x[:, 1, :] == 0.0) and np.all(x[:, :, 2] == 0.0)
    # the elementwise products, each against its exact interval product
    plo, phi = ku.vmul(alo, ahi, blo, bhi)
    _assert_encloses_exact((plo, phi),
                           _exact_mulsum(alo[..., None], ahi[..., None],
                                         blo[..., None], bhi[..., None], (4,)))


def _finish_operands(case, k):
    """The series operands at T = 4 (k+1) terms (k = 0: n = 4), or an edge
    case of them: an output whose terms are all -0 on both endpoints; one
    output whose sum overflows among finite ones; a size-1 broadcast axis
    on a and a reversed view of b, as the state pass reads its bank."""
    alo, ahi, blo, bhi = _series_operands(np.random.default_rng(60 + k), k)
    if case == "negative_zero_row":
        alo[0, 0, 0], ahi[0, 0, 0] = -0.0, -0.0
        blo[0, 0, 3], bhi[0, 0, 3] = 1.0, 2.0
    elif case == "one_overflow":
        alo[1, 2, 0, 0] = ahi[1, 2, 0, 0] = 1e290
        blo[1, 0, 4, 0] = bhi[1, 0, 4, 0] = 1e290
    elif case == "broadcast_reversed":
        alo, ahi, blo, bhi = alo[:1], ahi[:1], blo[..., ::-1], bhi[..., ::-1]
    return alo, ahi, blo, bhi


@pytest.mark.parametrize("case, k", [
    *(pytest.param("series", k, id=str(k)) for k in (0, 3, 18)),
    *(pytest.param(case, 3, id=case)
      for case in ("negative_zero_row", "one_overflow", "broadcast_reversed"))])
@np.errstate(over="ignore", invalid="ignore")  # the references of one_overflow
def test_imulsum_stacked_finish_equals_the_per_endpoint_finish(case, k):
    # reference: each endpoint summed, padded and rounded on its own
    alo, ahi, blo, bhi = _finish_operands(case, k)
    n = alo.shape[-1]
    p = [x * y for x in (alo, ahi) for y in (blo, bhi)]
    c = n * 2.0 ** -53 * (1.0 + 2.0 ** -30)
    ref = []
    for t, direction in ((np.minimum.reduce(p), -np.inf), (np.maximum.reduce(p), np.inf)):
        s, a = np.add.reduce(t, axis=-1), np.add.reduce(np.abs(t), axis=-1)
        pad = np.nextafter(c * a, np.inf)
        r = np.nextafter(s + pad if direction > 0 else s - pad, direction)
        ref.append(np.where(a == 0, s, r))
    r = ku.imulsum(alo, ahi, blo, bhi, scaled=True)
    # entries with a non-finite endpoint take the checked path instead
    ok = np.isfinite(ref).all(axis=0)
    assert ok.sum() == ok.size - (case == "one_overflow")
    for x, y in zip(r, ref):
        assert x[ok].tobytes() == y[ok].tobytes()
    checked = ku.isum(*ku.vmul(alo, ahi, blo, bhi), axis=-1)
    assert np.array_equal(r[:, ~ok], checked[:, ~ok])
    # an all-zero sum keeps the reference's zero, sign included
    if case == "negative_zero_row":
        assert np.all(r[:, 0, 0, 3] == 0.0)
    assert np.array_equal(np.signbit(r[:, ok]), np.signbit(np.array(ref)[:, ok]))


@pytest.mark.parametrize("x", [0.0, -0.0, 2.0 ** -511, -(2.0 ** -511),
                               np.nextafter(2.0 ** -511, 0), 2.0 ** -1022, 5e-324,
                               -5e-324, np.inf, -np.inf, 1.0])
def test_is_scaled_is_the_concatenating_definition(x):
    # the fused path's precondition: no nonzero entry below 2^-511
    def concatenating(*arrays):
        y = np.abs(np.concatenate([np.ravel(a) for a in arrays]))
        return not ((y < 2.0 ** -511) & (y != 0)).any()

    scaled = not 0 < abs(x) < 2.0 ** -511
    for arrays in ([np.array([x])], [np.full((2, 3), 1.5), np.array([[x]])],
                   [np.zeros((0, 4)), np.array([1.0, x, -3.0])[::-1]]):
        assert ku.is_scaled(*arrays) == concatenating(*arrays) == scaled
    for arrays in ([np.array([x])[:0]], [np.zeros(0), np.zeros((2, 0))]):
        assert ku.is_scaled(*arrays) and concatenating(*arrays)


def test_idot_contains_exact_product():
    rng = np.random.default_rng(3)
    alo, ahi, blo, bhi = _series_operands(rng, 0)
    a = (alo[0, :, 0], ahi[0, :, 0])        # (4, 4), row 1 zero
    b = (blo[1, 0].T, bhi[1, 0].T)          # (4, 5), column 2 zero
    exact = _exact_mulsum(a[0][:, :, None], a[1][:, :, None], b[0][None], b[1][None], (1,))
    r = ku.idot(*a, *b)
    _assert_encloses_exact(r, exact)
    assert np.all(r[0][1] == 0.0) and np.all(r[1][:, 2] == 0.0)
    exact = _exact_mulsum(a[0], a[1], b[0][:, 0][None], b[1][:, 0][None], (1,))
    _assert_encloses_exact(ku.idot(*a, b[0][:, 0], b[1][:, 0]), exact)


@pytest.mark.parametrize("tiny", [5e-324, 2.0 ** -1022, 1e-200, 2.0 ** -512])
def test_imulsum_unscaled_operand_takes_the_checked_path(tiny):
    # products of factors below 2^-511 may underflow, where the fused
    # bound does not hold: the kernel must notice and fall back
    rng = np.random.default_rng(5)
    alo, ahi, blo, bhi = _series_operands(rng, 1)
    alo[0, 0, 0, 0] = ahi[0, 0, 0, 0] = tiny
    blo[0, 0, 0, :] = bhi[0, 0, 0, :] = tiny
    assert not ku.is_scaled(alo, ahi, blo, bhi)
    r = ku.imulsum(alo, ahi, blo, bhi)
    ref = ku.isum(*ku.vmul(alo, ahi, blo, bhi), axis=-1)
    assert np.array_equal(r[0], ref[0]) and np.array_equal(r[1], ref[1])
    _assert_encloses_exact(r, _exact_mulsum(alo, ahi, blo, bhi, (3,)))
    # structural zeros stay exactly zero on the checked path too
    assert np.all(r[:, :, 1, :] == 0.0) and np.all(r[:, :, :, 2] == 0.0)
    # four products that each underflow to zero: the sum is not zero
    x = np.full(4, tiny)
    slo, shi = ku.imulsum(x, x, x, x)
    assert Fraction(float(slo)) <= 4 * Fraction(tiny) ** 2 <= Fraction(float(shi))
    assert float(shi) > 0.0


def test_imulsum_near_overflow_has_no_nan_and_stays_outward():
    rng = np.random.default_rng(9)
    alo, ahi, blo, bhi = _series_operands(rng, 3, lo_exp=480, hi_exp=530)
    r = ku.imulsum(alo, ahi, blo, bhi)
    assert np.isinf(r[0]).any() or np.isinf(r[1]).any()
    assert np.isfinite(r).any()
    _assert_encloses_exact(r, _exact_mulsum(alo, ahi, blo, bhi, (3,)))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_overflowing_sums_are_sound_and_silent(sign):
    # the overflow fallback is part of the result: no RuntimeWarning
    x = np.full((4, 1), sign * 1e308)
    big = np.full((1, 4), 1e200)
    sq = np.full((1, 4), sign * 1.5e154)   # each square is finite, their sum is not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = ku.isum(x, x, axis=0)
        _assert_encloses(r, x, x)
        assert (r[1] if sign > 0 else r[0])[0] == sign * np.inf
        for a, b in ((big, sign * big), (sq, np.abs(sq))):
            r = ku.imulsum(a, a, b, b)
            _assert_encloses_exact(r, _exact_mulsum(a, a, b, b, (1,)))
            assert (r[1] if sign > 0 else r[0])[0] == sign * np.inf


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_imulsum_short_sums_are_isum_of_vmul(n):
    rng = np.random.default_rng(70 + n)
    alo, ahi, blo, bhi = (x[..., :n] for x in _series_operands(rng, 0))
    r = ku.imulsum(alo, ahi, blo, bhi)
    ref = ku.isum(*ku.vmul(alo, ahi, blo, bhi), axis=-1)
    for x, y in zip(r, ref):
        assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


# --- the padded sums at their error bound -----------------------------------
#
# A power of two, then terms just under half an ulp of it.  numpy adds
# fewer than 8 contiguous terms, or any number along a strided axis, left
# to right, so each addition drops a term, and the float sum's rounding
# error comes within 2^-20 of the a-priori pad c * a (within (n-1)/n for
# imulsum, whose n - 1 additions share the pad with n exact products).
# Two mutants of the pad still pass these cases, and neither is unsound:
#
# * isum's constant cut to (n-2) 2^-53.  The last addition's result is the
#   float sum s itself, so its rounding error is at most half an ulp of s,
#   and the final outward step of the padded endpoint moves it by at least
#   that much; the terms reach that addition through at most n - 2 others,
#   which (n-2) 2^-53 sum|x| covers.
# * The pad c * a left unrounded.  Rounding it to nearest loses at most
#   2^-53 of it when it is normal, which c's factor (1 + 2^-30) absorbs
#   (n < 2^21), and at most 2^-1075 when it is subnormal.  s and the
#   rounded pad are then both on the 2^-1074 grid, so the final outward
#   step ends at least 2^-1074 beyond s -/+ fl(c * a).

_HALF_ULP_1 = np.nextafter(2.0 ** -53, 0.0)          # just under half an ulp of 1
_HALF_ULP_SUB = np.nextafter(2.0 ** -1053, 0.0)      # ... of 2^-1000 (subnormal)


def _near_bound_rows(n):
    """(name, terms, pad subnormal) of n-term sums that push the bound."""
    return [("up", [1.0] + [_HALF_ULP_1] * (n - 1), False),
            ("down", [-1.0] + [-_HALF_ULP_1] * (n - 1), False),
            ("cancel", [1.0] + [_HALF_ULP_1] * (n - 2) + [-1.0], False),
            ("subnormal_pad", [2.0 ** -1000] + [_HALF_ULP_SUB] * (n - 1), True)]


def _left_to_right(terms):
    s = 0.0
    for x in terms:
        s += x
    return s


@pytest.mark.parametrize("n", [4, 5, 6, 7, 19, 40])
def test_isum_contains_exact_sums_at_its_error_bound(n):
    # the terms along a strided axis, and for n < 8 also along the last
    # one; the longer sums also catch a pad cut to half
    for name, terms, subnormal in _near_bound_rows(n):
        t = np.array(terms)
        exact = sum(map(Fraction, terms))
        for x, axis in [(np.repeat(t[:, None], 2, 1), 0)] + [(t[None], -1)] * (n < 8):
            lo, hi = ku.isum(x, x, axis=axis)
            assert Fraction(float(lo[0])) <= exact <= Fraction(float(hi[0])), name
        pad = (n - 1) * 2.0 ** -53 * float(np.sum(np.abs(t)))
        assert (pad < 2.0 ** -1022) == subnormal
        err = abs(exact - Fraction(_left_to_right(terms)))
        if name != "cancel":   # there the pad also counts the cancelled 1
            assert err >= Fraction(1 - 2.0 ** -20) * Fraction(pad), name


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_imulsum_contains_exact_sums_at_its_error_bound(n):
    # the rows of the isum cases as exact products a * 1, and a subnormal
    # pad from scaled operands (every entry >= 2^-511): 2^-487 * 2^-488,
    # then n - 1 products 2^-1022 (1 + 2^-6 - 2^-52), each added to a
    # partial sum near 2^-975 with a rounding error just under half its ulp
    rows = [(np.array(t), np.ones(n)) for _, t, sub in _near_bound_rows(n) if not sub]
    rows.append((np.array([2.0 ** -487] + [2.0 ** -511] * (n - 1)),
                 np.array([2.0 ** -488] + [2.0 ** -511 * (1 + 2.0 ** -6 - 2.0 ** -52)] * (n - 1))))
    for a, b in rows:
        r = ku.imulsum(a, a, b, b)
        exact = sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))
        assert Fraction(float(r[0])) <= exact <= Fraction(float(r[1]))
    a, b = rows[-1]
    pad = n * 2.0 ** -53 * float(np.sum(a * b))
    assert pad < 2.0 ** -1022 and ku.is_scaled(a, b)
    exact = sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))
    err = abs(exact - Fraction(_left_to_right(a * b)))
    assert err >= Fraction(n - 1, n) * Fraction(1 - 2.0 ** -20) * Fraction(pad)


@pytest.mark.parametrize("n", [3, 5])
def test_odd_power_of_a_tiny_negative_endpoint_stays_below_zero(n):
    # (-1e-250)^n underflows, but the lower endpoint must stay at or below
    # it: only an endpoint that is exactly 0 keeps an exactly-0 power
    exact = Fraction(-1e-250) ** n
    assert Fraction((Interval(-1e-250, 1.0) ** n).lo) <= exact < 0
    box = PolyMap(1, [[(1.0, (n,))]]).eval_box(IntervalBox([-1e-250], [1.0]))
    assert Fraction(float(box.lo[0])) <= exact


def test_overflowing_products_are_sound_and_silent():
    # no np.errstate here: an overflowing vmul or vsqr product is an
    # infinite endpoint without a RuntimeWarning, like the sums' overflow
    big, huge = np.array([1e200]), np.array([1e290])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lo, hi = ku.vmul(huge, huge, huge, huge)
        assert hi[0] == np.inf and Fraction(float(lo[0])) <= Fraction(1e290) ** 2
        lo, hi = ku.vsqr(big, big)
        assert hi[0] == np.inf and Fraction(float(lo[0])) <= Fraction(1e200) ** 2
        # an Interval refuses the infinite endpoint with its own error
        with pytest.raises(IntervalError):
            Interval(1e200, 1e200) * Interval(1e200, 1e200)
        with pytest.raises(IntervalError):
            Interval(1e200, 1e200).sqr()


# --- vsqr, vsqrt, vdiv, widen_abs against exact rational arithmetic --------

MAXF = np.finfo(float).max
# exact zeros, subnormals, the smallest normal, powers of two, inexact
# decimals, and operands whose squares or quotients overflow
EDGE = sorted({0.0, 5e-324, 3 * 2.0 ** -1074, 2.0 ** -1022, 2.0 ** -537, 1e-160, 0.1, 0.5,
               1.0, 2.0, 3.0, 1.3e154, 1.5e154, 2.0 ** 1023, 1.7e308, MAXF})
EDGE_SIGNED = sorted({s * x for x in EDGE for s in (1.0, -1.0)})


def _intervals(values):
    """Every (lo, hi) pair of the values with lo <= hi, as two arrays."""
    pairs = [(a, b) for a in values for b in values if a <= b]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def _below(x, exact):
    """x is a sound lower bound of the exact value (-inf allowed)."""
    return not np.isnan(x) and x != np.inf and (x == -np.inf or Fraction(float(x)) <= exact)


def _above(x, exact):
    return not np.isnan(x) and x != -np.inf and (x == np.inf or exact <= Fraction(float(x)))


def test_vsqr_contains_exact_square_range():
    lo, hi = _intervals(EDGE_SIGNED)
    with np.errstate(over="ignore"):
        rlo, rhi = ku.vsqr(lo, hi)
    for a, b, x, y in zip(lo, hi, rlo, rhi):
        fa, fb = Fraction(float(a)), Fraction(float(b))
        sq_lo = 0 if a <= 0 <= b else min(fa * fa, fb * fb)
        assert _below(x, sq_lo) and x >= 0.0
        assert _above(y, max(fa * fa, fb * fb))
        if a == 0.0 and b == 0.0:
            assert x == 0.0 and y == 0.0


def test_vsqrt_contains_exact_root_range():
    lo, hi = _intervals(EDGE)
    rlo, rhi = ku.vsqrt(lo, hi)
    for a, b, x, y in zip(lo, hi, rlo, rhi):
        # sqrt is increasing: lo^2 <= a and b <= hi^2, checked exactly
        assert np.isfinite(x) and np.isfinite(y) and 0.0 <= x <= y
        assert Fraction(float(x)) ** 2 <= Fraction(float(a))
        assert Fraction(float(b)) <= Fraction(float(y)) ** 2
        if b == 0.0:
            assert x == 0.0 and y == 0.0
    with pytest.raises(IntervalError):
        ku.vsqrt(np.array([-5e-324]), np.array([1.0]))


def test_vdiv_contains_exact_quotient_range():
    nlo, nhi = _intervals(EDGE_SIGNED)
    dlo, dhi = _intervals([x for x in EDGE_SIGNED if x != 0.0])
    keep = (dlo > 0) | (dhi < 0)  # denominators that exclude zero
    dlo, dhi = dlo[keep], dhi[keep]
    alo, ahi = np.repeat(nlo, len(dlo)), np.repeat(nhi, len(dlo))
    blo, bhi = np.tile(dlo, len(nlo)), np.tile(dhi, len(nlo))
    with np.errstate(over="ignore", under="ignore"):
        rlo, rhi = ku.vdiv(alo, ahi, blo, bhi)
    for a0, a1, b0, b1, x, y in zip(alo, ahi, blo, bhi, rlo, rhi):
        qs = [Fraction(float(a)) / Fraction(float(b)) for a in (a0, a1) for b in (b0, b1)]
        assert _below(x, min(qs)) and _above(y, max(qs))
        if a0 == 0.0 and a1 == 0.0:
            assert x == 0.0 and y == 0.0


def test_widen_abs_pads_by_at_least_the_exact_amount():
    lo, hi = _intervals(EDGE_SIGNED)
    for eps in (0.0, 5e-324, 2.0 ** -1022, 1e-300, 0.1, 1.0, 2.0 ** 1000, MAXF):
        rlo, rhi = ku.widen_abs(lo, hi, np.full(lo.shape, eps))
        for a, b, x, y in zip(lo, hi, rlo, rhi):
            assert _below(x, Fraction(float(a)) - Fraction(eps))
            assert _above(y, Fraction(float(b)) + Fraction(eps))
            if eps == 0.0:
                assert x == a and y == b
