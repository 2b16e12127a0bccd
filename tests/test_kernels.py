"""Directed-rounding kernels against exact rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from splitcert import kernels as ku
from splitcert.intervals import IntervalError


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
        with np.errstate(over="ignore", invalid="ignore"):
            r = ku.isum(lo, lo, axis=0)
        _assert_encloses(r, lo, lo)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_isum_short_sums_are_the_vadd_chain(n):
    rng = np.random.default_rng(7 + n)
    lo, hi = _random_terms(rng, n, 60)
    clo, chi = lo[0], hi[0]
    for i in range(1, n):
        clo, chi = ku.vadd(clo, chi, lo[i], hi[i])
    for rlo, rhi in _isum_both_ways(lo, hi):
        assert np.array_equal(rlo, clo) and np.array_equal(rhi, chi)
        assert np.array_equal(np.signbit(rlo), np.signbit(clo))
