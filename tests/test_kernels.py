"""Directed-rounding kernels against exact rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from splitcert import kernels as ku


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
