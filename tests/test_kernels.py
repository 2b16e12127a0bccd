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
