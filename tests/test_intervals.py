"""Interval scalar/box arithmetic: containment, tightness, set semantics."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from splitcert.intervals import Interval, IntervalBox, IntervalError
from splitcert.matrices import IntervalMatrix


def ulps(x: float, n: int = 1) -> float:
    return n * math.ulp(max(abs(x), 1e-300))


def test_add_exact_endpoints():
    r = Interval(1, 2) + Interval(3, 4)
    assert r.lo == 4.0 and r.hi == 6.0  # exact endpoint arithmetic


def test_mul_sign_cases():
    r = Interval(-1, 2) * Interval(3, 4)
    assert r.lo <= -4.0 <= r.hi and r.lo <= 8.0 <= r.hi
    assert r.lo >= -4.0 - ulps(4.0, 2) and r.hi <= 8.0 + ulps(8.0, 2)


def test_div_one_third_rational_oracle():
    r = Interval(1, 1) / Interval(3, 3)
    third = Fraction(1, 3)
    assert Fraction(r.lo) < third < Fraction(r.hi)
    assert r.width <= 2 * math.ulp(r.lo)


def test_div_by_zero_interval_raises():
    with pytest.raises(IntervalError):
        Interval(1, 1) / Interval(-1, 1)


def test_sub_neg_sqr():
    assert (Interval(1, 2) - Interval(0.5, 1)).contains(1.0)
    assert -Interval(-1, 2) == Interval(-2, 1)
    s = Interval(-2, 1).sqr()
    assert s.lo <= 0.0 and s.hi >= 4.0
    assert s.hi <= 4.0 + ulps(4.0, 2)


def test_sqrt_perfect_squares():
    r = Interval(4, 9).sqrt()
    assert r.lo <= 2.0 and r.hi >= 3.0
    assert r.lo >= 2.0 - ulps(2.0, 2) and r.hi <= 3.0 + ulps(3.0, 2)


def test_sqrt_two_decimal_oracle():
    getcontext().prec = 60
    sqrt2 = Decimal(2).sqrt()
    r = Interval(2, 2).sqrt()
    assert Decimal(r.lo) < sqrt2 < Decimal(r.hi)
    assert r.width <= 2 * math.ulp(r.lo)


def test_sqrt_zero_and_negative():
    assert Interval(0, 0).sqrt() == Interval(0, 0)
    with pytest.raises(IntervalError):
        Interval(-1e-300, 1).sqrt()


def test_pow_even_is_tight():
    x = Interval(-2, 1)
    assert (x ** 2).lo == 0.0
    assert (x ** 3).contains(-8.0) and (x ** 3).contains(1.0)


def test_box_subset_interior():
    inner = IntervalBox([1.1, 1.1], [1.9, 1.9])
    outer = IntervalBox([1.0, 1.0], [2.0, 2.0])
    assert inner.is_interior_subset(outer)
    shared = IntervalBox([1.0, 1.0], [1.5, 1.5])
    assert not shared.is_interior_subset(outer)  # shared boundary


def test_box_hull_intersect_mid_rad():
    a = IntervalBox([0.0], [1.0])
    b = IntervalBox([2.0], [3.0])
    h = a.hull(b)
    assert h.lo[0] == 0.0 and h.hi[0] == 3.0
    assert a.intersect(b) is None  # distinguished empty result
    c = IntervalBox([0.5], [2.5])
    i = a.intersect(c)
    assert i.lo[0] == 0.5 and i.hi[0] == 1.0
    assert a.mid()[0] == 0.5
    assert a.rad()[0] >= 0.5
    assert a.contains_point(0.3) and not a.contains_point(1.5)


def test_box_arithmetic_and_split():
    a = IntervalBox([0.0, 1.0], [1.0, 2.0])
    b = a + np.array([1.0, 1.0])
    assert b.contains_point([1.5, 2.5])
    left, right = a.split(0)
    assert left.hi[0] == right.lo[0] == 0.5
    assert left.hull(right).contains_box(a)


def _rand_interval(rng, scale=10.0):
    c = rng.uniform(-scale, scale)
    r = abs(rng.uniform(0, scale))
    return Interval(c - r, c + r)


def test_containment_randomized():
    # every point result of an op lies in the interval result
    rng = np.random.RandomState(seed=20240817)
    for _ in range(2000):
        a = _rand_interval(rng)
        b = _rand_interval(rng)
        x = rng.uniform(a.lo, a.hi)
        y = rng.uniform(b.lo, b.hi)
        assert (a + b).contains(x + y)
        assert (a - b).contains(x - y)
        assert (a * b).contains(x * y)
        assert a.sqr().contains(x * x)
        if not b.contains_zero():
            assert (a / b).contains(x / y)


def test_inclusion_monotonicity():
    rng = np.random.RandomState(seed=7)
    for _ in range(500):
        a = _rand_interval(rng)
        b = _rand_interval(rng)
        a2 = a.widened(abs(rng.uniform(0, 1)))
        b2 = b.widened(abs(rng.uniform(0, 1)))
        assert (a + b).is_subset(a2 + b2)
        assert (a - b).is_subset(a2 - b2)
        assert (a * b).is_subset(a2 * b2)
        assert a.sqr().is_subset(a2.sqr())


def test_vectorized_containment_bulk():
    # bulk kernel-level check, 10^5 cases
    from splitcert import kernels as ku

    rng = np.random.RandomState(seed=99)
    n = 100_000
    alo = rng.uniform(-10, 10, n)
    ahi = alo + rng.uniform(0, 5, n)
    blo = rng.uniform(-10, 10, n)
    bhi = blo + rng.uniform(0, 5, n)
    x = rng.uniform(alo, ahi)
    y = rng.uniform(blo, bhi)
    for op, ref in [(ku.vadd, x + y), (ku.vsub, x - y), (ku.vmul, x * y)]:
        lo, hi = op(alo, ahi, blo, bhi)
        assert np.all(lo <= ref) and np.all(ref <= hi)


@pytest.mark.parametrize("end, bad", [("lo", np.nan), ("hi", np.nan), ("lo", np.inf),
                                      ("lo", -np.inf), ("hi", np.inf), ("hi", -np.inf)])
def test_box_rejects_non_finite_endpoints(end, bad):
    ends = {"lo": np.array([-1.0, 0.0]), "hi": np.array([1.0, 2.0])}
    ends[end][1] = bad
    with pytest.raises(IntervalError, match="box endpoints must be finite"):
        IntervalBox(ends["lo"], ends["hi"])


def test_box_rejects_lo_above_hi():
    with pytest.raises(IntervalError, match="box has a component with lo > hi"):
        IntervalBox([0.0, 1.0], [1.0, 1.0 - 2.0**-52])
    IntervalBox([0.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("cls, shape", [(IntervalBox, (3,)), (IntervalMatrix, (2, 3))],
                         ids=["box", "matrix"])
def test_endpoints_are_read_only_copies_of_the_callers_arrays(cls, shape):
    lo, hi = np.zeros(shape), np.ones(shape)
    a = cls(lo, hi)
    p = cls.point(hi)
    lo[...] = 5.0  # the caller mutates its arrays afterwards
    hi[...] = -5.0
    assert np.all(a.lo == 0.0) and np.all(a.hi == 1.0)
    assert np.all(p.lo == 1.0) and np.all(p.hi == 1.0)
    for b in (a, p, a + a, -a, a.hull(p), a.widened(0.5), a[:1]):
        assert type(b) is cls
        for end in (b.lo, b.hi):
            assert not end.flags.writeable
            with pytest.raises(ValueError):
                end[(0,) * len(shape)] = 2.0
    assert a.lo.shape == shape and a.lo.dtype == np.float64


def test_endpoint_arrays_keep_their_rank():
    with pytest.raises(IntervalError, match="box endpoints must be matching 1-d arrays"):
        IntervalBox(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(IntervalError, match="matrix endpoints must be matching 2-d arrays"):
        IntervalMatrix(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))
    with pytest.raises(IntervalError, match="box endpoints must be matching 1-d arrays"):
        IntervalBox([0.0, 1.0], [1.0])
    # a scalar or a vector is lifted to the class's rank
    assert IntervalBox(0.0, 1.0).lo.shape == (1,)
    assert IntervalMatrix([0.0, 1.0], [1.0, 2.0]).shape == (1, 2)
    m = IntervalMatrix.point(np.arange(6.0).reshape(2, 3))
    assert m[1, 2] == Interval(5.0, 5.0)
    assert m.contains_matrix(m.mid()) and m.contains(m) and m.T.lo.flags.c_contiguous
