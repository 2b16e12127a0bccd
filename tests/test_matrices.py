"""Validated linear algebra: norm bounds, sigma_min, interval solves."""

import math
from fractions import Fraction

import numpy as np
import pytest

from splitcert.intervals import Interval, IntervalBox, IntervalError
from splitcert.matrices import (
    IntervalMatrix,
    LinalgError,
    _igauss,
    iinverse,
    ilinsolve,
    imat_apply,
    imat_mul,
    imatsolve,
    ivec_norm_ub,
    sigma_min_lb,
    spectral_norm_ub,
)

# Published enclosures for the worked 4-d example (transcribed verbatim).
A22_ROWS = [
    [Interval(5.878219435, 5.878219454), Interval(-13.12140618, -13.12140616)],
    [Interval(4.972558758, 4.97255877), Interval(-2.358981737, -2.358981727)],
]
DELTA2_ROWS = [
    [Interval(-1.299703331, 1.286153144), Interval(-0.9977804236, 0.9891960037)],
    [Interval(-0.7568318161, 0.7534173913), Interval(-0.5842185843, 0.5818916067)],
]
YEPS_LO = [-1.030549066e-05, -9.608989689e-06]
YEPS_HI = [1.030549066e-05, 9.608989695e-06]


def test_apply_identity_near_exact():
    m = IntervalMatrix.identity(3)
    v = IntervalBox([1.0, -2.0, 0.5], [1.0, -2.0, 0.5])
    r = imat_apply(m, v)
    for i, x in enumerate([1.0, -2.0, 0.5]):
        assert r[i].contains(x)
        assert r[i].width <= 4 * math.ulp(max(abs(x), 1.0))


def test_apply_rotation():
    m = IntervalMatrix.point([[0.0, 1.0], [-1.0, 0.0]])
    v = IntervalBox([1.0, 2.0], [1.0, 2.0])
    r = imat_apply(m, v)
    assert r[0].contains(2.0) and r[1].contains(-1.0)


def test_apply_point_vs_rational_oracle():
    rng = np.random.RandomState(seed=11)
    for _ in range(20):
        a = rng.uniform(-5, 5, (3, 3))
        x = rng.uniform(-5, 5, 3)
        r = imat_apply(IntervalMatrix.point(a), IntervalBox.point(x))
        exact = [sum(Fraction(a[i, j]) * Fraction(x[j]) for j in range(3)) for i in range(3)]
        for i in range(3):
            assert Fraction(r[i].lo) <= exact[i] <= Fraction(r[i].hi)


def test_mul_dimensions_checked():
    with pytest.raises(Exception):
        imat_mul(IntervalMatrix.zeros(2, 3), IntervalMatrix.zeros(2, 3))


def test_spectral_norm_identity_and_diag():
    assert abs(spectral_norm_ub(IntervalMatrix.identity(2)) - 1.0) <= 4 * math.ulp(1.0)
    d = IntervalMatrix.point([[2.0, 0.0], [0.0, 1.0]])
    assert abs(spectral_norm_ub(d) - 2.0) <= 4 * math.ulp(2.0)


def test_spectral_norm_delta2_golden():
    # Gershgorin on the interval Gram matrix reproduces the published bound
    d2 = IntervalMatrix.from_rows(DELTA2_ROWS)
    ub = spectral_norm_ub(d2)
    assert ub <= 2.000249209 * (1 + 1e-6)
    assert ub >= 1.89


def test_sigma_min_identity():
    assert sigma_min_lb(IntervalMatrix.identity(2)) >= 1.0 - 1e-12


def test_sigma_min_a22_golden():
    a22 = IntervalMatrix.from_rows(A22_ROWS)
    lb = sigma_min_lb(a22)
    assert 3.4230 <= lb <= 3.42309


def test_sigma_min_singular_is_zero():
    ones = IntervalMatrix.point([[1.0, 1.0], [1.0, 1.0]])
    assert sigma_min_lb(ones) == 0.0


def test_sigma_min_1x1():
    assert sigma_min_lb(IntervalMatrix.from_rows([[Interval(2, 3)]])) == 2.0
    assert sigma_min_lb(IntervalMatrix.from_rows([[Interval(-1, 1)]])) == 0.0


def test_sigma_min_4x4_inverse_route():
    rng = np.random.RandomState(seed=3)
    a = rng.uniform(-2, 2, (4, 4)) + 4 * np.eye(4)
    m = IntervalMatrix.point(a)
    lb = sigma_min_lb(m)
    smin = np.linalg.svd(a, compute_uv=False)[-1]
    assert 0.0 < lb <= smin


def test_svd_sandwich_random():
    # nonrigorous dense-SVD oracle brackets both bounds on point matrices
    rng = np.random.RandomState(seed=5)
    for n in (2, 3, 4):
        for _ in range(10):
            a = rng.uniform(-3, 3, (n, n))
            m = IntervalMatrix.point(a)
            s = np.linalg.svd(a, compute_uv=False)
            assert sigma_min_lb(m) <= s[-1] + 1e-9
            assert spectral_norm_ub(m) >= s[0] - 1e-9


def test_norm_monotone_under_widening():
    rng = np.random.RandomState(seed=8)
    for _ in range(20):
        a = rng.uniform(-3, 3, (3, 3))
        m = IntervalMatrix.point(a)
        w = IntervalMatrix(m.lo - rng.uniform(0, 0.5, (3, 3)), m.hi + rng.uniform(0, 0.5, (3, 3)))
        assert spectral_norm_ub(w) >= spectral_norm_ub(m)


def test_ivec_norm_345():
    v = IntervalBox([3.0, 4.0], [3.0, 4.0])
    assert abs(ivec_norm_ub(v) - 5.0) <= 4 * math.ulp(5.0)
    assert ivec_norm_ub(IntervalBox.point([0.0, 0.0, 0.0])) == 0.0


def test_ivec_norm_golden():
    v = IntervalBox(YEPS_LO, YEPS_HI)
    ub = ivec_norm_ub(v)
    assert ub <= 1.409027398e-5 * (1 + 1e-6)
    assert abs(ub - 1.409027398e-5) <= 1e-12


def test_ilinsolve_identity():
    b = IntervalBox([1.0, -2.0], [1.5, -1.5])
    x = ilinsolve(IntervalMatrix.identity(2), b)
    assert x.contains_box(b)
    assert np.all(x.width() <= b.width() + 8 * np.spacing(2.0))


def test_ilinsolve_diagonal():
    m = IntervalMatrix.point([[2.0, 0.0], [0.0, 4.0]])
    b = IntervalBox([2.0, 4.0], [2.0, 4.0])
    x = ilinsolve(m, b)
    assert x.contains_point([1.0, 1.0])


def test_ilinsolve_random_vs_rational_oracle():
    rng = np.random.RandomState(seed=21)
    for _ in range(10):
        a = rng.uniform(-2, 2, (4, 4)) + 5 * np.eye(4)
        b = rng.uniform(-3, 3, 4)
        x = ilinsolve(IntervalMatrix.point(a), IntervalBox.point(b))
        af = [[Fraction(a[i, j]) for j in range(4)] for i in range(4)]
        bf = [Fraction(v) for v in b]
        # exact rational Gaussian elimination
        for k in range(4):
            p = max(range(k, 4), key=lambda i: abs(af[i][k]))
            af[k], af[p] = af[p], af[k]
            bf[k], bf[p] = bf[p], bf[k]
            for i in range(k + 1, 4):
                f = af[i][k] / af[k][k]
                bf[i] -= f * bf[k]
                for j in range(k, 4):
                    af[i][j] -= f * af[k][j]
        xf = [Fraction(0)] * 4
        for i in range(3, -1, -1):
            s = bf[i] - sum(af[i][j] * xf[j] for j in range(i + 1, 4))
            xf[i] = s / af[i][i]
        for i in range(4):
            assert Fraction(x[i].lo) <= xf[i] <= Fraction(x[i].hi)


def test_ilinsolve_residual_contains_zero():
    rng = np.random.RandomState(seed=13)
    for _ in range(10):
        a = rng.uniform(-1, 1, (3, 3)) + 3 * np.eye(3)
        m = IntervalMatrix(a - 1e-9, a + 1e-9)
        b = IntervalBox.point(rng.uniform(-2, 2, 3))
        x = ilinsolve(m, b)
        resid = imat_apply(m, x) - b
        assert resid.contains_zero()


def test_ilinsolve_unverifiable_raises():
    sing = IntervalMatrix.point([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(LinalgError):
        ilinsolve(sing, IntervalBox.point([1.0, 1.0]))


def test_iinverse_contains_true_inverse():
    rng = np.random.RandomState(seed=17)
    a = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
    inv = iinverse(IntervalMatrix.point(a))
    true_inv = np.linalg.inv(a)
    assert np.all(inv.lo <= true_inv + 1e-9) and np.all(true_inv - 1e-9 <= inv.hi)


# --- norm bounds against exact rational arithmetic ---------------------------

def _exact_mul_range(a, b):
    """Exact range of x*y over x in a, y in b (Fraction endpoint pairs)."""
    p = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return min(p), max(p)


def _exact_sqr_range(a):
    lo, hi = a
    m = max(abs(lo), abs(hi))
    return (Fraction(0) if lo <= 0 <= hi else min(abs(lo), abs(hi)) ** 2), m * m


def _exact_gershgorin(m: IntervalMatrix) -> Fraction:
    """max_i (hi G_ii + sum_{j != i} |G_ij|) of the exact interval Gram
    matrix G = A^T A, each entry a sum of exact interval products."""
    r, c = m.shape
    a = [[(Fraction(float(m.lo[i, j])), Fraction(float(m.hi[i, j]))) for j in range(c)]
         for i in range(r)]
    best = Fraction(0)
    for i in range(c):
        row = sum(_exact_sqr_range(a[k][i])[1] for k in range(r))
        for j in range(c):
            if j != i:
                ends = [_exact_mul_range(a[k][i], a[k][j]) for k in range(r)]
                row += max(abs(sum(e[0] for e in ends)), abs(sum(e[1] for e in ends)))
        best = max(best, row)
    return best


def _random_interval_matrix(rng, r, c, scale):
    mid = rng.uniform(-1, 1, (r, c))
    mid[rng.uniform(size=(r, c)) < 0.25] = 0.0
    rad = rng.uniform(0, 0.1, (r, c)) * (rng.uniform(size=(r, c)) < 0.5)
    return IntervalMatrix((mid - rad) * scale, (mid + rad) * scale)


@pytest.mark.parametrize("scale_exp", [-540, -300, -40, 0, 40, 300])
def test_spectral_norm_ub_squared_covers_exact_gershgorin(scale_exp):
    # power-of-two scalings keep the inputs exact; 2^-540 puts the Gram
    # entries in the subnormal range
    rng = np.random.default_rng(1000 + scale_exp)
    for _ in range(25):
        r, c = (int(x) for x in rng.integers(1, 7, 2))
        m = _random_interval_matrix(rng, r, c, 2.0 ** scale_exp)
        ub = spectral_norm_ub(m)
        assert math.isfinite(ub) and ub >= 0.0
        assert Fraction(ub) ** 2 >= _exact_gershgorin(m)


def test_spectral_norm_ub_exact_zeros():
    assert spectral_norm_ub(IntervalMatrix.zeros(3, 4)) == 0.0
    m = IntervalMatrix.point([[0.0, 3.0], [0.0, 4.0]])
    assert Fraction(spectral_norm_ub(m)) ** 2 >= 25
    assert spectral_norm_ub(IntervalMatrix.point([[2.0 ** -600]])) > 0.0


@pytest.mark.parametrize("scale_exp", [-560, -300, -40, 0, 40, 300])
def test_ivec_norm_ub_squared_covers_exact_sum_of_squares(scale_exp):
    rng = np.random.default_rng(2000 + scale_exp)
    for _ in range(40):
        m = _random_interval_matrix(rng, 1, int(rng.integers(0, 9)), 2.0 ** scale_exp)
        v = IntervalBox(m.lo[0], m.hi[0])
        ub = ivec_norm_ub(v)
        exact = sum(Fraction(float(max(abs(lo), abs(hi)))) ** 2 for lo, hi in zip(v.lo, v.hi))
        assert math.isfinite(ub) and Fraction(ub) ** 2 >= exact


def test_ivec_norm_ub_exact_zeros_and_subnormal_squares():
    assert ivec_norm_ub(IntervalBox.point([0.0] * 5)) == 0.0
    assert ivec_norm_ub(IntervalBox.point([])) == 0.0
    # the square is subnormal; with four terms the padded sum's lower
    # endpoint falls below zero, which only the upper endpoint may ignore
    v = IntervalBox.point([3.2e-162, 0.0, 0.0, 0.0])
    ub = ivec_norm_ub(v)
    assert Fraction(ub) ** 2 >= Fraction(3.2e-162) ** 2
    assert ub <= 1e-160


@pytest.mark.parametrize("v", [[1e200, 0.0], [1e154, 1e154], [1e200] * 4, [1e154] * 5])
def test_ivec_norm_ub_overflow_raises_interval_error(v):
    # the suite turns RuntimeWarning into an error, so a warning fails too
    with pytest.raises(IntervalError):
        ivec_norm_ub(IntervalBox.point(v))


@pytest.mark.parametrize("a", [[[1e200]], [[1e154, 1e154], [1e154, 1e154]]])
def test_spectral_norm_ub_overflow_raises_interval_error(a):
    with pytest.raises(IntervalError):
        spectral_norm_ub(IntervalMatrix.point(a))


def _exact_solve(a, b):
    """A^-1 B in exact rationals (Gauss-Jordan on [A | B])."""
    n, m = b.shape
    rows = [[Fraction(a[i, j]) for j in range(n)] + [Fraction(v) for v in b[i]]
            for i in range(n)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [u - f * w for u, w in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def test_igauss_and_imatsolve_contain_exact_solution():
    # the dominant entry of each column sits off the diagonal, so the
    # elimination pivots; _igauss runs on the raw system (imatsolve first
    # preconditions it to nearly the identity)
    rng = np.random.RandomState(seed=29)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            a = rng.uniform(-1, 1, (n, n)) + 4 * np.eye(n)[rng.permutation(n)]
            b = rng.uniform(-3, 3, (n, 3))
            exact = _exact_solve(a, b)
            x = imatsolve(IntervalMatrix.point(a), IntervalMatrix.point(b))
            glo, ghi = _igauss(IntervalMatrix.point(a), b, b)
            for i in range(n):
                for j in range(3):
                    assert Fraction(x.lo[i, j]) <= exact[i][j] <= Fraction(x.hi[i, j])
                    assert Fraction(glo[i, j]) <= exact[i][j] <= Fraction(ghi[i, j])


def test_ilinsolve_is_the_one_column_imatsolve():
    # on this system a Gauss-Seidel sweep after the elimination tightens the
    # second component; the solve is one elimination, bit for bit the
    # column of imatsolve, and holds the exact solution (6, 17/2)
    a = np.array([[2.5, -2.0], [-2.0, 1.5]])
    b = np.array([-2.0, 0.75])
    x = ilinsolve(IntervalMatrix.point(a), IntervalBox.point(b))
    col = imatsolve(IntervalMatrix.point(a), IntervalMatrix.point(b[:, None]))
    assert np.array_equal(x.lo, col.lo[:, 0]) and np.array_equal(x.hi, col.hi[:, 0])
    exact = _exact_solve(a, b[:, None])
    assert [row[0] for row in exact] == [6, Fraction(17, 2)]
    for i in range(2):
        assert Fraction(x.lo[i]) <= exact[i][0] <= Fraction(x.hi[i])


def test_matrix_index_keeps_a_dropped_axis_as_length_one():
    m = IntervalMatrix(np.arange(6.0).reshape(2, 3), np.arange(6.0).reshape(2, 3) + 0.5)
    col = m[:, 1]
    assert col.shape == (2, 1) and np.array_equal(col.lo, [[1.0], [4.0]])
    assert m[:, -1].shape == (2, 1) and m[1:, 2].shape == (1, 1)
    row = m[1]
    assert row.shape == (1, 3) and np.array_equal(row.hi, [[3.5, 4.5, 5.5]])
    assert m[1, :].shape == (1, 3)
    entry = m[1, 2]
    assert isinstance(entry, Interval) and (entry.lo, entry.hi) == (5.0, 5.5)


@pytest.mark.parametrize("end, bad", [("lo", np.nan), ("hi", np.nan), ("lo", np.inf),
                                      ("lo", -np.inf), ("hi", np.inf), ("hi", -np.inf)])
def test_matrix_rejects_non_finite_endpoints(end, bad):
    ends = {"lo": np.full((2, 2), -1.0), "hi": np.full((2, 2), 1.0)}
    ends[end][1, 0] = bad
    with pytest.raises(IntervalError, match="matrix endpoints must be finite"):
        IntervalMatrix(ends["lo"], ends["hi"])


def test_matrix_rejects_lo_above_hi():
    lo, hi = np.zeros((2, 2)), np.ones((2, 2))
    lo[0, 1] = 1.0 + 2.0**-52
    with pytest.raises(IntervalError, match="matrix entry with lo > hi"):
        IntervalMatrix(lo, hi)
    lo[0, 1] = 1.0
    IntervalMatrix(lo, hi)
