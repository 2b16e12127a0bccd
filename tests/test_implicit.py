"""Implicit function enclosures against closed-form oracles."""

from fractions import Fraction

import numpy as np
import pytest

from splitcert.implicit import (
    GOracle,
    ImplicitContractionError,
    implicit_enclose,
    implicit_first,
    implicit_jet,
    implicit_mixed_second,
)
from splitcert.intervals import IntervalBox
from splitcert.polys import PolyMap


def poly_goracle(pm: PolyMap, kx: int, kk: int) -> GOracle:
    return GOracle(kx, kk, lambda X, K: pm.jet(X.concat(K)))


def cubic_root(t: float) -> float:
    """Float Newton for k^3 + k = t."""
    k = t
    for _ in range(80):
        k -= (k**3 + k - t) / (3 * k * k + 1)
    return k


# vars: (eps, x, kappa)
G_LINEAR = poly_goracle(PolyMap(3, [[(1.0, (0, 0, 1)), (-1.0, (0, 1, 0))]]), 1, 1)  # k - x
G_CUBIC = poly_goracle(PolyMap(3, [[(1.0, (0, 0, 3)), (1.0, (0, 0, 1)), (-1.0, (0, 1, 0))]]), 1, 1)  # k^3+k-x
G_BILINEAR = poly_goracle(PolyMap(3, [[(1.0, (0, 0, 1)), (-1.0, (1, 1, 0))]]), 1, 1)  # k - eps*x
G_CUBIC_EPS = poly_goracle(
    PolyMap(3, [[(1.0, (0, 0, 3)), (1.0, (0, 0, 1)), (-1.0, (0, 1, 0)), (-1.0, (1, 1, 0))]]),
    1, 1,
)  # k^3 + k - (1+eps) x


def test_enclose_linear_graph():
    X = IntervalBox([0.0, 0.0], [1.0, 1.0])
    enc = implicit_enclose(G_LINEAR, X, IntervalBox([-0.1], [1.1]), k0=[0.5])
    assert enc.image.contains_box(IntervalBox([0.0], [1.0]))
    assert enc.image[0].width <= 1.2


def test_enclose_cubic():
    X = IntervalBox([0.0, 0.0], [0.0, 0.5])
    enc = implicit_enclose(G_CUBIC, X, IntervalBox([-0.1], [0.6]), k0=[0.25])
    root_half = cubic_root(0.5)
    assert enc.image[0].contains(root_half)
    assert enc.image[0].contains(0.0)


def test_enclose_singular_raises():
    # g = k^2 - x with x and K containing 0: dg/dk contains 0
    g = poly_goracle(PolyMap(3, [[(1.0, (0, 0, 2)), (-1.0, (0, 1, 0))]]), 1, 1)
    X = IntervalBox([0.0, -0.1], [0.0, 0.1])
    with pytest.raises(ImplicitContractionError):
        implicit_enclose(g, X, IntervalBox([-0.3], [0.3]), k0=[0.0])


def test_first_linear():
    X = IntervalBox([0.0, 0.0], [1.0, 1.0])
    enc = implicit_enclose(G_LINEAR, X, IntervalBox([-0.1], [1.1]), k0=[0.5])
    d_eps, d_x = implicit_first(G_LINEAR, X, enc.image)
    assert d_x[0, 0].contains(1.0) and d_x[0, 0].width <= 1e-12
    assert d_eps[0, 0].contains(0.0) and d_eps[0, 0].width <= 1e-12


def test_first_cubic_analytic_range():
    X = IntervalBox([0.0, 0.0], [0.0, 0.5])
    enc = implicit_enclose(G_CUBIC, X, IntervalBox([-0.1], [0.6]), k0=[0.25])
    d_eps, d_x = implicit_first(G_CUBIC, X, enc.image)
    for t in np.linspace(0, 0.5, 9):
        k = cubic_root(t)
        assert d_x[0, 0].contains(1.0 / (3 * k * k + 1))
    assert d_x[0, 0].lo >= 0.55 and d_x[0, 0].hi <= 1.05
    assert d_eps[0, 0].contains(0.0)


def test_first_bilinear():
    X = IntervalBox([0.0, -1.0], [0.5, 1.0])
    enc = implicit_enclose(G_BILINEAR, X, IntervalBox([-1.5], [1.5]), k0=[0.0])
    d_eps, d_x = implicit_first(G_BILINEAR, X, enc.image)
    for eps in (0.0, 0.25, 0.5):
        for x in (-1.0, 0.0, 1.0):
            assert d_eps[0, 0].contains(x)     # dk/deps = x
            assert d_x[0, 0].contains(eps)     # dk/dx = eps


def test_mixed_second_trivial_zero():
    X = IntervalBox([0.0, 0.0], [1.0, 1.0])
    enc = implicit_enclose(G_LINEAR, X, IntervalBox([-0.1], [1.1]), k0=[0.5])
    firsts = implicit_first(G_LINEAR, X, enc.image)
    mixed = implicit_mixed_second(G_LINEAR, X, enc.image, firsts)
    assert mixed[0, 0].contains(0.0) and mixed[0, 0].width <= 1e-12


def test_mixed_second_bilinear_closed_form():
    X = IntervalBox([0.0, -1.0], [0.5, 1.0])
    enc = implicit_enclose(G_BILINEAR, X, IntervalBox([-1.5], [1.5]), k0=[0.0])
    firsts = implicit_first(G_BILINEAR, X, enc.image)
    mixed = implicit_mixed_second(G_BILINEAR, X, enc.image, firsts)
    assert mixed[0, 0].contains(1.0)  # kappa = eps x


def analytic_cubic_eps(eps: float, x: float):
    k = cubic_root((1 + eps) * x)
    q = 3 * k * k + 1
    dk_dx = (1 + eps) / q
    dk_de = x / q
    mixed = (q - 6 * k * x * (1 + eps) / q) / (q * q)
    return k, dk_de, dk_dx, mixed


def test_mixed_second_cubic_eps_analytic():
    X = IntervalBox([0.0, 0.0], [0.1, 0.3])
    enc = implicit_enclose(G_CUBIC_EPS, X, IntervalBox([-0.1], [0.45]), k0=[0.15])
    firsts = implicit_first(G_CUBIC_EPS, X, enc.image)
    mixed = implicit_mixed_second(G_CUBIC_EPS, X, enc.image, firsts)
    for eps in np.linspace(0, 0.1, 4):
        for x in np.linspace(0, 0.3, 5):
            k, dk_de, dk_dx, m = analytic_cubic_eps(eps, x)
            assert enc.image[0].contains(k)
            assert firsts[0][0, 0].contains(dk_de)
            assert firsts[1][0, 0].contains(dk_dx)
            assert mixed[0, 0].contains(m)


def test_implicit_jet_cubic_eps_analytic():
    # kappa(eps, x) = r((1 + eps) x) with r the inverse of k^3 + k, so with
    # t = (1 + eps) x, q = 3 k^2 + 1 and r'' = -6 k / q^3:
    #   k_ee = r'' x^2,  k_ex = r'' x (1 + eps) + 1/q,  k_xx = r'' (1 + eps)^2
    X = IntervalBox([0.0, 0.0], [0.1, 0.3])
    enc = implicit_enclose(G_CUBIC_EPS, X, IntervalBox([-0.1], [0.45]), k0=[0.15])
    jet = implicit_jet(G_CUBIC_EPS, X, enc.image)
    assert jet.value.contains_box(enc.image) and enc.image.contains_box(jet.value)
    for eps in np.linspace(0, 0.1, 4):
        for x in np.linspace(0, 0.3, 5):
            k, dk_de, dk_dx, k_ex = analytic_cubic_eps(eps, x)
            q = 3 * k * k + 1
            r2 = -6 * k / q**3
            assert jet.d1[0, 0].contains(dk_de) and jet.d1[0, 1].contains(dk_dx)
            expected = {(0, 0): r2 * x * x, (0, 1): k_ex, (1, 0): k_ex,
                        (1, 1): r2 * (1 + eps) ** 2}
            for (a, b), val in expected.items():
                assert jet.d2lo[0, a, b] <= val <= jet.d2hi[0, a, b], (a, b, eps, x)


def test_implicit_jet_projection_condition_exact_zero():
    # g = pi w(eps, k) - x with w linear in k: g'' = 0, so d2 kappa is an
    # exact zero, and kappa = A^-1 (x - eps c) has an exact first derivative
    g = poly_goracle(PolyMap(5, [
        [(2.0, (0, 0, 0, 1, 0)), (1.0, (0, 0, 0, 0, 1)), (1.0, (1, 0, 0, 0, 0)), (-1.0, (0, 1, 0, 0, 0))],
        [(1.0, (0, 0, 0, 1, 0)), (3.0, (0, 0, 0, 0, 1)), (-1.0, (1, 0, 0, 0, 0)), (-1.0, (0, 0, 1, 0, 0))],
    ]), 2, 2)
    X = IntervalBox([0.0, -0.5, -0.5], [0.1, 0.5, 0.5])
    enc = implicit_enclose(g, X, IntervalBox([-1.0, -1.0], [1.0, 1.0]), k0=[0.0, 0.0])
    jet = implicit_jet(g, X, enc.image)
    assert np.all(jet.d2lo == 0.0) and np.all(jet.d2hi == 0.0)
    dk = [[Fraction(-4, 5), Fraction(3, 5), Fraction(-1, 5)],
          [Fraction(3, 5), Fraction(-1, 5), Fraction(2, 5)]]
    for i in range(2):
        for j in range(3):
            assert jet.d1.lo[i, j] <= dk[i][j] <= jet.d1.hi[i, j]
    mixed = implicit_mixed_second(g, X, enc.image, implicit_first(g, X, enc.image))
    assert np.all(mixed.lo == 0.0) and np.all(mixed.hi == 0.0)


def test_finite_difference_containment():
    X = IntervalBox([0.0, 0.0], [0.1, 0.3])
    enc = implicit_enclose(G_CUBIC_EPS, X, IntervalBox([-0.1], [0.45]), k0=[0.15])
    d_eps, d_x = implicit_first(G_CUBIC_EPS, X, enc.image)
    h = 1e-6
    rng = np.random.RandomState(4)
    for _ in range(20):
        eps = rng.uniform(0.0 + h, 0.1 - h)
        x = rng.uniform(0.0 + h, 0.3 - h)
        fd_e = (cubic_root((1 + eps + h) * x) - cubic_root((1 + eps - h) * x)) / (2 * h)
        fd_x = (cubic_root((1 + eps) * (x + h)) - cubic_root((1 + eps) * (x - h))) / (2 * h)
        assert d_eps[0, 0].lo - 1e-6 <= fd_e <= d_eps[0, 0].hi + 1e-6
        assert d_x[0, 0].lo - 1e-6 <= fd_x <= d_x[0, 0].hi + 1e-6


def test_narrowing_domain_narrows_enclosures():
    X_wide = IntervalBox([0.0, 0.0], [0.1, 0.3])
    X_narrow = IntervalBox([0.0, 0.1], [0.05, 0.2])
    K = IntervalBox([-0.1], [0.45])
    enc_w = implicit_enclose(G_CUBIC_EPS, X_wide, K, k0=[0.15])
    enc_n = implicit_enclose(G_CUBIC_EPS, X_narrow, K, k0=[0.15])
    fw = implicit_first(G_CUBIC_EPS, X_wide, enc_w.image)
    fn = implicit_first(G_CUBIC_EPS, X_narrow, enc_n.image)
    assert enc_n.image[0].width <= enc_w.image[0].width + 1e-15
    assert fn[1][0, 0].width <= fw[1][0, 0].width + 1e-15
