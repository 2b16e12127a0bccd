"""Jet composition: chain rule containment against symbolic oracles."""

import numpy as np
import pytest

from splitcert.intervals import Interval, IntervalBox, IntervalError
from splitcert.jets import Jet2Enclosure, jet2_compose, jet2_stack
from splitcert.matrices import IntervalMatrix
from splitcert.polys import PolyMap


def test_compose_identity_is_neutral():
    # inner jet: x -> x + x^2 over x in [0.9, 1.1], vars (eps, x)
    g = PolyMap(2, [[(1.0, (0, 1)), (1.0, (0, 2))]])
    box = IntervalBox([0.0, 0.9], [0.0, 1.1])
    jg = g.jet(box)
    ident = Jet2Enclosure.identity(jg.value)
    composed = jet2_compose(ident, jg)
    assert composed.value.contains_box(jg.value)
    assert composed.d1.contains(jg.d1)
    assert np.all(composed.d2lo <= jg.d2lo + 1e-15) and np.all(jg.d2hi <= composed.d2hi + 1e-15)


def test_compose_affine_affine_zero_second():
    b1 = np.array([[2.0, 1.0], [0.0, 3.0]])
    b2 = np.array([[1.0, -1.0], [2.0, 0.5]])
    inner = Jet2Enclosure.affine(
        IntervalBox([-1, -1], [1, 1]),
        IntervalMatrix.point(np.hstack([np.zeros((2, 1)), b2])),
    )
    outer = Jet2Enclosure.affine(
        IntervalBox([-9, -9], [9, 9]),
        IntervalMatrix.point(np.hstack([np.zeros((2, 1)), b1])),
    )
    c = jet2_compose(outer, inner)
    prod = b1 @ b2
    assert c.dstate().contains_matrix(prod)
    assert c.dstate().max_width() <= 1e-12
    assert np.all(c.d2lo == 0.0) and np.all(c.d2hi == 0.0)


def test_compose_square_of_quadratic_symbolic_oracle():
    # outer f(y) = y^2 over the image of g, inner g(x) = x + x^2 on [0.9, 1.1]
    g = PolyMap(2, [[(1.0, (0, 1)), (1.0, (0, 2))]])
    xbox = IntervalBox([0.0, 0.9], [0.0, 1.1])
    jg = g.jet(xbox)
    f = PolyMap(2, [[(1.0, (0, 2))]])
    ybox = IntervalBox(np.concatenate([[0.0], jg.value.lo]), np.concatenate([[0.0], jg.value.hi]))
    jf = f.jet(ybox)
    c = jet2_compose(jf, jg)
    # analytic second derivative of (x + x^2)^2 is 2(1+2x)^2 + 4(x + x^2)
    for x in np.linspace(0.9, 1.1, 7):
        d2 = 2 * (1 + 2 * x) ** 2 + 4 * (x + x * x)
        assert c.d2lo[0, 1, 1] <= d2 <= c.d2hi[0, 1, 1]
        d1 = 2 * (x + x * x) * (1 + 2 * x)
        assert c.d1[0, 1].contains(d1)
        assert c.value[0].contains((x + x * x) ** 2)


def test_compose_threads_eps_once():
    # inner u(eps, x) = x + eps, outer w(eps, u) = u * eps
    # composite w = (x + eps) eps: dw/deps = x + 2 eps, d2w/deps2 = 2,
    # d2w/deps dx = 1
    inner = PolyMap(2, [[(1.0, (0, 1)), (1.0, (1, 0))]])
    ib = IntervalBox([0.0, -1.0], [0.5, 1.0])
    ji = inner.jet(ib)
    outer = PolyMap(2, [[(1.0, (1, 1))]])
    ob = IntervalBox(np.concatenate([[0.0], ji.value.lo]), np.concatenate([[0.5], ji.value.hi]))
    jo = outer.jet(ob)
    c = jet2_compose(jo, ji)
    for eps in (0.0, 0.25, 0.5):
        for x in (-1.0, 0.3, 1.0):
            assert c.value[0].contains((x + eps) * eps)
            assert c.d1[0, 0].contains(x + 2 * eps)
            assert c.d1[0, 1].contains(eps)
            assert c.d2lo[0, 0, 0] <= 2.0 <= c.d2hi[0, 0, 0]
            assert c.d2lo[0, 0, 1] <= 1.0 <= c.d2hi[0, 0, 1]


def test_compose_dimension_mismatch():
    j1 = Jet2Enclosure.identity(IntervalBox([0.0, 0.0], [1.0, 1.0]))
    j2 = Jet2Enclosure.identity(IntervalBox([0.0], [1.0]))
    with pytest.raises(IntervalError):
        jet2_compose(j1, j2)


def test_stack_and_project():
    a = Jet2Enclosure.identity(IntervalBox([0.0], [1.0]))
    b = Jet2Enclosure.constant(IntervalBox([5.0], [5.0]), state_dim=1)
    s = jet2_stack(a, b)
    assert s.out_dim == 2
    assert s.value[1].contains(5.0)
    p = s.project([1])
    assert p.out_dim == 1 and p.value[0].contains(5.0)


def test_d2_symmetrized_by_intersection():
    val = IntervalBox([0.0], [1.0])
    d1 = IntervalMatrix.zeros(1, 2)
    d2lo = np.zeros((1, 2, 2))
    d2hi = np.zeros((1, 2, 2))
    d2lo[0, 0, 1], d2hi[0, 0, 1] = 1.0, 3.0
    d2lo[0, 1, 0], d2hi[0, 1, 0] = 2.0, 5.0
    j = Jet2Enclosure(val, d1, d2lo, d2hi)
    assert j.d2lo[0, 0, 1] == 2.0 and j.d2hi[0, 0, 1] == 3.0
    assert j.d2lo[0, 1, 0] == 2.0 and j.d2hi[0, 1, 0] == 3.0
    d2lo[0, 1, 0], d2hi[0, 1, 0] = 4.0, 5.0  # disjoint from (1,3)
    with pytest.raises(IntervalError):
        Jet2Enclosure(val, d1, d2lo, d2hi)


@pytest.mark.parametrize("end, bad", [("lo", np.nan), ("hi", np.nan), ("lo", -np.inf),
                                      ("lo", np.inf), ("hi", np.inf), ("hi", -np.inf)])
def test_non_finite_d2_endpoints_are_rejected(end, bad):
    # a NaN compares false, so a NaN block would pass the lo > hi test; an
    # infinite one is no bounded enclosure, as IntervalBox/IntervalMatrix
    # require of the value and d1
    val = IntervalBox([0.0], [1.0])
    d1 = IntervalMatrix.zeros(1, 2)
    d2 = {"lo": np.full((1, 2, 2), -1.0), "hi": np.full((1, 2, 2), 1.0)}
    d2[end][0, 1, 1] = bad
    with pytest.raises(IntervalError, match="d2 block endpoints must be finite"):
        Jet2Enclosure(val, d1, d2["lo"], d2["hi"])
    with pytest.raises(IntervalError, match="must be finite"):
        IntervalMatrix(np.full((1, 2), -1.0), np.full((1, 2), bad))


def test_d2_diagonal_with_lo_above_hi_is_rejected():
    val = IntervalBox([0.0], [1.0])
    d1 = IntervalMatrix.zeros(1, 2)
    d2lo, d2hi = np.zeros((1, 2, 2)), np.zeros((1, 2, 2))
    d2lo[0, 1, 1] = 2.0**-1074
    with pytest.raises(IntervalError, match="mixed-partial enclosures do not intersect"):
        Jet2Enclosure(val, d1, d2lo, d2hi)
    d2lo[0, 1, 1] = -0.0
    Jet2Enclosure(val, d1, d2lo, d2hi)


def test_jet_sub_for_distance_functions():
    g = PolyMap(2, [[(1.0, (0, 2))]])
    box = IntervalBox([0.0, -0.1], [0.0, 0.1])
    ju = g.jet(box)
    js = PolyMap(2, [[(-1.0, (0, 2))]]).jet(box)
    d = ju - js
    for x in (-0.1, 0.0, 0.05, 0.1):
        assert d.value[0].contains(2 * x * x)
        assert d.d1[0, 1].contains(4 * x)
