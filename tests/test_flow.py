"""Validated flow integration: coefficients, enclosures, jet transport."""

import math

import numpy as np
import pytest

from splitcert.intervals import Interval, IntervalBox
from splitcert.jets import Jet2Enclosure, jet2_compose
from splitcert.polys import PolyMap, VectorFieldDef
from splitcert.flow import FlowError, FlowSettings, flow_jet, rough_enclosure, taylor_coeffs

# simple fields (vars: eps, x...)
F_EXP = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 1))]]))          # x' = x
F_SQ = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 2))]]))           # x' = x^2
F_ROT = VectorFieldDef(2, PolyMap(3, [[(1.0, (0, 0, 1))], [(-1.0, (0, 1, 0))]]))
F_CONST = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 0))]]))        # x' = 1
F_ZERO = VectorFieldDef(1, PolyMap(2, [[]]))                      # x' = 0
# x' = x + eps (eps-coupled, solution x = (x0+eps) e^t - eps)
F_EPS = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 1)), (1.0, (1, 0))]]))

SET = FlowSettings(taylor_order=14, initial_step=0.25)
SET_DIRECT = FlowSettings(taylor_order=14, initial_step=0.25, wrapping_control="direct")


def ident(x):
    return Jet2Enclosure.identity(IntervalBox(x, x))


def test_taylor_coeffs_exponential():
    cs = taylor_coeffs(F_EXP, ident([1.0]), 8)
    for k, c in enumerate(cs):
        assert c.value[0].contains(1.0 / math.factorial(k))
        assert c.value[0].width <= 1e-12
        # variational first-derivative coefficients are also 1/k!
        assert c.d1[0, 1].contains(1.0 / math.factorial(k))


def test_taylor_coeffs_linear_variational_matrix_powers():
    # x' = A x with A the rotation generator: variational coeffs A^k / k!
    cs = taylor_coeffs(F_ROT, ident([0.3, -0.2]), 6)
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    M = np.eye(2)
    for k, c in enumerate(cs):
        assert c.dstate().contains_matrix(M / math.factorial(k))
        M = M @ A


def test_taylor_coeffs_geometric():
    cs = taylor_coeffs(F_SQ, ident([1.0]), 6)
    for c in cs:
        assert c.value[0].contains(1.0)
        assert c.value[0].width <= 1e-10


def test_rough_enclosure_cases():
    z = rough_enclosure(F_ZERO, IntervalBox([2.0], [2.0]), Interval(0, 0), 0.5)
    assert z[0].contains(2.0) and z[0].width <= 1e-6
    z = rough_enclosure(F_CONST, IntervalBox([0.0], [0.0]), Interval(0, 0), 0.1)
    assert z[0].contains(0.0) and z[0].contains(0.1)
    z = rough_enclosure(F_EXP, IntervalBox([1.0], [1.0]), Interval(0, 0), 0.1)
    assert z[0].contains(1.0) and z[0].hi >= math.exp(0.1) * (1 - 1e-12)


@pytest.mark.parametrize("settings", [SET, SET_DIRECT])
def test_flow_exponential(settings):
    j = flow_jet(F_EXP, ident([1.0]), Interval(0, 0), 1.0, settings)
    assert j.value[0].contains(math.e)
    assert j.value[0].width <= 1e-12
    assert j.d1[0, 1].contains(math.e)


@pytest.mark.parametrize("settings", [SET, SET_DIRECT])
def test_flow_rotation_quarter_turn(settings):
    # acceptance-grade: value and first derivative enclose the rotation,
    # second derivatives enclose zero
    j = flow_jet(F_ROT, ident([1.0, 0.0]), Interval(0, 0), math.pi / 2, settings)
    assert j.value[0].contains(0.0) and j.value[1].contains(-1.0)
    assert np.all(j.value.width() <= 1e-8)
    rot = np.array([[math.cos(math.pi / 2), math.sin(math.pi / 2)],
                    [-math.sin(math.pi / 2), math.cos(math.pi / 2)]])
    assert j.dstate().contains_matrix(rot)
    assert j.dstate().max_width() <= 1e-8
    assert np.all(j.d2lo <= 0.0) and np.all(0.0 <= j.d2hi)
    assert np.max(j.d2hi - j.d2lo) <= 1e-8


def test_flow_backward_inverts():
    j = flow_jet(F_EXP, ident([1.0]), Interval(0, 0), -1.0, SET)
    assert j.value[0].contains(1.0 / math.e)


def test_forward_then_backward_contains_start():
    j1 = flow_jet(F_ROT, ident([0.7, 0.1]), Interval(0, 0), 1.0, SET)
    j2 = flow_jet(F_ROT, Jet2Enclosure.identity(j1.value), Interval(0, 0), -1.0, SET)
    assert j2.value[0].contains(0.7) and j2.value[1].contains(0.1)


def test_semigroup_composition_intersects():
    full = flow_jet(F_ROT, ident([0.5, 0.2]), Interval(0, 0), 1.0, SET)
    half = flow_jet(F_ROT, ident([0.5, 0.2]), Interval(0, 0), 0.5, SET)
    second = flow_jet(F_ROT, Jet2Enclosure.identity(half.value), Interval(0, 0), 0.5, SET)
    comp = jet2_compose(second, half)
    for i in range(2):
        assert comp.value[i].intersect(full.value[i]) is not None
        assert abs(comp.value[i].mid - full.value[i].mid) <= 1e-10


def test_eps_derivative_closed_form():
    # x' = x + eps: x(t) = (x0 + eps) e^t - eps; dx/deps = e^t - 1
    eps = Interval(0.0, 0.01)
    j = flow_jet(F_EPS, ident([1.0]), eps, 1.0, SET)
    for e in (0.0, 0.005, 0.01):
        assert j.value[0].contains((1 + e) * math.e - e)
    assert j.d1[0, 0].contains(math.e - 1.0)
    assert j.d1[0, 1].contains(math.e)
    # mixed second derivatives are zero for this affine flow
    assert j.d2lo[0, 0, 1] <= 0.0 <= j.d2hi[0, 0, 1]


def test_second_derivative_quadratic_closed_form():
    # x' = x^2: x(t) = x0/(1 - t x0); at t=0.5:
    # d2x/dx0^2 = 2 t / (1 - t x0)^3
    t = 0.5
    x0 = 1.0
    j = flow_jet(F_SQ, ident([x0]), Interval(0, 0), t, SET)
    denom = 1 - t * x0
    assert j.value[0].contains(x0 / denom)
    assert j.d1[0, 1].contains(1.0 / denom**2)
    d2 = 2 * t / denom**3
    assert j.d2lo[0, 1, 1] <= d2 <= j.d2hi[0, 1, 1]
    assert j.d2hi[0, 1, 1] - j.d2lo[0, 1, 1] <= 1e-7


def test_jet_blocks_contain_finite_differences():
    # nonrigorous high-accuracy integration at perturbed points
    def rk4(x, T, nsteps=4000):
        x = np.array(x, dtype=float)
        h = T / nsteps
        for _ in range(nsteps):
            k1 = np.array([x[1], -x[0]])
            k2 = np.array([(x + h / 2 * k1)[1], -(x + h / 2 * k1)[0]])
            k3 = np.array([(x + h / 2 * k2)[1], -(x + h / 2 * k2)[0]])
            k4 = np.array([(x + h * k3)[1], -(x + h * k3)[0]])
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    base = np.array([0.4, -0.3])
    dom = IntervalBox(base - 1e-4, base + 1e-4)
    j = flow_jet(F_ROT, Jet2Enclosure.identity(dom), Interval(0, 0), 1.0, SET,
                 domain=dom, x0_center=Jet2Enclosure.identity(IntervalBox.point(base)))
    h = 1e-5
    rng = np.random.RandomState(0)
    for _ in range(5):
        p = rng.uniform(dom.lo + h, dom.hi - h)
        for v in range(2):
            dp = np.zeros(2)
            dp[v] = h
            fd = (rk4(p + dp, 1.0) - rk4(p - dp, 1.0)) / (2 * h)
            for i in range(2):
                assert j.d1[i, 1 + v].lo - 1e-6 <= fd[i] <= j.d1[i, 1 + v].hi + 1e-6


def test_step_failure_reports():
    # x' = x^2 blows up at t = 1/x0; integration to t >= 1 must fail
    with pytest.raises(FlowError):
        flow_jet(F_SQ, ident([1.0]), Interval(0, 0), 1.2,
                 FlowSettings(taylor_order=8, initial_step=0.25, min_step=1e-3, max_steps=200))


def test_flow_zero_time_is_identity():
    j0 = ident([1.0, 2.0])
    assert flow_jet(F_ROT, j0, Interval(0, 0), 0.0, SET) is j0


def test_field_tables_kept_on_the_field():
    import splitcert.flow as flow

    f = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 2)), (0.5, (1, 0))]]))
    assert flow._tables(f) is flow._tables(f)
    assert flow._tables(f).field is f
    neg = f.negated()
    assert flow._tables(neg) is not flow._tables(f) and flow._tables(neg).field is neg
    assert not hasattr(flow, "_TABLE_CACHE")


def test_transport_is_deterministic_within_a_process():
    # interval sums follow numpy's reduction order; one process must still
    # reproduce a run bit for bit (first criterion-5 initial condition)
    from splitcert.lerman import LUConfig, lu_field

    rng = np.random.RandomState(20240817)
    x0 = rng.uniform(-1.0, 1.0, 4)
    x0 *= rng.uniform(0.05, 0.5) / np.linalg.norm(x0)
    runs = [flow_jet(lu_field(LUConfig()), Jet2Enclosure.identity(IntervalBox.point(x0)),
                     Interval(0.0, 0.0), 1.0, SET) for _ in range(2)]
    a, b = runs
    for x, y in [(a.value.lo, b.value.lo), (a.value.hi, b.value.hi), (a.d1.lo, b.d1.lo),
                 (a.d1.hi, b.d1.hi), (a.d2lo, b.d2lo), (a.d2hi, b.d2hi)]:
        assert x.tobytes() == y.tobytes()
