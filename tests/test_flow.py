"""Validated flow integration: coefficients, enclosures, jet transport."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from splitcert.intervals import Interval, IntervalBox, IntervalError
from splitcert.jets import Jet2Enclosure, jet2_compose
from splitcert.matrices import IntervalMatrix
from splitcert.polys import PolyMap, VectorFieldDef
from splitcert.flow import (FlowError, FlowSettings, _iexp_ub, flow_jet, point_flow,
                            point_flow_jet, rough_enclosure, taylor_coeffs)

# simple fields (vars: eps, x...)
F_EXP = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 1))]]))          # x' = x
F_SQ = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 2))]]))           # x' = x^2
F_ROT = VectorFieldDef(2, PolyMap(3, [[(1.0, (0, 0, 1))], [(-1.0, (0, 1, 0))]]))
F_CONST = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 0))]]))        # x' = 1
F_ZERO = VectorFieldDef(1, PolyMap(2, [[]]))                      # x' = 0
# x' = x + eps (eps-coupled, solution x = (x0+eps) e^t - eps)
F_EPS = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 1)), (1.0, (1, 0))]]))
# x' = eps x (solution x = x0 e^(eps t))
F_EPSX = VectorFieldDef(1, PolyMap(2, [[(1.0, (1, 1))]]))

SET = FlowSettings(taylor_order=14, initial_step=0.25)


@pytest.mark.parametrize("kw", [{"initial_step": math.inf}, {"initial_step": math.nan},
                                {"min_step": math.nan}, {"taylor_order": math.nan}],
                         ids=["initial_inf", "initial_nan", "min_nan", "order_nan"])
def test_flow_settings_reject_non_finite_values(kw):
    with pytest.raises(IntervalError):
        FlowSettings(**kw)


def test_wrapping_control_accepts_only_parallelepiped():
    assert FlowSettings(wrapping_control="parallelepiped").wrapping_control == "parallelepiped"
    with pytest.raises(IntervalError):
        FlowSettings(wrapping_control="direct")


def ident(x):
    return Jet2Enclosure.identity(IntervalBox(x, x))


def test_taylor_coeffs_exponential():
    cs = taylor_coeffs(F_EXP, ident([1.0]), 8)
    for k, c in enumerate(cs):
        assert c.value[0].contains(1.0 / math.factorial(k))
        assert c.value[0].width <= 1e-12
        # variational first-derivative coefficients are also 1/k!
        assert c.d1[0, 1].contains(1.0 / math.factorial(k))


def test_taylor_coeffs_at_order_60_contain_the_exact_coefficients():
    # x' = x from x0: z_k = x0 / k! and dz_k/dx0 = 1 / k!, in Fractions;
    # from order 48 on some divisors k have an fl(1/k) off by more than
    # half an ulp, and the series divides by k itself
    x0 = 71.46976991543784
    cs = taylor_coeffs(F_EXP, ident([x0]), 60)
    for k, c in enumerate(cs):
        inv = Fraction(1, math.factorial(k))
        assert Fraction(c.value.lo[0]) <= Fraction(x0) * inv <= Fraction(c.value.hi[0]), k
        assert Fraction(c.d1.lo[0, 1]) <= inv <= Fraction(c.d1.hi[0, 1]), k
        assert c.value.hi[0] - c.value.lo[0] <= 1e-13 * c.value.hi[0]


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
    # point states: the Picard image of F_ZERO has width 0, and no width
    # ratio may warn; the enclosures are pinned to the bit
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z = rough_enclosure(F_ZERO, IntervalBox([2.0], [2.0]), Interval(0, 0), 0.5)
        assert z[0].contains(2.0) and z[0].width <= 1e-6
        assert (z.lo[0], z.hi[0]) == (2.0, 2.0)
        z = rough_enclosure(F_CONST, IntervalBox([0.0], [0.0]), Interval(0, 0), 0.1)
        assert z[0].contains(0.0) and z[0].contains(0.1)
        assert (z.lo[0], z.hi[0]) == (-5e-324, 0.10000000000000002)
        z = rough_enclosure(F_EXP, IntervalBox([1.0], [1.0]), Interval(0, 0), 0.1)
        assert z[0].contains(1.0) and z[0].hi >= math.exp(0.1) * (1 - 1e-12)
        assert (z.lo[0], z.hi[0]) == (0.9999999999999999, 1.1112100550000001)


@pytest.mark.parametrize("field, x0, step, most", [
    (F_SQ, [1.0], 2.0, 3),         # past the blow-up of x0/(1 - t x0) at t = 1
    (F_ROT, [1.0, 0.0], 1.0, 7),   # h |A| = 1: ran all 24 attempts before
], ids=["square_past_blowup", "rotation_h1"])
def test_rough_enclosure_stops_when_picard_stops_contracting(monkeypatch, field, x0, step,
                                                             most):
    import splitcert.flow as flow

    calls = []
    eval_field = flow._eval_field

    def counted(*args):
        calls.append(1)
        return eval_field(*args)

    monkeypatch.setattr(flow, "_eval_field", counted)
    with pytest.raises(FlowError, match="stopped contracting"):
        rough_enclosure(field, IntervalBox(x0, x0), Interval(0, 0), step)
    assert len(calls) <= most < flow._ROUGH_ATTEMPTS


@pytest.mark.parametrize("settings", [SET])
def test_flow_exponential(settings):
    j = flow_jet(F_EXP, ident([1.0]), Interval(0, 0), 1.0, settings)
    assert j.value[0].contains(math.e)
    assert j.value[0].width <= 1e-12
    assert j.d1[0, 1].contains(math.e)


@pytest.mark.parametrize("settings", [SET])
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


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_time_raises_before_any_step(T):
    # a NaN T would skip the step loop and hand back the start untransported
    with pytest.raises(IntervalError, match="finite"):
        flow_jet(F_ROT, ident([1.0, 2.0]), Interval(0, 0), T, SET)
    for transport in (point_flow, point_flow_jet):
        with pytest.raises(IntervalError, match="finite"):
            transport(F_ROT, 0.0, np.array([1.0, 2.0]), T)


def test_field_tables_kept_on_the_field():
    import splitcert.flow as flow

    f = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 2)), (0.5, (1, 0))]]))
    assert flow._tables(f) is flow._tables(f)
    assert flow._tables(f).field is f
    neg = f.negated()
    assert flow._tables(neg) is not flow._tables(f) and flow._tables(neg).field is neg
    assert not hasattr(flow, "_TABLE_CACHE")


def _criterion5_x0(index: int = 0):
    """Criterion-5 initial condition number ``index`` (from 0) of the
    worked example."""
    rng = np.random.RandomState(20240817)
    for _ in range(index + 1):
        x0 = rng.uniform(-1.0, 1.0, 4)
        x0 = x0 * rng.uniform(0.05, 0.5) / np.linalg.norm(x0)
    return x0


def _record_attempts(monkeypatch) -> list:
    """Wrap the flow's one-step function; the returned list fills with one
    (outcome, step) pair per attempt, outcome "A" (accepted), "E" (error
    estimate too large) or "R" (rough enclosure failed)."""
    import splitcert.flow as flow

    attempts = []
    one_step = flow._one_step

    def step(*args):
        h = args[6]
        try:
            pieces = one_step(*args)
        except FlowError:
            attempts.append(("R", h))
            raise
        attempts.append(("E" if pieces is None else "A", h))
        return pieces

    monkeypatch.setattr(flow, "_one_step", step)
    return attempts


def test_criterion5_transports_take_a_pinned_step_sequence(monkeypatch):
    # the ten criterion-5 transports (T = 1, order 14, initial step 1/4):
    # a change to the step rule or the rough enclosure shows here as a
    # changed count
    from splitcert.lerman import LUConfig, lu_field

    field = lu_field(LUConfig())
    attempts = _record_attempts(monkeypatch)
    for index in range(10):
        flow_jet(field, Jet2Enclosure.identity(IntervalBox.point(_criterion5_x0(index))),
                 Interval(0.0, 0.0), 1.0, SET)
    outcomes = [o for o, _ in attempts]
    assert (outcomes.count("A"), outcomes.count("E") + outcomes.count("R")) == (111, 25)


def test_step_memory_stops_the_error_oscillation(monkeypatch):
    # criterion-5 condition #2 used to alternate E 1/4, A 1/8 for 14
    # attempts: right after a step of 1/8 the doubling test retried 1/4
    from splitcert.lerman import LUConfig, lu_field

    attempts = _record_attempts(monkeypatch)
    flow_jet(lu_field(LUConfig()), Jet2Enclosure.identity(IntervalBox.point(_criterion5_x0(1))),
             Interval(0.0, 0.0), 1.0, SET)
    assert [h for o, h in attempts if o == "A"] == [0.125] * 8
    assert {h for o, h in attempts if o != "A"} == {0.25}
    assert len(attempts) == 11 < 14


def test_step_memory_doubles_its_patience_for_a_size_that_keeps_failing(monkeypatch):
    # rotation: every step of 1/2 asks to double, and the Picard map never
    # contracts at h = 1; the retries of 1 come after 1, 2, 3, 5 steps
    attempts = _record_attempts(monkeypatch)
    j = flow_jet(F_ROT, ident([1.0, 0.0]), Interval(0, 0), 8.0,
                 FlowSettings(taylor_order=22, initial_step=0.5))
    assert j.value[0].contains(math.cos(8.0)) and j.value[1].contains(-math.sin(8.0))
    pattern = "".join("A" if o == "A" else f"{o}{h:g}" for o, h in attempts)
    assert pattern == "AR1AAR1AAAR1AAAAAR1AAAAA"
    assert {h for o, h in attempts if o == "A"} == {0.5}


def test_step_memory_lets_the_step_grow_again(monkeypatch):
    # x' = -x^3 from 4: x = 4 / sqrt(1 + 32 t).  The step limit relaxes as
    # x decays; the sizes rejected at the start (1/4 down to 1/128) and on
    # the way must not keep the step small
    attempts = _record_attempts(monkeypatch)
    cube = VectorFieldDef(1, PolyMap(2, [[(-1.0, (0, 3))]]))
    j = flow_jet(cube, ident([4.0]), Interval(0, 0), 4.0,
                 FlowSettings(taylor_order=20, initial_step=0.25))
    assert j.value[0].contains(4.0 / math.sqrt(129.0))
    accepted = [h for o, h in attempts if o == "A"]
    assert max(accepted) == 0.5
    # the first accepted size, 1/256, would take 1024 steps
    assert len(accepted) <= 40


def test_transport_is_deterministic_within_a_process():
    # interval sums follow numpy's reduction order; one process must still
    # reproduce a run bit for bit
    from splitcert.lerman import LUConfig, lu_field

    x0 = _criterion5_x0()
    runs = [flow_jet(lu_field(LUConfig()), Jet2Enclosure.identity(IntervalBox.point(x0)),
                     Interval(0.0, 0.0), 1.0, SET) for _ in range(2)]
    a, b = runs
    for x, y in [(a.value.lo, b.value.lo), (a.value.hi, b.value.hi), (a.d1.lo, b.d1.lo),
                 (a.d1.hi, b.d1.hi), (a.d2lo, b.d2lo), (a.d2hi, b.d2hi)]:
        assert x.tobytes() == y.tobytes()


def test_rejected_steps_pay_no_table_or_variational_work(monkeypatch):
    # the step size is tested on the state series alone: every table and
    # variational pass serves a step that the Lohner state then takes
    import splitcert.flow as flow
    from splitcert.lerman import LUConfig, lu_field

    counts = {"tables": 0, "var": 0, "advance": 0, "rejected": 0}
    tables, var, advance, one_step = (flow._Series._table_orders, flow._Series._var_orders,
                                      flow._LohnerState.advance, flow._one_step)

    def count(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    def step(*args):
        pieces = one_step(*args)
        counts["rejected"] += pieces is None
        return pieces

    monkeypatch.setattr(flow._Series, "_table_orders", count("tables", tables))
    monkeypatch.setattr(flow._Series, "_var_orders", count("var", var))
    monkeypatch.setattr(flow._LohnerState, "advance", count("advance", advance))
    monkeypatch.setattr(flow, "_one_step", step)
    flow_jet(lu_field(LUConfig()), Jet2Enclosure.identity(IntervalBox.point(_criterion5_x0())),
             Interval(0.0, 0.0), 1.0, SET)
    assert counts["rejected"] >= 1
    assert counts["advance"] >= 1
    assert counts["tables"] == counts["var"] == counts["advance"]


def test_overflowing_rough_enclosure_halves_then_underflows():
    # x' = x^2 from 1e160: f(x0) = 1e320 overflows in the field evaluation
    # of the rough enclosure at every step, so the step halves down to
    # min_step and the transport reports the underflow
    settings = FlowSettings(taylor_order=8, initial_step=2.0 ** -560, min_step=2.0 ** -570)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FlowError, match="step underflow at t=0.0 of T=1e-170"):
            flow_jet(F_SQ, ident([1e160]), Interval(0, 0), 1e-170, settings)
        with pytest.raises(FlowError, match="overflows at variable 1"):
            rough_enclosure(F_SQ, IntervalBox([1e160], [1e160]), Interval(0, 0), 2.0 ** -560)


def test_overflowing_picard_image_fails_the_rough_enclosure():
    # x' = x^2 from 1.2e154: f(x0) = 1.44e308 is finite, but its Picard
    # image x0 + [0, 2] f(x0) overflows; that must fail the rough enclosure
    # (a FlowError) with no warning, so the transport halves the step down
    # to min_step instead of aborting
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FlowError, match="Picard image overflows"):
            rough_enclosure(F_SQ, IntervalBox.point([1.2e154]), Interval(0, 0), 2.0)
        with pytest.raises(FlowError, match="step underflow at t=0.0 of T=4.0"):
            flow_jet(F_SQ, ident([1.2e154]), Interval(0, 0), 4.0,
                     FlowSettings(taylor_order=8, initial_step=2.0, min_step=2**-20))


@pytest.mark.parametrize("index, value", [(0, math.inf), (0, 1e308), (2, 1.7e308)],
                         ids=["d_inf", "d_overflows", "hxx_overflows"])
def test_overflowing_gronwall_bound_halves_the_step(monkeypatch, index, value):
    # a Gronwall bound that is infinite or overflows (e^(h d), or etaS
    # through hxx) fails the step with a FlowError, which halves it
    import splitcert.flow as flow

    gronwall = flow._gronwall
    calls = []

    def first_overflows(ser, row):
        bounds = list(gronwall(ser, row))
        calls.append(1)
        if len(calls) == 1:
            bounds[index] = value
        return tuple(bounds)

    monkeypatch.setattr(flow, "_gronwall", first_overflows)
    attempts = _record_attempts(monkeypatch)
    j = flow_jet(F_EXP, ident([1.0]), Interval(0, 0), 0.5, SET)
    assert attempts[:2] == [("R", 0.25), ("A", 0.125)]
    assert j.value[0].contains(math.exp(0.5))


def test_non_finite_step_raises_flow_error_without_warnings():
    # x' = x^2 from 1e100: the Taylor coefficients x0^(k+1) overflow from
    # order 3 on although the step is tiny; no step may advance on them
    settings = FlowSettings(taylor_order=8, initial_step=2.0 ** -370, min_step=2.0 ** -380)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FlowError):
            flow_jet(F_SQ, ident([1e100]), Interval(0, 0), 1e-110, settings)


def _series(field, zlo, zhi, P, m):
    import splitcert.flow as flow

    rf = flow._Resolved(flow._tables(field), Interval(-1e-3, 2e-3))
    return flow._Series(rf, zlo, zhi, P, m=m)


def _batch_series(field, zlo, zhi, V0, S0, P):
    ser = _series(field, zlo, zhi, P, V0[0].shape[-1])
    ser.start(V0, S0)
    ser.extend_to(P)
    return ser


# the derivative tables: left operands [A; Hxe; Hxx] and the added aeps, Hee
TABLES = ("L", "E")


def _lu_rows():
    """The worked example's field and a batch-2 series start (a thin and a
    wide row) at its real shapes: n = 4, m = 5, P = 18."""
    from splitcert.lerman import LUConfig, lu_field

    n, m = 4, 5
    rng = np.random.default_rng(4)
    mid = rng.uniform(-0.5, 0.5, (2, n))
    zlo, zhi = mid - [[0.0], [1e-3]], mid + [[1e-9], [2e-3]]
    eye = np.hstack([np.zeros((n, 1)), np.eye(n)])
    Vlo, Vhi = np.stack([eye, eye - 1e-6]), np.stack([eye, eye + 1e-6])
    Slo, Shi = np.zeros((2, n, m, m)), np.stack([np.zeros((n, m, m)), np.full((n, m, m), 1e-5)])
    Slo[1] = -1e-5
    return lu_field(LUConfig()), zlo, zhi, (Vlo, Vhi), (Slo, Shi), 18


def test_batched_series_rows_equal_single_series():
    field, zlo, zhi, (Vlo, Vhi), (Slo, Shi), P = _lu_rows()
    both = _batch_series(field, zlo, zhi, (Vlo, Vhi), (Slo, Shi), P)
    assert both.scaled
    for row in range(2):
        one = _batch_series(field, zlo[row : row + 1], zhi[row : row + 1],
                            (Vlo[row : row + 1], Vhi[row : row + 1]),
                            (Slo[row : row + 1], Shi[row : row + 1]), P)
        # every block stacks (lo, hi) on axis 0 and the batch row on axis 1;
        # z is a view of the bank, V and S live in their reversed twins
        for name in ("bank", "Vr", "Vp", "Sr", "T", *TABLES):
            x, y = getattr(both, name)[:, row], getattr(one, name)[:, 0]
            assert x.tobytes() == y.tobytes(), name


def test_unflat_mirrors_the_pairs_to_a_bitwise_symmetric_block():
    # S is kept on the pairs (al, be), al >= be, eps column first, and
    # mirrored back to a block that is symmetric bit for bit, for an
    # enclosure and for the float series alike
    import splitcert.flow as flow

    field, zlo, zhi, V0, S0, P = _lu_rows()
    al, be, mirror = flow._pairs(5)
    assert len(al) == 15 and np.all(al >= be)
    assert list(zip(al[:5], be[:5])) == [(a, 0) for a in range(5)]
    assert np.array_equal(mirror[al, be], np.arange(15)) and np.array_equal(mirror, mirror.T)
    ser = _batch_series(field, zlo, zhi, V0, S0, P)
    flat = ser.flat(slice(None), slice(0, P + 1))
    _, _, Sp = ser.split(flat)
    _, _, S = ser.unflat(flat)
    assert S.shape == (2, 2, P + 1, 4, 5, 5) and Sp.shape == (2, 2, P + 1, 4, 15)
    assert S.tobytes() == np.swapaxes(S, -1, -2).tobytes()
    assert S[..., al, be].tobytes() == Sp.tobytes()
    assert np.any(S[..., 1:, 1:] != 0)
    _, _, S = point_flow_jet(field, 0.0, zlo, 2.0, order=10, step=0.5)
    assert S.shape == (2, 4, 5, 5) and np.any(S != 0)
    assert S.tobytes() == np.swapaxes(S, -1, -2).tobytes()


def test_start_intersects_the_second_block_with_its_mirror():
    # each pair starts at the intersection of S0[al, be] and S0[be, al],
    # as a jet stores it; disjoint mirrors raise
    import splitcert.flow as flow

    field, zlo, zhi, V0, (Slo, Shi), P = _lu_rows()
    Slo, Shi = Slo.copy(), Shi.copy()
    Slo[1, 0, 1, 2], Shi[1, 0, 1, 2] = -1e-5, 2e-6
    Slo[1, 0, 2, 1], Shi[1, 0, 2, 1] = -3e-6, 1e-5
    ser = _series(field, zlo, zhi, P, 5)
    ser.start(V0, (Slo, Shi))
    p = flow._pairs(5)[2][2, 1]
    assert (ser.Sr[0, 1, p, -1, 0], ser.Sr[1, 1, p, -1, 0]) == (-3e-6, 2e-6)
    jet = Jet2Enclosure(IntervalBox(zlo[1], zhi[1]), IntervalMatrix(V0[0][1], V0[1][1]),
                        Slo[1], Shi[1])
    _, _, S = ser.unflat(ser.flat(1, slice(0, 1)))
    assert S[0, 0].tobytes() == jet.d2lo.tobytes() and S[1, 0].tobytes() == jet.d2hi.tobytes()
    Slo[1, 0, 2, 1] = 3e-6
    with pytest.raises(IntervalError, match="do not intersect"):
        _series(field, zlo, zhi, P, 5).start(V0, (Slo, Shi))


@pytest.mark.parametrize("float_series", [False, True], ids=["enclosure", "float"])
def test_two_product_sums_and_five_kernel_calls_per_variational_order(monkeypatch,
                                                                      float_series):
    # [A; Hxe; Hxx] V, then Q1 + A S over the pairs in one product sum; the
    # joined row [A V | Q1 + A S] takes two adds and one division by k+1
    import splitcert.flow as flow

    field, zlo, zhi, V0, S0, P = _lu_rows()
    if float_series:
        rf = flow._Resolved(flow._tables(field), 1e-3)
        ser = flow._Series(rf, zlo, zlo, P, m=5, kernels=flow._Nearest)
        ser.start((V0[0], V0[0]), (S0[0], S0[0]))
        kernels = flow._Nearest
    else:
        ser = _series(field, zlo, zhi, P, 5)
        ser.start(V0, S0)
        kernels = flow.ku
    ser.extend_tables(P)
    calls = []

    def counted(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    for name in dir(kernels):
        fn = getattr(kernels, name)
        if not name.startswith("_") and callable(fn):
            monkeypatch.setattr(kernels, name, counted(name, fn))
    ser.extend_to(P)
    assert ser.scaled and ser._to["var"] == P
    per_order = [c for c in calls if c != "is_scaled"]
    assert per_order.count("imulsum") == 2 * P
    assert len(per_order) <= 5 * P


def test_one_residual_update_per_accepted_step(monkeypatch):
    # V and W share one midpoint and one residual, so an accepted step makes
    # 10 interval products: [Mx] C, the frame inverse's Q'^T Q', [Mx] Q,
    # [G], [Q'^-1](P_D - mid) and [G] Rd for both blocks at once, the state
    # residual's three and Q Rv for Vext
    import splitcert.flow as flow
    from splitcert.lerman import LUConfig, lu_field

    counts = []
    idot, advance = flow.ku.idot, flow._LohnerState.advance

    def counted(*args):
        counts[-1] += 1
        return idot(*args)

    def advance_counted(self, *args):
        counts.append(0)
        with monkeypatch.context() as mp:
            mp.setattr(flow.ku, "idot", counted)
            advance(self, *args)
        n, m = self.Q.shape[0], self.m
        assert self.dmid.shape == self.rdlo.shape == self.rdhi.shape == (n, m + m * m)
        assert np.shares_memory(self.C, self.dmid)

    monkeypatch.setattr(flow._LohnerState, "advance", advance_counted)
    flow_jet(lu_field(LUConfig()), Jet2Enclosure.identity(IntervalBox.point(_criterion5_x0())),
             Interval(0.0, 0.0), 1.0, SET)
    assert len(counts) >= 1 and set(counts) == {10}


def _fraction_inverse(a):
    """Inverse of a square matrix of Fractions by Gauss-Jordan elimination."""
    n = len(a)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[p] = rows[p], rows[k]
        piv = rows[k][k]
        rows[k] = [x / piv for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                f = rows[i][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [r[n:] for r in rows]


@pytest.mark.parametrize("n, seed, scale", [(4, 11, 1.0), (5, 12, 1.0), (5, 13, 1.1),
                                            (1, 0, 0.8)])
def test_frame_inverse_contains_the_exact_inverse(n, seed, scale):
    # Q from a float QR factorisation (scaled: a frame off orthogonal, whose
    # delta is far from 0; 0.8 I makes the bound delta/(1-delta) max|Q| exact)
    import splitcert.flow as flow

    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    q = scale * q if n > 1 else np.array([[scale]])
    lo, hi = flow._frame_inverse(q)
    exact = _fraction_inverse([[Fraction(x) for x in row] for row in q])
    for i, j in np.ndindex(n, n):
        assert Fraction(lo[i, j]) <= exact[i][j] <= Fraction(hi[i, j]), (i, j)
    if scale == 1.0:
        assert np.max(hi - lo) < 1e-14


def test_frame_inverse_rejects_a_frame_far_from_orthogonal():
    import splitcert.flow as flow

    with pytest.raises(FlowError, match="not near orthogonal"):
        flow._frame_inverse(2.0 * np.eye(4))


def _with_extra_rows(field):
    """The field plus x1^2 x3^2 and eps x1 x3 in its first component: the
    partials of x1^2 x3^2 need bank rows (x1 x3^2, x1^2 x3) that f lacks,
    and eps x1 x3 adds entries to aeps and Hxe."""
    comps = [list(c) for c in field.rhs.components]
    comps[0] += [(1.0, (0, 2, 0, 2, 0)), (0.5, (1, 1, 0, 1, 0))]
    return VectorFieldDef(field.dimension, PolyMap(field.rhs.nvars, comps))


@pytest.mark.parametrize("extra", [False, True], ids=["lu", "extra_rows"])
def test_one_call_tables_equal_tables_built_order_by_order(monkeypatch, extra):
    import splitcert.flow as flow

    field, zlo, zhi, V0, _, P = _lu_rows()
    if extra:
        field = _with_extra_rows(field)
        tb, n = flow._tables(field), field.dimension
        added = {tb._row_of[(("pw", 0, i), ("pw", 2, j))] for i, j in ((1, 2), (2, 1))}
        assert added <= set(tb.g_var["rows"][n:].flat) - set(tb.g_var["rows"][:n].flat)
    m = V0[0].shape[-1]
    fused = _series(field, zlo, zhi, P, m)
    fused.extend_state(P)
    calls = []
    imulsum = flow.ku.imulsum
    monkeypatch.setattr(flow.ku, "imulsum", lambda *a, **k: calls.append(1) or imulsum(*a, **k))
    fused.extend_tables(P)
    monkeypatch.undo()
    assert len(calls) == 1 and fused.scaled
    by_order = _series(field, zlo, zhi, P, m)
    for k in range(1, P + 1):
        by_order.extend_tables(k)
    for name in TABLES:
        assert getattr(fused, name).tobytes() == getattr(by_order, name).tobytes(), name
    # order 0 holds f's derivatives over the initial box (variable 0 is
    # eps): A[c, a], aeps[c], Hxx[c, a, b], Hxe[c, a], Hee[c]
    d1, d2 = field.rhs.derivatives()
    pt = np.concatenate([[0.0], zlo[0]])
    n = zlo.shape[1]
    checks = [("A", (a,), d1[1 + a]) for a in range(n)] + [("ae", (), d1[0])]
    checks += [("Hxx", (a, b), d2[min(a, b) + 1, max(a, b) + 1])
               for a in range(n) for b in range(n)]
    checks += [("Hxe", (a,), d2[0, 1 + a]) for a in range(n)] + [("Hee", (), d2[0, 0])]
    L, E = fused.L[:, 0, :, 0], fused.E[:, 0, :, 0]
    blocks = {"A": L[:, :n], "Hxe": L[:, n : 2 * n], "Hxx": L[:, 2 * n :].reshape(2, n, n, n),
              "ae": E[:, 0], "Hee": E[:, 1]}
    for name, idx, pm in checks:
        val = pm.eval_point(pt)
        lo, hi = blocks[name][(slice(None), slice(None), *idx)]
        assert np.all(lo <= val) and np.all(val <= hi), (name, idx)


def _lu_step(monkeypatch, eps: Interval, err_max: float = math.inf):
    """One validated step (h = 1/8, order 14) of the worked example's field
    from a small box around a criterion-5 point: the step's pieces and every
    series the step built."""
    import splitcert.flow as flow
    from splitcert.lerman import LUConfig, lu_field

    built = []
    init = flow._Series.__init__

    def record(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(flow._Series, "__init__", record)
    tb = flow._tables(lu_field(LUConfig()))
    x = _criterion5_x0()
    hull = IntervalBox(x - 1e-6, x + 1e-6)
    rf, rf_pt = flow._Resolved(tb, eps), flow._Resolved(tb, Interval.point(eps.mid))
    pieces = flow._one_step(tb, rf, rf_pt, eps, hull, hull.mid(), 0.125, 14, err_max)
    monkeypatch.undo()
    return pieces, built


def _centre_reference(ser, eps: Interval):
    """The image of the centre point (row 2 of the step's series ``ser``)
    as the standalone point-eps series gives it: its Horner polynomial plus
    the state remainder of ``ser``'s row 1."""
    import splitcert.flow as flow

    h, P = 0.125, 14
    xhat = ser.z[0, 2, :, 0]
    rf_pt = flow._Resolved(ser.tb, Interval.point(eps.mid))
    ref = flow._Series(rf_pt, xhat[None], xhat[None], P)
    ref.extend_to(P)
    plo, phi = ref.eval_flat(0, h, P)
    hp1 = Interval.point(h) ** (P + 1)
    rz = flow.ku.vmul(*ser.z[:, 1, :, P + 1], hp1.lo, hp1.hi)
    return flow.ku.vadd(plo, phi, *rz)


@pytest.mark.parametrize("eps", [Interval(0.0, 0.0), Interval(3e-8, 3e-8),
                                 Interval(-1e-7, 1e-7), Interval(0.0, 1e-7)],
                         ids=["zero", "point", "symmetric", "zero_endpoint"])
def test_centre_row_equals_the_standalone_point_series(monkeypatch, eps):
    # the centre point rides in the step's series as a state-only row with
    # the point-eps coefficients; its image is the standalone series' bits.
    # An eps box with an exact-0 endpoint keeps the series on the fast path.
    pieces, (ser,) = _lu_step(monkeypatch, eps)
    lo, hi = _centre_reference(ser, eps)
    assert ser.scaled
    assert pieces.phi_lo.tobytes() == lo.tobytes() and pieces.phi_hi.tobytes() == hi.tobytes()


def test_centre_row_on_the_checked_path_contains_the_standalone_midpoint(monkeypatch):
    # an eps endpoint below 2^-511 makes the resolved coefficients fail the
    # scaling check, which sends the whole series down the checked path, the
    # centre row too: its bits may move, its enclosure still holds
    eps = Interval(2.0 ** -600, 1e-7)
    pieces, (ser,) = _lu_step(monkeypatch, eps)
    assert not ser.scaled
    lo, hi = _centre_reference(ser, eps)
    mid = 0.5 * (lo + hi)
    assert np.all(pieces.phi_lo <= mid) and np.all(mid <= pieces.phi_hi)


@pytest.mark.parametrize("sign", [1, -1], ids=["upper", "lower"])
def test_resolved_coefficients_keep_an_exact_zero_eps_endpoint(sign):
    # over eps = [0, e] or [-e, 0], each resolved c eps^p encloses the exact
    # product set, and an endpoint of it that is exactly 0 stays exactly 0
    import splitcert.flow as flow

    e = 1e-7
    c1, c2 = Interval(0.1, 0.1), Interval(-0.3, 0.2)
    field = VectorFieldDef(2, PolyMap(3, [
        [(c1, (0, 1, 0)), (-0.7, (1, 0, 1)), (c2, (2, 1, 0)), (0.1, (3, 0, 0))],
        [(1.0, (1, 0, 0)), (-1.3, (2, 0, 1)), (c2, (1, 1, 1)), (2.5, (0, 0, 2))]]))
    eps = Interval(0.0, e) if sign > 0 else Interval(-e, 0.0)
    tb = flow._tables(field)
    rf = flow._Resolved(tb, eps)
    ends = [Fraction(eps.lo), Fraction(eps.hi)]
    zeros = 0
    for idx in np.ndindex(*tb.g_var["clo"].shape):
        p = int(tb.g_var["epow"][idx])
        cs = [Fraction(tb.g_var["clo"][idx]), Fraction(tb.g_var["chi"][idx])]
        prods = [c * t ** p for c in cs for t in ends]
        lo, hi = rf.g_var["clo"][idx], rf.g_var["chi"][idx]
        assert Fraction(lo) <= min(prods) and max(prods) <= Fraction(hi), idx
        if min(prods) == 0 and max(prods) != 0:
            zeros += 1
            assert lo == 0.0, idx
        if max(prods) == 0 and min(prods) != 0:
            zeros += 1
            assert hi == 0.0, idx
    assert zeros >= 4
    assert flow.ku.is_scaled(rf.g_var["clo"], rf.g_var["chi"])


def test_one_series_per_step_attempt_with_two_variational_rows(monkeypatch):
    eps = Interval(-1e-7, 1e-7)
    pieces, built = _lu_step(monkeypatch, eps)
    assert pieces is not None and len(built) == 1
    ser = built[0]
    # three state rows (set, rough enclosure, centre), two variational ones
    assert ser.bank.shape[1] == 3 and ser.nvar == 2
    assert ser.g_state["clo"].shape[0] == 3
    for name in ("L", "E", "T", "Vr", "Sr"):
        assert getattr(ser, name).shape[1] == 2, name
    # a rejected attempt builds its one series too, and runs no variational pass
    pieces, built = _lu_step(monkeypatch, eps, err_max=0.0)
    assert pieces is None and len(built) == 1
    assert built[0]._to == {"state": 15, "tables": 0, "var": 0}


def _jet_mul(a, b):
    """Product of two order-2 jets (value, gradient, Hessian) in Fractions."""
    (av, ag, ah), (bv, bg, bh) = a, b
    r = range(len(ag))
    return (av * bv, [av * bg[i] + bv * ag[i] for i in r],
            [[av * bh[i][j] + bv * ah[i][j] + ag[i] * bg[j] + bg[i] * ag[j] for j in r]
             for i in r])


def _jet_lin(*terms):
    """sum c * jet over (c, jet) pairs."""
    r = range(len(terms[0][1][1]))
    return (sum(c * j[0] for c, j in terms),
            [sum(c * j[1][i] for c, j in terms) for i in r],
            [[sum(c * j[2][i][k] for c, j in terms) for k in r] for i in r])


def test_variational_coefficients_contain_the_exact_rational_series():
    # x' = y + eps x^2, y' = -x + x y over (eps, x, y), at a point eps: the
    # Taylor coefficients z_k of the solution, as order-2 jets in
    # w = (eps, x0, y0), by the Cauchy recursion in Fractions.  Their
    # gradients and Hessians are V_k and S_k; the eps x^2 term gives the
    # Hxe cross terms and x^2, x y the Hxx V V terms of the recursion.
    import splitcert.flow as flow

    field = VectorFieldDef(2, PolyMap(3, [[(1.0, (0, 0, 1)), (1.0, (1, 2, 0))],
                                          [(-1.0, (0, 1, 0)), (1.0, (0, 1, 1))]]))
    eps, P = 0.375, 6
    starts = np.array([[0.5, -0.25], [-0.75, 0.625]])
    rf = flow._Resolved(flow._tables(field), Interval(eps, eps))
    ser = flow._Series(rf, starts, starts, P, m=3)
    V0 = np.broadcast_to(np.eye(2, 3, 1), (2, 2, 3))
    S0 = np.zeros((2, 2, 3, 3))
    ser.start((V0, V0), (S0, S0))
    ser.extend_to(P)
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    e = (Fraction(eps), [Fraction(1), Fraction(0), Fraction(0)], zero)
    for row, (x0, y0) in enumerate(starts):
        xs = [(Fraction(x0), [Fraction(0), Fraction(1), Fraction(0)], zero)]
        ys = [(Fraction(y0), [Fraction(0), Fraction(0), Fraction(1)], zero)]
        for k in range(P):
            xx = _jet_lin(*((1, _jet_mul(xs[i], xs[k - i])) for i in range(k + 1)))
            xy = _jet_lin(*((1, _jet_mul(xs[i], ys[k - i])) for i in range(k + 1)))
            inv = Fraction(1, k + 1)
            xs.append(_jet_lin((inv, ys[k]), (inv, _jet_mul(e, xx))))
            ys.append(_jet_lin((-inv, xs[k]), (inv, xy)))
        z, V, S = ser.unflat(ser.flat(row, slice(0, P + 1)))
        for k in range(P + 1):
            for c, jet in enumerate((xs[k], ys[k])):
                exact = [((0, k, c), jet[0])]
                exact += [((0, k, c, a), jet[1][a]) for a in range(3)]
                exact += [((0, k, c, a, b), jet[2][a][b]) for a in range(3) for b in range(3)]
                for idx, x in exact:
                    block = (z, V, S)[len(idx) - 3]
                    lo, hi = Fraction(block[idx]), Fraction(block[(1, *idx[1:])])
                    assert lo <= x <= hi, (row, k, idx)
                    assert hi - lo <= Fraction(1, 2**40) * (1 + abs(x)), (row, k, idx)
        assert any(jet[2][0][1] != 0 for jet in xs) and any(jet[2][1][2] != 0 for jet in ys)


@pytest.mark.parametrize("x0", [5e-324, 1e-200, 2.0 ** -600, 2.0 ** -300])
def test_series_with_tiny_initial_data_contains_exact_coefficients(x0):
    # x' = x^2: z_k = x0^(k+1) and dz_k/dx0 = (k+1) x0^k exactly.  The
    # products underflow, so the series must leave the fused kernel path:
    # there an underflowed sum of nonzero products would read as an exact 0.
    # 2^-300 is scaled, but its first coefficient 2^-600 is not
    P = 8
    eye = np.array([[0.0, 1.0]])
    ser = _batch_series(F_SQ, np.array([[x0], [0.5]]), np.array([[x0], [0.5]]),
                        (np.stack([eye, eye]), np.stack([eye, eye])),
                        (np.zeros((2, 1, 2, 2)), np.zeros((2, 1, 2, 2))), P)
    assert not ser.scaled
    for row, x in enumerate((x0, 0.5)):
        x = Fraction(x)
        z, V, _ = ser.unflat(ser.flat(row, slice(0, P + 1)))
        for k in range(P + 1):
            assert Fraction(z[0, k, 0]) <= x ** (k + 1) <= Fraction(z[1, k, 0])
            dz = (k + 1) * x ** k
            assert Fraction(V[0, k, 0, 1]) <= dz <= Fraction(V[1, k, 0, 1])


# ---------------------------------------------------------------------------
# float transports: the same series in round-to-nearest arithmetic

@pytest.mark.parametrize("T", [2.0, -1.5])
def test_point_flow_jet_eps_times_x_closed_form(T):
    # x = x0 e^(eps T): V = (dx/deps, dx/dx0) = (x0 T e, e),
    # S[eps, eps] = x0 T^2 e, S[eps, x0] = S[x0, eps] = T e, S[x0, x0] = 0
    eps, x0 = 0.3, 0.7
    e = math.exp(eps * T)
    x, V, S = point_flow_jet(F_EPSX, eps, [x0], T)
    assert x.shape == (1,) and V.shape == (1, 2) and S.shape == (1, 2, 2)
    assert x[0] == pytest.approx(x0 * e, rel=1e-13)
    assert V[0, 0] == pytest.approx(x0 * T * e, rel=1e-13)
    assert V[0, 1] == pytest.approx(e, rel=1e-13)
    assert S[0, 0, 0] == pytest.approx(x0 * T * T * e, rel=1e-13)
    assert S[0, 0, 1] == S[0, 1, 0] == pytest.approx(T * e, rel=1e-13)
    assert S[0, 1, 1] == 0.0
    assert point_flow(F_EPSX, eps, [x0], T)[0] == pytest.approx(x0 * e, rel=1e-13)


@pytest.mark.parametrize("T", [0.9, -2.0])
def test_point_flow_jet_square_closed_form(T):
    # x' = x^2: x = x0 / (1 - x0 T), dx/dx0 = 1 / (1 - x0 T)^2,
    # d2x/dx0^2 = 2 T / (1 - x0 T)^3; no eps dependence
    x0 = 0.5
    d = 1.0 - x0 * T
    x, V, S = point_flow_jet(F_SQ, 0.0, [x0], T, order=20, step=1 / 32)
    assert x[0] == pytest.approx(x0 / d, rel=1e-12)
    assert V[0, 1] == pytest.approx(1 / d**2, rel=1e-12)
    assert S[0, 1, 1] == pytest.approx(2 * T / d**3, rel=1e-12)
    assert V[0, 0] == S[0, 0, 0] == S[0, 0, 1] == S[0, 1, 0] == 0.0


def _count_series(monkeypatch) -> list:
    """Count the series the flow builds: the returned list fills with one
    entry per :class:`_Series`, its number of batch rows."""
    import splitcert.flow as flow

    built = []
    init = flow._Series.__init__

    def counted(self, rf, zlo, *args, **kwargs):
        built.append(len(zlo))
        init(self, rf, zlo, *args, **kwargs)

    monkeypatch.setattr(flow._Series, "__init__", counted)
    return built


def test_point_flow_batch_rows_agree_with_single_calls(monkeypatch):
    # each row takes its own steps, so a batch row equals its single call
    # bit for bit, also when the rows take different numbers of steps; a
    # row that has reached T leaves the batch, so each row rides in as
    # many series as it takes alone
    from splitcert.lerman import LUConfig, lu_field

    field = lu_field(LUConfig())
    x0 = np.stack([_criterion5_x0(), -0.5 * _criterion5_x0()[::-1]])
    built = _count_series(monkeypatch)
    series = {}
    for T in (1.3, -0.7):
        built.clear()
        both = point_flow_jet(field, 1e-3, x0, T, order=12)
        rows = sum(built)
        assert both[0].shape == (2, 4) and both[1].shape == (2, 4, 5)
        assert both[2].shape == (2, 4, 5, 5)
        xs = point_flow(field, 1e-3, x0, T, order=12)
        for row in range(2):
            built.clear()
            one = point_flow_jet(field, 1e-3, x0[row], T, order=12)
            series[T, row] = len(built)
            for b, o in zip(both, one):
                assert b[row].tobytes() == o.tobytes()
            assert xs[row].tobytes() == one[0].tobytes()
        assert rows == series[T, 0] + series[T, 1]
    # at T = 1.3 the first row needs more steps (16 series against 11)
    assert series[1.3, 0] > series[1.3, 1]


@pytest.mark.parametrize("T", [0.1, 0.125, -0.125])
def test_float_transport_within_the_initial_step_takes_one_series(monkeypatch, T):
    # a transport that the initial step reaches is one clipped step, not
    # a walk down in powers of two
    built = _count_series(monkeypatch)
    for transport in (point_flow, point_flow_jet):
        built.clear()
        x = transport(F_SQ, 0.0, [0.5], T, order=20, step=0.125)
        assert len(built) == 1
        assert x[0] == pytest.approx(0.5 / (1.0 - 0.5 * T), rel=1e-14)


def test_float_transport_blow_up_raises(monkeypatch):
    # x' = x^2 from 1 blows up at t = 1: the steps shrink to min_step and
    # the series overflows, which raises instead of looping
    built = _count_series(monkeypatch)
    for transport in (point_flow, point_flow_jet):
        built.clear()
        with pytest.raises(FlowError, match="non-finite"):
            transport(F_SQ, 0.0, [1.0], 2.0)
        assert len(built) < 1000


@pytest.mark.parametrize("T", [9.0, -9.0])
def test_float_endpoint_lies_in_the_validated_enclosure(T):
    # from the section point p0 the float endpoint stays within 1e-12 of
    # the validated flow_jet enclosure of the same point (width ~2.5e-9);
    # fixed steps of 1/8 were 1.9e-7 off
    from splitcert.lerman import LUConfig, _p0, lu_field

    field = lu_field(LUConfig())
    _, p0 = _p0(LUConfig())
    j = flow_jet(field, ident(p0), Interval(0.0, 0.0), T,
                 FlowSettings(taylor_order=18, initial_step=0.125))
    x = point_flow(field, 0.0, p0, T, order=18)
    assert np.all(j.value.lo - 1e-12 <= x) and np.all(x <= j.value.hi + 1e-12)


def test_float_transports_make_no_kernel_calls_or_interval_ops(monkeypatch):
    # the float transports use their own round-to-nearest kernels, so a
    # traced run counts validated work only in splitcert.kernels
    import splitcert.kernels as ku
    from splitcert.lerman import LUConfig, lu_field

    field = lu_field(LUConfig())
    x0 = _criterion5_x0()
    point_flow_jet(field, 0.0, x0, -0.5)  # compiles the field and its negation
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name, fn in vars(ku).items():
        if callable(fn) and not name.startswith("_") and fn.__module__ == ku.__name__:
            monkeypatch.setattr(ku, name, counted(name, fn))
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__", "sqr", "sqrt"):
        monkeypatch.setattr(Interval, op, counted(op, getattr(Interval, op)))
    for T in (0.5, -0.5):
        point_flow(field, 1e-3, x0, T)
        point_flow(field, 1e-3, np.stack([x0, x0]), T)
        point_flow_jet(field, 1e-3, x0, T)
    assert calls == []
    Interval(1.0, 2.0) + 1.0  # the counters are installed
    ku.vadd(0.0, 0.0, 1.0, 1.0)
    assert calls == ["__add__", "vadd", "vadd"]


@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 2.0 ** -30, 1e-3, 0.1, 0.25, 0.5,
                               0.75, 1.0, 3.0, 10.0, 100.0])
def test_iexp_ub_bounds_the_exponential(x):
    # the 60-term partial sum is below e^x; up to x = 0.5 it equals e^x far
    # below 1e-13, and the bound (the order-14 Taylor sum plus twice its last
    # term) is that tight there.  From x = 0.75 on, that tail term alone is
    # above 1e-13 of e^x (8e-12 at x = 1), so only soundness is checked
    partial = sum(Fraction(x) ** k / math.factorial(k) for k in range(60))
    ub = Fraction(_iexp_ub(x))
    assert ub >= partial
    if x <= 0.5:
        assert ub <= partial * (1 + Fraction(1, 10 ** 13))


@pytest.mark.parametrize("x", [710.0, 1.7e308, math.inf, math.nan])
def test_iexp_ub_is_infinite_above_the_float_range(x):
    # e^x overflows above log(max float); a non-finite x halves forever
    assert _iexp_ub(x) == math.inf
