"""Validated flow integration: coefficients, enclosures, jet transport."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from splitcert.intervals import Interval, IntervalBox, IntervalError
from splitcert.jets import Jet2Enclosure, jet2_compose
from splitcert.polys import PolyMap, VectorFieldDef
from splitcert.flow import (FlowError, FlowSettings, flow_jet, point_flow, point_flow_jet,
                            rough_enclosure, taylor_coeffs)

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


def test_field_tables_kept_on_the_field():
    import splitcert.flow as flow

    f = VectorFieldDef(1, PolyMap(2, [[(1.0, (0, 2)), (0.5, (1, 0))]]))
    assert flow._tables(f) is flow._tables(f)
    assert flow._tables(f).field is f
    neg = f.negated()
    assert flow._tables(neg) is not flow._tables(f) and flow._tables(neg).field is neg
    assert not hasattr(flow, "_TABLE_CACHE")


def _criterion5_x0():
    """The first criterion-5 initial condition of the worked example."""
    rng = np.random.RandomState(20240817)
    x0 = rng.uniform(-1.0, 1.0, 4)
    return x0 * rng.uniform(0.05, 0.5) / np.linalg.norm(x0)


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


TABLES = ("Alo", "Ahi", "aelo", "aehi", "Hxxlo", "Hxxhi", "Hxelo", "Hxehi", "Heelo", "Heehi")


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
        for name in ("zlo", "zhi", "Vlo", "Vhi", "Slo", "Shi", "Tlo", "Thi", "banklo", "bankhi",
                     *TABLES):
            assert getattr(both, name)[row].tobytes() == getattr(one, name)[0].tobytes(), name


def test_one_call_tables_equal_tables_built_order_by_order(monkeypatch):
    import splitcert.flow as flow

    field, zlo, zhi, V0, _, P = _lu_rows()
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
    for name, idx, pm in checks:
        val = pm.eval_point(pt)
        lo, hi = (getattr(fused, name + end)[0, 0][(slice(None), *idx)] for end in ("lo", "hi"))
        assert np.all(lo <= val) and np.all(val <= hi), (name, idx)


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
        for k in range(P + 1):
            assert Fraction(ser.zlo[row, k, 0]) <= x ** (k + 1) <= Fraction(ser.zhi[row, k, 0])
            dz = (k + 1) * x ** k
            assert Fraction(ser.Vlo[row, k, 0, 1]) <= dz <= Fraction(ser.Vhi[row, k, 0, 1])


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


def test_point_flow_batch_rows_agree_with_single_calls():
    from splitcert.lerman import LUConfig, lu_field

    field = lu_field(LUConfig())
    x0 = np.stack([_criterion5_x0(), -0.5 * _criterion5_x0()[::-1]])
    for T in (1.3, -0.7):
        both = point_flow_jet(field, 1e-3, x0, T, order=12)
        assert both[0].shape == (2, 4) and both[1].shape == (2, 4, 5)
        assert both[2].shape == (2, 4, 5, 5)
        xs = point_flow(field, 1e-3, x0, T, order=12)
        for row in range(2):
            one = point_flow_jet(field, 1e-3, x0[row], T, order=12)
            for b, o in zip(both, one):
                np.testing.assert_allclose(b[row], o, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(xs[row], one[0], rtol=1e-14, atol=1e-15)


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
