"""Distance-function oracles on toy systems with closed forms."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from splitcert import distance, newton
from splitcert.distance import (
    ConditionError,
    ManifoldOracle,
    distance_fixed_point,
    distance_nhim_section,
    distance_unequal,
)
from splitcert.implicit import ImplicitContractionError
from splitcert.intervals import Interval, IntervalBox, IntervalError
from splitcert.jets import Jet1Enclosure, Jet2Enclosure
from splitcert.polys import PolyMap


def poly_manifold(pm: PolyMap, **proj) -> ManifoldOracle:
    def jet(eps: Interval, params: IntervalBox):
        box = IntervalBox(np.concatenate([[eps.lo], params.lo]),
                          np.concatenate([[eps.hi], params.hi]))
        return pm.jet(box)

    def approx(eps: float, params):
        return pm.eval_point(np.concatenate([[eps], np.asarray(params, dtype=float)]))

    return ManifoldOracle(jet=jet, approx=approx, **proj)


# (eps, u) -> R^2 manifolds
WU_PARAB = poly_manifold(PolyMap(2, [[(1.0, (0, 1))], [(1.0, (0, 2))]]),
                         x_proj=(0,), y_proj=(1,))
WS_FLAT = poly_manifold(PolyMap(2, [[(1.0, (0, 1)), (1.0, (0, 3))], []]),
                        x_proj=(0,), y_proj=(1,))
WS_NEG = poly_manifold(PolyMap(2, [[(1.0, (0, 1))], [(-1.0, (0, 2))]]),
                       x_proj=(0,), y_proj=(1,))

XBOX = IntervalBox([-0.1], [0.1])


def test_coincident_manifolds_zero_oracle():
    d = distance_fixed_point(WU_PARAB, WU_PARAB, 0.1, XBOX, k1=0, k2=1)
    j = d.jet(Interval(0.0, 0.1), XBOX)
    assert j.value[0].contains(0.0)
    assert j.value[0].width <= 0.1  # mean-value refined, cannot cancel exactly
    assert j.d1[0, 0].contains(0.0) and j.d1[0, 1].contains(0.0)
    jp = d.jet(Interval(0.0, 0.0), IntervalBox.point([0.03]))
    assert jp.value[0].contains(0.0) and jp.value[0].width <= 1e-12


def test_graphs_without_reparameterization():
    d = distance_fixed_point(WU_PARAB, WS_NEG, 0.0, XBOX, k1=1, k2=0)
    j = d.jet(Interval(0.0, 0.0), XBOX)
    for x in np.linspace(-0.1, 0.1, 7):
        assert j.value[0].contains(2 * x * x)
        assert j.d1[0, 1].contains(4 * x)
    assert j.d2lo[0, 1, 1] <= 4.0 <= j.d2hi[0, 1, 1]


def test_reparameterized_cubic_side():
    # ws(s) = (s + s^3, 0): solve s + s^3 = x, y = x^2 - 0
    def s_root(x):
        s = x
        for _ in range(60):
            s -= (s + s**3 - x) / (1 + 3 * s * s)
        return s

    d = distance_fixed_point(WU_PARAB, WS_FLAT, 0.0, XBOX, k1=1, k2=0)
    j = d.jet(Interval(0.0, 0.0), XBOX)
    for x in np.linspace(-0.1, 0.1, 9):
        assert s_root(x) is not None  # oracle well-defined
        assert j.value[0].contains(x * x)
        assert j.d1[0, 1].contains(2 * x)


def test_unperturbed_zero_spot_check():
    # wu - ws = eps * x: y2(0, x) = 0 holds
    wu = poly_manifold(PolyMap(2, [[(1.0, (0, 1))], [(1.0, (0, 2)), (1.0, (1, 1))]]),
                       x_proj=(0,), y_proj=(1,))
    ws = poly_manifold(PolyMap(2, [[(1.0, (0, 1))], [(1.0, (0, 2))]]),
                       x_proj=(0,), y_proj=(1,))
    d = distance_fixed_point(wu, ws, 0.1, XBOX, k1=0, k2=1)
    assert d.check_unperturbed_zero(XBOX, samples=50)
    j = d.jet(Interval(0.0, 0.1), XBOX)
    for e in (0.0, 0.05, 0.1):
        for x in (-0.1, 0.02, 0.1):
            assert j.value[0].contains(e * x)
    assert j.d2lo[0, 0, 1] <= 1.0 <= j.d2hi[0, 0, 1]  # d2y/deps dx = 1


def test_finite_difference_containment():
    d = distance_fixed_point(WU_PARAB, WS_FLAT, 0.0, XBOX, k1=1, k2=0)
    j = d.jet(Interval(0.0, 0.0), XBOX)
    h = 1e-6
    rng = np.random.RandomState(3)
    for _ in range(20):
        x = rng.uniform(-0.1 + h, 0.1 - h)
        fd = ((x + h) ** 2 - (x - h) ** 2) / (2 * h)
        assert j.d1[0, 1].lo - 1e-6 <= fd <= j.d1[0, 1].hi + 1e-6


def test_singular_projection_raises():
    # pi_x w = u^3 has zero derivative at the origin
    bad = poly_manifold(PolyMap(2, [[(1.0, (0, 3))], [(1.0, (0, 2))]]),
                        x_proj=(0,), y_proj=(1,))
    with pytest.raises((ConditionError, ImplicitContractionError, IntervalError)):
        d = distance_fixed_point(bad, WS_NEG, 0.0, XBOX, k1=1, k2=0)
        d.jet(Interval(0.0, 0.0), XBOX)


def test_singular_float_jacobian_raises_condition_error():
    # pi_x w = u^2: the float Newton starts at u = 0, where the central
    # difference of u^2 is exactly zero and np.linalg.solve would fail
    bad = poly_manifold(PolyMap(2, [[(1.0, (0, 2))], [(1.0, (0, 1))]]),
                        x_proj=(0,), y_proj=(1,))
    d = distance_fixed_point(bad, WS_NEG, 0.0, XBOX, k1=1, k2=0)
    with pytest.raises(ConditionError, match="numerically singular") as info:
        d.jet(Interval(0.0, 0.0), XBOX)
    assert type(info.value) is ConditionError


def test_projection_partition_checked_at_build():
    # y_proj overlapping x_proj, or skipping an output, is refused before any query
    pm = PolyMap(2, [[(1.0, (0, 1))], [(1.0, (0, 2))]])
    overlap = poly_manifold(pm, x_proj=(0,), y_proj=(0,))
    gapped = poly_manifold(pm, x_proj=(0,), y_proj=(2,))
    for bad in (overlap, gapped):
        with pytest.raises(IntervalError, match="partition"):
            distance_fixed_point(bad, WS_NEG, 0.0, XBOX, k1=1, k2=0)
        with pytest.raises(IntervalError, match="partition"):
            distance_fixed_point(WU_PARAB, bad, 0.0, XBOX, k1=1, k2=0)


def test_manifold_outputs_past_the_projections_raise():
    # a third output that no projection names used to be silently ignored
    pm = PolyMap(2, [[(1.0, (0, 1))], [(1.0, (0, 2))], [(1.0, (0, 1))]])
    extra = poly_manifold(pm, x_proj=(0,), y_proj=(1,))
    for wu, ws in ((extra, WS_NEG), (WU_PARAB, extra)):
        d = distance_fixed_point(wu, ws, 0.0, XBOX, k1=1, k2=0)
        with pytest.raises(IntervalError, match="3 outputs"):
            d.jet(Interval(0.0, 0.0), XBOX)


# --- center-section scenario ------------------------------------------------

# coords (x, y, z); params (a, z)
WCU_PROD = poly_manifold(PolyMap(3, [[(1.0, (0, 1, 0))], [(1.0, (0, 2, 0))], [(1.0, (0, 0, 1))]]),
                         x_proj=(0,), y_proj=(1,), z_proj=(2,))
WCS_PROD = poly_manifold(PolyMap(3, [[(1.0, (0, 1, 0))], [(-1.0, (0, 2, 0))], [(1.0, (0, 0, 1))]]),
                         x_proj=(0,), y_proj=(1,), z_proj=(2,))


def test_nhim_section_product_reduces_to_fixed_point():
    d2 = distance_nhim_section(WCU_PROD, WCS_PROD, [0.7], k1=1, k2=0)
    j2 = d2.jet(Interval(0.0, 0.0), XBOX)
    d1 = distance_fixed_point(WU_PARAB, WS_NEG, 0.0, XBOX, k1=1, k2=0)
    j1 = d1.jet(Interval(0.0, 0.0), XBOX)
    for x in np.linspace(-0.1, 0.1, 7):
        assert j2.value[0].contains(2 * x * x)
        assert j2.d1[0, 1].contains(4 * x)
    # center direction decoupled: same enclosure up to rounding
    assert j2.value[0].intersect(j1.value[0]) is not None
    assert abs(j2.value[0].mid - j1.value[0].mid) <= 1e-12


def test_nhim_section_coincident_zero():
    d = distance_nhim_section(WCU_PROD, WCU_PROD, [0.0], k1=0, k2=1)
    j = d.jet(Interval(0.0, 0.1), XBOX)
    assert j.value[0].contains(0.0) and j.value[0].width <= 0.1
    jp = d.jet(Interval(0.0, 0.0), IntervalBox.point([0.0]))
    assert jp.value[0].contains(0.0) and jp.value[0].width <= 1e-12


# --- unequal dimensions -----------------------------------------------------

# coords (x, y, v, z); u = 1, s = 2, c = 1
# wcu(eps, a, z) = (a, a^2 + eps, 0.3 a, z)
WCU_UNEQ = poly_manifold(
    PolyMap(3, [[(1.0, (0, 1, 0))],
                [(1.0, (0, 2, 0)), (1.0, (1, 0, 0))],
                [(0.3, (0, 1, 0))],
                [(1.0, (0, 0, 1))]]),
    x_proj=(0,), y_proj=(1,), v_proj=(2,), z_proj=(3,))
# wcs(eps, b1, b2, z) = (b1, -b1^2 + b2 + 2 eps, b2, z)
WCS_UNEQ = poly_manifold(
    PolyMap(4, [[(1.0, (0, 1, 0, 0))],
                [(-1.0, (0, 2, 0, 0)), (1.0, (0, 0, 1, 0)), (2.0, (1, 0, 0, 0))],
                [(1.0, (0, 0, 1, 0))],
                [(1.0, (0, 0, 0, 1))]]),
    x_proj=(0,), y_proj=(1,), v_proj=(2,), z_proj=(3,))


def test_unequal_dimensions_closed_form():
    # y(eps, x) = (x^2 + eps) - (-x^2 + 0.3 x + 2 eps) = 2 x^2 - 0.3 x - eps
    d = distance_unequal(WCU_UNEQ, WCS_UNEQ, [0.4], k1=1, k2=0)
    j = d.jet(Interval(0.0, 0.05), XBOX)
    for e in (0.0, 0.02, 0.05):
        for x in (-0.1, 0.0, 0.07):
            assert j.value[0].contains(2 * x * x - 0.3 * x - e)
    assert j.d1[0, 0].contains(-1.0)
    for x in (-0.1, 0.0, 0.1):
        assert j.d1[0, 1].contains(4 * x - 0.3)
    assert j.d2lo[0, 1, 1] <= 4.0 <= j.d2hi[0, 1, 1]
    assert j.d2lo[0, 0, 1] <= 0.0 <= j.d2hi[0, 0, 1]


def test_unequal_feedthrough_chain_rule():
    # make the stable y-block depend quadratically on v to exercise the
    # composition order: wcs y = b2^2, wcu v = 0.3 a  ->  y_s = 0.09 x^2
    wcs = poly_manifold(
        PolyMap(4, [[(1.0, (0, 1, 0, 0))],
                    [(1.0, (0, 0, 2, 0))],
                    [(1.0, (0, 0, 1, 0))],
                    [(1.0, (0, 0, 0, 1))]]),
        x_proj=(0,), y_proj=(1,), v_proj=(2,), z_proj=(3,))
    d = distance_unequal(WCU_UNEQ, wcs, [0.0], k1=1, k2=0)
    j = d.jet(Interval(0.0, 0.0), XBOX)
    for x in (-0.1, -0.03, 0.0, 0.05, 0.1):
        y = (x * x) - (0.3 * x) ** 2
        assert j.value[0].contains(y)
        assert j.d1[0, 1].contains(2 * x - 2 * 0.09 * x)
    d2 = 2 - 2 * 0.09
    assert j.d2lo[0, 1, 1] <= d2 <= j.d2hi[0, 1, 1]


# --- the graph-side g-jet memo ---------------------------------------------

def _toy_oracles():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import toy_pair
    finally:
        sys.path.pop(0)
    return toy_pair(np.array([[3.0, 0.75], [1.25, 2.875]]), 0.3125)


def test_graph_side_assembles_its_verified_jet_once(monkeypatch):
    # between implicit_enclose returning k_ref and the graph-side solve
    # returning, the solve asks for g at (X, k_ref) up to three times
    # (sigma_min check, implicit_first and, at order 2, implicit_jet); each
    # assembly projects one manifold jet of either order, so one projection
    # means one assembly
    counts, window = [], []

    def counting(project):
        def wrapped(self, rows):
            if window:
                counts[-1] += 1
            return project(self, rows)
        return wrapped

    def spy_enclose(*args, **kwargs):
        enc = enclose(*args, **kwargs)
        counts.append(0)
        window.append(True)
        return enc

    def spy_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        window.clear()
        return out

    enclose, solve = distance.implicit_enclose, distance._solve_graph_side
    for cls in (Jet1Enclosure, Jet2Enclosure):
        monkeypatch.setattr(cls, "project", counting(cls.project))
    monkeypatch.setattr(distance, "implicit_enclose", spy_enclose)
    monkeypatch.setattr(distance, "_solve_graph_side", spy_solve)
    wu, ws = _toy_oracles()
    d = distance_fixed_point(wu, ws, 0.01, IntervalBox([-0.2, -0.2], [0.2, 0.2]), k1=0, k2=2)
    d.jet(Interval(0.0, 0.01), IntervalBox([0.0, -0.1], [0.1, 0.0]))
    # two raw queries (box and mean-value centre), one solve per side each
    assert counts == [1, 1, 1, 1]


def test_graph_side_takes_one_newton_step_per_verified_attempt(monkeypatch):
    # a step that lands strictly inside K certifies kappa on its own, and
    # the graph side keeps that step's box instead of refining it
    steps, verified = [], []
    step, enclose = newton.newton_step, distance.implicit_enclose

    def counted_step(*args, **kwargs):
        steps[-1] += 1
        return step(*args, **kwargs)

    def spy_enclose(*args, **kwargs):
        steps.append(0)
        enc = enclose(*args, **kwargs)
        verified.append(steps[-1])
        return enc

    monkeypatch.setattr(newton, "newton_step", counted_step)
    monkeypatch.setattr(distance, "implicit_enclose", spy_enclose)
    wu, ws = _toy_oracles()
    d = distance_fixed_point(wu, ws, 0.01, IntervalBox([-0.2, -0.2], [0.2, 0.2]), k1=0, k2=2)
    d.jet(Interval(0.0, 0.01), IntervalBox([0.0, -0.1], [0.1, 0.0]))
    assert verified == [1, 1, 1, 1]


def test_graph_goracle_memo_is_never_stale():
    wu, _ = _toy_oracles()

    def goracle():
        return distance._graph_goracle(distance._manifold_reader(wu), [0, 1], 2)

    x = IntervalBox([0.0, -0.1, -0.1], [0.01, 0.1, 0.1])
    k1 = IntervalBox([-0.12, -0.12], [0.12, 0.12])
    k2 = IntervalBox([-0.11, -0.12], [0.12, 0.12])
    g = goracle()
    seq = [(x, k1), (x, k2), (x, k1), (IntervalBox([0.0, -0.1, -0.1], [0.0, 0.1, 0.1]), k1)]
    for xb, kb in seq:
        got, fresh = g.jet(xb, kb), goracle().jet(xb, kb)
        for a, b in ((got.value.lo, fresh.value.lo), (got.value.hi, fresh.value.hi),
                     (got.d1.lo, fresh.d1.lo), (got.d1.hi, fresh.d1.hi),
                     (got.d2lo, fresh.d2lo), (got.d2hi, fresh.d2hi)):
            assert np.array_equal(a, b)
    # the same pair twice in a row is served from the memo
    assert g.jet(*seq[-1]) is g.jet(*seq[-1])
    k2a, k2b = g.jet(x, k2), g.jet(x, k1)
    assert not np.array_equal(k2a.value.lo, k2b.value.lo)


def test_graph_side_solve_takes_its_jacobian_from_the_float_newton(monkeypatch):
    # the candidate radius reuses the Jacobian of the Newton's last step, so
    # every float Jacobian (2k+1 approx calls each) is one Newton iteration
    inside = []
    calls = []
    jac, root = distance._float_jacobian, distance._nonrigorous_root

    def counted_jac(*args):
        calls.append(bool(inside))
        return jac(*args)

    def marked_root(*args):
        inside.append(True)
        try:
            return root(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(distance, "_float_jacobian", counted_jac)
    monkeypatch.setattr(distance, "_nonrigorous_root", marked_root)
    d = distance_fixed_point(WU_PARAB, WS_FLAT, 0.0, XBOX, k1=0, k2=1)
    j = d.jet(Interval(0.0, 0.0), XBOX)
    assert j.value[0].contains(0.0)
    assert calls and all(calls)


# --- order-1 queries ----------------------------------------------------------

def _with_first(w: ManifoldOracle) -> ManifoldOracle:
    """The same manifold with an order-1 ``first`` (its jet's value and d1)."""
    return dataclasses.replace(w, first=lambda eps, params: w.jet(eps, params).order1())


# the three scenarios: an oracle builder and its (unstable, stable) pair
SCENARIOS = {
    "fixed_point": (lambda wu, ws: distance_fixed_point(wu, ws, 0.1, XBOX, 1, 0),
                    WU_PARAB, WS_FLAT),
    "nhim_section": (lambda wu, ws: distance_nhim_section(wu, ws, [0.7], 1, 0),
                     WCU_PROD, WCS_PROD),
    "unequal": (lambda wu, ws: distance_unequal(wu, ws, [0.4], 1, 0),
                WCU_UNEQ, WCS_UNEQ),
}
QUERIES = {
    "point": (Interval(0.0, 0.0), IntervalBox.point([0.03])),
    "point_eps": (Interval.point(0.025), IntervalBox.point([-0.07])),
    "box": (Interval(0.0, 0.05), XBOX),
}


def _same_first(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in (
        (a.value.lo, b.value.lo), (a.value.hi, b.value.hi),
        (a.d1.lo, b.d1.lo), (a.d1.hi, b.d1.hi)))


@pytest.mark.parametrize("manifold_first", [False, True], ids=["jet_only", "with_first"])
@pytest.mark.parametrize("query", list(QUERIES))
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_first_equals_the_jets_value_and_d1(scenario, query, manifold_first):
    # each on a fresh oracle, so that neither answer comes from the other's memo
    build, wu, ws = SCENARIOS[scenario]
    if manifold_first:
        wu, ws = _with_first(wu), _with_first(ws)
    eps, box = QUERIES[query]
    first = build(wu, ws).first(eps, box)
    jet = build(wu, ws).jet(eps, box)
    assert isinstance(first, Jet1Enclosure) and isinstance(jet, Jet2Enclosure)
    assert _same_first(first, jet)


def _count(monkeypatch, name) -> list:
    calls = []
    fn = getattr(distance, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(distance, name, counted)
    return calls


def test_midpoint_queries_run_no_second_order_implicit_solve(monkeypatch):
    solves = _count(monkeypatch, "_solve_graph_side")
    second = _count(monkeypatch, "implicit_jet")
    wu, ws = _toy_oracles()
    d = distance_fixed_point(wu, ws, 0.01, IntervalBox([-0.2, -0.2], [0.2, 0.2]), k1=0, k2=2)
    d.jet(Interval(0.0, 0.01), IntervalBox([0.0, -0.1], [0.1, 0.0]))
    # the box query and its midpoint solve both sides; only the box's two
    # solves take the second-order implicit solve
    assert len(solves) == 4 and len(second) == 2
    assert all(args[1].width().max() > 0.0 for args in second)


def test_reference_newton_values_trigger_no_graph_side_solve(monkeypatch):
    from splitcert.degree import _reference_map_oracle
    from splitcert.newton import FunctionOracle, newton_verify

    solves = _count(monkeypatch, "_solve_graph_side")
    wu, ws = _toy_oracles()
    u_box = IntervalBox([-0.2, -0.2], [0.2, 0.2])
    d = distance_fixed_point(wu, ws, 0.01, u_box, k1=0, k2=2)
    ref = _reference_map_oracle(d)
    own = []

    def ev(x, xbox):
        before = len(solves)
        out = ref.eval(x, xbox)
        own.append(len(solves) - before)
        return out

    cert = newton_verify(FunctionOracle(ev, ref.deriv), IntervalBox([0.0], [0.0]), u_box)
    assert cert.verified
    # every value at mid(Y) comes from the derivative's midpoint query of Y
    assert len(own) == cert.iterations and own == [0] * len(own)
    assert solves


def test_an_order1_memo_entry_never_answers_jet(monkeypatch):
    solves = _count(monkeypatch, "_solve_graph_side")
    wu, ws = _toy_oracles()
    u_box = IntervalBox([-0.2, -0.2], [0.2, 0.2])
    eps, pt = Interval(0.0, 0.0), IntervalBox.point([0.05, -0.02])
    d = distance_fixed_point(wu, ws, 0.01, u_box, k1=0, k2=2)
    first = d.first(eps, pt)
    assert len(solves) == 2 and [r["order"] for r in d.diagnostics.values()] == [1]
    j = d.jet(eps, pt)
    assert len(solves) == 4 and [r["order"] for r in d.diagnostics.values()] == [2]
    # the order-2 entry now answers both reads without another solve
    assert d.jet(eps, pt) is j
    assert _same_first(d.first(eps, pt), j) and len(solves) == 4
    fresh = distance_fixed_point(wu, ws, 0.01, u_box, k1=0, k2=2).jet(eps, pt)
    assert _same_first(j, fresh) and _same_first(first, j)
    assert j.d2lo.tobytes() == fresh.d2lo.tobytes() and j.d2hi.tobytes() == fresh.d2hi.tobytes()


def test_a_manifold_without_first_integrates_each_box_once():
    # an order-1 read of a manifold without ``first`` computes and keeps the
    # order-2 jet, so that a later order-2 read of the same box is served
    # from the memo: each distinct (side, eps, box) reaches ``jet`` once
    wu, ws = _toy_oracles()
    assert wu.first is None and ws.first is None
    calls = []

    def counted(side, w):
        def jet(eps, box):
            calls.append((side, eps.lo, eps.hi, box.lo.tobytes(), box.hi.tobytes()))
            return w.jet(eps, box)
        return dataclasses.replace(w, jet=jet)

    d = distance_fixed_point(counted("u", wu), counted("s", ws), 0.01,
                             IntervalBox([-0.2, -0.2], [0.2, 0.2]), k1=0, k2=2)
    eps, pt = Interval(0.0, 0.0), IntervalBox.point([0.05, -0.02])
    d.first(eps, pt)
    d.jet(eps, pt)
    d.jet(Interval(0.0, 0.01), IntervalBox([0.0, -0.1], [0.1, 0.0]))
    assert len(calls) == len(set(calls)) == 18


def test_one_diagnostics_record_per_computed_raw_query():
    wu, ws = _toy_oracles()
    d = distance_fixed_point(wu, ws, 0.01, IntervalBox([-0.2, -0.2], [0.2, 0.2]), k1=0, k2=2)
    box = (Interval(0.0, 0.01), IntervalBox([0.0, -0.1], [0.1, 0.0]))
    d.jet(*box)
    d.jet(*box)
    d.first(Interval(0.0, 0.0), IntervalBox.point([0.05, -0.05]))
    # the box at order 2, its midpoint at order 1, the point at order 1
    records = list(d.diagnostics.values())
    assert [r["order"] for r in records] == [2, 1, 1]
    for r in records:
        assert r["unstable"]["sigma_min_projection"] > 0.0
        assert r["stable"]["sigma_min_projection"] > 0.0


def test_existing_oracle_constructors_keep_working():
    # GOracle and ManifoldOracle built without ``first`` read ``jet`` for
    # their order-1 reads (a GOracle takes ``first`` from ``jet``)
    from splitcert.implicit import GOracle, implicit_enclose, implicit_first

    pm = PolyMap(3, [[(1.0, (0, 0, 1)), (1.0, (0, 0, 3)), (-1.0, (0, 1, 0))]])
    g = GOracle(1, 1, lambda X, K: pm.jet(X.concat(K)))
    x, k = IntervalBox([0.0, -0.1], [0.0, 0.1]), IntervalBox([-0.2], [0.2])
    enc = implicit_enclose(g, x, k)
    d_eps, d_x = implicit_first(g, x, enc.image)
    j = g.jet(x, enc.image)
    assert _same_first(g.first(x, enc.image), j)
    assert d_x.lo[0, 0] <= 1.0 / (1.0 + 3.0 * 0.1**2) and d_x.hi[0, 0] >= 1.0 / 1.03
    w = ManifoldOracle(WU_PARAB.jet, (0,), (1,), WU_PARAB.approx)
    assert w.first is None
    d = distance_fixed_point(w, WS_FLAT, 0.0, XBOX, 1, 0)
    assert _same_first(d.first(*QUERIES["point"]),
                       distance_fixed_point(w, WS_FLAT, 0.0, XBOX, 1, 0).jet(*QUERIES["point"]))
