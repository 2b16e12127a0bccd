"""The 4-d worked example: field, integrals, charts, transport, pipeline."""

import hashlib
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from splitcert.distance import ConditionError
from splitcert.flow import FlowSettings, flow_jet, point_flow
from splitcert.intervals import Interval, IntervalBox
from splitcert.jets import Jet2Enclosure
from splitcert.lerman import (
    LUConfig,
    run_theorem_proof,
    chart_V,
    chart_psi,
    global_manifold,
    integrals_HK,
    locate_homoclinic,
    lu_field,
    make_local_graph,
    midpoint_mixed_second,
    _approx_w,
    _side,
    _hk_polys,
    _chart_A,
    _p0,
)

CFG = LUConfig()
A_QUARTER = 2.0 ** -0.25  # 2^(-1/4)
P0 = np.array([A_QUARTER, 0.0, A_QUARTER, 0.0])


def test_field_fixed_point_and_eps_vanishing():
    # the field's jet over (eps, x): eps in [0, 0] and [0, 0.5], x = 0
    j = lu_field(CFG).rhs.jet(IntervalBox.point([0.0] * 5))
    assert j.value.contains_zero() and j.value.max_width() <= 1e-14
    j = lu_field(CFG).rhs.jet(IntervalBox([0.0] * 5, [0.5] + [0.0] * 4))
    assert j.value.contains_zero() and j.value.max_width() <= 1e-14


def test_field_at_section_point():
    # hand evaluation: F(0, p0) = 2^(-1/4) (-1, 1, 1, 1)
    j = lu_field(CFG).rhs.jet(IntervalBox.point(np.concatenate([[0.0], P0])))
    expect = A_QUARTER * np.array([-1.0, 1.0, 1.0, 1.0])
    for i in range(4):
        assert j.value[i].contains(expect[i])
        assert j.value[i].width <= 1e-12


def test_integrals_at_origin_and_section():
    h, k = integrals_HK(CFG, IntervalBox.point([0.0] * 4))
    assert h.contains(0.0) and k.contains(0.0) and h.width <= 1e-15
    h, k = integrals_HK(CFG, IntervalBox.point(P0))
    assert h.contains(0.0) and k.contains(0.0)
    assert h.width <= 1e-12 and k.width <= 1e-12


def test_chart_psi_inverse_identity():
    rng = np.random.RandomState(6)
    for side in ("unstable", "stable"):
        for _ in range(20):
            v = rng.uniform(-1.5e-4, 1.5e-4, 4)
            fw = chart_psi(CFG, side, "forward", IntervalBox.point(v))
            back = chart_psi(CFG, side, "inverse", fw.value)
            for i in range(4):
                assert back.value[i].contains(v[i])
                assert back.value[i].width <= 1e-16


def test_chart_psi_unstable_plane():
    rng = np.random.RandomState(8)
    c = 2.0 ** -0.5
    for _ in range(10):
        v1, v2 = rng.uniform(-1e-2, 1e-2, 2)
        fw = chart_psi(CFG, "unstable", "forward", IntervalBox.point([v1, v2, 0.0, 0.0]))
        assert fw.value[0].contains(v1) and fw.value[1].contains(v2)
        assert fw.value[2].contains(c * (v1 * v1 + v2 * v2) * v1)
        assert fw.value[3].contains(c * (v1 * v1 + v2 * v2) * v2)


def test_chart_psi_mirror_symmetry():
    # Psi_s is Psi_u conjugated by (x1,x2,x3,x4) -> (x3,x4,x1,x2)
    rng = np.random.RandomState(9)
    swap = [2, 3, 0, 1]
    for _ in range(20):
        v = rng.uniform(-1e-2, 1e-2, 4)
        pu = chart_psi(CFG, "unstable", "forward", IntervalBox.point(v)).value.mid()
        ps = chart_psi(CFG, "stable", "forward", IntervalBox.point(v[swap])).value.mid()
        assert np.allclose(pu[swap], ps, atol=1e-15)


# sha256 of each straightening map's per-component (coefficient lo,
# coefficient hi, exponents) lists, as the monomial-by-monomial charts gave
CHART_DIGESTS = {
    ("unstable", "psi"): "edd8b4413784b8b687aedef8a700e82646a5d60f2e252f0773856f8eafb8d2ba",
    ("unstable", "psi_inv"): "05fe8fa04b71d744494d6dad78042074866d342206ae675826e6d86152f2b2a5",
    ("stable", "psi"): "d53a5120df06e571423b5d26a5476d60a28c17b3cc3328d9297a05c0fc203894",
    ("stable", "psi_inv"): "33a79eb2b7191a99cc8933d43de298e76898a6c29321d29fd97bd6f26bedef09",
}


def test_straightening_charts_pinned():
    # the charts come from one rule; a reordered monomial would move last
    # bits of every compiled array, which the float checks above miss
    for (side, name), digest in CHART_DIGESTS.items():
        pm = getattr(_side(CFG, side), name)
        terms = [[(c.lo, c.hi, e) for c, e in comp] for comp in pm.components]
        assert hashlib.sha256(repr(terms).encode()).hexdigest() == digest, (side, name)


def test_side_record():
    u, s = _side(CFG, "unstable"), _side(CFG, "stable")
    assert (u.T, s.T) == (CFG.T, -CFG.T)
    assert (u.slots, s.slots) == (slice(0, 2), slice(2, 4))
    assert _side(CFG, "stable") is s
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(u.embed(v), [[1, 2, 0, 0], [3, 4, 0, 0]])
    assert np.array_equal(s.embed(v[0], -5.0), [-5, -5, 1, 2])
    with pytest.raises(ValueError):
        chart_psi(CFG, "Unstable", "forward", IntervalBox.point([0.0] * 4))


def test_chart_V_orthogonality_and_anchors():
    a = _chart_A(CFG)
    for j in (2, 3):
        for i in range(4):
            if i != j:
                assert abs(a[:, i] @ a[:, j]) == 0.0
    fw = chart_V(CFG, "forward", IntervalBox.point([0.0] * 4))
    for i in range(4):
        assert fw.value[i].contains(P0[i])
    inv = chart_V(CFG, "inverse", IntervalBox.point(P0))
    assert inv.value.contains_zero()
    assert inv.value.max_width() <= 1e-12


def test_hk_conservation_through_validated_flow():
    # eps = 0 flow preserves H and K; endpoint enclosures contain the
    # initial values (acceptance criterion runs 10 points; 3 here)
    field = lu_field(CFG)
    settings = FlowSettings(taylor_order=14, initial_step=0.25)
    rng = np.random.RandomState(12)
    for _ in range(3):
        x0 = rng.uniform(-0.5, 0.5, 4)
        x0 *= 0.5 / max(np.linalg.norm(x0), 0.5)
        h0, k0 = integrals_HK(CFG, IntervalBox.point(x0))
        j = flow_jet(field, Jet2Enclosure.identity(IntervalBox.point(x0)),
                     Interval(0.0, 0.0), 1.0, settings)
        h1, k1 = integrals_HK(CFG, j.value)
        assert h1.intersect(h0) is not None and k1.intersect(k0) is not None
        assert h1.width <= 1e-6 and k1.width <= 1e-6


def test_local_graph_jet_domain_guard():
    local = make_local_graph(CFG, "unstable")
    j = local.jet(Interval(0.0, CFG.eps_max), IntervalBox([-1e-4, 0.0], [1e-4, 0.0]))
    assert j.value.contains_zero()
    assert np.all(np.abs(j.d1.lo) <= CFG.lipschitz)
    with pytest.raises(Exception):
        local.jet(Interval(0.0, CFG.eps_max), IntervalBox([-1.0, 0.0], [1.0, 0.0]))


def test_shooting_lands_inside_local_domain():
    for side in ("unstable", "stable"):
        v = locate_homoclinic(CFG, side)
        assert np.max(np.abs(v)) < CFG.local_radius
        w = _approx_w(CFG, side)(0.0, v)
        assert np.max(np.abs(w[:2])) < 1e-12  # x-part of the section hit
    vu = locate_homoclinic(CFG, "unstable")
    vs = locate_homoclinic(CFG, "stable")
    # the reversing symmetry pairs the two preimages
    assert np.allclose(vs, [vu[0], -vu[1]], atol=1e-12)


def test_manifolds_coincide_at_eps0():
    # the unperturbed stable/unstable graphs agree at the section to ~1e-11
    vu = locate_homoclinic(CFG, "unstable")
    vs = locate_homoclinic(CFG, "stable")
    yu = _approx_w(CFG, "unstable")(0.0, vu)[2:]
    ys = _approx_w(CFG, "stable")(0.0, vs)[2:]
    assert np.max(np.abs(yu - ys)) <= 1e-10


def melnikov_oracle(cfg: LUConfig) -> np.ndarray:
    """DERIVED oracle: d(M_H, M_K)/dx via quadrature of grad(H,K).g along
    unperturbed homoclinics, converted to chart coordinates."""
    field = lu_field(cfg)
    a = _chart_A(cfg)
    _, p0 = _p0(cfg)

    def grads(x):
        x1, x2, x3, x4 = x
        s = np.sqrt(2.0)
        gh = np.array([
            x3 + x4 - (4.0 / s) * x1 * (x1 * x1 + x2 * x2),
            x4 - x3 - (4.0 / s) * x2 * (x1 * x1 + x2 * x2),
            x1 - x2 - (4.0 / s) * x3 * (x3 * x3 + x4 * x4),
            x2 + x1 - (4.0 / s) * x4 * (x3 * x3 + x4 * x4),
        ])
        gk = np.array([-x4, x3, x2, -x1])
        return gh, gk

    ev = _approx_w(cfg, "unstable")
    vu0 = locate_homoclinic(cfg, "unstable")

    h = 1e-9
    stencil = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])

    def ambient(x_chart):
        # Newton with central differences; each iteration flows its 5-point
        # stencil as one batch, whose rows equal single calls bit for bit
        v = vu0.copy()
        for _ in range(40):
            w = ev(0.0, v + stencil)[:, :2]
            jac = np.stack([w[1] - w[2], w[3] - w[4]], axis=1) / (2 * h)
            v -= np.linalg.solve(jac, w[0] - x_chart)
        w = ev(0.0, v)
        return p0 + a @ w

    def integrand(x):
        gh, gk = grads(x)
        g = np.array([x[1], 0.0, x[3], 0.0])
        return np.array([gh @ g, gk @ g])

    def mel(q, T0=13.0, n=2600):
        # trapezoid quadrature along the orbit in both time directions
        h = T0 / n
        total = np.zeros(2)
        for sgn in (1.0, -1.0):
            x = q.copy()
            f_prev = integrand(x)
            for _ in range(n):
                x = point_flow(field, 0.0, x, sgn * h, order=8, step=h)
                f_cur = integrand(x)
                total += 0.5 * h * (f_prev + f_cur)
                f_prev = f_cur
        return total

    dx = 2e-4
    D = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = dx
        D[:, j] = (mel(ambient(e)) - mel(ambient(-e))) / (2 * dx)
    return D


def test_midpoint_mixed_second_matches_melnikov_oracle():
    # independent quadrature oracle for the mixed eps-x second derivative
    M = midpoint_mixed_second(CFG)
    B = np.vstack([
        np.array([-1.0, 1.0, 1.0, 1.0]) * A_QUARTER,   # grad H(p0) direction? no:
    ])
    # convert: (H,K)-gap = B2 @ y-chart-gap with B2 = [gradH(p0); gradK(p0)] A[:,2:4]
    x1 = A_QUARTER
    s = np.sqrt(2.0)
    gh0 = np.array([
        x1 - (4.0 / s) * x1 * x1 * x1,
        -x1,
        x1 - (4.0 / s) * x1 * x1 * x1,
        x1,
    ])
    gk0 = np.array([0.0, x1, 0.0, -x1])
    a = _chart_A(CFG)
    B2 = np.vstack([gh0, gk0]) @ a[:, 2:4]
    D_oracle = melnikov_oracle(CFG)
    D_mine = B2 @ M
    assert np.max(np.abs(D_mine - D_oracle)) <= 2e-3 * max(1.0, np.max(np.abs(D_oracle)))


def test_perturbation_conserves_K_exactly():
    # grad K . g = 0 as a polynomial identity, g the eps-terms of the field,
    # expanded over the monomial lists in exact rational arithmetic: K is
    # conserved for every eps, so the second row of the true mixed block
    # vanishes (criterion 7 relies on this)
    def exact(c):
        assert c.lo == c.hi, "coefficient is not a point"
        return Fraction(c.lo)

    k = {e: exact(c) for c, e in _hk_polys(CFG).components[1]}
    assert k == {(0, 1, 1, 0): 1, (1, 0, 0, 1): -1}  # K = x2 x3 - x1 x4
    coeffs = defaultdict(Fraction)
    for v, comp in enumerate(lu_field(CFG).rhs.components):
        for c, e in comp:
            if e[0] == 0:
                continue
            for ek, ck in k.items():  # c x^e times d(ck x^ek)/dx_v
                if ek[v] == 0:
                    continue
                dk = ek[:v] + (ek[v] - 1,) + ek[v + 1:]
                key = (e[0],) + tuple(a + b for a, b in zip(e[1:], dk))
                coeffs[key] += exact(c) * ck * ek[v]
    assert coeffs, "the field has no eps-terms to check"
    assert all(cf == 0 for cf in coeffs.values()), dict(coeffs)


def test_global_manifold_T0_reduces_to_charts():
    cfg = LUConfig(T=1e-12)  # T must be positive; use the T=0 reduction directly
    local = make_local_graph(CFG, "unstable")
    eps = Interval(0.0, CFG.eps_max)
    vbox = IntervalBox([1e-5, -1e-5], [1.1e-5, -0.9e-5])
    object.__setattr__(cfg, "T", 0.0)
    j = global_manifold(cfg, "unstable", local, eps, vbox)
    # with T = 0 this is V^-1 of Psi_u over the graph box
    from splitcert.jets import jet2_compose
    from splitcert.lerman import _ic_jet
    ic = _ic_jet(CFG, "unstable", local, eps, vbox)
    direct = jet2_compose(chart_V(CFG, "inverse", ic.value), ic)
    for i in range(4):
        assert j.value[i].intersect(direct.value[i]) is not None
        assert abs(j.value[i].mid - direct.value[i].mid) <= 1e-12


def test_structural_failure_when_T_too_short():
    # with T = 2 the local graphs cannot reach the section chart
    cfg = LUConfig(T=2.0)
    with pytest.raises(ConditionError):
        from splitcert.lerman import build_distance_oracle
        build_distance_oracle(cfg)


def test_singular_shooting_jacobian_fails_the_certificate(monkeypatch):
    # a shooting map that ignores its parameters has a zero Jacobian: the
    # float Newton raises ConditionError, which the proof reports as a
    # failed certificate
    from splitcert import lerman

    monkeypatch.setattr(lerman, "_approx_w", lambda cfg, side: lambda eps, v: np.ones((len(v), 4)))
    with pytest.raises(ConditionError, match="numerically singular"):
        locate_homoclinic(CFG, "unstable")
    cert = run_theorem_proof(CFG)
    assert cert.verdict == "failed"
    assert cert.diagnostics["stage_error"].startswith("ConditionError")


def test_sample_manifold_conserves_integrals():
    from splitcert.lerman import sample_manifold
    rows = sample_manifold(CFG, "unstable", 0.0, n_params=4, n_times=6)
    assert rows.shape[1] == 5
    for row in rows:
        h, k = integrals_HK(CFG, IntervalBox.point(row[1:]))
        assert abs(h.mid) <= 1e-8 and abs(k.mid) <= 1e-8


def test_local_enclosure_boxes_halfwidth():
    # both sides: the local slots tile [-r, r]^2 row-major (a outer, b
    # inner), the graph slots are exactly +-d
    from splitcert.lerman import local_enclosure_boxes
    r = CFG.local_radius
    for side, loc, graph in (("unstable", [0, 1], [2, 3]), ("stable", [2, 3], [0, 1])):
        d = make_local_graph(CFG, side).value_radius
        assert d <= CFG.lipschitz * r * (1 + 1e-15)
        for n in (1, 2, 3):
            rows = local_enclosure_boxes(CFG, side, n_grid=n)
            assert rows.shape == (n * n, 8)
            lo, hi = rows[:, :4], rows[:, 4:]
            assert np.all(lo[:, graph] == -d) and np.all(hi[:, graph] == d)
            edges = np.linspace(-r, r, n + 1)
            cells = [(i, j) for i in range(n) for j in range(n)]
            for k, (i, j) in enumerate(cells):
                assert lo[k, loc].tolist() == [edges[i], edges[j]]
                assert hi[k, loc].tolist() == [edges[i + 1], edges[j + 1]]
            assert lo[0, loc].tolist() == [-r, -r] and hi[-1, loc].tolist() == [r, r]


def test_global_manifold_jet_contains_finite_differences():
    # nonrigorous finite differences of the chart-coordinate manifold map lie
    # inside the rigorous first-derivative enclosures (5 sample points)
    cfg = LUConfig(flow=FlowSettings(taylor_order=16, initial_step=0.25))
    local = make_local_graph(cfg, "unstable")
    vu = locate_homoclinic(cfg, "unstable")
    eps = Interval(0.0, cfg.eps_max)
    vbox = IntervalBox(vu - 5e-10, vu + 5e-10)
    j = global_manifold(cfg, "unstable", local, eps, vbox)
    ev = _approx_w(cfg, "unstable")
    h = 2e-10
    rng = np.random.RandomState(5)
    for _ in range(5):
        v = rng.uniform(vbox.lo + h, vbox.hi - h)
        e = rng.uniform(0.0, cfg.eps_max)
        for col in range(2):
            dv = np.zeros(2)
            dv[col] = h
            fd = (ev(e, v + dv) - ev(e, v - dv)) / (2 * h)
            for i in range(4):
                assert j.d1.lo[i, 1 + col] - 2e-3 <= fd[i] <= j.d1.hi[i, 1 + col] + 2e-3
        fde = (ev(e + 1e-9, v) - ev(max(e - 1e-9, 0.0), v)) / (1e-9 + min(e, 1e-9))
        for i in range(4):
            assert j.d1.lo[i, 0] - 1e-2 <= fde[i] <= j.d1.hi[i, 0] + 1e-2


def test_fallback_transport_times_recorded():
    cfg = LUConfig(T=2.0, fallback_T=(1.5,),
                   flow=FlowSettings(taylor_order=10, initial_step=0.25))
    cert = run_theorem_proof(cfg)
    assert cert.verdict == "failed"
    assert cert.diagnostics["transport_time"] == 1.5


def test_global_manifold_order1_equals_the_order2_value_and_d1():
    # the order-1 transport behind ManifoldOracle.first of the worked example
    cfg = LUConfig(flow=FlowSettings(taylor_order=16, initial_step=0.25))
    local = make_local_graph(cfg, "stable")
    vs = locate_homoclinic(cfg, "stable")
    eps = Interval(0.0, cfg.eps_max)
    vbox = IntervalBox(vs - 5e-10, vs + 5e-10)
    two = global_manifold(cfg, "stable", local, eps, vbox)
    one = global_manifold(cfg, "stable", local, eps, vbox, order=1)
    for x, y in ((one.value.lo, two.value.lo), (one.value.hi, two.value.hi),
                 (one.d1.lo, two.d1.lo), (one.d1.hi, two.d1.hi)):
        assert x.tobytes() == y.tobytes()
    assert not hasattr(one, "d2lo")
