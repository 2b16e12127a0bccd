"""The benchmark's three seeded workloads.

Each workload fixes every input the program sees (configs are spelled out
field by field, so a changed library default cannot change the workload),
draws its operation inputs from the seed alone, and checks every output.
A workload is a small object with:

* ``setup()`` -- the per-process set-up a user pays before the first
  operation; its time is the ``setup_s`` metric;
* ``inputs(seed, fixture)`` -- the batch of operation inputs (untimed);
* ``run(fixture, inp)`` -- one operation, the unit that is timed;
* ``check(fixture, inp, out)`` -- ``None`` when the output is correct,
  else a one-line reason (untimed);
* ``headline(inp, out)`` -- the deterministic quality figures of one
  output (enclosure width, certified margin);
* ``expected`` -- per-layer metrics that must be nonzero in a traced run.

All three run single-threaded in a closed loop: the next operation starts
only after the previous one returned.
"""

from __future__ import annotations

import numpy as np

import splitcert
from splitcert import (
    FlowSettings,
    Interval,
    IntervalBox,
    Jet2Enclosure,
    LUConfig,
    ManifoldOracle,
    PolyMap,
    SplittingProblem,
)

# Every FlowSettings/LUConfig field is written out: the README shows
# initialStep 0.25 while lu-verify runs 0.125, so no default may decide.
LU_FLOW = FlowSettings(taylor_order=18, initial_step=0.125, min_step=1.0 / 2**20,
                       wrapping_control="parallelepiped", max_steps=100000)
LU_CONFIG = LUConfig(lam=1.0, omega=1.0, eps_max=1e-7, R=1e-5, T=9.0,
                     local_radius=1.5e-4, lipschitz=1e-8, second_deriv_bound=3.518e-5,
                     flow=LU_FLOW, subdivide=1, eps_subdivide=1, threads=1, fallback_T=())
# criterion 5 of the acceptance suite
CONSERVATION_FLOW = FlowSettings(taylor_order=14, initial_step=0.25, min_step=1.0 / 2**20,
                                 wrapping_control="parallelepiped", max_steps=100000)

# K = x2 x3 - x1 x4 over (eps, x1..x4): the perturbation conserves it for every eps
_K_POLY = PolyMap(5, [[(1.0, (0, 0, 1, 1, 0)), (-1.0, (0, 1, 0, 0, 1))]])


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws uniform in [lo, hi], one per equal-width stratum, shuffled.

    Stratifying keeps the batch's spread of input sizes, and so its cost,
    nearly the same from seed to seed.
    """
    u = (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
    return lo + (hi - lo) * u


def _contains_zero(lo, hi) -> bool:
    return bool(np.all(np.asarray(lo) <= 0.0) and np.all(0.0 <= np.asarray(hi)))


# ---------------------------------------------------------------------------

class LuTransport:
    """Validated T=9 transports of the worked example's local manifolds.

    One batch is the pair of transports (unstable side forward, stable side
    backward) that the distance oracle's first probe makes for a query at
    (eps=0, x); the A22 query repeats such transports eight times.  The
    local-chart point is the float preimage of x; seed 0 uses x = p, other
    seeds draw x uniformly in the disc B(p, R).
    """

    name = "lu_transport"
    expected = ("kernels.vadd.calls", "kernels.vmul.calls", "kernels.isum.calls",
                "kernels.idot.calls", "flow.transport.calls", "flow.rough.calls",
                "flow.float.calls", "intervals.scalar_ops", "polys.eval_box.calls",
                "polys.jet.calls", "matrices.solve.calls", "jets.compose.calls",
                "lerman.build_oracle.s")

    def setup(self):
        cfg = LU_CONFIG
        # the worked example's set-up as lu-verify pays it (float shooting for
        # both homoclinic guesses); its queries run the transports timed below
        splitcert.build_distance_oracle(cfg)
        local = {side: splitcert.make_local_graph(cfg, side) for side in ("unstable", "stable")}
        return {"cfg": cfg, "local": local}

    def _chart_point(self, side: str, v) -> np.ndarray:
        """Float chart coordinates of the side's manifold at local point v."""
        cfg = LU_CONFIG
        v4 = np.array([v[0], v[1], 0.0, 0.0]) if side == "unstable" else \
            np.array([0.0, 0.0, v[0], v[1]])
        x0 = splitcert.chart_psi(cfg, side, "forward", IntervalBox.point(v4)).value.mid()
        T = cfg.T if side == "unstable" else -cfg.T
        xT = splitcert.point_flow(splitcert.lu_field(cfg), 0.0, x0, T,
                                  order=cfg.flow.taylor_order)
        return splitcert.chart_V(cfg, "inverse", IntervalBox.point(xT)).value.mid()

    def inputs(self, seed: int, fixture) -> list:
        cfg = LU_CONFIG
        rng = np.random.default_rng(seed)
        if seed == 0:
            x = np.zeros(2)
        else:
            r = cfg.R * np.sqrt(rng.uniform())
            th = rng.uniform(0.0, 2.0 * np.pi)
            x = np.array([r * np.cos(th), r * np.sin(th)])
        batch = []
        for side in ("unstable", "stable"):
            u = splitcert.locate_homoclinic(cfg, side)
            # one Newton step on the chart base coordinates, central differences
            h = 1e-9
            jac = np.zeros((2, 2))
            for j in range(2):
                du = np.zeros(2)
                du[j] = h
                jac[:, j] = (self._chart_point(side, u + du)[:2]
                             - self._chart_point(side, u - du)[:2]) / (2 * h)
            u = u + np.linalg.solve(jac, x - self._chart_point(side, u)[:2])
            batch.append({"side": side, "x": x, "v": u})
        return batch

    def run(self, fixture, inp):
        cfg = fixture["cfg"]
        side = inp["side"]
        return splitcert.global_manifold(cfg, side, fixture["local"][side], Interval(0.0, 0.0),
                                         IntervalBox.point(inp["v"]))

    def check(self, fixture, inp, out) -> str | None:
        cfg = fixture["cfg"]
        xj = splitcert.jet2_compose(splitcert.chart_V(cfg, "forward", out.value), out)
        h, k = splitcert.integrals_HK(cfg, xj.value)
        if not (h.contains_zero() and k.contains_zero()):
            return f"H or K of the transported unperturbed manifold excludes 0: H={h}, K={k}"
        eps_x = IntervalBox(np.concatenate([[0.0], xj.value.lo]),
                            np.concatenate([[0.0], xj.value.hi]))
        kj = splitcert.jet2_compose(_K_POLY.jet(eps_x), xj)
        if not _contains_zero(kj.d1.lo, kj.d1.hi):
            return "dK/d(eps, a, b) excludes 0 although K is conserved"
        if not _contains_zero(kj.d2lo[0, 0, 1:], kj.d2hi[0, 0, 1:]):
            return "K-row of the mixed block excludes 0 although K is conserved"
        return None

    def headline(self, inp, out) -> dict:
        rows = [2, 3]  # the splitting directions y of the chart
        w = out.d2hi[rows, 0, 1:] - out.d2lo[rows, 0, 1:]
        return {"width_max": float(np.max(w))}


# ---------------------------------------------------------------------------

class Conservation:
    """Short validated transports of point initial conditions (criterion 5).

    The batch is the acceptance suite's criterion-5 recipe: ten initial
    conditions of radius in [0.05, 0.5] (its own generator, so seed 0 runs
    exactly its ten), each transported for T=1 at Taylor order 14 with
    initial step 0.25 and no doubleton domain; H and K must be conserved.
    The seed turns each condition by its own multiple of a quarter turn in
    both coordinate planes at once.  At eps = 0 the field commutes with that
    turn and H and K are invariant under it, and a quarter turn only swaps
    and negates coordinates, so every seed poses the same ten problems in
    other floats.  Fresh random directions instead change the widest H/K
    enclosure of a batch twofold from seed to seed.
    """

    name = "conservation"
    expected = ("kernels.vadd.calls", "kernels.vmul.calls", "kernels.isum.calls",
                "kernels.idot.calls", "flow.transport.calls", "flow.rough.calls",
                "intervals.scalar_ops", "polys.eval_box.calls")

    def setup(self):
        cfg = LU_CONFIG
        return {"cfg": cfg, "field": splitcert.lu_field(cfg)}

    def inputs(self, seed: int, fixture) -> list:
        base = np.random.RandomState(20240817)
        turns = np.random.default_rng(seed).integers(0, 4, 10) if seed else np.zeros(10, int)
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
        batch = []
        for k in turns:
            x0 = base.uniform(-1.0, 1.0, 4)
            x0 *= base.uniform(0.05, 0.5) / np.linalg.norm(x0)
            rot = np.linalg.matrix_power(quarter, k)
            batch.append({"x0": np.concatenate([rot @ x0[:2], rot @ x0[2:]])})
        return batch

    def run(self, fixture, inp):
        x0 = Jet2Enclosure.identity(IntervalBox.point(inp["x0"]))
        return splitcert.flow_jet(fixture["field"], x0, Interval(0.0, 0.0), 1.0,
                                  CONSERVATION_FLOW)

    def check(self, fixture, inp, out) -> str | None:
        cfg = fixture["cfg"]
        h0, k0 = splitcert.integrals_HK(cfg, IntervalBox.point(inp["x0"]))
        h1, k1 = splitcert.integrals_HK(cfg, out.value)
        if h1.intersect(h0) is None or k1.intersect(k0) is None:
            return f"H or K not conserved: H {h0} -> {h1}, K {k0} -> {k1}"
        if h1.width > 1e-6 or k1.width > 1e-6:
            return f"H/K enclosure wider than 1e-6: {h1.width:.3e}, {k1.width:.3e}"
        return None

    def headline(self, inp, out) -> dict:
        h1, k1 = splitcert.integrals_HK(LU_CONFIG, out.value)
        return {"width_max": max(h1.width, k1.width)}


# ---------------------------------------------------------------------------

TOY_R = 0.2
TOY_EPS_MAX = 0.05
TOY_U = IntervalBox([-TOY_R, -TOY_R], [TOY_R, TOY_R])


def _poly_manifold(pm: PolyMap) -> ManifoldOracle:
    def jet(eps, params):
        return pm.jet(IntervalBox(np.concatenate([[eps.lo], params.lo]),
                                  np.concatenate([[eps.hi], params.hi])))

    def approx(eps, params):
        return pm.eval_point(np.concatenate([[eps], np.asarray(params, float)]))

    return ManifoldOracle(jet=jet, approx=approx, x_proj=(0, 1), y_proj=(2, 3))


def toy_pair(B: np.ndarray, c: float) -> tuple[ManifoldOracle, ManifoldOracle]:
    """Two 2-d graphs over (x1, x2) that coincide at eps = 0.

    Unstable side, parameters a:  x = a,  y = q(a) + eps (B a + a^3).
    Stable side, parameters s:    x = phi(s) = s + c s^3,  y = q(phi(s)).
    So y(eps, x) = eps (B x + x^3): A22 = B exactly and Delta2 = diag(3 x^2).
    q(x) = (x1 x2, (x1^2 - x2^2) / 2); c is dyadic, so c^2 is exact.
    """
    (b11, b12), (b21, b22) = B
    e = lambda *exps: tuple(exps)  # noqa: E731  (eps, p1, p2) exponents
    unstable = PolyMap(3, [
        [(1.0, e(0, 1, 0))],
        [(1.0, e(0, 0, 1))],
        [(1.0, e(0, 1, 1)), (b11, e(1, 1, 0)), (b12, e(1, 0, 1)), (1.0, e(1, 3, 0))],
        [(0.5, e(0, 2, 0)), (-0.5, e(0, 0, 2)),
         (b21, e(1, 1, 0)), (b22, e(1, 0, 1)), (1.0, e(1, 0, 3))],
    ])
    c2 = c * c
    stable = PolyMap(3, [
        [(1.0, e(0, 1, 0)), (c, e(0, 3, 0))],
        [(1.0, e(0, 0, 1)), (c, e(0, 0, 3))],
        [(1.0, e(0, 1, 1)), (c, e(0, 3, 1)), (c, e(0, 1, 3)), (c2, e(0, 3, 3))],
        [(0.5, e(0, 2, 0)), (c, e(0, 4, 0)), (0.5 * c2, e(0, 6, 0)),
         (-0.5, e(0, 0, 2)), (-c, e(0, 0, 4)), (-0.5 * c2, e(0, 0, 6))],
    ])
    return _poly_manifold(unstable), _poly_manifold(stable)


class ToyCertificate:
    """Full splitting certificates for a seeded family of 2-d manifold pairs.

    Each operation builds the distance oracle, assembles the lemma data on a
    2x2 subdivision of U, verifies the margin and transversality, and
    cross-checks with boundary exclusion at depth 2.  No flow is involved.
    """

    name = "toy_certificate"
    batch_size = 8
    expected = ("kernels.calls", "newton.verify.calls", "implicit.enclose.calls",
                "implicit.derivs.self_s", "distance.manifold_jet.calls",
                "distance.query.calls", "intervals.scalar_ops", "polys.eval_box.calls",
                "polys.jet.calls", "matrices.solve.calls", "matrices.norm.calls",
                "jets.compose.calls", "degree.assemble.self_s", "degree.verify.self_s",
                "degree.boundary.self_s", "degree.boundary.cells")

    def setup(self):
        return {}

    def inputs(self, seed: int, fixture) -> list:
        rng = np.random.default_rng(seed)
        n = self.batch_size
        entries = np.stack([_strata(rng, n, 0.5, 2.0) for _ in range(4)], axis=1)
        cs = np.round(_strata(rng, n, 0.2, 0.8) * 1024.0) / 1024.0
        return [{"B": np.diag([2.5, 2.5]) + entries[i].reshape(2, 2), "c": float(cs[i])}
                for i in range(n)]

    def run(self, fixture, inp):
        wu, ws = toy_pair(inp["B"], inp["c"])
        oracle = splitcert.distance_fixed_point(wu, ws, TOY_EPS_MAX, TOY_U, k1=0, k2=2)
        prob = SplittingProblem(k1=0, k2=2, p=np.zeros(2), R=TOY_R, eps_max=TOY_EPS_MAX,
                                oracle=oracle)
        cert = splitcert.assemble_lemma_data(prob, subdivide=2, eps_subdivide=1, threads=1)
        cert = splitcert.verify_practical(cert)
        if cert.verified:
            cert = splitcert.verify_transversal(cert)
        bcert = splitcert.verify_boundary_exclusion(oracle, TOY_U, eps_max=TOY_EPS_MAX,
                                                    boundary_depth=2, threads=1)
        return cert, bcert

    def check(self, fixture, inp, out) -> str | None:
        cert, bcert = out
        if cert.verdict != "verified":
            return f"verdict {cert.verdict}, margin {cert.margin2}"
        if cert.transversal is not True:
            return "transversality not established"
        if not bcert.verified:
            return f"boundary exclusion failed: {bcert.reason}"
        if not cert.A22.contains_matrix(inp["B"]):
            return "A22 does not contain the drawn splitting matrix"
        return None

    def headline(self, inp, out) -> dict:
        cert, _ = out
        return {"width_max": float(np.max(cert.Delta2.width())),
                "margin_min": float(cert.margin2)}


WORKLOADS = {w.name: w for w in (LuTransport(), Conservation(), ToyCertificate())}
