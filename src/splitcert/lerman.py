"""The worked 4-d example: transversal splitting near a hyperbolic origin.

The vector field couples two rotating planes through cubic terms and a
one-parameter perturbation; at eps = 0 it is generated by a Hamiltonian H
with an extra integral K, and the two-dimensional stable and unstable
manifolds of the origin coincide.  This module assembles the full
verification pipeline: straightening charts for the local manifolds, an
affine chart at the candidate intersection point p0 = (2^-1/4, 0, 2^-1/4, 0),
rigorous transport of the local manifold graphs by the validated flow,
implicit reparameterization to a common graph base, and the splitting
certificate showing the perturbed manifolds intersect transversally within
R of p0 for every eps in (0, eps_max].

Local manifold bounds (radius, Lipschitz constant, second-derivative bound)
are consumed as declared inputs and listed in the certificate assumptions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache, partial

import numpy as np

from .intervals import INV_SQRT2, Interval, IntervalBox, IntervalError
from .jets import Jet1Enclosure, Jet2Enclosure, jet1_compose, jet2_compose, jet2_stack
from .matrices import IntervalMatrix, iinverse
from .polys import PolyMap, VectorFieldDef
from .flow import FlowSettings, flow_jet, point_flow, point_flow_jet
from .distance import (ConditionError, DistanceOracle, ManifoldOracle, distance_fixed_point,
                       float_root)
from .degree import (MelnikovCertificate, SplittingProblem, assemble_lemma_data, check_serial,
                     verify_practical, verify_transversal)


@dataclass(frozen=True)
class LUConfig:
    """Constants of the worked example plus integrator/pipeline knobs.

    The local-manifold data (radius, Lipschitz constant, second-derivative
    bound) are declared inputs: they were established separately for the
    parameter range [0, eps_max] and are consumed here as assumptions.
    """

    lam: float = 1.0
    omega: float = 1.0
    eps_max: float = 1e-7
    R: float = 1e-5
    T: float = 9.0
    local_radius: float = 1.5e-4
    lipschitz: float = 1e-8
    second_deriv_bound: float = 3.518e-5
    flow: FlowSettings = dataclass_field(default_factory=lambda: FlowSettings(
        taylor_order=18, initial_step=0.125))
    subdivide: int = 1
    eps_subdivide: int = 1
    threads: int = 1  # kept as a field for callers that pass 1; cells run serially
    fallback_T: tuple[float, ...] = ()

    def __post_init__(self):
        check_serial(self.threads)
        for name in ("lam", "omega", "eps_max", "R", "T", "local_radius", "lipschitz",
                     "second_deriv_bound"):
            x = getattr(self, name)
            if not 0 < x < math.inf:
                raise IntervalError(f"{name} must be positive and finite, got {x!r}")
        for name in ("subdivide", "eps_subdivide"):
            n = getattr(self, name)
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise IntervalError(f"{name} must be an integer >= 1, got {n!r}")
        if not all(0 < t < math.inf for t in self.fallback_T):
            raise IntervalError(f"fallback_T entries must be positive and finite, "
                                f"got {self.fallback_T}")


@dataclass(frozen=True)
class ManifoldGraphEnclosure:
    """A local invariant manifold as a Lipschitz graph with derivative bounds.

    The graph w_loc maps (eps, a, b) in E x [-r, r]^2 to two transverse
    coordinates, vanishes on the fixed-point family, is L-Lipschitz, and has
    the stated second-derivative bound.  Values are represented as the
    centered enclosure [-L r, L r]^2.
    """

    domain: IntervalBox            # (eps, a, b) box
    value_radius: float            # outward-rounded L * r
    first_deriv_bound: float       # L
    second_deriv_bound: float
    side: str                      # "unstable" | "stable"

    def jet(self, eps_box: Interval, v_box: IntervalBox) -> Jet2Enclosure:
        if not self.domain.contains_box(
                IntervalBox(np.concatenate([[eps_box.lo], v_box.lo]),
                            np.concatenate([[eps_box.hi], v_box.hi]))):
            raise IntervalError("query box leaves the validated local-graph domain")
        d = self.value_radius
        value = IntervalBox([-d, -d], [d, d])
        l1 = self.first_deriv_bound
        d1 = IntervalMatrix(np.full((2, 3), -l1), np.full((2, 3), l1))
        b2 = self.second_deriv_bound
        return Jet2Enclosure(value, d1, np.full((2, 3, 3), -b2), np.full((2, 3, 3), b2))


def make_local_graph(cfg: LUConfig, side: str) -> ManifoldGraphEnclosure:
    r = cfg.local_radius
    delta = (Interval.point(cfg.lipschitz) * Interval.point(r)).hi
    domain = IntervalBox([0.0, -r, -r], [cfg.eps_max, r, r])
    return ManifoldGraphEnclosure(domain, delta, cfg.lipschitz, cfg.second_deriv_bound, side)


# ---------------------------------------------------------------------------
# field, integrals, charts

@lru_cache(maxsize=None)
def lu_field(cfg: LUConfig) -> VectorFieldDef:
    """The 4-d field with cubic coupling and the eps (x2, 0, x4, 0) term."""
    lam, w = cfg.lam, cfg.omega
    c = Interval(2.0, 2.0) * Interval(2.0, 2.0).sqrt() * lam  # 2 sqrt(2) lam
    # variables: (eps, x1, x2, x3, x4)
    def e(*exps):
        return tuple(exps)

    comps = [
        [(lam, e(0, 1, 0, 0, 0)), (-w, e(0, 0, 1, 0, 0)),
         (-c, e(0, 0, 0, 3, 0)), (-c, e(0, 0, 0, 1, 2)), (1.0, e(1, 0, 1, 0, 0))],
        [(w, e(0, 1, 0, 0, 0)), (lam, e(0, 0, 1, 0, 0)),
         (-c, e(0, 0, 0, 2, 1)), (-c, e(0, 0, 0, 0, 3))],
        [(-lam, e(0, 0, 0, 1, 0)), (-w, e(0, 0, 0, 0, 1)),
         (c, e(0, 3, 0, 0, 0)), (c, e(0, 1, 2, 0, 0)), (1.0, e(1, 0, 0, 0, 1))],
        [(w, e(0, 0, 0, 1, 0)), (-lam, e(0, 0, 0, 0, 1)),
         (c, e(0, 2, 1, 0, 0)), (c, e(0, 0, 3, 0, 0))],
    ]
    return VectorFieldDef(4, PolyMap(5, comps))


@lru_cache(maxsize=None)
def _hk_polys(cfg: LUConfig) -> PolyMap:
    lam, w = cfg.lam, cfg.omega
    cl = INV_SQRT2 * lam
    h_mons = [
        (lam, (1, 0, 1, 0)), (lam, (0, 1, 0, 1)),
        (-w, (0, 1, 1, 0)), (w, (1, 0, 0, 1)),
        (-cl, (4, 0, 0, 0)), (-cl * 2.0, (2, 2, 0, 0)), (-cl, (0, 4, 0, 0)),
        (-cl, (0, 0, 4, 0)), (-cl * 2.0, (0, 0, 2, 2)), (-cl, (0, 0, 0, 4)),
    ]
    k_mons = [(1.0, (0, 1, 1, 0)), (-1.0, (1, 0, 0, 1))]
    return PolyMap(4, [h_mons, k_mons])


def integrals_HK(cfg: LUConfig, x_box: IntervalBox) -> tuple[Interval, Interval]:
    """Enclosures of the Hamiltonian H and the integral K on a box."""
    vals = _hk_polys(cfg).eval_box(x_box)
    return vals[0], vals[1]


def _straightening(slots: slice, c: Interval) -> PolyMap:
    """The chart v -> v + c (a^3 + a b^2, a^2 b + b^3) over (eps, v1..v4),
    (a, b) = v[slots], the cubic added on the other two slots; the chart
    keeps a and b, so -c gives its inverse."""
    E = np.eye(5, dtype=int)  # exponent rows of eps, v1..v4
    a, b = E[1 + slots.start], E[2 + slots.start]
    comps, j = [], 0
    for k in range(4):
        comp = [(1.0, E[1 + k])]
        if k not in range(4)[slots]:
            comp += [(c, (3 - j) * a + j * b), (c, (1 - j) * a + (2 + j) * b)]
            j += 1
        comps.append(comp)
    return PolyMap(5, comps)


@dataclass(frozen=True)
class _Side:
    """What tells the two manifolds apart: the signed transport time, the
    chart slots holding the local parameters (a, b), and the straightening
    chart with its closed-form inverse (variables eps, v1..v4)."""

    T: float
    slots: slice
    psi: PolyMap
    psi_inv: PolyMap

    def embed(self, v, fill: float = 0.0) -> np.ndarray:
        """Local parameters (..., 2) in their slots of (..., 4), ``fill`` elsewhere."""
        v = np.asarray(v, dtype=float)
        v4 = np.full((*v.shape[:-1], 4), fill)
        v4[..., self.slots] = v
        return v4

    def stack(self, local: Jet2Enclosure, graph: Jet2Enclosure) -> Jet2Enclosure:
        """Jets of the local parameters and of the graph, in slot order."""
        return jet2_stack(local, graph) if self.slots.start == 0 else jet2_stack(graph, local)


@lru_cache(maxsize=None)
def _side(cfg: LUConfig, side: str) -> _Side:
    """The unstable manifold flows forward from the slots (v1, v2); the
    stable one backward from (v3, v4), its chart the unstable one's mirror
    under (x1, x2, x3, x4) -> (x3, x4, x1, x2)."""
    if side not in ("unstable", "stable"):
        raise ValueError(f"unknown manifold side {side!r}")
    T, slots = (cfg.T, slice(0, 2)) if side == "unstable" else (-cfg.T, slice(2, 4))
    return _Side(T, slots, _straightening(slots, INV_SQRT2), _straightening(slots, -INV_SQRT2))


def chart_psi(cfg: LUConfig, side: str, direction: str, v_box: IntervalBox,
              eps_box: Interval | None = None) -> Jet2Enclosure:
    """Jet of the straightening chart (or its closed-form inverse) on a box."""
    s = _side(cfg, side)
    pm = s.psi if direction == "forward" else s.psi_inv
    eps_box = eps_box or Interval(0.0, 0.0)
    full = IntervalBox(np.concatenate([[eps_box.lo], v_box.lo]),
                       np.concatenate([[eps_box.hi], v_box.hi]))
    return pm.jet(full)


def _p0(cfg: LUConfig) -> tuple[IntervalBox, np.ndarray]:
    a = INV_SQRT2.sqrt()  # 2^(-1/4)
    box = IntervalBox([a.lo, 0.0, a.lo, 0.0], [a.hi, 0.0, a.hi, 0.0])
    return box, np.array([a.mid, 0.0, a.mid, 0.0])


def _chart_A(cfg: LUConfig) -> np.ndarray:
    lam, w = cfg.lam, cfg.omega
    return np.array([
        [-lam, 0.0, 1.0, 0.0],
        [w, -1.0, 0.0, 1.0],
        [lam, 0.0, 1.0, 0.0],
        [w, -1.0, 0.0, -1.0],
    ])


def chart_V(cfg: LUConfig, direction: str, box: IntervalBox) -> Jet2Enclosure:
    """Affine intersection chart x = p0 + A w, or its verified inverse."""
    a = IntervalMatrix.point(_chart_A(cfg))
    p0_box, _ = _p0(cfg)
    if direction == "forward":
        m, val = a, (a @ box) + p0_box
    else:
        m = iinverse(a)
        val = m @ (box - p0_box)
    zero = np.zeros((4, 1))
    return Jet2Enclosure.affine(val, IntervalMatrix(np.hstack([zero, m.lo]),
                                                    np.hstack([zero, m.hi])))


# ---------------------------------------------------------------------------
# initial-condition jets from the local graphs

def _ic_jet(cfg: LUConfig, side: str, local: ManifoldGraphEnclosure,
            eps_box: Interval, v_box: IntervalBox) -> Jet2Enclosure:
    """Jet of the flow initial condition Psi(side)(graph point) in (eps, a, b)."""
    v4 = _side(cfg, side).stack(Jet2Enclosure.identity(v_box), local.jet(eps_box, v_box))
    psi = chart_psi(cfg, side, "forward", v4.value, eps_box)
    return jet2_compose(psi, v4)


def global_manifold(cfg: LUConfig, side: str, local: ManifoldGraphEnclosure,
                    eps_box: Interval, v_box: IntervalBox,
                    order: int = 2) -> Jet2Enclosure | Jet1Enclosure:
    """Jet of the transported manifold in intersection-chart coordinates.

    Composes the local graph with the straightening chart, transports by
    the flow for +-T (unstable/stable) with ``cfg.flow``, and maps into the
    affine chart at p0; output variables are (eps, a, b) with a, b the local
    parameters.  ``order=1`` transports the first variational block alone
    and returns enclosures of the value and d1 of the order-2 jet, bit for
    bit while both transports take the same steps and kernel path
    (:func:`flow_jet`).
    """
    ic = _ic_jet(cfg, side, local, eps_box, v_box)
    ic_center = _ic_jet(cfg, side, local, Interval.point(eps_box.mid),
                        IntervalBox.point(v_box.mid()))
    T = _side(cfg, side).T
    flowed = flow_jet(lu_field(cfg), ic, eps_box, T, cfg.flow, domain=v_box,
                      x0_center=ic_center, order=order)
    vinv = chart_V(cfg, "inverse", flowed.value)
    return (jet2_compose if order == 2 else jet1_compose)(vinv, flowed)


# ---------------------------------------------------------------------------
# nonrigorous companions (shooting, candidate guesses, midpoint pipeline)

def _approx_w(cfg: LUConfig, side: str):
    """Cheap float evaluation of the chart-coordinate manifold map, at one
    local point v (2,) or at a batch (B, 2) in one transport."""
    field = lu_field(cfg)
    s = _side(cfg, side)
    ainv = np.linalg.inv(_chart_A(cfg))
    _, p0 = _p0(cfg)

    def ev(eps: float, v) -> np.ndarray:
        v4 = s.embed(v)
        x0 = np.array([s.psi.eval_point(np.concatenate([[eps], p])) for p in v4.reshape(-1, 4)])
        xT = point_flow(field, eps, x0.reshape(v4.shape), s.T,
                        order=max(10, cfg.flow.taylor_order))
        return (xT - p0) @ ainv.T

    return ev


def locate_homoclinic(cfg: LUConfig, side: str) -> np.ndarray:
    """Nonrigorous local-chart parameters flowing onto the section point p0.

    :func:`float_root` from the backward-flowed p0; each Newton step flows
    its 5-point stencil as one batch."""
    field = lu_field(cfg)
    _, p0 = _p0(cfg)
    s = _side(cfg, side)
    back = point_flow(field, 0.0, p0, -s.T, order=max(10, cfg.flow.taylor_order))
    v = np.asarray(s.psi_inv.eval_point(np.concatenate([[0.0], back]))[s.slots], dtype=float)
    ev = _approx_w(cfg, side)
    return float_root(lambda rows: ev(0.0, rows)[:, :2], np.zeros(2), v)[0]


def midpoint_mixed_second(cfg: LUConfig) -> np.ndarray:
    """Nonrigorous d2y/deps dx(0, 0): the midpoint pipeline value.

    Runs the same composition as the rigorous pipeline with float
    arithmetic and the local graphs pinned to zero: the float reference
    that criterion 7 and the tests hold the rigorous A22 block against.
    """
    field = lu_field(cfg)
    ainv = np.linalg.inv(_chart_A(cfg))
    _, p0 = _p0(cfg)
    out = {}
    for side in ("unstable", "stable"):
        s = _side(cfg, side)
        cols = 1 + np.arange(4)[s.slots]     # the local parameters among (eps, v1..v4)
        v4 = s.embed(locate_homoclinic(cfg, side))
        x0, d15, d25 = s.psi.jet_point(np.concatenate([[0.0], v4]))
        xT, V, S = point_flow_jet(field, 0.0, x0, s.T, order=max(12, cfg.flow.taylor_order))
        # chain through the chart columns of psi (d2 psi in the plane is zero
        # only along the straight coordinates; include it exactly)
        dpsi = d15[:, cols]                     # 4 x 2
        deps_psi = d15[:, 0]
        # dPhi/d(eps, v): value-level chain rule
        Vv = V[:, 1:] @ dpsi                    # 4 x 2
        Ve = V[:, 0] + V[:, 1:] @ deps_psi
        # second derivatives of the composite (eps, v) -> Phi_T(psi(...))
        S_vv = np.einsum("cab,ai,bj->cij", S[:, 1:, 1:], dpsi, dpsi)
        S_vv += np.einsum("ca,aij->cij", V[:, 1:], d25[np.ix_(range(4), cols, cols)])
        S_ev = np.einsum("cab,a,bj->cj", S[:, 1:, 1:], deps_psi, dpsi) \
            + np.einsum("cb,bj->cj", S[:, 0, 1:], dpsi) \
            + np.einsum("ca,aj->cj", V[:, 1:], d25[np.ix_(range(4), [0], cols)][:, 0, :])
        w_x = ainv @ Vv
        w_e = ainv @ Ve
        w_ev = ainv @ S_ev
        w_vv = np.einsum("ca,aij->cij", ainv, S_vv)
        out[side] = {"x": ainv @ (xT - p0), "Vx": w_x, "Ve": w_e,
                     "Sev": w_ev, "Svv": w_vv}
    # implicit reparameterization u(eps, x): pi_x w(eps, u) = x
    mixed = {}
    for side in ("unstable", "stable"):
        d = out[side]
        A = d["Vx"][:2]                 # dg/du
        Ainv_g = np.linalg.inv(A)
        u_e = -Ainv_g @ d["Ve"][:2]
        u_x = Ainv_g                     # dg/dx = -I, so u_x = A^-1
        # d2(pi_x w(u))/deps dx = Sev u_x + Svv[u_e, u_x] + A u_ex = 0
        rhs = np.einsum("cab,a,bj->cj", d["Svv"][:2], u_e, u_x) \
            + np.einsum("ca,aj->cj", d["Sev"][:2], u_x)
        u_ex = -Ainv_g @ rhs
        # y-block: d2(pi_y w(u))/de dx
        y_ex = np.einsum("cab,a,bj->cj", d["Svv"][2:], u_e, u_x) \
            + np.einsum("ca,aj->cj", d["Sev"][2:], u_x) \
            + d["Vx"][2:] @ u_ex
        mixed[side] = y_ex
    return mixed["unstable"] - mixed["stable"]


# ---------------------------------------------------------------------------
# the full proof pipeline

def _lu_assumptions(cfg: LUConfig) -> list[str]:
    return [
        f"local manifold graphs consumed as declared inputs: radius {cfg.local_radius}, "
        f"Lipschitz {cfg.lipschitz}, second-derivative bound {cfg.second_deriv_bound}, "
        f"valid for eps in [0, {cfg.eps_max}]",
        "published second-derivative bound for the first graph component is "
        "applied to both components (rotational symmetry assumption)",
        "the same bound is applied to the pure-eps second derivative of the "
        "local graphs (unused by the verified inequalities)",
        "eps-derivative bound evaluated at the center point x = p as the "
        "practical lemma requires",
        "max-of-block-norms ball B(p, R) enclosed by the coordinate box of "
        "half-width R for the Delta bounds",
    ]


def build_distance_oracle(cfg: LUConfig) -> DistanceOracle:
    """Manifold oracles, shooting guesses and the chart-space distance oracle."""
    r = cfg.local_radius
    oracles, guesses = [], []
    for side in ("unstable", "stable"):
        guess = locate_homoclinic(cfg, side)
        if np.max(np.abs(guess)) >= r:
            raise ConditionError(
                f"{side} homoclinic preimage {guess} leaves the local graph domain "
                f"[-{r}, {r}]^2 at T={cfg.T}")
        jet = partial(global_manifold, cfg, side, make_local_graph(cfg, side))
        oracles.append(ManifoldOracle(jet=jet, x_proj=(0, 1), y_proj=(2, 3),
                                      approx=_approx_w(cfg, side),
                                      first=partial(jet, order=1)))
        guesses.append(guess)
    u_box = IntervalBox([-cfg.R, -cfg.R], [cfg.R, cfg.R])
    return distance_fixed_point(*oracles, cfg.eps_max, u_box, k1=0, k2=2,
                                u_guess=guesses[0], s_guess=guesses[1])


def run_theorem_proof(cfg: LUConfig) -> MelnikovCertificate:
    """End-to-end certificate for the transversal-splitting statement.

    Builds both global manifolds, solves the implicit reparameterizations,
    assembles the k1 = 0 splitting data and verifies the practical
    inequality with rigorous rounding.  Any stage failure is reported as a
    failed certificate with stage diagnostics rather than an exception.
    When ``fallback_T`` is configured, reduced transport times are attempted
    after a failure and recorded in the certificate.
    """
    start = time.time()
    attempts = [cfg.T] + [t for t in cfg.fallback_T if t <= cfg.T]
    cert: MelnikovCertificate | None = None
    for t_used in attempts:
        cfg_t = cfg if t_used == cfg.T else replace(cfg, T=t_used)
        try:
            oracle = build_distance_oracle(cfg_t)
            prob = SplittingProblem(k1=0, k2=2, p=np.zeros(2), R=cfg.R,
                                    eps_max=cfg.eps_max, oracle=oracle,
                                    assumptions=_lu_assumptions(cfg_t))
            cert = assemble_lemma_data(prob, subdivide=cfg.subdivide,
                                       eps_subdivide=cfg.eps_subdivide)
            cert = verify_practical(cert)
            if cert.verified:
                cert = verify_transversal(cert)
            cert.diagnostics["transport_time"] = t_used
            if t_used != cfg.T:
                cert.assumptions.append(
                    f"fallback exercised: transport time reduced to T={t_used} "
                    f"from T={cfg.T}")
            if cert.verified:
                break
        except IntervalError as exc:  # every stage's error derives from it
            cert = MelnikovCertificate(k1=0, k2=2, p=np.zeros(2), R=cfg.R,
                                       eps_max=cfg.eps_max,
                                       assumptions=_lu_assumptions(cfg_t))
            cert.verdict = "failed"
            cert.diagnostics["stage_error"] = f"{type(exc).__name__}: {exc}"
            cert.diagnostics["transport_time"] = t_used
    cert.wall_time_seconds = time.time() - start
    return cert


# ---------------------------------------------------------------------------
# sample export (plot data)

def sample_manifold(cfg: LUConfig, side: str, eps: float, n_params: int = 12,
                    n_times: int = 40) -> np.ndarray:
    """Nonrigorous manifold samples in original coordinates.

    Points on a parameter circle in the local chart are flowed for times up
    to T, the whole circle as one batch per time step; rows are
    (eps, x1, x2, x3, x4), all times of the first point first.
    """
    field = lu_field(cfg)
    s = _side(cfg, side)
    r = 0.9 * cfg.local_radius
    dt = s.T / max(n_times - 1, 1)
    th = 2 * np.pi * np.arange(n_params) / max(n_params, 1)
    v4 = s.embed(np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
    x = np.array([s.psi.eval_point(np.concatenate([[eps], p])) for p in v4]).reshape(n_params, 4)
    xs = [x]
    for _ in range(n_times - 1):
        x = point_flow(field, eps, x, dt)
        xs.append(x)
    pts = np.stack(xs, axis=1).reshape(-1, 4)
    return np.hstack([np.full((len(pts), 1), eps), pts])


def local_enclosure_boxes(cfg: LUConfig, side: str, n_grid: int = 8) -> np.ndarray:
    """Grid of rigorous local-graph boxes, per row lo/hi of each coordinate: the local
    slots tile [-r, r]^2 row-major (a outer, b inner), the graph slots are [-d, d]."""
    s = _side(cfg, side)
    d = make_local_graph(cfg, side).value_radius
    edges = np.linspace(-cfg.local_radius, cfg.local_radius, n_grid + 1)

    def corner(e):  # one end of every cell, row-major
        return np.stack([np.repeat(e, n_grid), np.tile(e, n_grid)], axis=1)

    return np.hstack([s.embed(corner(edges[:-1]), -d), s.embed(corner(edges[1:]), d)])
