"""Distance-function oracles built from manifold parameterizations.

Given jet oracles for two invariant-manifold parameterizations, these
builders solve the implicit reparameterization that turns each manifold
into a graph over shared coordinates and return an oracle for the
difference of the two graphs,

    y(eps, x) = pi_y w_unstable(eps, u(eps, x)) - pi_y w_stable(eps, s(eps, x)),

as an order-2 jet in (eps, x), and its value and first derivatives alone
(``DistanceOracle.first``).  One builder covers every scenario: both
manifolds are graphs over (x, z) with the center coordinates z pinned to a
section z = z*, and when the unstable manifold is the smaller one its
feed-through coordinates v(eps, x) enter the stable graph over (x, v, z).
Two entry points name the scenarios: :func:`distance_fixed_point` for
stable and unstable manifolds of a fixed point with equal dimensions (no
v, no z), and :func:`distance_nhim_section` (also bound to
``distance_unequal``) for center-(un)stable manifolds on a center section,
with or without v.

The zero set of y locates manifold intersections; its jets feed the
degree-based splitting certificates.

Every jet is computed only to the order its reader needs.  A raw query (one
pair of graph-side solves) runs at order 2 for ``jet`` and at order 1 for a
point query of ``first``, such as the midpoint of a box query's mean-value
refinement, where it skips the second-order implicit solve and the
second-order chain rule.  Raw queries, manifold jets and the graph side's
g-jets each go through one memo of one kind (:func:`_order_memo`), keyed
by the query boxes' endpoints with the order computed: an order-2 entry
also answers an order-1 read, an order-1 entry never an order-2 one.  The
probe, the Newton step's boxes, the sigma_min check and dk/dw read the
manifold at order 1, and only the verified image of an order-2 query at
order 2, before any order-1 read of it, so that no box is integrated
twice.  An order-1 read served by an order-2 entry encloses the same
blocks as an order-1 computation; no code relies on the two being equal
bit for bit.  A manifold oracle without ``first`` serves its order-1
reads from ``jet``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kernels as ku
from .intervals import Interval, IntervalBox, IntervalError
from .jets import (Jet1Enclosure, Jet2Enclosure, jet1_compose, jet1_stack, jet2_compose,
                   jet2_stack)
from .matrices import IntervalMatrix, sigma_min_lb
from .implicit import (GOracle, ImplicitContractionError, implicit_enclose, implicit_jet,
                       implicit_jet1)


class ConditionError(IntervalError):
    """A projection-isomorphism condition could not be verified."""


@dataclass(frozen=True)
class ManifoldOracle:
    """Order-2 jet oracle of a manifold parameterization.

    ``jet(eps_box, param_box)`` returns the jet of the parameterization in
    the variables (eps, parameters).  The projection index tuples say which
    output coordinates play the roles of the graph base (x), the measured
    splitting directions (y), and optionally the feed-through (v) and
    center (z) coordinates; together they must partition the outputs.
    ``approx(eps, params)`` is a cheap nonrigorous evaluation of the
    parameterization at one point, used only for locating candidate boxes:
    the graph side's :func:`float_root` differentiates it by central
    differences.
    ``first(eps_box, param_box)``, when given, returns a
    :class:`Jet1Enclosure` of the value and d1 that ``jet(eps_box,
    param_box)`` encloses, at less cost: the same blocks bit for bit when
    both computations take the same steps and kernel path, as
    :func:`flow_jet`'s order-1 run mostly does.  The graph side reads it
    wherever it needs no second derivatives.  Without it those reads take
    ``jet``.
    """

    jet: Callable[[Interval, IntervalBox], Jet2Enclosure]
    x_proj: tuple[int, ...]
    y_proj: tuple[int, ...]
    approx: Callable
    v_proj: tuple[int, ...] = ()
    z_proj: tuple[int, ...] = ()
    first: Callable[[Interval, IntervalBox], Jet1Enclosure] | None = None

    def check_partition(self) -> int:
        """The projections must cover the outputs 0..d-1, each exactly once;
        returns d, which the jets' output dimension must match."""
        all_idx = sorted(self.x_proj + self.y_proj + self.v_proj + self.z_proj)
        if all_idx != list(range(len(all_idx))):
            raise IntervalError("projections must partition the output coordinates")
        return len(all_idx)


@dataclass
class DistanceOracle:
    """y(eps, x) as an order-2 jet oracle with the (k1, k2) output split.

    ``first(eps_box, x_box)`` returns a :class:`Jet1Enclosure` of the
    (value, d1) pair that ``jet(eps_box, x_box)`` encloses: the same blocks
    bit for bit when the manifold reads of both orders agree bit for bit.
    The built oracles answer a point query of it without second
    derivatives; an oracle given only ``jet`` takes it from ``jet``.  The
    built oracles' ``diagnostics`` hold one record per computed raw query,
    keyed by the query box's endpoints."""

    jet: Callable[[Interval, IntervalBox], Jet2Enclosure]
    k1: int
    k2: int
    diagnostics: dict = field(default_factory=dict)
    first: Callable[[Interval, IntervalBox], Jet1Enclosure] | None = None

    def __post_init__(self):
        if self.first is None:
            self.first = lambda eps_box, x_box: self.jet(eps_box, x_box).order1()

    @property
    def dim(self) -> int:
        return self.k1 + self.k2

    def check_unperturbed_zero(self, u_box: IntervalBox, samples: int = 50) -> bool:
        """Spot-check y_2(0, x) = 0 on sampled sub-boxes of U."""
        rng = np.random.RandomState(1234)
        eps0 = Interval(0.0, 0.0)
        for _ in range(samples):
            x = rng.uniform(u_box.lo, u_box.hi)
            y2 = self.first(eps0, IntervalBox.point(x)).value[self.k1 :]
            if not y2.contains_zero():
                return False
        return True


# ---------------------------------------------------------------------------
# jets memoized by query box and order; the graph side: solve
# pi_base(w(eps, kappa)) = base for kappa(eps, base)

def _ends(box) -> tuple:
    """An Interval's endpoint floats, an IntervalBox's endpoint bytes."""
    return (box.lo, box.hi) if isinstance(box, Interval) else (box.lo.tobytes(), box.hi.tobytes())


def _order_memo(compute):
    """``read(a, b, order)``: the jet at the query boxes (a, b), memoized by
    their endpoints and kept at the order it was computed to, which is its
    type (a :class:`Jet1Enclosure` is order 1).  ``compute(a, b, order)``
    returns a jet of at least ``order``.  An order-2 entry answers order-1
    reads; an order-2 read of an order-1 entry computes and replaces it.
    Order-1 reads return a :class:`Jet1Enclosure`."""
    entries = {}

    def read(a, b, order: int):
        key = (_ends(a), _ends(b))
        j = entries.get(key)
        if j is None or (order == 2 and isinstance(j, Jet1Enclosure)):
            j = entries[key] = compute(a, b, order)
        return j if order == 2 else j.order1()

    return read


def _manifold_reader(w: ManifoldOracle):
    """``read(eps, box, order)`` of w's jets through one memo: one validated
    integration per distinct box pair and order.  Without ``first`` an
    order-1 read computes and keeps the order-2 jet.  Every computed jet
    must have the outputs that w's projections partition."""
    dim = w.check_partition()

    def compute(eps: Interval, box: IntervalBox, order: int):
        j = (w.first if order == 1 and w.first is not None else w.jet)(eps, box)
        if j.value.dim != dim:
            raise IntervalError(f"manifold jet has {j.value.dim} outputs, but the "
                                f"projections partition {dim}")
        return j

    return _order_memo(compute)


def _graph_goracle(read, base_idx: Sequence[int], kx: int) -> GOracle:
    """g(eps, base, kappa) = pi_base w(eps, kappa) - base as a jet oracle
    over the manifold reader ``read``, ``first`` reading it at order 1.

    The g-jets go through their own memo: the verified image is asked for
    up to three times in a row (the sigma_min check, ``implicit_first`` and
    ``implicit_jet``) and assembled once.  The memo lives as long as the
    oracle, for one graph-side solve."""
    base_idx = list(base_idx)
    kk = len(base_idx)

    def assemble(x_box: IntervalBox, k_box: IntervalBox, order: int):
        jw = read(x_box[0], k_box, order).project(base_idx)
        nv = 1 + kx + kk
        m = kk
        d1lo = np.zeros((m, nv)); d1hi = np.zeros((m, nv))
        d1lo[:, 0] = jw.d1.lo[:, 0]; d1hi[:, 0] = jw.d1.hi[:, 0]
        for i in range(m):
            d1lo[i, 1 + i] = d1hi[i, 1 + i] = -1.0
        d1lo[:, 1 + kx :] = jw.d1.lo[:, 1:]; d1hi[:, 1 + kx :] = jw.d1.hi[:, 1:]
        xb = x_box[1:]
        first = Jet1Enclosure(jw.value - IntervalBox(xb.lo, xb.hi), IntervalMatrix(d1lo, d1hi))
        if order == 1:
            return first
        d2lo = np.zeros((m, nv, nv)); d2hi = np.zeros((m, nv, nv))
        sel = [0] + list(range(1 + kx, nv))
        d2lo[np.ix_(range(m), sel, sel)] = jw.d2lo
        d2hi[np.ix_(range(m), sel, sel)] = jw.d2hi
        return Jet2Enclosure(first.value, first.d1, d2lo, d2hi)

    g = _order_memo(assemble)
    return GOracle(kx=kx, kk=kk, jet=lambda x_box, k_box: g(x_box, k_box, 2),
                   first=lambda x_box, k_box: g(x_box, k_box, 1))


def float_root(values, x_target, guess) -> tuple[np.ndarray, np.ndarray]:
    """Float Newton for f(u) = x_target from ``guess``: the root and the
    Jacobian of the last Newton step.  Nonrigorous; it only places the
    centres of rigorous Newton steps.

    ``values(rows)`` maps the (2k+1, k) stencil u, u + h e_1, u - h e_1,
    ..., u - h e_k to the values of f on its rows in one call; the Jacobian
    is their central differences, with h = 1e-7 max(1, |u|).  The iteration
    stops once a step is below 1e-15 max(1, |u|), or after 60 steps."""
    u = np.array(guess, dtype=float)
    for _ in range(60):
        h = 1e-7 * max(1.0, float(np.max(np.abs(u))))
        du = h * np.eye(len(u))
        rows = np.empty((2 * len(u) + 1, len(u)))
        rows[0], rows[1::2], rows[2::2] = u, u + du, u - du
        f = np.asarray(values(rows))
        jac = (f[1::2] - f[2::2]).T / (2 * h)
        try:
            step = np.linalg.solve(jac, f[0] - x_target)
        except np.linalg.LinAlgError as exc:
            raise ConditionError("float Newton Jacobian is numerically singular") from exc
        u = u - step
        if np.max(np.abs(step)) < 1e-15 * max(1.0, float(np.max(np.abs(u)))):
            break
    return u, jac


# a graph-side candidate box that fails to verify is inflated this many times,
# by this factor each time
_GRAPH_ATTEMPTS = 4
_GRAPH_INFLATE = 3.0


def _solve_graph_side(
    w: ManifoldOracle,
    read,
    base_idx: Sequence[int],
    eps_box: Interval,
    x_box: IntervalBox,
    guess: np.ndarray,
    order: int = 2,
) -> tuple[Jet2Enclosure | Jet1Enclosure, dict]:
    """Verify the reparameterization kappa and return its jet over (eps, x)
    to ``order``; ``read`` is w's manifold reader."""
    base_idx = list(base_idx)
    kx = x_box.dim
    g = _graph_goracle(read, base_idx, kx)
    xfull = IntervalBox(np.concatenate([[eps_box.lo], x_box.lo]),
                        np.concatenate([[eps_box.hi], x_box.hi]))
    # candidate radius from the nonrigorous slope and the box extent; the
    # float Newton reads w.approx one stencil row at a time, and its last
    # step solved with jac, so jac inverts
    u0, jac = float_root(
        lambda rows: np.array([np.asarray(w.approx(eps_box.mid, r))[base_idx] for r in rows]),
        x_box.mid(), guess)
    inv_norm = np.linalg.norm(np.linalg.inv(jac), 2)
    # candidate radius must cover the x-box extent AND the enclosure width of
    # the transported manifold value at the center (the probe is cached and
    # reused by the verification's own center evaluation)
    probe = read(eps_box, IntervalBox.point(u0), 1).project(base_idx)
    val_w = float(np.max(probe.value.width()))
    rad = inv_norm * (float(np.max(x_box.rad())) + 0.6 * val_w) * 3.0 + 1e-15
    last_err: Exception | None = None
    for _ in range(_GRAPH_ATTEMPTS):
        k_box = IntervalBox(u0 - rad, u0 + rad)
        try:
            enc = implicit_enclose(g, xfull, k_box, k0=u0)
        except (ImplicitContractionError, IntervalError) as exc:
            last_err = exc
            rad *= _GRAPH_INFLATE
            continue
        k_ref = enc.image
        # the verified image at the query's own order first: the order-1
        # reads after it are served from its entry
        d1 = (g.jet if order == 2 else g.first)(xfull, k_ref).d1
        cond = sigma_min_lb(d1[:, 1 + kx :])
        if cond <= 0.0:
            raise ConditionError("projection derivative enclosure is not verified invertible")
        kappa_jet = (implicit_jet if order == 2 else implicit_jet1)(g, xfull, k_ref)
        return kappa_jet, {"sigma_min_projection": cond, "candidate_radius": rad}
    raise ImplicitContractionError(
        f"implicit reparameterization failed after {_GRAPH_ATTEMPTS} inflations: {last_err}",
        IntervalBox(u0 - rad, u0 + rad),
    )


# ---------------------------------------------------------------------------
# mean-value refinement of box queries

def _mean_value_refine(raw_query):
    """Tighten value and d1 blocks of box queries with a midpoint query.

    value(w) = value(mid) + d1(box) (w - mid) and the analogous expansion of
    d1 through d2 recover the correlation that plain interval subtraction of
    the two manifold graphs loses; the refined blocks are intersected with
    the raw enclosures, so the result is still containment-correct.  The
    midpoint's d2 is never read, so it is queried at order 1.

    ``raw_query(eps_box, x_box, order)`` computes one raw query to the
    order.  Returns the pair ``(jet, first)``: ``first`` of a point query is
    the order-1 raw query, and of a box query the refined ``jet``'s value
    and d1, which need the box's d2.
    """

    def deviation(eps_box: Interval, x_box: IntervalBox):
        dev_lo = np.concatenate([[eps_box.lo - eps_box.mid], x_box.lo - x_box.mid()])
        dev_hi = np.concatenate([[eps_box.hi - eps_box.mid], x_box.hi - x_box.mid()])
        return dev_lo, dev_hi, float(np.max(dev_hi - dev_lo)) > 0.0

    def query(eps_box: Interval, x_box: IntervalBox) -> Jet2Enclosure:
        j = raw_query(eps_box, x_box, 2)
        dev_lo, dev_hi, is_box = deviation(eps_box, x_box)
        if not is_box:
            return j
        jm = raw_query(Interval.point(eps_box.mid), IntervalBox.point(x_box.mid()), 1)
        spread = ku.idot(j.d1.lo, j.d1.hi, dev_lo, dev_hi)
        val_lo, val_hi = ku.vadd(jm.value.lo, jm.value.hi, *spread)
        vlo = np.maximum(j.value.lo, val_lo)
        vhi = np.minimum(j.value.hi, val_hi)
        m, nv = j.d1.shape
        slo, shi = ku.imulsum(j.d2lo, j.d2hi, dev_lo[None, None, :], dev_hi[None, None, :])
        d1lo, d1hi = ku.vadd(jm.d1.lo, jm.d1.hi, slo, shi)
        d1lo = np.maximum(j.d1.lo, d1lo)
        d1hi = np.minimum(j.d1.hi, d1hi)
        if np.any(vlo > vhi) or np.any(d1lo > d1hi):
            raise IntervalError("mean-value refinement produced empty intersection")
        return Jet2Enclosure(IntervalBox(vlo, vhi), IntervalMatrix(d1lo, d1hi), j.d2lo, j.d2hi)

    def first(eps_box: Interval, x_box: IntervalBox) -> Jet1Enclosure:
        if not deviation(eps_box, x_box)[2]:
            return raw_query(eps_box, x_box, 1)
        return query(eps_box, x_box).order1()

    return query, first


# ---------------------------------------------------------------------------
# the distance builder and its two scenario entry points

def _distance(wcu: ManifoldOracle, wcs: ManifoldOracle, z_star, k1: int, k2: int,
              cu_guess=None, cs_guess=None) -> DistanceOracle:
    """Distance oracle for a center-unstable graph over (x, z) and a
    center-stable graph over (x, v, z), both on the section z = z*.

    The unstable side's pi_v block v(eps, x) is fed into the stable
    reparameterization; with no v and no z this is the fixed-point case.
    Float Newton guesses default to the midpoint of the query box.  Raw
    queries are memoized with their order and recorded in the oracle's
    diagnostics, one record per computed raw query, both keyed by the
    query box's endpoints.
    """
    read_u, read_s = _manifold_reader(wcu), _manifold_reader(wcs)
    z_star = np.atleast_1d(np.asarray(z_star, dtype=float))
    kx = len(wcu.x_proj)
    q = len(wcu.v_proj)
    if len(wcs.x_proj) != kx or len(wcs.v_proj) != q or k1 + k2 != len(wcu.y_proj):
        raise IntervalError("projection dimensions are inconsistent with (k1, k2)")
    base_u = tuple(wcu.x_proj) + tuple(wcu.z_proj)
    base_s = tuple(wcs.x_proj) + tuple(wcs.v_proj) + tuple(wcs.z_proj)
    keep = list(range(0, 1 + kx))  # eps and x columns; z is pinned
    diagnostics: dict = {}

    def guess(given, box: IntervalBox) -> np.ndarray:
        return np.asarray(given, dtype=float) if given is not None else box.mid()

    def solve(eps_box: Interval, x_box: IntervalBox, order: int):
        compose, stack = (jet2_compose, jet2_stack) if order == 2 else (jet1_compose, jet1_stack)
        xz = IntervalBox(np.concatenate([x_box.lo, z_star]), np.concatenate([x_box.hi, z_star]))
        ju, du = _solve_graph_side(wcu, read_u, base_u, eps_box, xz, guess(cu_guess, xz), order)
        w_u = compose(read_u(eps_box, ju.value, order), ju)
        side_u = w_u.project(list(wcu.y_proj)).take_vars(keep)
        if q:
            v_jet = w_u.project(list(wcu.v_proj)).take_vars(keep)
            xs = IntervalBox(np.concatenate([x_box.lo, v_jet.value.lo, z_star]),
                             np.concatenate([x_box.hi, v_jet.value.hi, z_star]))
        else:
            xs = xz
        js, ds = _solve_graph_side(wcs, read_s, base_s, eps_box, xs, guess(cs_guess, xs), order)
        side_s = compose(read_s(eps_box, js.value, order), js).project(list(wcs.y_proj))
        if q:
            # inner jet (eps, x) -> (x, v(eps,x), z*)
            zjet = Jet2Enclosure.constant(IntervalBox.point(z_star), state_dim=kx)
            ident = Jet2Enclosure.identity(x_box)
            if order == 1:
                zjet, ident = zjet.order1(), ident.order1()
            side_s = compose(side_s, stack(stack(ident, v_jet), zjet))
        else:
            side_s = side_s.take_vars(keep)
        return side_u - side_s, {"order": order, "unstable": du, "stable": ds}

    def compute(eps_box: Interval, x_box: IntervalBox, order: int):
        j, diagnostics[(_ends(eps_box), _ends(x_box))] = solve(eps_box, x_box, order)
        return j

    jet, first = _mean_value_refine(_order_memo(compute))
    return DistanceOracle(jet=jet, first=first, k1=k1, k2=k2, diagnostics=diagnostics)


def distance_fixed_point(
    wu: ManifoldOracle,
    ws: ManifoldOracle,
    eps_max: float,
    u_box: IntervalBox,
    k1: int,
    k2: int,
    u_guess=None,
    s_guess=None,
) -> DistanceOracle:
    """Distance oracle for stable/unstable manifolds of a fixed point.

    Both manifolds are reparameterized as graphs over the coordinates in
    ``x_proj`` by solving pi_x w(eps, kappa(eps, x)) = x, and y is the
    difference of their pi_y blocks.  The (k1, k2) split and the coordinate
    alignment making y_2(0, .) = 0 are caller-supplied configuration.
    ``eps_max`` and ``u_box`` are read by nothing: they stay only because
    ``perfbench/``, :mod:`splitcert.lerman` and demo 03 pass them positionally.
    """
    return _distance(wu, ws, (), k1, k2, u_guess, s_guess)


def distance_nhim_section(wcu: ManifoldOracle, wcs: ManifoldOracle, z_star, k1: int, k2: int,
                          cu_guess=None, cs_guess=None) -> DistanceOracle:
    """Distance oracle on the center section {z = z*} for center-(un)stable
    manifolds: both implicit problems run over (x, z) with z pinned to z*,
    and the jets are restricted to the (eps, x) variables.

    When the unstable dimension u is below the stable dimension s, the
    center-unstable graph's pi_v block is fed into the center-stable
    reparameterization over (x, v, z), and y compares the pi_y blocks; the
    output dimension is u = k1 + k2.  ``distance_unequal`` names this
    function too.
    """
    return _distance(wcu, wcs, z_star, k1, k2, cu_guess, cs_guess)


distance_unequal = distance_nhim_section
