"""Distance-function oracles built from manifold parameterizations.

Given jet oracles for two invariant-manifold parameterizations, these
builders solve the implicit reparameterization that turns each manifold
into a graph over shared coordinates and return an oracle for the
difference of the two graphs,

    y(eps, x) = pi_y w_unstable(eps, u(eps, x)) - pi_y w_stable(eps, s(eps, x)),

as an order-2 jet in (eps, x).  One builder covers every scenario: both
manifolds are graphs over (x, z) with the center coordinates z pinned to a
section z = z*, and when the unstable manifold is the smaller one its
feed-through coordinates v(eps, x) enter the stable graph over (x, v, z).
Three entry points name the scenarios: stable and unstable manifolds of a
fixed point with equal dimensions (no v, no z), center-stable /
center-unstable manifolds on a center section (no v), and the
unequal-dimension case.

The zero set of y locates manifold intersections; its jets feed the
degree-based splitting certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kernels as ku
from .intervals import Interval, IntervalBox, IntervalError
from .jets import Jet2Enclosure, jet2_compose, jet2_stack
from .matrices import IntervalMatrix, sigma_min_lb
from .implicit import GOracle, ImplicitContractionError, implicit_enclose, implicit_jet


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
    ``approx(eps, params)`` is an optional cheap nonrigorous evaluation used
    only for locating candidate boxes.
    """

    jet: Callable[[Interval, IntervalBox], Jet2Enclosure]
    x_proj: tuple[int, ...]
    y_proj: tuple[int, ...]
    v_proj: tuple[int, ...] = ()
    z_proj: tuple[int, ...] = ()
    approx: Callable | None = None

    def check_partition(self) -> int:
        """The projections must cover the outputs 0..d-1, each exactly once;
        returns d, which the jets' output dimension must match."""
        all_idx = sorted(self.x_proj + self.y_proj + self.v_proj + self.z_proj)
        if all_idx != list(range(len(all_idx))):
            raise IntervalError("projections must partition the output coordinates")
        return len(all_idx)


@dataclass
class DistanceOracle:
    """y(eps, x) as an order-2 jet oracle with the (k1, k2) output split."""

    jet: Callable[[Interval, IntervalBox], Jet2Enclosure]
    k1: int
    k2: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.k1 + self.k2

    def check_unperturbed_zero(self, u_box: IntervalBox, samples: int = 50) -> bool:
        """Spot-check y_2(0, x) = 0 on sampled sub-boxes of U."""
        rng = np.random.RandomState(1234)
        eps0 = Interval(0.0, 0.0)
        for _ in range(samples):
            x = rng.uniform(u_box.lo, u_box.hi)
            j = self.jet(eps0, IntervalBox.point(x))
            y2 = j.value[self.k1 :]
            if not y2.contains_zero():
                return False
        return True


# ---------------------------------------------------------------------------
# graph side: solve pi_base(w(eps, kappa)) = base for kappa(eps, base)

class _CachedJet:
    """Memoize manifold jets by query-box bytes; one validated integration
    per distinct box pair.  Every computed jet must have ``out_dim``
    outputs, the dimension the oracle's projections partition."""

    def __init__(self, fn, out_dim: int):
        self.fn = fn
        self.out_dim = out_dim
        self.cache = {}

    def __call__(self, eps: Interval, box: IntervalBox) -> Jet2Enclosure:
        key = (eps.lo, eps.hi, box.lo.tobytes(), box.hi.tobytes())
        j = self.cache.get(key)
        if j is None:
            j = self.fn(eps, box)
            if j.value.dim != self.out_dim:
                raise IntervalError(f"manifold jet has {j.value.dim} outputs, but the "
                                    f"projections partition {self.out_dim}")
            self.cache[key] = j
        return j


def _graph_goracle(w_jet: _CachedJet, base_idx: Sequence[int], kx: int) -> GOracle:
    """g(eps, base, kappa) = pi_base w(eps, kappa) - base as a jet oracle."""
    base_idx = list(base_idx)
    kk = len(base_idx)

    def gjet(x_box: IntervalBox, k_box: IntervalBox) -> Jet2Enclosure:
        eps = x_box[0]
        jw = w_jet(eps, k_box).project(base_idx)
        nv = 1 + kx + kk
        m = kk
        d1lo = np.zeros((m, nv)); d1hi = np.zeros((m, nv))
        d1lo[:, 0] = jw.d1.lo[:, 0]; d1hi[:, 0] = jw.d1.hi[:, 0]
        for i in range(m):
            d1lo[i, 1 + i] = d1hi[i, 1 + i] = -1.0
        d1lo[:, 1 + kx :] = jw.d1.lo[:, 1:]; d1hi[:, 1 + kx :] = jw.d1.hi[:, 1:]
        d2lo = np.zeros((m, nv, nv)); d2hi = np.zeros((m, nv, nv))
        sel = [0] + list(range(1 + kx, nv))
        d2lo[np.ix_(range(m), sel, sel)] = jw.d2lo
        d2hi[np.ix_(range(m), sel, sel)] = jw.d2hi
        xb = x_box[1:]
        value = jw.value - IntervalBox(xb.lo, xb.hi)
        return Jet2Enclosure(value, IntervalMatrix(d1lo, d1hi), d2lo, d2hi)

    return GOracle(kx=kx, kk=kk, jet=gjet)


def _float_jacobian(w: ManifoldOracle, w_jet: _CachedJet, base_idx: list[int], eps_mid: float,
                    u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonrigorous value and Jacobian of pi_base w(eps_mid, .) at u."""
    if w.approx is None:
        jw = w_jet(Interval.point(eps_mid), IntervalBox.point(u)).project(base_idx)
        return jw.value.mid(), 0.5 * (jw.d1.lo[:, 1:] + jw.d1.hi[:, 1:])
    h = 1e-7 * max(1.0, float(np.max(np.abs(u))))
    jac = np.zeros((len(base_idx), len(u)))
    for j in range(len(u)):
        du = np.zeros_like(u)
        du[j] = h
        jac[:, j] = (np.asarray(w.approx(eps_mid, u + du))[base_idx]
                     - np.asarray(w.approx(eps_mid, u - du))[base_idx]) / (2 * h)
    return np.asarray(w.approx(eps_mid, u))[base_idx], jac


def _nonrigorous_root(w: ManifoldOracle, w_jet: _CachedJet, base_idx: list[int], eps_mid: float,
                      x_target: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Float Newton for pi_base w(eps, u) = x_target from the given guess."""
    u = np.array(guess, dtype=float)
    for _ in range(60):
        val, jac = _float_jacobian(w, w_jet, base_idx, eps_mid, u)
        step = np.linalg.solve(jac, val - x_target)
        u = u - step
        if np.max(np.abs(step)) < 1e-15 * max(1.0, float(np.max(np.abs(u)))):
            break
    return u


# a graph-side candidate box that fails to verify is inflated this many times,
# by this factor each time
_GRAPH_ATTEMPTS = 4
_GRAPH_INFLATE = 3.0


def _solve_graph_side(
    w: ManifoldOracle,
    w_jet: _CachedJet,
    base_idx: Sequence[int],
    eps_box: Interval,
    x_box: IntervalBox,
    guess: np.ndarray,
) -> tuple[Jet2Enclosure, dict]:
    """Verify the reparameterization kappa and return its jet over (eps, x)."""
    base_idx = list(base_idx)
    kx = x_box.dim
    g = _graph_goracle(w_jet, base_idx, kx)
    xfull = IntervalBox(np.concatenate([[eps_box.lo], x_box.lo]),
                        np.concatenate([[eps_box.hi], x_box.hi]))
    u0 = _nonrigorous_root(w, w_jet, base_idx, eps_box.mid, x_box.mid(), guess)
    # candidate radius from the nonrigorous slope and the box extent
    _, jac = _float_jacobian(w, w_jet, base_idx, eps_box.mid, u0)
    try:
        inv_norm = np.linalg.norm(np.linalg.inv(jac), 2)
    except np.linalg.LinAlgError as exc:
        raise ConditionError("projection Jacobian is numerically singular") from exc
    # candidate radius must cover the x-box extent AND the enclosure width of
    # the transported manifold value at the center (the probe is cached and
    # reused by the verification's own center evaluation)
    probe = w_jet(eps_box, IntervalBox.point(u0)).project(base_idx)
    val_w = float(np.max(probe.value.width()))
    rad = inv_norm * (float(np.max(x_box.rad())) + 0.6 * val_w) * 3.0 + 1e-15
    last_err: Exception | None = None
    for _ in range(_GRAPH_ATTEMPTS):
        k_box = IntervalBox(u0 - rad, u0 + rad)
        try:
            enc = implicit_enclose(g, xfull, k_box, k0=u0, max_refine=3)
        except (ImplicitContractionError, IntervalError) as exc:
            last_err = exc
            rad *= _GRAPH_INFLATE
            continue
        k_ref = enc.image
        d1 = g.jet(xfull, k_ref).d1
        cond = sigma_min_lb(IntervalMatrix(d1.lo[:, 1 + kx :], d1.hi[:, 1 + kx :]))
        if cond <= 0.0:
            raise ConditionError("projection derivative enclosure is not verified invertible")
        kappa_jet = implicit_jet(g, xfull, k_ref)
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
    the raw enclosures, so the result is still containment-correct.
    """

    def query(eps_box: Interval, x_box: IntervalBox) -> Jet2Enclosure:
        j = raw_query(eps_box, x_box)
        dev_lo = np.concatenate([[eps_box.lo - eps_box.mid], x_box.lo - x_box.mid()])
        dev_hi = np.concatenate([[eps_box.hi - eps_box.mid], x_box.hi - x_box.mid()])
        if float(np.max(dev_hi - dev_lo)) <= 0.0:
            return j
        jm = raw_query(Interval.point(eps_box.mid), IntervalBox.point(x_box.mid()))
        spread = ku.idot(j.d1.lo, j.d1.hi, dev_lo, dev_hi)
        val_lo, val_hi = ku.vadd(jm.value.lo, jm.value.hi, *spread)
        vlo = np.maximum(j.value.lo, val_lo)
        vhi = np.minimum(j.value.hi, val_hi)
        m, nv = j.d1.shape
        slo, shi = ku.imulsum(j.d2lo, j.d2hi, dev_lo[None, None, :], dev_hi[None, None, :],
                              axis=2)
        d1lo, d1hi = ku.vadd(jm.d1.lo, jm.d1.hi, slo, shi)
        d1lo = np.maximum(j.d1.lo, d1lo)
        d1hi = np.minimum(j.d1.hi, d1hi)
        if np.any(vlo > vhi) or np.any(d1lo > d1hi):
            raise IntervalError("mean-value refinement produced empty intersection")
        return Jet2Enclosure(IntervalBox(vlo, vhi), IntervalMatrix(d1lo, d1hi), j.d2lo, j.d2hi)

    return query


# ---------------------------------------------------------------------------
# the distance builder and its three scenario entry points

def _distance(wcu: ManifoldOracle, wcs: ManifoldOracle, z_star, k1: int, k2: int,
              cu_guess=None, cs_guess=None) -> DistanceOracle:
    """Distance oracle for a center-unstable graph over (x, z) and a
    center-stable graph over (x, v, z), both on the section z = z*.

    The unstable side's pi_v block v(eps, x) is fed into the stable
    reparameterization; with no v and no z this is the fixed-point case.
    Float Newton guesses default to the midpoint of the query box.
    """
    dim_u = wcu.check_partition()
    dim_s = wcs.check_partition()
    z_star = np.atleast_1d(np.asarray(z_star, dtype=float))
    kx = len(wcu.x_proj)
    q = len(wcu.v_proj)
    if len(wcs.x_proj) != kx or len(wcs.v_proj) != q or k1 + k2 != len(wcu.y_proj):
        raise IntervalError("projection dimensions are inconsistent with (k1, k2)")
    base_u = tuple(wcu.x_proj) + tuple(wcu.z_proj)
    base_s = tuple(wcs.x_proj) + tuple(wcs.v_proj) + tuple(wcs.z_proj)
    wcu_jet = _CachedJet(wcu.jet, dim_u)
    wcs_jet = _CachedJet(wcs.jet, dim_s)
    keep = list(range(0, 1 + kx))  # eps and x columns; z is pinned
    diagnostics: dict = {}

    def guess(given, box: IntervalBox) -> np.ndarray:
        return np.asarray(given, dtype=float) if given is not None else box.mid()

    def query(eps_box: Interval, x_box: IntervalBox) -> Jet2Enclosure:
        xz = IntervalBox(np.concatenate([x_box.lo, z_star]), np.concatenate([x_box.hi, z_star]))
        ju, du = _solve_graph_side(wcu, wcu_jet, base_u, eps_box, xz, guess(cu_guess, xz))
        w_u = jet2_compose(wcu_jet(eps_box, ju.value), ju)
        side_u = w_u.project(list(wcu.y_proj)).take_vars(keep)
        if q:
            v_jet = w_u.project(list(wcu.v_proj)).take_vars(keep)
            xs = IntervalBox(np.concatenate([x_box.lo, v_jet.value.lo, z_star]),
                             np.concatenate([x_box.hi, v_jet.value.hi, z_star]))
        else:
            xs = xz
        js, ds = _solve_graph_side(wcs, wcs_jet, base_s, eps_box, xs, guess(cs_guess, xs))
        side_s = jet2_compose(wcs_jet(eps_box, js.value), js).project(list(wcs.y_proj))
        if q:
            # inner jet (eps, x) -> (x, v(eps,x), z*)
            zjet = Jet2Enclosure.constant(IntervalBox.point(z_star), state_dim=kx)
            inner = jet2_stack(jet2_stack(Jet2Enclosure.identity(x_box), v_jet), zjet)
            side_s = jet2_compose(side_s, inner)
        else:
            side_s = side_s.take_vars(keep)
        diagnostics["unstable"] = du
        diagnostics["stable"] = ds
        return side_u - side_s

    return DistanceOracle(jet=_mean_value_refine(query), k1=k1, k2=k2, diagnostics=diagnostics)


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


def distance_nhim_section(
    wcu: ManifoldOracle,
    wcs: ManifoldOracle,
    z_star,
    eps_max: float,
    u_box: IntervalBox,
    k1: int,
    k2: int,
    cu_guess=None,
    cs_guess=None,
) -> DistanceOracle:
    """Distance oracle on the center section {z = z*} for equal-dimension
    center-(un)stable manifolds; both implicit problems run over (x, z) with
    z pinned to z*, and the jets are restricted to the (eps, x) variables.
    ``eps_max`` and ``u_box`` are read by nothing, as in :func:`distance_fixed_point`."""
    return _distance(wcu, wcs, z_star, k1, k2, cu_guess, cs_guess)


def distance_unequal(
    wcu: ManifoldOracle,
    wcs: ManifoldOracle,
    z_star,
    eps_max: float,
    u_box: IntervalBox,
    k1: int,
    k2: int,
    cu_guess=None,
    cs_guess=None,
) -> DistanceOracle:
    """Distance oracle for unstable dimension u < stable dimension s.

    The center-unstable manifold is a graph over (x, z); its pi_v block is
    fed into the center-stable reparameterization over (x, v, z), and y
    compares the pi_y blocks.  Output dimension is u = k1 + k2.  ``eps_max``
    and ``u_box`` are read by nothing, as in :func:`distance_fixed_point`.
    """
    return _distance(wcu, wcs, z_star, k1, k2, cu_guess, cs_guess)
