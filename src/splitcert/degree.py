"""Checkable splitting certificates based on degree arguments.

The practical certificate bounds, over the parameter range E = [0, eps_max]
and the ball U = B(p, R) in the max-of-block-norms sense,

    m(A11) R > eps_max ||dy1/deps(E, p)|| + ||Delta1|| R,
    m(A22) R > ||dy2/deps(E, p)|| + ||Delta2|| R,

with A11 = [dy1/dx1(0, p)], A22 = [d2y2/deps dx2(0, p)] and the Delta
blocks the deviations of the corresponding derivative enclosures over
E x U.  Positive margins force a nonzero degree of y(eps, .) on U for
every eps in (0, eps_max], hence a zero of y; the same inequalities make
every matrix in the Jacobian enclosure an isomorphism, which upgrades the
zero to a unique transversal intersection.  A boundary-exclusion variant
certifies the nonzero degree directly by checking that (y1, dy2/deps)
avoids zero on the boundary of a box.

All margins are computed with outward rounding, so a reported positive
margin is a certified lower bound.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .intervals import Interval, IntervalBox, IntervalError, _json_pairs
from .matrices import IntervalMatrix, ivec_norm_ub, sigma_min_lb, spectral_norm_ub
from .newton import FunctionOracle, newton_verify
from .distance import DistanceOracle

TOOL_VERSION = "splitcert 0.1.0"


@dataclass
class SplittingProblem:
    """The (k1, k2, p, R, E) data of the practical splitting lemma."""

    k1: int
    k2: int
    p: np.ndarray
    R: float
    eps_max: float
    oracle: DistanceOracle
    assumptions: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if self.R <= 0 or self.eps_max <= 0:
            raise IntervalError("R and eps_max must be positive")
        if self.k1 + self.k2 != self.oracle.dim or len(self.p) != self.oracle.dim:
            raise IntervalError("dimension split does not match the oracle")


@dataclass
class MelnikovCertificate:
    """Machine-readable verdict: verified inequalities, margins, assumptions."""

    k1: int
    k2: int
    p: np.ndarray
    R: float
    eps_max: float
    A11: IntervalMatrix | None = None
    A22: IntervalMatrix | None = None
    Delta1: IntervalMatrix | None = None
    Delta2: IntervalMatrix | None = None
    eps_deriv_bound_1: float | None = None
    eps_deriv_bound_2: float | None = None
    m_A11: float | None = None
    m_A22: float | None = None
    norm_Delta1: float | None = None
    norm_Delta2: float | None = None
    margin1: float | None = None
    margin2: float | None = None
    verdict: str = "unverified"
    transversal: bool | None = None
    assumptions: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    wall_time_seconds: float = 0.0

    @property
    def verified(self) -> bool:
        return self.verdict == "verified"

    def margins(self) -> list[float]:
        out = []
        if self.k1 > 0 and self.margin1 is not None:
            out.append(self.margin1)
        if self.k2 > 0 and self.margin2 is not None:
            out.append(self.margin2)
        return out

    def to_jsonable(self) -> dict:
        return {
            "problem": {
                "k1": self.k1,
                "k2": self.k2,
                "p": [float(x) for x in self.p],
                "R": float(self.R),
                "epsMax": float(self.eps_max),
            },
            "blocks": {
                "A11": _json_pairs(self.A11),
                "A22": _json_pairs(self.A22),
                "Delta1": _json_pairs(self.Delta1),
                "Delta2": _json_pairs(self.Delta2),
                "epsDerivBound1": self.eps_deriv_bound_1,
                "epsDerivBound2": self.eps_deriv_bound_2,
                "mA11": self.m_A11,
                "mA22": self.m_A22,
                "normDelta1": self.norm_Delta1,
                "normDelta2": self.norm_Delta2,
            },
            "margins": self.margins(),
            "verdict": self.verdict,
            "transversal": self.transversal,
            "assumptions": list(self.assumptions),
            "diagnostics": {k: v for k, v in self.diagnostics.items() if isinstance(v, (str, int, float, bool, list))},
            "toolVersion": TOOL_VERSION,
            "wallTimeSeconds": self.wall_time_seconds,
        }

    def write_json(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, indent=2)
            fh.write("\n")


def _ball_box(p: np.ndarray, R: float) -> IntervalBox:
    """Axis box enclosing the max-of-block-Euclidean-norms ball B(p, R)."""
    return IntervalBox(p - R, p + R)


def _subdivided(lo: np.ndarray, hi: np.ndarray, n_sub: int):
    """The n_sub^dim cells of a uniform grid on the box, first axis fastest."""
    if n_sub <= 1:
        yield IntervalBox(lo, hi)
        return
    edges = [np.linspace(l, h, n_sub + 1) for l, h in zip(lo, hi)]
    for rev in itertools.product(range(n_sub), repeat=len(lo)):
        idx = rev[::-1]
        yield IntervalBox([e[i] for e, i in zip(edges, idx)],
                          [e[i + 1] for e, i in zip(edges, idx)])


def _embed(block: IntervalMatrix, col: int, k: int) -> IntervalMatrix:
    """The k_i x k_i block in columns col..col+k_i of its k_i x k rows,
    zeros elsewhere."""
    lo = np.zeros((block.shape[0], k))
    hi = np.zeros((block.shape[0], k))
    lo[:, col : col + block.shape[1]] = block.lo
    hi[:, col : col + block.shape[1]] = block.hi
    return IntervalMatrix(lo, hi)


def _reference_value(j, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the reference map (y1, dy2/deps) from a distance jet."""
    return (np.concatenate([j.value.lo[:k1], j.d1.lo[k1:, 0]]),
            np.concatenate([j.value.hi[:k1], j.d1.hi[k1:, 0]]))


def _reference_jacobian(j, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the x-Jacobian of (y1, dy2/deps) from a distance jet."""
    return (np.vstack([j.d1.lo[:k1, 1:], j.d2lo[k1:, 0, 1:]]),
            np.vstack([j.d1.hi[:k1, 1:], j.d2hi[k1:, 0, 1:]]))


def check_serial(threads: int):
    """Certificate cells run serially: a thread pool only added overhead
    under the GIL.  ``threads`` is accepted only as 1."""
    if threads != 1:
        raise IntervalError(f"threads must be 1 (cells run serially), got {threads}")


def assemble_lemma_data(
    prob: SplittingProblem,
    subdivide: int = 1,
    eps_subdivide: int = 1,
    threads: int = 1,
) -> MelnikovCertificate:
    """Fill the certificate blocks from three oracle queries.

    A-blocks come from the jet at (0, p); the eps-derivative bounds from the
    jet over (E, {p}); the Delta blocks from the jet over E x U, optionally
    hulled over a uniform subdivision (a pure tightening knob).
    """
    check_serial(threads)
    k1, k2 = prob.k1, prob.k2
    oracle = prob.oracle
    eps0 = Interval(0.0, 0.0)
    eps_full = Interval(0.0, prob.eps_max)
    p_box = IntervalBox.point(prob.p)

    j0p = oracle.jet(eps0, p_box)
    if not j0p.value.contains_zero():
        raise IntervalError("y(0, p) enclosure does not contain zero")
    jep = oracle.jet(eps_full, p_box)
    u_box = _ball_box(prob.p, prob.R)
    jeu = None
    for ebox in _subdivided(np.array([0.0]), np.array([prob.eps_max]), eps_subdivide):
        for cell in _subdivided(u_box.lo, u_box.hi, subdivide):
            j = oracle.jet(Interval(ebox.lo[0], ebox.hi[0]), cell)
            jeu = j if jeu is None else jeu.hull(j)

    # block i is rows r of the reference map (y1, dy2/deps): A_ii is the
    # diagonal part of its x-Jacobian at (0, p), Delta_i the deviation of
    # its rows over E x U, and the eps-derivative bound ||dy_i/deps(E, p)||
    a_lo, a_hi = _reference_jacobian(j0p, k1)
    d_lo, d_hi = _reference_jacobian(jeu, k1)
    k = k1 + k2

    def block(r: slice):
        a = IntervalMatrix(a_lo[r, r], a_hi[r, r])
        return (a, IntervalMatrix(d_lo[r], d_hi[r]) - _embed(a, r.start, k),
                ivec_norm_ub(IntervalBox(jep.d1.lo[r, 0], jep.d1.hi[r, 0])))

    cert = MelnikovCertificate(k1=k1, k2=k2, p=prob.p, R=prob.R, eps_max=prob.eps_max,
                               assumptions=list(prob.assumptions))
    if k1 > 0:
        cert.A11, cert.Delta1, cert.eps_deriv_bound_1 = block(slice(0, k1))
    if k2 > 0:
        cert.A22, cert.Delta2, cert.eps_deriv_bound_2 = block(slice(k1, k))
    cert.diagnostics["subdivide"] = subdivide
    cert.diagnostics["eps_subdivide"] = eps_subdivide
    return cert


def verify_practical(cert: MelnikovCertificate, R: float | None = None,
                     eps_max: float | None = None) -> MelnikovCertificate:
    """Evaluate the practical inequalities; margins are certified lower bounds.

    Success semantics: for every eps in (0, eps_max] the degree
    deg(y(eps, .), B(p, R), 0) is nonzero, hence an intersection exists.
    """
    R = float(R if R is not None else cert.R)
    eps_max = float(eps_max if eps_max is not None else cert.eps_max)
    if R > cert.R or eps_max > cert.eps_max:
        # the Delta blocks and eps-derivative bounds were computed over
        # E x B(p, R); shrinking is conservative, enlarging is not
        raise IntervalError("verify_practical cannot enlarge R or eps_max after assembly")
    r_iv = Interval.point(R)
    if cert.k1 > 0:
        cert.m_A11, cert.norm_Delta1, cert.margin1 = _block_margin(
            "k1", cert.A11, cert.Delta1, cert.eps_deriv_bound_1, r_iv, eps_max)
    if cert.k2 > 0:
        cert.m_A22, cert.norm_Delta2, cert.margin2 = _block_margin(
            "k2", cert.A22, cert.Delta2, cert.eps_deriv_bound_2, r_iv)
    cert.R = R
    cert.eps_max = eps_max
    cert.verdict = "verified" if all(m > 0.0 for m in cert.margins()) else "failed"
    return cert


def _block_margin(name: str, a: IntervalMatrix | None, delta: IntervalMatrix | None,
                  eps_bound: float | None, r_iv: Interval, eps_max: float | None = None):
    """m(A), ||Delta|| and the certified margin m(A) R - e - ||Delta|| R of
    one block.  e is the eps-derivative bound, times eps_max when that is
    given (block 1), else as it is (block 2: a product with an exact 1 would
    still widen it by an ulp)."""
    if a is None or delta is None or eps_bound is None:
        raise IntervalError(f"certificate data for the {name} block is missing")
    m_a = sigma_min_lb(a)
    norm = spectral_norm_ub(delta)
    eps_term = Interval.point(eps_bound)
    if eps_max is not None:
        eps_term = Interval.point(eps_max) * eps_term
    margin = Interval.point(m_a) * r_iv - eps_term - Interval.point(norm) * r_iv
    return m_a, norm, margin.lo


_TRANSVERSAL_EPS_SAMPLES = 3


def verify_transversal(cert: MelnikovCertificate) -> MelnikovCertificate:
    """Record the uniqueness/transversality implication of the inequalities.

    The verified margins give m(A11) > ||Delta1|| and m(A22) > ||Delta2||,
    which make every matrix in the Jacobian enclosure of y over E x U an
    isomorphism: each eps in (0, eps_max] then has a unique intersection and
    it is transversal.  The explicit block inequalities are re-checked here;
    as an extra diagnostic a direct sigma_min_lb of the assembled Jacobian
    enclosure is sampled at three eps values (it is a weaker bound and may be
    inconclusive without affecting the certified flag).
    """
    if cert.verdict != "verified":
        raise IntervalError("verify_transversal requires a verified certificate")
    iso = True
    if cert.k1 > 0:
        iso = iso and cert.m_A11 > cert.norm_Delta1
    if cert.k2 > 0:
        iso = iso and cert.m_A22 > cert.norm_Delta2
    if not iso:
        # cannot happen when the margins verified; refuse to claim more
        cert.transversal = False
        cert.diagnostics["transversal_check_failed"] = True
        return cert
    k1 = cert.k1
    k = k1 + cert.k2
    # Jacobian rows over E x U: block 1 as assembled, block 2 times eps
    lo = np.zeros((k, k))
    hi = np.zeros((k, k))
    if k1 > 0:
        full1 = cert.Delta1 + _embed(cert.A11, 0, k)
        lo[:k1], hi[:k1] = full1.lo, full1.hi
    full2 = cert.Delta2 + _embed(cert.A22, k1, k) if cert.k2 > 0 else None
    n = _TRANSVERSAL_EPS_SAMPLES
    checks = []
    for eps in np.linspace(cert.eps_max / n, cert.eps_max, n):
        if full2 is not None:
            rows = full2.mul_interval(Interval.point(eps))
            lo[k1:], hi[k1:] = rows.lo, rows.hi
        checks.append(sigma_min_lb(IntervalMatrix(lo, hi)))
    cert.diagnostics["jacobian_sigma_min_samples"] = [float(c) for c in checks]
    cert.transversal = True
    return cert


@dataclass
class BoundaryExclusionCertificate:
    verified: bool
    reason: str
    u_box: IntervalBox
    eps_max: float
    cells_checked: int = 0
    failing_cell: IntervalBox | None = None
    reference_refined: IntervalBox | None = None

    def to_jsonable(self) -> dict:
        return {
            "verified": self.verified,
            "reason": self.reason,
            "uBox": _json_pairs(self.u_box),
            "epsMax": self.eps_max,
            "cellsChecked": self.cells_checked,
            "failingCell": _json_pairs(self.failing_cell),
            "referenceZero": _json_pairs(self.reference_refined),
            "toolVersion": TOOL_VERSION,
        }


def _reference_map_oracle(oracle: DistanceOracle) -> FunctionOracle:
    """(y1, dy2/deps)(0, x) with its x-Jacobian, from distance jets."""
    eps0 = Interval(0.0, 0.0)

    def ev(_x, xbox):
        return IntervalBox(*_reference_value(oracle.jet(eps0, xbox), oracle.k1))

    def dv(_x, xbox):
        return IntervalMatrix(*_reference_jacobian(oracle.jet(eps0, xbox), oracle.k1))

    return FunctionOracle(ev, dv)


def verify_boundary_exclusion(
    oracle: DistanceOracle,
    u_box: IntervalBox,
    eps_max: float,
    boundary_depth: int = 4,
    threads: int = 1,
) -> BoundaryExclusionCertificate:
    """Degree certificate via boundary exclusion on a box U.

    First certifies a unique nondegenerate zero of the reference map
    (y1, dy2/deps)(0, .) inside U (degree +-1 by the affine sign-det
    property), then excludes zeros of (y1, dy2/deps)(E, .) on every face
    cell of the boundary of U, adaptively subdividing up to
    ``boundary_depth``.  Success implies deg(y(eps, .), U, 0) != 0 for all
    eps in (0, eps_max].
    """
    check_serial(threads)
    ref = _reference_map_oracle(oracle)
    no_param = IntervalBox([0.0], [0.0])
    cert_ref = newton_verify(ref, no_param, u_box)
    if not cert_ref.verified:
        return BoundaryExclusionCertificate(
            False, f"reference map zero not certified unique: {cert_ref.message}",
            u_box, eps_max)
    eps_full = Interval(0.0, eps_max)

    def cell_excludes(cell: IntervalBox) -> bool:
        lo, hi = _reference_value(oracle.jet(eps_full, cell), oracle.k1)
        return bool(np.any((lo > 0.0) | (hi < 0.0)))

    # initial face cells: two faces per coordinate
    queue: deque[tuple[IntervalBox, int]] = deque()
    for i in range(u_box.dim):
        for endpoint in (u_box.lo[i], u_box.hi[i]):
            lo = u_box.lo.copy()
            hi = u_box.hi.copy()
            lo[i] = hi[i] = endpoint
            queue.append((IntervalBox(lo, hi), 0))

    checked = 0
    while queue:
        cell, depth = queue.popleft()
        checked += 1
        if cell_excludes(cell):
            continue
        if depth >= boundary_depth:
            return BoundaryExclusionCertificate(
                False, "zero not excluded on a boundary cell at max depth",
                u_box, eps_max, checked, failing_cell=cell,
                reference_refined=cert_ref.refined)
        widths = cell.width()
        axis = int(np.argmax(widths))
        if widths[axis] <= 0.0:
            return BoundaryExclusionCertificate(
                False, "zero not excluded on a degenerate boundary cell",
                u_box, eps_max, checked, failing_cell=cell,
                reference_refined=cert_ref.refined)
        left, right = cell.split(axis)
        queue.append((left, depth + 1))
        queue.append((right, depth + 1))

    return BoundaryExclusionCertificate(True, "verified", u_box, eps_max, checked,
                                        reference_refined=cert_ref.refined)
