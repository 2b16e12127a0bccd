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

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .intervals import Interval, IntervalBox, IntervalError
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
        def mat(m):
            if m is None:
                return None
            return [[[float(m.lo[i, j]), float(m.hi[i, j])] for j in range(m.shape[1])]
                    for i in range(m.shape[0])]

        return {
            "problem": {
                "k1": self.k1,
                "k2": self.k2,
                "p": [float(x) for x in self.p],
                "R": float(self.R),
                "epsMax": float(self.eps_max),
            },
            "blocks": {
                "A11": mat(self.A11),
                "A22": mat(self.A22),
                "Delta1": mat(self.Delta1),
                "Delta2": mat(self.Delta2),
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
    if n_sub <= 1:
        yield IntervalBox(lo, hi)
        return
    dim = len(lo)
    edges = [np.linspace(lo[i], hi[i], n_sub + 1) for i in range(dim)]
    idx = np.zeros(dim, dtype=int)
    while True:
        cl = np.array([edges[i][idx[i]] for i in range(dim)])
        ch = np.array([edges[i][idx[i] + 1] for i in range(dim)])
        yield IntervalBox(cl, ch)
        i = 0
        while i < dim:
            idx[i] += 1
            if idx[i] < n_sub:
                break
            idx[i] = 0
            i += 1
        if i == dim:
            return


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
    y1_rows = list(range(k1))
    y2_rows = list(range(k1, k1 + k2))
    x1_cols = list(range(1, 1 + k1))
    x2_cols = list(range(1 + k1, 1 + k1 + k2))
    x_cols = x1_cols + x2_cols

    cert = MelnikovCertificate(k1=k1, k2=k2, p=prob.p, R=prob.R, eps_max=prob.eps_max,
                               assumptions=list(prob.assumptions))
    if k1 > 0:
        cert.A11 = IntervalMatrix(j0p.d1.lo[np.ix_(y1_rows, x1_cols)],
                                  j0p.d1.hi[np.ix_(y1_rows, x1_cols)])
    if k2 > 0:
        cert.A22 = IntervalMatrix(j0p.d2lo[np.ix_(y2_rows, [0], x2_cols)][:, 0, :],
                                  j0p.d2hi[np.ix_(y2_rows, [0], x2_cols)][:, 0, :])

    jep = oracle.jet(eps_full, p_box)
    if k1 > 0:
        cert.eps_deriv_bound_1 = ivec_norm_ub(IntervalBox(jep.d1.lo[y1_rows, 0], jep.d1.hi[y1_rows, 0]))
    if k2 > 0:
        cert.eps_deriv_bound_2 = ivec_norm_ub(IntervalBox(jep.d1.lo[y2_rows, 0], jep.d1.hi[y2_rows, 0]))

    u_box = _ball_box(prob.p, prob.R)
    jeu = None
    for ebox in _subdivided(np.array([0.0]), np.array([prob.eps_max]), eps_subdivide):
        for cell in _subdivided(u_box.lo, u_box.hi, subdivide):
            j = oracle.jet(Interval(ebox.lo[0], ebox.hi[0]), cell)
            jeu = j if jeu is None else jeu.hull(j)

    if k1 > 0:
        d1_block = IntervalMatrix(jeu.d1.lo[np.ix_(y1_rows, x_cols)],
                                  jeu.d1.hi[np.ix_(y1_rows, x_cols)])
        a11 = cert.A11
        emb = IntervalMatrix(np.hstack([a11.lo, np.zeros((k1, k2))]),
                             np.hstack([a11.hi, np.zeros((k1, k2))]))
        cert.Delta1 = d1_block - emb
    if k2 > 0:
        mixed = IntervalMatrix(jeu.d2lo[np.ix_(y2_rows, [0], x_cols)][:, 0, :],
                               jeu.d2hi[np.ix_(y2_rows, [0], x_cols)][:, 0, :])
        a22 = cert.A22
        emb = IntervalMatrix(np.hstack([np.zeros((k2, k1)), a22.lo]),
                             np.hstack([np.zeros((k2, k1)), a22.hi]))
        cert.Delta2 = mixed - emb
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
    ok = True
    if cert.k1 > 0:
        if cert.A11 is None or cert.Delta1 is None or cert.eps_deriv_bound_1 is None:
            raise IntervalError("certificate data for the k1 block is missing")
        cert.m_A11 = sigma_min_lb(cert.A11)
        cert.norm_Delta1 = spectral_norm_ub(cert.Delta1)
        margin = (Interval.point(cert.m_A11) * r_iv
                  - Interval.point(eps_max) * Interval.point(cert.eps_deriv_bound_1)
                  - Interval.point(cert.norm_Delta1) * r_iv)
        cert.margin1 = margin.lo
        ok = ok and cert.margin1 > 0.0
    if cert.k2 > 0:
        if cert.A22 is None or cert.Delta2 is None or cert.eps_deriv_bound_2 is None:
            raise IntervalError("certificate data for the k2 block is missing")
        cert.m_A22 = sigma_min_lb(cert.A22)
        cert.norm_Delta2 = spectral_norm_ub(cert.Delta2)
        margin = (Interval.point(cert.m_A22) * r_iv
                  - Interval.point(cert.eps_deriv_bound_2)
                  - Interval.point(cert.norm_Delta2) * r_iv)
        cert.margin2 = margin.lo
        ok = ok and cert.margin2 > 0.0
    cert.R = R
    cert.eps_max = eps_max
    cert.verdict = "verified" if ok else "failed"
    return cert


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
    k1, k2 = cert.k1, cert.k2
    k = k1 + k2
    n = _TRANSVERSAL_EPS_SAMPLES
    checks = []
    for eps in np.linspace(cert.eps_max / n, cert.eps_max, n):
        lo = np.zeros((k, k))
        hi = np.zeros((k, k))
        if k1 > 0:
            full1 = cert.Delta1 + IntervalMatrix(
                np.hstack([cert.A11.lo, np.zeros((k1, k2))]),
                np.hstack([cert.A11.hi, np.zeros((k1, k2))]))
            lo[:k1], hi[:k1] = full1.lo, full1.hi
        if k2 > 0:
            full2 = (cert.Delta2 + IntervalMatrix(
                np.hstack([np.zeros((k2, k1)), cert.A22.lo]),
                np.hstack([np.zeros((k2, k1)), cert.A22.hi]))).mul_interval(Interval.point(eps))
            lo[k1:], hi[k1:] = full2.lo, full2.hi
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
        def box(b):
            if b is None:
                return None
            return [[float(l), float(h)] for l, h in zip(b.lo, b.hi)]

        return {
            "verified": self.verified,
            "reason": self.reason,
            "uBox": box(self.u_box),
            "epsMax": self.eps_max,
            "cellsChecked": self.cells_checked,
            "failingCell": box(self.failing_cell),
            "referenceZero": box(self.reference_refined),
            "toolVersion": TOOL_VERSION,
        }


def _reference_map_oracle(oracle: DistanceOracle) -> FunctionOracle:
    """(y1, dy2/deps)(0, x) with its x-Jacobian, from distance jets."""
    k1, k2 = oracle.k1, oracle.k2
    eps0 = Interval(0.0, 0.0)

    def ev(_x, xbox):
        j = oracle.jet(eps0, xbox)
        lo = np.concatenate([j.value.lo[:k1], j.d1.lo[k1:, 0]])
        hi = np.concatenate([j.value.hi[:k1], j.d1.hi[k1:, 0]])
        return IntervalBox(lo, hi)

    def dv(_x, xbox):
        j = oracle.jet(eps0, xbox)
        lo = np.vstack([j.d1.lo[:k1, 1:], j.d2lo[k1:, 0, 1:]])
        hi = np.vstack([j.d1.hi[:k1, 1:], j.d2hi[k1:, 0, 1:]])
        return IntervalMatrix(lo, hi)

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
    k = oracle.dim
    ref = _reference_map_oracle(oracle)
    no_param = IntervalBox([0.0], [0.0])
    cert_ref = newton_verify(ref, no_param, u_box)
    if not cert_ref.verified:
        return BoundaryExclusionCertificate(
            False, f"reference map zero not certified unique: {cert_ref.message}",
            u_box, eps_max)
    eps_full = Interval(0.0, eps_max)

    def cell_excludes(cell: IntervalBox) -> bool:
        j = oracle.jet(eps_full, cell)
        for i in range(oracle.k1):
            if not j.value[i].contains_zero():
                return True
        for i in range(oracle.k1, k):
            if not Interval(j.d1.lo[i, 0], j.d1.hi[i, 0]).contains_zero():
                return True
        return False

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
