"""Interval matrices and rigorous Euclidean-norm bounds.

The two norm bounds are the workhorses of the splitting certificates:

* :func:`spectral_norm_ub` returns ``r`` with ``||A||_2 <= r`` for every
  ``A`` in the enclosure, via a Gershgorin disc bound on the interval Gram
  matrix ``A^T A``.
* :func:`sigma_min_lb` returns a certified lower bound on the smallest
  singular value over the whole matrix family (the quantity ``1/||A^-1||``
  for invertible ``A``), with a closed-form Gram eigenvalue for the 1x1 and
  2x2 cases and a verified-inverse route for larger matrices.

Interval linear solves use midpoint preconditioning followed by interval
Gaussian elimination and a Gauss-Seidel sweep.
"""

from __future__ import annotations

import numpy as np

from . import kernels as ku
from .intervals import Interval, IntervalBox, IntervalError


class LinalgError(IntervalError):
    """Raised when invertibility cannot be verified."""


class IntervalMatrix:
    """Rectangular grid of intervals stored as paired (lo, hi) arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_2d(np.asarray(lo, dtype=float)).copy()
        hi = np.atleast_2d(np.asarray(hi, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 2:
            raise IntervalError("matrix endpoints must be matching 2-d arrays")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise IntervalError("matrix endpoints must be finite")
        if np.any(lo > hi):
            raise IntervalError("matrix entry with lo > hi")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(a) -> "IntervalMatrix":
        a = np.atleast_2d(np.asarray(a, dtype=float))
        return IntervalMatrix(a, a)

    @staticmethod
    def from_rows(rows) -> "IntervalMatrix":
        """Build from nested lists of Interval (or float) entries."""
        lo = [[e.lo if isinstance(e, Interval) else float(e) for e in row] for row in rows]
        hi = [[e.hi if isinstance(e, Interval) else float(e) for e in row] for row in rows]
        return IntervalMatrix(lo, hi)

    @staticmethod
    def zeros(r: int, c: int) -> "IntervalMatrix":
        z = np.zeros((r, c))
        return IntervalMatrix(z, z)

    @staticmethod
    def identity(n: int) -> "IntervalMatrix":
        e = np.eye(n)
        return IntervalMatrix(e, e)

    @property
    def shape(self) -> tuple[int, int]:
        return self.lo.shape

    def __getitem__(self, ij) -> Interval:
        i, j = ij
        if isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer)):
            return Interval(float(self.lo[i, j]), float(self.hi[i, j]))
        return IntervalMatrix(self.lo[i, j], self.hi[i, j])

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def rad(self) -> np.ndarray:
        m = self.mid()
        return np.maximum(self.hi - m, m - self.lo)

    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def max_width(self) -> float:
        return float(np.max(self.hi - self.lo))

    @property
    def T(self) -> "IntervalMatrix":
        return IntervalMatrix(self.lo.T, self.hi.T)

    def contains_matrix(self, a) -> bool:
        a = np.asarray(a, dtype=float)
        return bool(np.all(self.lo <= a) and np.all(a <= self.hi))

    def contains(self, other: "IntervalMatrix") -> bool:
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def hull(self, other: "IntervalMatrix") -> "IntervalMatrix":
        return IntervalMatrix(*ku.vhull(self.lo, self.hi, other.lo, other.hi))

    def intersect(self, other: "IntervalMatrix") -> "IntervalMatrix | None":
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            return None
        return IntervalMatrix(lo, hi)

    def __add__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        return IntervalMatrix(*ku.vadd(self.lo, self.hi, other.lo, other.hi))

    def __sub__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        return IntervalMatrix(*ku.vsub(self.lo, self.hi, other.lo, other.hi))

    def __neg__(self) -> "IntervalMatrix":
        return IntervalMatrix(-self.hi, -self.lo)

    def scale(self, c: float) -> "IntervalMatrix":
        return IntervalMatrix(*ku.vscale(float(c), self.lo, self.hi))

    def mul_interval(self, c: Interval) -> "IntervalMatrix":
        clo = np.full(self.shape, c.lo)
        chi = np.full(self.shape, c.hi)
        return IntervalMatrix(*ku.vmul(self.lo, self.hi, clo, chi))

    def __matmul__(self, other):
        if isinstance(other, IntervalMatrix):
            return imat_mul(self, other)
        if isinstance(other, IntervalBox):
            return imat_apply(self, other)
        arr = np.asarray(other, dtype=float)
        if arr.ndim == 1:
            return imat_apply(self, IntervalBox.point(arr))
        return imat_mul(self, IntervalMatrix.point(arr))

    def __repr__(self):
        return f"IntervalMatrix(lo={self.lo!r}, hi={self.hi!r})"


def imat_apply(m: IntervalMatrix, v: IntervalBox) -> IntervalBox:
    """Enclosure of {A u : A in m, u in v}."""
    if m.shape[1] != v.dim:
        raise IntervalError(f"dimension mismatch: {m.shape} @ {v.dim}")
    lo, hi = ku.idot(m.lo, m.hi, v.lo, v.hi)
    return IntervalBox(lo, hi)


def imat_mul(m: IntervalMatrix, n: IntervalMatrix) -> IntervalMatrix:
    if m.shape[1] != n.shape[0]:
        raise IntervalError(f"dimension mismatch: {m.shape} @ {n.shape}")
    lo, hi = ku.idot(m.lo, m.hi, n.lo, n.hi)
    return IntervalMatrix(lo, hi)


def _gram(m: IntervalMatrix) -> IntervalMatrix:
    """Interval enclosure of {A^T A : A in m}, diagonal tightened with vsqr."""
    g = imat_mul(m.T, m)
    n = g.shape[0]
    glo = g.lo.copy()
    ghi = g.hi.copy()
    for j in range(n):
        slo, shi = ku.vsqr(m.lo[:, j], m.hi[:, j])
        dlo, dhi = ku.isum(slo, shi, axis=0)
        glo[j, j] = max(glo[j, j], float(dlo))
        ghi[j, j] = min(ghi[j, j], float(dhi))
    # symmetrize off-diagonal by intersection: A^T A is symmetric, so the
    # (i,j) and (j,i) enclosures both contain the same entry
    lo = np.maximum(glo, glo.T)
    hi = np.minimum(ghi, ghi.T)
    return IntervalMatrix(lo, hi)


# an overflowing norm bound yields inf (and inf - inf in a padded sum) on
# purpose; _sqrt_ub or the IntervalMatrix constructor then raises
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


@_QUIET_OVERFLOW
def spectral_norm_ub(m: IntervalMatrix) -> float:
    """Upper bound of the Euclidean operator norm over the matrix family."""
    g = _gram(m)
    n = g.shape[0]
    # Gershgorin row bound: lambda_max(G) <= max_i (G_ii + sum_{j != i} |G_ij|)
    off = ku.vmag(g.lo, g.hi)[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    _, rows = ku.vadd(np.diag(g.lo), np.diag(g.hi), *ku.isum(off, off, axis=1))
    return _sqrt_ub(float(np.max(rows, initial=0.0)))


@_QUIET_OVERFLOW
def ivec_norm_ub(v: IntervalBox) -> float:
    """Upper bound of the Euclidean norm over all points of the box."""
    # only the upper endpoint of the sum is used: a padded sum of tiny
    # squares may put the lower one below zero
    return _sqrt_ub(float(ku.isum(*ku.vsqr(v.lo, v.hi), axis=0)[1]))


def _sqrt_ub(x: float) -> float:
    """Upper bound of sqrt(x) for x >= 0; raises when x overflowed."""
    if not np.isfinite(x):
        raise IntervalError(f"norm bound overflows: squared bound {x}")
    return float(ku.vsqrt(x, x)[1])


def _sigma_min_lb_2x2(m: IntervalMatrix) -> float:
    # closed-form smallest eigenvalue of the interval Gram matrix:
    # lambda_min = (tr - sqrt((g11-g22)^2 + 4 g12^2)) / 2
    g = _gram(m)
    g11 = g[0, 0]
    g22 = g[1, 1]
    g12 = g[0, 1]
    tr = g11 + g22
    disc = (g11 - g22).sqr() + Interval(4.0, 4.0) * g12.sqr()
    lam_min = (tr - disc.sqrt()) * Interval(0.5, 0.5)
    lo = max(lam_min.lo, 0.0)
    return Interval(lo, lo).sqrt().lo


def sigma_min_lb(m: IntervalMatrix) -> float:
    """Certified lower bound on sigma_min(A) valid for every A in m.

    Returns 0.0 when invertibility of the family cannot be verified.
    """
    r, c = m.shape
    if r != c:
        raise IntervalError("sigma_min_lb requires a square matrix")
    if r == 1:
        return float(ku.vmig(m.lo[0, 0], m.hi[0, 0]))
    if r == 2:
        return _sigma_min_lb_2x2(m)
    try:
        inv = iinverse(m)
    except LinalgError:
        return 0.0
    ub = spectral_norm_ub(inv)
    if ub <= 0.0:
        return 0.0
    return (Interval(1.0, 1.0) / Interval(ub, ub)).lo


def _igauss(a: IntervalMatrix, rhs_lo: np.ndarray, rhs_hi: np.ndarray):
    """Interval Gaussian elimination with mignitude pivoting.

    Solves A X = B for all A in a, B in (rhs_lo, rhs_hi); raises
    :class:`LinalgError` when a pivot interval contains zero.  The rows of
    the augmented matrix [A | B] below a pivot are eliminated together.
    """
    n = a.shape[0]
    lo = np.hstack([a.lo, rhs_lo])
    hi = np.hstack([a.hi, rhs_hi])
    for k in range(n):
        migs = ku.vmig(lo[k:, k], hi[k:, k])
        p = k + int(np.argmax(migs))
        if migs[p - k] <= 0.0:
            raise LinalgError("pivot interval contains zero; invertibility unverified")
        if p != k:
            lo[[k, p]] = lo[[p, k]]
            hi[[k, p]] = hi[[p, k]]
        # a zero column below the pivot (structurally triangular systems)
        # needs no elimination; once done, that column is left unzeroed
        # because nothing reads it again
        if lo[k + 1 :, k].any() or hi[k + 1 :, k].any():
            flo, fhi = ku.vdiv(lo[k + 1 :, k, None], hi[k + 1 :, k, None], lo[k, k], hi[k, k])
            plo, phi = ku.vmul(flo, fhi, lo[k, k:], hi[k, k:])
            lo[k + 1 :, k:], hi[k + 1 :, k:] = ku.vsub(lo[k + 1 :, k:], hi[k + 1 :, k:], plo, phi)
    xlo = np.zeros_like(rhs_lo)
    xhi = np.zeros_like(rhs_hi)
    for i in range(n - 1, -1, -1):
        slo, shi = lo[i, n:], hi[i, n:]
        if i + 1 < n:
            plo, phi = ku.idot(lo[i : i + 1, i + 1 : n], hi[i : i + 1, i + 1 : n], xlo[i + 1 :], xhi[i + 1 :])
            slo, shi = ku.vsub(slo, shi, plo[0], phi[0])
        xlo[i], xhi[i] = ku.vdiv(slo, shi, lo[i, i], hi[i, i])
    return xlo, xhi


def _preconditioned_gauss(m: IntervalMatrix, b: IntervalMatrix):
    """Midpoint preconditioning, then :func:`_igauss`: returns P A, P B and
    the enclosure (lo, hi) of X in P A X = P B, P the float inverse of mid(A)."""
    try:
        p = np.linalg.inv(m.mid())
    except np.linalg.LinAlgError as exc:
        raise LinalgError("midpoint matrix is singular") from exc
    if not np.all(np.isfinite(p)):
        raise LinalgError("midpoint inverse is not finite")
    p = IntervalMatrix.point(p)
    pm = imat_mul(p, m)
    pb = imat_mul(p, b)
    return pm, pb, *_igauss(pm, pb.lo, pb.hi)


def ilinsolve(m: IntervalMatrix, b: IntervalBox) -> IntervalBox:
    """Enclosure of {A^-1 u : A in m, u in b}.

    Midpoint preconditioning, interval Gaussian elimination, then one
    Gauss-Seidel refinement sweep (intersection keeps the result sound).
    """
    n = m.shape[0]
    if m.shape[0] != m.shape[1] or b.dim != n:
        raise IntervalError("ilinsolve needs a square system")
    pm, pb, xlo, xhi = _preconditioned_gauss(m, IntervalMatrix(b.lo[:, None], b.hi[:, None]))
    xlo, xhi = xlo[:, 0], xhi[:, 0]
    # Gauss-Seidel sweep on the preconditioned system
    for i in range(n):
        slo, shi = pb.lo[i, 0], pb.hi[i, 0]
        for j in range(n):
            if j == i:
                continue
            plo, phi = ku.vmul(pm.lo[i, j], pm.hi[i, j], xlo[j], xhi[j])
            slo, shi = ku.vsub(slo, shi, plo, phi)
        tlo, thi = ku.vdiv(slo, shi, pm.lo[i, i], pm.hi[i, i])
        lo = max(xlo[i], float(tlo))
        hi = min(xhi[i], float(thi))
        if lo > hi:
            raise LinalgError("empty Gauss-Seidel intersection (inconsistent enclosure)")
        xlo[i], xhi[i] = lo, hi
    return IntervalBox(xlo, xhi)


def imatsolve(m: IntervalMatrix, b: IntervalMatrix) -> IntervalMatrix:
    """Columnwise ilinsolve: enclosure of {A^-1 B}."""
    n = m.shape[0]
    if m.shape[0] != m.shape[1] or b.shape[0] != n:
        raise IntervalError("imatsolve needs a square system")
    return IntervalMatrix(*_preconditioned_gauss(m, b)[2:])


def iinverse(m: IntervalMatrix) -> IntervalMatrix:
    return imatsolve(m, IntervalMatrix.identity(m.shape[0]))
