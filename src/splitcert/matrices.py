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


def spectral_norm_ub(m: IntervalMatrix) -> float:
    """Upper bound of the Euclidean operator norm over the matrix family."""
    g = _gram(m)
    n = g.shape[0]
    worst = Interval.point(0.0)
    for i in range(n):
        row = Interval(float(g.lo[i, i]), float(g.hi[i, i]))
        acc = Interval.point(0.0)
        for j in range(n):
            if j != i:
                acc = acc + Interval.point(float(ku.vmag(g.lo[i, j], g.hi[i, j])))
        tot = row + acc
        if tot.hi > worst.hi:
            worst = tot
        # Gershgorin row bound: lambda_max(G) <= max_i (G_ii + sum |G_ij|)
    lam = max(worst.hi, 0.0)
    return Interval(lam, lam).sqrt().hi


def ivec_norm_ub(v: IntervalBox) -> float:
    """Upper bound of the Euclidean norm over all points of the box."""
    mags = ku.vmag(v.lo, v.hi)
    acc = Interval.point(0.0)
    for x in mags:
        acc = acc + Interval.point(float(x)).sqr()
    return acc.sqrt().hi


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
    :class:`LinalgError` when a pivot interval contains zero.
    """
    n = a.shape[0]
    alo = a.lo.copy()
    ahi = a.hi.copy()
    blo = rhs_lo.copy()
    bhi = rhs_hi.copy()
    perm = list(range(n))
    for k in range(n):
        migs = ku.vmig(alo[k:, k], ahi[k:, k])
        p = k + int(np.argmax(migs))
        if migs[p - k] <= 0.0:
            raise LinalgError("pivot interval contains zero; invertibility unverified")
        if p != k:
            alo[[k, p]] = alo[[p, k]]
            ahi[[k, p]] = ahi[[p, k]]
            blo[[k, p]] = blo[[p, k]]
            bhi[[k, p]] = bhi[[p, k]]
            perm[k], perm[p] = perm[p], perm[k]
        pk_lo, pk_hi = alo[k, k], ahi[k, k]
        for i in range(k + 1, n):
            flo, fhi = ku.vdiv(alo[i, k], ahi[i, k], pk_lo, pk_hi)
            if flo == 0.0 and fhi == 0.0:
                continue
            plo, phi = ku.vmul(np.full(n - k, flo), np.full(n - k, fhi), alo[k, k:], ahi[k, k:])
            alo[i, k:], ahi[i, k:] = ku.vsub(alo[i, k:], ahi[i, k:], plo, phi)
            alo[i, k] = ahi[i, k] = 0.0
            plo, phi = ku.vmul(np.full(blo.shape[1], flo), np.full(blo.shape[1], fhi), blo[k], bhi[k])
            blo[i], bhi[i] = ku.vsub(blo[i], bhi[i], plo, phi)
    xlo = np.zeros_like(blo)
    xhi = np.zeros_like(bhi)
    for i in range(n - 1, -1, -1):
        slo, shi = blo[i].copy(), bhi[i].copy()
        if i + 1 < n:
            plo, phi = ku.idot(alo[i : i + 1, i + 1 :], ahi[i : i + 1, i + 1 :], xlo[i + 1 :], xhi[i + 1 :])
            slo, shi = ku.vsub(slo, shi, plo[0], phi[0])
        xlo[i], xhi[i] = ku.vdiv(slo, shi, np.full(slo.shape, alo[i, i]), np.full(shi.shape, ahi[i, i]))
    return xlo, xhi


def _precondition(m: IntervalMatrix):
    c = m.mid()
    try:
        p = np.linalg.inv(c)
    except np.linalg.LinAlgError as exc:
        raise LinalgError("midpoint matrix is singular") from exc
    if not np.all(np.isfinite(p)):
        raise LinalgError("midpoint inverse is not finite")
    pm = imat_mul(IntervalMatrix.point(p), m)
    return p, pm


def ilinsolve(m: IntervalMatrix, b: IntervalBox) -> IntervalBox:
    """Enclosure of {A^-1 u : A in m, u in b}.

    Midpoint preconditioning, interval Gaussian elimination, then one
    Gauss-Seidel refinement sweep (intersection keeps the result sound).
    """
    n = m.shape[0]
    if m.shape[0] != m.shape[1] or b.dim != n:
        raise IntervalError("ilinsolve needs a square system")
    p, pm = _precondition(m)
    pb_lo, pb_hi = ku.idot(p, p, b.lo, b.hi)
    xlo, xhi = _igauss(pm, pb_lo[:, None], pb_hi[:, None])
    xlo, xhi = xlo[:, 0], xhi[:, 0]
    # Gauss-Seidel sweep on the preconditioned system
    for i in range(n):
        slo, shi = pb_lo[i], pb_hi[i]
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
    p, pm = _precondition(m)
    pb = imat_mul(IntervalMatrix.point(p), b)
    xlo, xhi = _igauss(pm, pb.lo, pb.hi)
    return IntervalMatrix(xlo, xhi)


def iinverse(m: IntervalMatrix) -> IntervalMatrix:
    return imatsolve(m, IntervalMatrix.identity(m.shape[0]))
