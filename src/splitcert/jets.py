"""Order-2 jet enclosures and their composition.

A :class:`Jet2Enclosure` packages an enclosure of a map value together with
first and second partial derivatives with respect to a shared scalar
parameter (variable index 0, written ``eps`` throughout) and ``k`` state
variables.  All blocks are enclosures valid over the whole domain box the
jet was computed on; composing two jets is the order-2 chain rule in
interval arithmetic with ``eps`` threaded as a common variable rather than
duplicated.
"""

from __future__ import annotations

import numpy as np

from . import kernels as ku
from .intervals import IntervalBox, IntervalError
from .matrices import IntervalMatrix


class Jet2Enclosure:
    """Value, gradient and Hessian enclosures of a map (eps, x) -> R^m.

    ``d1`` has shape (m, 1+k) with the eps column first; ``d2`` has shape
    (m, 1+k, 1+k) and is stored as the intersection of the two mixed-partial
    computation orders (enclosures of equal mixed partials must intersect).
    """

    __slots__ = ("value", "d1", "d2lo", "d2hi")

    def __init__(self, value: IntervalBox, d1: IntervalMatrix, d2lo, d2hi):
        d2lo = np.asarray(d2lo, dtype=float).copy()
        d2hi = np.asarray(d2hi, dtype=float).copy()
        m = value.dim
        nv = d1.shape[1]
        if d1.shape[0] != m:
            raise IntervalError("d1 rows must match output dimension")
        if d2lo.shape != (m, nv, nv) or d2hi.shape != (m, nv, nv):
            raise IntervalError("d2 must have shape (m, nvars, nvars)")
        # symmetrize by intersecting the (a,b) and (b,a) enclosures
        lo = np.maximum(d2lo, np.swapaxes(d2lo, 1, 2))
        hi = np.minimum(d2hi, np.swapaxes(d2hi, 1, 2))
        if np.any(lo > hi + 0.0):
            raise IntervalError("mixed-partial enclosures do not intersect")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.value = value
        self.d1 = d1
        self.d2lo = lo
        self.d2hi = hi

    # -- shape -------------------------------------------------------------

    @property
    def out_dim(self) -> int:
        return self.value.dim

    @property
    def nvars(self) -> int:
        """Total differentiation variables including eps."""
        return self.d1.shape[1]

    @property
    def state_dim(self) -> int:
        return self.nvars - 1

    # -- builders ----------------------------------------------------------

    @staticmethod
    def constant(value: IntervalBox, state_dim: int) -> "Jet2Enclosure":
        m = value.dim
        nv = state_dim + 1
        return Jet2Enclosure(value, IntervalMatrix.zeros(m, nv), np.zeros((m, nv, nv)), np.zeros((m, nv, nv)))

    @staticmethod
    def identity(box: IntervalBox) -> "Jet2Enclosure":
        """Jet of (eps, x) -> x over the given x box."""
        k = box.dim
        d1 = np.hstack([np.zeros((k, 1)), np.eye(k)])
        z = np.zeros((k, k + 1, k + 1))
        return Jet2Enclosure(box, IntervalMatrix.point(d1), z, z)

    @staticmethod
    def affine(value: IntervalBox, d1: IntervalMatrix) -> "Jet2Enclosure":
        m, nv = d1.shape
        z = np.zeros((m, nv, nv))
        return Jet2Enclosure(value, d1, z, z)

    # -- block access --------------------------------------------------------

    def dstate(self) -> IntervalMatrix:
        return IntervalMatrix(self.d1.lo[:, 1:], self.d1.hi[:, 1:])

    # -- algebra -------------------------------------------------------------

    def project(self, rows) -> "Jet2Enclosure":
        rows = list(rows)
        val = IntervalBox(self.value.lo[rows], self.value.hi[rows])
        d1 = IntervalMatrix(self.d1.lo[rows], self.d1.hi[rows])
        return Jet2Enclosure(val, d1, self.d2lo[rows], self.d2hi[rows])

    def take_vars(self, var_idx) -> "Jet2Enclosure":
        """Restrict to a subset of variables (index 0 must stay first)."""
        var_idx = list(var_idx)
        if var_idx[0] != 0:
            raise IntervalError("variable subset must keep eps as index 0")
        d1 = IntervalMatrix(self.d1.lo[:, var_idx], self.d1.hi[:, var_idx])
        lo = self.d2lo[np.ix_(range(self.out_dim), var_idx, var_idx)]
        hi = self.d2hi[np.ix_(range(self.out_dim), var_idx, var_idx)]
        return Jet2Enclosure(self.value, d1, lo, hi)

    def __sub__(self, other: "Jet2Enclosure") -> "Jet2Enclosure":
        if other.nvars != self.nvars or other.out_dim != self.out_dim:
            raise IntervalError("jet subtraction needs matching shapes")
        lo, hi = ku.vsub(self.d2lo, self.d2hi, other.d2lo, other.d2hi)
        return Jet2Enclosure(self.value - other.value, self.d1 - other.d1, lo, hi)

    def __add__(self, other: "Jet2Enclosure") -> "Jet2Enclosure":
        if other.nvars != self.nvars or other.out_dim != self.out_dim:
            raise IntervalError("jet addition needs matching shapes")
        lo, hi = ku.vadd(self.d2lo, self.d2hi, other.d2lo, other.d2hi)
        return Jet2Enclosure(self.value + other.value, self.d1 + other.d1, lo, hi)

    def widened(self, value_eps=0.0, d1_eps=0.0, d2_eps=0.0) -> "Jet2Enclosure":
        val = self.value.widened(value_eps) if np.any(np.asarray(value_eps) > 0) else self.value
        d1 = self.d1
        if np.any(np.asarray(d1_eps) > 0):
            lo, hi = ku.widen_abs(d1.lo, d1.hi, np.broadcast_to(d1_eps, d1.lo.shape))
            d1 = IntervalMatrix(lo, hi)
        d2lo, d2hi = self.d2lo, self.d2hi
        if np.any(np.asarray(d2_eps) > 0):
            d2lo, d2hi = ku.widen_abs(d2lo, d2hi, np.broadcast_to(d2_eps, d2lo.shape))
        return Jet2Enclosure(val, d1, d2lo, d2hi)

    def hull(self, other: "Jet2Enclosure") -> "Jet2Enclosure":
        lo, hi = ku.vhull(self.d2lo, self.d2hi, other.d2lo, other.d2hi)
        return Jet2Enclosure(self.value.hull(other.value), self.d1.hull(other.d1), lo, hi)

    def __repr__(self):
        return (
            f"Jet2Enclosure(m={self.out_dim}, nvars={self.nvars}, "
            f"|value width|={self.value.max_width():.3g}, |d1 width|={self.d1.max_width():.3g})"
        )


def with_eps_row(d1lo, d1hi):
    """A (p, nv) derivative block with the eps row (1, 0, ..., 0) prepended,
    so that it is the derivative of (eps, x) -> (eps, inner(eps, x))."""
    p, nv = d1lo.shape
    lo = np.zeros((p + 1, nv))
    hi = np.zeros((p + 1, nv))
    lo[0, 0] = hi[0, 0] = 1.0
    lo[1:] = d1lo
    hi[1:] = d1hi
    return lo, hi


def compose_d2(o1lo, o1hi, o2lo, o2hi, vlo, vhi, wlo, whi):
    """Second derivative of (eps, x) -> outer(eps, inner(eps, x)) on raw
    (lo, hi) blocks: sum_ij o2[c,i,j] V[i,a] V[j,b] + sum_i o1[c,i] W[i,a,b].

    ``o1`` (m, p+1) and ``o2`` (m, p+1, p+1) are the outer derivatives, ``v``
    (p+1, nv) the inner first derivative with its eps row (:func:`with_eps_row`)
    and ``w`` (p, nv, nv) the inner second derivative, whose eps row is zero.
    """
    p, nv = wlo.shape[0], vlo.shape[1]
    # term 1, contracting j first: T1[c,i,b] = sum_j o2[c,i,j] V[j,b]
    t1lo, t1hi = ku.imulsum(o2lo[:, :, :, None], o2hi[:, :, :, None],
                            vlo[None, None, :, :], vhi[None, None, :, :], axis=2)  # (m, p+1, nv)
    # then i: term1[c,a,b] = sum_i T1[c,i,b] V[i,a]
    term1lo, term1hi = ku.imulsum(t1lo[:, :, None, :], t1hi[:, :, None, :],
                                  vlo[None, :, :, None], vhi[None, :, :, None], axis=1)  # (m, nv, nv)
    # term 2 over the eps-extended W
    welo = np.zeros((p + 1, nv, nv))
    wehi = np.zeros((p + 1, nv, nv))
    welo[1:] = wlo
    wehi[1:] = whi
    term2lo, term2hi = ku.imulsum(o1lo[:, :, None, None], o1hi[:, :, None, None],
                                  welo[None, :, :, :], wehi[None, :, :, :], axis=1)
    return ku.vadd(term1lo, term1hi, term2lo, term2hi)


def jet2_compose(outer: Jet2Enclosure, inner: Jet2Enclosure) -> Jet2Enclosure:
    """Order-2 chain rule: jet of (eps, x) -> outer(eps, inner(eps, x)).

    Precondition: ``outer`` was computed over a domain whose state part
    contains ``inner.value`` (the caller arranges this); the eps variable is
    shared between the two jets.
    """
    p = inner.out_dim
    if outer.nvars != p + 1:
        raise IntervalError(
            f"outer expects {outer.nvars - 1} state inputs, inner provides {p}"
        )
    vlo, vhi = with_eps_row(inner.d1.lo, inner.d1.hi)  # (p+1, nv)
    d1lo, d1hi = ku.idot(outer.d1.lo, outer.d1.hi, vlo, vhi)
    d2lo, d2hi = compose_d2(outer.d1.lo, outer.d1.hi, outer.d2lo, outer.d2hi,
                            vlo, vhi, inner.d2lo, inner.d2hi)
    return Jet2Enclosure(outer.value, IntervalMatrix(d1lo, d1hi), d2lo, d2hi)


def jet2_stack(a: Jet2Enclosure, b: Jet2Enclosure) -> Jet2Enclosure:
    """Concatenate outputs of two jets over the same variables."""
    if a.nvars != b.nvars:
        raise IntervalError("stacked jets must share variables")
    value = a.value.concat(b.value)
    d1 = IntervalMatrix(np.vstack([a.d1.lo, b.d1.lo]), np.vstack([a.d1.hi, b.d1.hi]))
    d2lo = np.concatenate([a.d2lo, b.d2lo], axis=0)
    d2hi = np.concatenate([a.d2hi, b.d2hi], axis=0)
    return Jet2Enclosure(value, d1, d2lo, d2hi)
