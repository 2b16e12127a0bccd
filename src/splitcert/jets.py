"""Order-2 jet enclosures and their composition.

A :class:`Jet2Enclosure` packages an enclosure of a map value together with
first and second partial derivatives with respect to a shared scalar
parameter (variable index 0, written ``eps`` throughout) and ``k`` state
variables.  All blocks are enclosures valid over the whole domain box the
jet was computed on; composing two jets is the order-2 chain rule in
interval arithmetic with ``eps`` threaded as a common variable rather than
duplicated.

A :class:`Jet1Enclosure` is the (value, d1) pair alone, for readers that
need no second derivatives.  Its operations are the first-order parts of
the order-2 ones, and give their value and d1 blocks bit for bit: the
order-2 composition and stacking compute those blocks by the same helpers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import kernels as ku
from .intervals import IntervalBox, IntervalError
from .matrices import IntervalMatrix


class Jet1Enclosure(NamedTuple):
    """Value and gradient enclosures of a map (eps, x) -> R^m: the (value,
    d1) pair, ``d1`` of shape (m, 1+k) with the eps column first.  It holds
    no second derivative, so none can be read from it."""

    value: IntervalBox
    d1: IntervalMatrix

    @property
    def out_dim(self) -> int:
        return self.value.dim

    @property
    def nvars(self) -> int:
        """Total differentiation variables including eps."""
        return self.d1.shape[1]

    def order1(self) -> "Jet1Enclosure":
        return self

    def project(self, rows) -> "Jet1Enclosure":
        rows = list(rows)
        return Jet1Enclosure(self.value[rows], self.d1[rows])

    def take_vars(self, var_idx) -> "Jet1Enclosure":
        """Restrict to a subset of variables (index 0 must stay first)."""
        var_idx = list(var_idx)
        if var_idx[0] != 0:
            raise IntervalError("variable subset must keep eps as index 0")
        return Jet1Enclosure(self.value, self.d1[:, var_idx])

    def __sub__(self, other) -> "Jet1Enclosure":
        if other.nvars != self.nvars or other.out_dim != self.out_dim:
            raise IntervalError("jet subtraction needs matching shapes")
        return Jet1Enclosure(self.value - other.value, self.d1 - other.d1)


class Jet2Enclosure:
    """Value, gradient and Hessian enclosures of a map (eps, x) -> R^m.

    ``d1`` has shape (m, 1+k) with the eps column first; ``d2`` has shape
    (m, 1+k, 1+k) and is stored as the intersection of the two mixed-partial
    computation orders (enclosures of equal mixed partials must intersect).
    """

    __slots__ = ("value", "d1", "d2lo", "d2hi")

    def __init__(self, value: IntervalBox, d1: IntervalMatrix, d2lo, d2hi):
        d2lo = np.asarray(d2lo, dtype=float)
        d2hi = np.asarray(d2hi, dtype=float)
        m = value.dim
        nv = d1.shape[1]
        if d1.shape[0] != m:
            raise IntervalError("d1 rows must match output dimension")
        if d2lo.shape != (m, nv, nv) or d2hi.shape != (m, nv, nv):
            raise IntervalError("d2 must have shape (m, nvars, nvars)")
        # a NaN endpoint would pass the lo > hi test below (it compares false)
        if not (np.isfinite(d2lo).all() and np.isfinite(d2hi).all()):
            raise IntervalError("d2 block endpoints must be finite")
        # symmetrize by intersecting the (a,b) and (b,a) enclosures
        lo = np.maximum(d2lo, np.swapaxes(d2lo, 1, 2))
        hi = np.minimum(d2hi, np.swapaxes(d2hi, 1, 2))
        if (lo > hi).any():
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
        return self.d1[:, 1:]

    def order1(self) -> Jet1Enclosure:
        """The (value, d1) pair of this jet."""
        return Jet1Enclosure(self.value, self.d1)

    # -- algebra -------------------------------------------------------------

    def project(self, rows) -> "Jet2Enclosure":
        rows = list(rows)
        return Jet2Enclosure(self.value[rows], self.d1[rows], self.d2lo[rows], self.d2hi[rows])

    def take_vars(self, var_idx) -> "Jet2Enclosure":
        """Restrict to a subset of variables (index 0 must stay first)."""
        var_idx = list(var_idx)
        if var_idx[0] != 0:
            raise IntervalError("variable subset must keep eps as index 0")
        d1 = self.d1[:, var_idx]
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
    vtlo, vthi = vlo.T, vhi.T
    t1lo, t1hi = ku.imulsum(o2lo[:, :, None, :], o2hi[:, :, None, :],
                            vtlo[None, None], vthi[None, None])  # (m, p+1, nv)
    # then i: term1[c,a,b] = sum_i T1[c,i,b] V[i,a]
    t1lo, t1hi = t1lo.transpose(0, 2, 1)[:, None], t1hi.transpose(0, 2, 1)[:, None]
    term1lo, term1hi = ku.imulsum(t1lo, t1hi, vtlo[None, :, None, :],
                                  vthi[None, :, None, :])  # (m, nv, nv)
    # term 2 over the eps-extended W, its (p+1) axis last
    welo = np.zeros((nv, nv, p + 1))
    wehi = np.zeros((nv, nv, p + 1))
    welo[:, :, 1:] = wlo.transpose(1, 2, 0)
    wehi[:, :, 1:] = whi.transpose(1, 2, 0)
    term2lo, term2hi = ku.imulsum(o1lo[:, None, None, :], o1hi[:, None, None, :],
                                  welo[None], wehi[None])
    return ku.vadd(term1lo, term1hi, term2lo, term2hi)


def _compose_first(outer, inner) -> tuple[Jet1Enclosure, tuple]:
    """The value and d1 of (eps, x) -> outer(eps, inner(eps, x)), and the
    inner first derivative with its eps row (:func:`with_eps_row`), which
    the second derivative reads too."""
    p = inner.out_dim
    if outer.nvars != p + 1:
        raise IntervalError(
            f"outer expects {outer.nvars - 1} state inputs, inner provides {p}"
        )
    v = with_eps_row(inner.d1.lo, inner.d1.hi)  # (p+1, nv)
    d1 = IntervalMatrix(*ku.idot(outer.d1.lo, outer.d1.hi, *v))
    return Jet1Enclosure(outer.value, d1), v


def jet1_compose(outer, inner) -> Jet1Enclosure:
    """First-order chain rule: the value and d1 of :func:`jet2_compose`,
    bit for bit, from jets of either order."""
    return _compose_first(outer, inner)[0]


def jet2_compose(outer: Jet2Enclosure, inner: Jet2Enclosure) -> Jet2Enclosure:
    """Order-2 chain rule: jet of (eps, x) -> outer(eps, inner(eps, x)).

    Precondition: ``outer`` was computed over a domain whose state part
    contains ``inner.value`` (the caller arranges this); the eps variable is
    shared between the two jets.
    """
    first, (vlo, vhi) = _compose_first(outer, inner)
    d2lo, d2hi = compose_d2(outer.d1.lo, outer.d1.hi, outer.d2lo, outer.d2hi,
                            vlo, vhi, inner.d2lo, inner.d2hi)
    return Jet2Enclosure(first.value, first.d1, d2lo, d2hi)


def jet1_stack(a, b) -> Jet1Enclosure:
    """Concatenate the values and d1 blocks of two jets over the same
    variables."""
    if a.nvars != b.nvars:
        raise IntervalError("stacked jets must share variables")
    return Jet1Enclosure(a.value.concat(b.value),
                         IntervalMatrix(np.vstack([a.d1.lo, b.d1.lo]),
                                        np.vstack([a.d1.hi, b.d1.hi])))


def jet2_stack(a: Jet2Enclosure, b: Jet2Enclosure) -> Jet2Enclosure:
    """Concatenate outputs of two jets over the same variables."""
    first = jet1_stack(a, b)
    d2lo = np.concatenate([a.d2lo, b.d2lo], axis=0)
    d2hi = np.concatenate([a.d2hi, b.d2hi], axis=0)
    return Jet2Enclosure(first.value, first.d1, d2lo, d2hi)
