"""Implicit-function enclosures: kappa with g(eps, x, kappa(eps, x)) = 0.

The image enclosure comes from the parameterized interval Newton method:
once ``k0 - [dg/dk(X,K)]^-1 [g(X,k0)]`` lands strictly inside K, every
(eps, x) in X has a unique kappa(eps, x) in that step's box.  With
w = (eps, x), the derivatives follow from interval solves of the
differentiated identity,

    dk/dw in -[dg/dk]^-1 [dg/dw],    d2k/dw2 in -[dg/dk]^-1 (D^T g'' D),

where D = [I; dk/dw] stacks the identity on w over the kappa Jacobian and
g'' is the Hessian of g in (w, kappa).  Exact zeros of g'' (for instance
g_ex, g_kx and g_xx of a projection condition) stay exact zeros through
the contraction, so no term needs to be dropped by hand.

The Newton step and dk/dw read only values and first derivatives of g, so
they take the oracle's ``first`` when it has one; only the second-order
solve of :func:`implicit_jet` reads its order-2 ``jet``.
:func:`implicit_jet1` stops before that solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels as ku
from .intervals import IntervalBox, IntervalError
from .jets import Jet1Enclosure, Jet2Enclosure
from .matrices import IntervalMatrix, imatsolve
from .newton import FunctionOracle, newton_verify


class ImplicitContractionError(IntervalError):
    """Newton contraction failed; carries the offending box."""

    def __init__(self, message: str, box: IntervalBox):
        super().__init__(message)
        self.box = box


@dataclass(frozen=True)
class GOracle:
    """Order-2 jet oracle for g(eps, x, kappa).

    ``jet(X, K)`` returns a Jet2Enclosure with variable order
    (eps, x_1..x_kx, kappa_1..kappa_kk) over the boxes X (dim 1+kx, eps
    first) and K (dim kk); the output dimension equals kk.  ``first(X, K)``
    returns the value and d1 of ``jet(X, K)`` as a :class:`Jet1Enclosure`,
    without the second derivatives: enclosures of the same blocks, bit for
    bit when both are computed alike.  An oracle given only ``jet`` takes
    ``first`` from it.
    """

    kx: int
    kk: int
    jet: Callable[[IntervalBox, IntervalBox], Jet2Enclosure]
    first: Callable[[IntervalBox, IntervalBox], Jet1Enclosure] | None = None

    def __post_init__(self):
        if self.first is None:
            object.__setattr__(self, "first",
                               lambda x_box, k_box: self.jet(x_box, k_box).order1())

    def kappa_cols(self) -> list[int]:
        return list(range(1 + self.kx, 1 + self.kx + self.kk))


@dataclass
class ImplicitEnclosure:
    """Containment-correct image and derivative blocks over the domain."""

    domain: IntervalBox
    image: IntervalBox


def _dg_dk(g: GOracle, jet: Jet2Enclosure) -> IntervalMatrix:
    cols = g.kappa_cols()
    return jet.d1[:, cols]


def implicit_enclose(g: GOracle, x_box: IntervalBox, k_box: IntervalBox, k0=None) -> ImplicitEnclosure:
    """Verify kappa(eps, x) in K for all (eps, x) in X by one interval Newton step.

    The image is N(k0, X, K) intersected with K, from the step whose landing
    strictly inside K certifies existence and uniqueness; k0 defaults to
    mid(K).  Raises :class:`ImplicitContractionError` when that step does not
    land strictly inside K (shrink X or enlarge K and retry).
    """
    if x_box.dim != 1 + g.kx or k_box.dim != g.kk:
        raise IntervalError("implicit_enclose: box dimensions do not match oracle")

    def ev(xb: IntervalBox, kb: IntervalBox) -> IntervalBox:
        return g.first(xb, kb).value

    def dv(xb: IntervalBox, kb: IntervalBox) -> IntervalMatrix:
        return _dg_dk(g, g.first(xb, kb))

    cert = newton_verify(FunctionOracle(ev, dv), x_box, k_box, y0=k0, max_refine=0)
    if not cert.verified:
        raise ImplicitContractionError(
            f"implicit contraction failed: {cert.message}", cert.refined
        )
    return ImplicitEnclosure(domain=x_box, image=cert.refined)


def implicit_first(g: GOracle, x_box: IntervalBox, k_box: IntervalBox) -> tuple[IntervalMatrix, IntervalMatrix]:
    """(dk/deps, dk/dx) enclosures over X, evaluated on the verified K."""
    jet = g.first(x_box, k_box)
    nw = 1 + g.kx
    d1 = -imatsolve(_dg_dk(g, jet), jet.d1[:, :nw])
    return d1[:, :1], d1[:, 1:]


def _second_rhs(jet: Jet2Enclosure, dk: IntervalMatrix):
    """D^T g'' D over w = (eps, x), shape (kk, nw, nw), with D = [I; dk/dw].

    The kappa side is contracted first: T = g''[:, w, :] + dk^T g''[:, k, :],
    then R = T[:, :, w] + T[:, :, k] dk.  The identity part of D is added,
    not multiplied, so it costs no rounding.
    """
    nw = dk.shape[1]
    glo, ghi = jet.d2lo, jet.d2hi
    tlo, thi = ku.vadd(glo[:, :nw, :], ghi[:, :nw, :],
                       *ku.imulsum(dk.lo.T[None, :, None, :], dk.hi.T[None, :, None, :],
                                   glo[:, None, nw:, :].transpose(0, 1, 3, 2),
                                   ghi[:, None, nw:, :].transpose(0, 1, 3, 2)))
    return ku.vadd(tlo[:, :, :nw], thi[:, :, :nw],
                   *ku.imulsum(tlo[:, :, None, nw:], thi[:, :, None, nw:],
                               dk.lo.T[None, None], dk.hi.T[None, None]))


def _dk_dw(firsts: tuple[IntervalMatrix, IntervalMatrix]) -> IntervalMatrix:
    d_eps, d_x = firsts
    return IntervalMatrix(np.hstack([d_eps.lo, d_x.lo]), np.hstack([d_eps.hi, d_x.hi]))


def implicit_mixed_second(
    g: GOracle,
    x_box: IntervalBox,
    k_box: IntervalBox,
    firsts: tuple[IntervalMatrix, IntervalMatrix],
) -> IntervalMatrix:
    """Enclosure of d2 kappa / deps dx (kk x kx) over X: the eps-x block of
    -[dg/dk]^-1 (D^T g'' D)."""
    jet = g.jet(x_box, k_box)
    rlo, rhi = _second_rhs(jet, _dk_dw(firsts))
    return -imatsolve(_dg_dk(g, jet), IntervalMatrix(rlo[:, 0, 1:], rhi[:, 0, 1:]))


def implicit_jet1(g: GOracle, x_box: IntervalBox, k_box: IntervalBox) -> Jet1Enclosure:
    """Order-1 jet of kappa over w = (eps, x) on the verified image
    ``k_box``: the value and d1 of :func:`implicit_jet`, bit for bit,
    without its second-order solve."""
    return Jet1Enclosure(k_box, _dk_dw(implicit_first(g, x_box, k_box)))


def implicit_jet(g: GOracle, x_box: IntervalBox, k_box: IntervalBox) -> Jet2Enclosure:
    """Order-2 jet of kappa over w = (eps, x) on the verified image ``k_box``."""
    dk = implicit_jet1(g, x_box, k_box).d1
    jet = g.jet(x_box, k_box)
    kk, nw = dk.shape
    rlo, rhi = _second_rhs(jet, dk)
    d2 = -imatsolve(_dg_dk(g, jet), IntervalMatrix(rlo.reshape(kk, nw * nw), rhi.reshape(kk, nw * nw)))
    return Jet2Enclosure(k_box, dk, d2.lo.reshape(kk, nw, nw), d2.hi.reshape(kk, nw, nw))
