"""Implicit-function enclosures: kappa with g(eps, x, kappa(eps, x)) = 0.

The image enclosure comes from the parameterized interval Newton method:
once ``k0 - [dg/dk(X,K)]^-1 [g(X,k0)]`` lands strictly inside K, every
(eps, x) in X has a unique kappa(eps, x) in the refined box.  With
w = (eps, x), the derivatives follow from interval solves of the
differentiated identity,

    dk/dw in -[dg/dk]^-1 [dg/dw],    d2k/dw2 in -[dg/dk]^-1 (D^T g'' D),

where D = [I; dk/dw] stacks the identity on w over the kappa Jacobian and
g'' is the Hessian of g in (w, kappa).  Exact zeros of g'' (for instance
g_ex, g_kx and g_xx of a projection condition) stay exact zeros through
the contraction, so no term needs to be dropped by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels as ku
from .intervals import IntervalBox, IntervalError
from .jets import Jet2Enclosure
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
    first) and K (dim kk); the output dimension equals kk.
    """

    kx: int
    kk: int
    jet: Callable[[IntervalBox, IntervalBox], Jet2Enclosure]

    def kappa_cols(self) -> list[int]:
        return list(range(1 + self.kx, 1 + self.kx + self.kk))


@dataclass
class ImplicitEnclosure:
    """Containment-correct image and derivative blocks over the domain."""

    domain: IntervalBox
    image: IntervalBox


def _dg_dk(g: GOracle, jet: Jet2Enclosure) -> IntervalMatrix:
    cols = g.kappa_cols()
    return IntervalMatrix(jet.d1.lo[:, cols], jet.d1.hi[:, cols])


def implicit_enclose(g: GOracle, x_box: IntervalBox, k_box: IntervalBox, k0=None,
                     max_refine: int = 8) -> ImplicitEnclosure:
    """Verify kappa(eps, x) in K for all (eps, x) in X; refined image returned.

    Raises :class:`ImplicitContractionError` when the Newton contraction
    cannot be verified (shrink X or enlarge K and retry).
    """
    if x_box.dim != 1 + g.kx or k_box.dim != g.kk:
        raise IntervalError("implicit_enclose: box dimensions do not match oracle")

    def ev(xb: IntervalBox, kb: IntervalBox) -> IntervalBox:
        return g.jet(xb, kb).value

    def dv(xb: IntervalBox, kb: IntervalBox) -> IntervalMatrix:
        return _dg_dk(g, g.jet(xb, kb))

    cert = newton_verify(FunctionOracle(ev, dv), x_box, k_box, y0=k0, max_refine=max_refine)
    if not cert.verified:
        raise ImplicitContractionError(
            f"implicit contraction failed: {cert.message}", cert.refined
        )
    return ImplicitEnclosure(domain=x_box, image=cert.refined)


def implicit_first(g: GOracle, x_box: IntervalBox, k_box: IntervalBox) -> tuple[IntervalMatrix, IntervalMatrix]:
    """(dk/deps, dk/dx) enclosures over X, evaluated on the verified K."""
    jet = g.jet(x_box, k_box)
    nw = 1 + g.kx
    d1 = -imatsolve(_dg_dk(g, jet), IntervalMatrix(jet.d1.lo[:, :nw], jet.d1.hi[:, :nw]))
    return (IntervalMatrix(d1.lo[:, :1], d1.hi[:, :1]),
            IntervalMatrix(d1.lo[:, 1:], d1.hi[:, 1:]))


def _second_rhs(jet: Jet2Enclosure, dk: IntervalMatrix):
    """D^T g'' D over w = (eps, x), shape (kk, nw, nw), with D = [I; dk/dw].

    The kappa side is contracted first: T = g''[:, w, :] + dk^T g''[:, k, :],
    then R = T[:, :, w] + T[:, :, k] dk.  The identity part of D is added,
    not multiplied, so it costs no rounding.
    """
    nw = dk.shape[1]
    glo, ghi = jet.d2lo, jet.d2hi
    tlo, thi = ku.vadd(glo[:, :nw, :], ghi[:, :nw, :],
                       *ku.imulsum(dk.lo.T[None, :, :, None], dk.hi.T[None, :, :, None],
                                   glo[:, None, nw:, :], ghi[:, None, nw:, :], axis=2))
    return ku.vadd(tlo[:, :, :nw], thi[:, :, :nw],
                   *ku.imulsum(tlo[:, :, nw:, None], thi[:, :, nw:, None],
                               dk.lo[None, None, :, :], dk.hi[None, None, :, :], axis=2))


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


def implicit_jet(g: GOracle, x_box: IntervalBox, k_box: IntervalBox) -> Jet2Enclosure:
    """Order-2 jet of kappa over w = (eps, x) on the verified image ``k_box``."""
    dk = _dk_dw(implicit_first(g, x_box, k_box))
    jet = g.jet(x_box, k_box)
    kk, nw = dk.shape
    rlo, rhi = _second_rhs(jet, dk)
    d2 = -imatsolve(_dg_dk(g, jet), IntervalMatrix(rlo.reshape(kk, nw * nw), rhi.reshape(kk, nw * nw)))
    return Jet2Enclosure(k_box, dk, d2.lo.reshape(kk, nw, nw), d2.hi.reshape(kk, nw, nw))
