"""Parameterized interval Newton certification.

Given enclosure oracles for f(x, y) and its state derivative, the operator

    N(y0, X, Y) = y0 - [Df_X(Y)]^-1 [f_X(y0)]

is evaluated with a verified interval solve.  ``N(y0, X, Y) strictly inside
Y`` certifies a unique C^r zero function q : X -> Y whose graph lies in N;
iterating the step with intersections then refines the enclosure without
losing the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .intervals import IntervalBox, IntervalError, _json_pairs
from .matrices import IntervalMatrix, LinalgError, ilinsolve


@dataclass(frozen=True)
class FunctionOracle:
    """Containment-correct enclosure oracles for f and its state derivative.

    ``eval(paramBox, stateBox)`` encloses {f(x, y)}, and
    ``deriv(paramBox, stateBox)`` encloses the family of state Jacobians
    D(f_x)(y) over the two boxes.
    """

    eval: Callable[[IntervalBox, IntervalBox], IntervalBox]
    deriv: Callable[[IntervalBox, IntervalBox], IntervalMatrix]


@dataclass
class NewtonCertificate:
    param_box: IntervalBox
    candidate_box: IntervalBox
    refined: IntervalBox
    verified: bool
    iterations: int = 0
    message: str = ""

    def to_jsonable(self) -> dict:
        return {
            "verified": self.verified,
            "iterations": self.iterations,
            "message": self.message,
            "paramBox": _json_pairs(self.param_box),
            "candidateBox": _json_pairs(self.candidate_box),
            "refined": _json_pairs(self.refined),
        }


def newton_step(y0, x_box: IntervalBox, y_box: IntervalBox, f: FunctionOracle) -> IntervalBox:
    """One interval Newton step N(y0, X, Y).

    ``y0`` must lie in the interior of Y; raises :class:`LinalgError` when
    the derivative enclosure cannot be verified invertible.
    """
    y0 = np.asarray(y0, dtype=float)
    if not IntervalBox.point(y0).is_interior_subset(y_box):
        raise IntervalError("newton_step needs y0 in the interior of Y")
    df = f.deriv(x_box, y_box)
    fy0 = f.eval(x_box, IntervalBox.point(y0))
    delta = ilinsolve(df, fy0)
    return IntervalBox.point(y0) - delta


def newton_verify(
    f: FunctionOracle,
    x_box: IntervalBox,
    y_box: IntervalBox,
    y0=None,
    max_refine: int = 8,
) -> NewtonCertificate:
    """Certify existence/uniqueness of a zero family over the parameter box.

    On success the certificate has ``verified=True`` and ``refined`` strictly
    inside the candidate box; semantically there is a unique C^r function
    q : X -> Y with f(x, q(x)) = 0 and graph values inside ``refined``.
    Failures return ``verified=False`` with diagnostics instead of raising.
    """
    if y0 is None:
        y0 = y_box.mid()
    try:
        n0 = newton_step(y0, x_box, y_box, f)
    except (LinalgError, IntervalError) as exc:
        return NewtonCertificate(x_box, y_box, y_box, False, 0, f"first step failed: {exc}")
    if not n0.is_interior_subset(y_box):
        return NewtonCertificate(
            x_box, y_box, n0, False, 1,
            "N(y0,X,Y) is not strictly inside Y (no contraction)",
        )
    current = n0.intersect(y_box)
    iters = 1
    # contraction certified; keep refining by intersection
    for _ in range(max_refine):
        try:
            nxt = newton_step(current.mid(), x_box, current, f)
        except (LinalgError, IntervalError):
            break
        refined = nxt.intersect(current)
        if refined is None:
            # cannot happen for a true zero family; keep the sound enclosure
            break
        iters += 1
        stalled = refined.max_width() >= current.max_width() * 0.9
        current = refined
        if stalled:
            break
    return NewtonCertificate(x_box, y_box, current, True, iters, "verified")
