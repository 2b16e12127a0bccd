"""Multivariate polynomial maps with interval coefficients.

These serve three roles: vector fields for validated integration, chart
maps (coordinate straightenings) evaluated as order-2 jets, and test
oracles built from closed forms.  Variables follow the package convention:
index 0 is the shared parameter eps, the remaining indices are state
variables; purely autonomous maps simply never reference variable 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import kernels as ku
from .intervals import Interval, IntervalBox, IntervalError
from .jets import Jet2Enclosure
from .matrices import IntervalMatrix


Monomial = tuple[Interval, tuple[int, ...]]


def _as_coeff(c) -> Interval:
    if isinstance(c, Interval):
        return c
    return Interval.point(float(c))


def _times_int(c: Interval, e: int) -> Interval:
    """c * e for an integer e >= 1, widened only at an endpoint whose float
    product is inexact (checked in exact rational arithmetic)."""
    if e == 1:
        return c
    lo, hi = c.lo * e, c.hi * e
    if math.isfinite(lo) and Fraction(lo) != Fraction(c.lo) * e:
        lo = math.nextafter(lo, -math.inf)
    if math.isfinite(hi) and Fraction(hi) != Fraction(c.hi) * e:
        hi = math.nextafter(hi, math.inf)
    return Interval(lo, hi)


def _power(memo: dict, e: int):
    """``x ** e`` for every variable of a box at once, by the recursion of
    ``Interval.__pow__`` (square of ``x ** (e // 2)``, times x for odd e),
    so each entry is bit-identical to the scalar power; ``memo`` maps an
    exponent to its (lo, hi) arrays and holds ``x ** 1``."""
    if e not in memo:
        half = _power(memo, e // 2)
        sq = ku.vsqr(*half)
        memo[e] = ku.vmul(*sq, *memo[1]) if e % 2 else sq
    return memo[e]


class PolyMap:
    """A polynomial map R^nvars -> R^m given by monomial lists."""

    def __init__(self, nvars: int, components: Sequence[Sequence[Monomial]]):
        self.nvars = int(nvars)
        comps: list[list[Monomial]] = []
        for comp in components:
            mono: list[Monomial] = []
            for c, exps in comp:
                c = _as_coeff(c)
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.nvars:
                    raise IntervalError("monomial exponent tuple has wrong length")
                if any(e < 0 for e in exps):
                    raise IntervalError("negative exponents are not polynomial")
                if c.lo == 0.0 and c.hi == 0.0:
                    continue
                mono.append((c, exps))
            comps.append(mono)
        self.components = comps
        self._derivs = None
        self._compiled = None

    @property
    def out_dim(self) -> int:
        return len(self.components)

    # -- calculus ----------------------------------------------------------

    def partial(self, v: int) -> "PolyMap":
        comps = []
        for comp in self.components:
            out = []
            for c, exps in comp:
                e = exps[v]
                if e == 0:
                    continue
                nexps = exps[:v] + (e - 1,) + exps[v + 1 :]
                out.append((_times_int(c, e), nexps))
            comps.append(out)
        return PolyMap(self.nvars, comps)

    def derivatives(self) -> tuple[list["PolyMap"], dict[tuple[int, int], "PolyMap"]]:
        """First partials ``d1[v]`` and upper-triangle second partials
        ``d2[a, b] = d1[a].partial(b)`` (a <= b), built on first use and kept:
        a map is never changed after construction."""
        if self._derivs is None:
            nv = self.nvars
            d1 = [self.partial(v) for v in range(nv)]
            d2 = {(a, b): d1[a].partial(b) for a in range(nv) for b in range(a, nv)}
            self._derivs = (d1, d2)
        return self._derivs

    # -- evaluation ----------------------------------------------------------

    def _compile(self):
        """Monomials compiled for ``eval_box``, built on first use and kept:
        coefficient endpoints; per variable that appears, the terms it
        multiplies, its distinct exponents and each term's index into them;
        and each term's (component, position) slot in the zero-padded fold
        grid."""
        if self._compiled is None:
            flat = [(i, j, c, exps) for i, comp in enumerate(self.components)
                    for j, (c, exps) in enumerate(comp)]
            clo = np.array([c.lo for _, _, c, _ in flat], dtype=float)
            chi = np.array([c.hi for _, _, c, _ in flat], dtype=float)
            E = np.array([exps for *_, exps in flat], dtype=int).reshape(len(flat), self.nvars)
            factors = []
            for v in range(self.nvars):
                rows = np.nonzero(E[:, v])[0]
                if rows.size:
                    exps, which = np.unique(E[rows, v], return_inverse=True)
                    factors.append((v, rows, exps, which))
            slot = (np.array([i for i, *_ in flat], dtype=int),
                    np.array([j for _, j, *_ in flat], dtype=int))
            width = max((len(comp) for comp in self.components), default=0)
            self._compiled = (clo, chi, factors, slot, width)
        return self._compiled

    @np.errstate(over="ignore", invalid="ignore")
    def eval_box(self, box: IntervalBox) -> IntervalBox:
        """Enclosure of the map over the box.  Each term is its coefficient
        times ``x_v ** e`` for the variables in order, and each component
        sums its terms in monomial order, as interval scalar arithmetic
        would; the powers of all variables are one array recursion per
        exponent, and the terms of all components go through one array
        product per variable.  A power, term or sum with a non-finite
        endpoint raises :class:`IntervalError`, with numpy's overflow
        warnings off."""
        if box.dim != self.nvars:
            raise IntervalError(f"expected {self.nvars} variables, got {box.dim}")
        clo, chi, factors, slot, width = self._compile()
        memo = {1: (box.lo, box.hi)}
        tlo, thi = clo.copy(), chi.copy()
        for v, rows, exps, which in factors:
            pows = [_power(memo, int(e)) for e in exps]
            plo = np.array([p[0][v] for p in pows])[which]
            phi = np.array([p[1][v] for p in pows])[which]
            if not (np.isfinite(plo).all() and np.isfinite(phi).all()):
                raise IntervalError(f"polynomial power overflows at variable {v}")
            mlo, mhi = ku.vmul(tlo[rows], thi[rows], plo, phi)
            if not (np.isfinite(mlo).all() and np.isfinite(mhi).all()):
                raise IntervalError(f"polynomial term overflows at variable {v}")
            tlo[rows], thi[rows] = mlo, mhi
        glo = np.zeros((self.out_dim, width))
        ghi = np.zeros((self.out_dim, width))
        glo[slot], ghi[slot] = tlo, thi
        out_lo = np.zeros(self.out_dim)
        out_hi = np.zeros(self.out_dim)
        for j in range(width):
            out_lo, out_hi = ku.vadd(out_lo, out_hi, glo[:, j], ghi[:, j])
        return IntervalBox(out_lo, out_hi)

    def eval_point(self, x) -> np.ndarray:
        """Midpoint (nonrigorous) evaluation."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.out_dim)
        for i, comp in enumerate(self.components):
            s = 0.0
            for c, exps in comp:
                t = c.mid
                for v, e in enumerate(exps):
                    if e:
                        t *= x[v] ** e
                s += t
            out[i] = s
        return out

    def jet(self, box: IntervalBox) -> Jet2Enclosure:
        """Order-2 jet enclosure over the box (variables include eps)."""
        d1maps, d2maps = self.derivatives()
        value = self.eval_box(box)
        cols = [pv.eval_box(box) for pv in d1maps]
        d1lo = np.stack([c.lo for c in cols], axis=1)
        d1hi = np.stack([c.hi for c in cols], axis=1)
        nv = self.nvars
        d2lo = np.zeros((self.out_dim, nv, nv))
        d2hi = np.zeros((self.out_dim, nv, nv))
        for (a, b), pm in d2maps.items():
            sec = pm.eval_box(box)
            d2lo[:, a, b] = d2lo[:, b, a] = sec.lo
            d2hi[:, a, b] = d2hi[:, b, a] = sec.hi
        return Jet2Enclosure(value, IntervalMatrix(d1lo, d1hi), d2lo, d2hi)

    def jet_point(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonrigorous value/Jacobian/Hessian at a point."""
        x = np.asarray(x, dtype=float)
        d1maps, d2maps = self.derivatives()
        val = self.eval_point(x)
        d1 = np.stack([p.eval_point(x) for p in d1maps], axis=1)
        nv = self.nvars
        d2 = np.zeros((self.out_dim, nv, nv))
        for (a, b), pm in d2maps.items():
            d2[:, a, b] = d2[:, b, a] = pm.eval_point(x)
        return val, d1, d2

    @staticmethod
    def affine(nvars: int, const, matrix) -> "PolyMap":
        """Map x -> const + matrix @ vars, with interval-aware entries."""
        const = list(const)
        comps = []
        m = len(const)
        for i in range(m):
            mono: list[Monomial] = []
            c = _as_coeff(const[i])
            if not (c.lo == 0.0 and c.hi == 0.0):
                mono.append((c, (0,) * nvars))
            for v in range(nvars):
                a = _as_coeff(matrix[i][v])
                if a.lo == 0.0 and a.hi == 0.0:
                    continue
                exps = tuple(1 if u == v else 0 for u in range(nvars))
                mono.append((a, exps))
            comps.append(mono)
        return PolyMap(nvars, comps)


@dataclass(frozen=True)
class VectorFieldDef:
    """Polynomial vector field q' = f(eps, q) on R^dimension.

    ``rhs`` is a PolyMap with nvars = 1 + dimension (eps first).  Only
    polynomial right-hand sides are supported; coefficients must be finite
    (enforced by the Interval invariant).
    """

    dimension: int
    rhs: PolyMap

    def __post_init__(self):
        if self.rhs.nvars != self.dimension + 1:
            raise IntervalError("field rhs must have 1 + dimension variables")
        if self.rhs.out_dim != self.dimension:
            raise IntervalError("field rhs must have `dimension` components")

    def eval_box(self, eps: Interval, x: IntervalBox) -> IntervalBox:
        box = IntervalBox(np.concatenate([[eps.lo], x.lo]), np.concatenate([[eps.hi], x.hi]))
        return self.rhs.eval_box(box)

    def eval_point(self, eps: float, x) -> np.ndarray:
        return self.rhs.eval_point(np.concatenate([[eps], np.asarray(x, dtype=float)]))

    def negated(self) -> "VectorFieldDef":
        cached = getattr(self, "_neg", None)
        if cached is None:
            comps = [[(-c, exps) for c, exps in comp] for comp in self.rhs.components]
            cached = VectorFieldDef(self.dimension, PolyMap(self.rhs.nvars, comps))
            object.__setattr__(self, "_neg", cached)
            object.__setattr__(cached, "_neg", self)
        return cached
