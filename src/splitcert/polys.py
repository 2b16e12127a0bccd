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
        self._stacked = None

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
        coefficient endpoints; the factors (see below); and each term's
        (component, position) slot in the zero-padded fold grid.

        The factors are the distinct exponents ``exps`` that the terms use,
        the (exponent index, variable) pairs ``used`` that appear, and, per
        factor position s, the terms with more than s variables, the s-th
        variable of each (its variables in increasing order) and that
        variable's exponent index."""
        if self._compiled is None:
            flat = [(i, j, c, exps) for i, comp in enumerate(self.components)
                    for j, (c, exps) in enumerate(comp)]
            clo = np.array([c.lo for _, _, c, _ in flat], dtype=float)
            chi = np.array([c.hi for _, _, c, _ in flat], dtype=float)
            E = np.array([exps for *_, exps in flat], dtype=int).reshape(len(flat), self.nvars)
            present = E > 0
            exps, which = np.unique(E[present], return_inverse=True)
            eidx = np.zeros_like(E)
            eidx[present] = which
            rank = np.cumsum(present, axis=1) - 1
            positions = []
            for s in range(int(present.sum(axis=1).max(initial=0))):
                rows, var = np.nonzero(present & (rank == s))
                positions.append((rows, var, eidx[rows, var]))
            used = (which, np.nonzero(present)[1])
            slot = (np.array([i for i, *_ in flat], dtype=int),
                    np.array([j for _, j, *_ in flat], dtype=int))
            width = max((len(comp) for comp in self.components), default=0)
            self._compiled = (clo, chi, (exps, used, positions), slot, width)
        return self._compiled

    @np.errstate(over="ignore", invalid="ignore")
    def eval_box(self, box: IntervalBox) -> IntervalBox:
        """Enclosure of the map over the box.  Each term is its coefficient
        times ``x_v ** e`` for the variables in order, and each component
        sums its terms in monomial order, as interval scalar arithmetic
        would; the powers of all variables are one array recursion per
        exponent, and the terms of all components go through one array
        product per factor position (the s-th variable of each term).  A
        power, term or sum with a non-finite endpoint raises
        :class:`IntervalError`, with numpy's overflow warnings off: it
        names the first variable, in variable order, whose power or
        running product is not finite, as a product per variable would."""
        if box.dim != self.nvars:
            raise IntervalError(f"expected {self.nvars} variables, got {box.dim}")
        clo, chi, (exps, used, positions), slot, width = self._compile()
        memo = {1: (box.lo, box.hi)}
        pows = [ku._ipow(memo, int(e)) for e in exps]
        plo = np.array([p[0] for p in pows]).reshape(len(exps), self.nvars)
        phi = np.array([p[1] for p in pows]).reshape(len(exps), self.nvars)
        tlo, thi = clo.copy(), chi.copy()
        bad_term = []
        for rows, var, e in positions:
            mlo, mhi = ku.vmul(tlo[rows], thi[rows], plo[e, var], phi[e, var])
            if not (np.isfinite(mlo).all() and np.isfinite(mhi).all()):
                bad_term.append(var[~(np.isfinite(mlo) & np.isfinite(mhi))].min())
            tlo[rows], thi[rows] = mlo, mhi
        if bad_term or not (np.isfinite(plo).all() and np.isfinite(phi).all()):
            # only the powers that a term uses count
            ok = np.isfinite(plo[used]) & np.isfinite(phi[used])
            v_pow = used[1][~ok].min(initial=self.nvars)
            v_term = min(bad_term, default=self.nvars)
            if v_pow < self.nvars and v_pow <= v_term:
                raise IntervalError(f"polynomial power overflows at variable {v_pow}")
            if bad_term:
                raise IntervalError(f"polynomial term overflows at variable {v_term}")
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

    def _stacked_map(self) -> tuple["PolyMap", np.ndarray]:
        """The value, first partials and second partials as one map, built on
        first use and kept: the m value components, then the m components of
        each ``d1[v]`` in variable order, then those of each ``d2[a, b]`` in
        the order of :meth:`derivatives`.  Also returns, for each (a, b),
        the index of its second-partial block (both triangles).  The flow's
        field tables compile this same map, so this method and
        :meth:`_split` are the one place that knows the layout."""
        if self._stacked is None:
            d1maps, d2maps = self.derivatives()
            parts = [self, *d1maps, *d2maps.values()]
            stacked = PolyMap(self.nvars, [comp for pm in parts for comp in pm.components])
            pair = np.zeros((self.nvars, self.nvars), dtype=int)
            for k, (a, b) in enumerate(d2maps):
                pair[a, b] = pair[b, a] = k
            self._stacked = (stacked, pair)
        return self._stacked

    def _split(self, flat, pair):
        """Value (m,), Jacobian (m, nv) and mirrored Hessian (m, nv, nv) of
        an array laid out as :meth:`_stacked_map`'s outputs: its endpoints
        for :meth:`jet`, and the column indices of its components for the
        flow's field tables."""
        m, nv = self.out_dim, self.nvars
        d1 = flat[m : m * (1 + nv)].reshape(nv, m).T
        d2 = flat[m * (1 + nv) :].reshape(nv * (nv + 1) // 2, m)[pair].transpose(2, 0, 1)
        return flat[:m], d1, d2

    def jet(self, box: IntervalBox) -> Jet2Enclosure:
        """Order-2 jet enclosure over the box (variables include eps).

        One ``eval_box`` of :meth:`_stacked_map` encloses the value and every
        partial at once.  Each output equals that of its own map's
        ``eval_box`` bit for bit: the powers come from the same recursion,
        each term takes its factors in variable order, and each component
        folds its terms in monomial order.  Past its last term a component
        shorter than the widest adds exact +0.0 padding, which never changes
        a sum that starts at +0.0.  An overflow in any partial raises
        :class:`IntervalError`, as its own evaluation would."""
        stacked, pair = self._stacked_map()
        flat = stacked.eval_box(box)
        vlo, d1lo, d2lo = self._split(flat.lo, pair)
        vhi, d1hi, d2hi = self._split(flat.hi, pair)
        return Jet2Enclosure(IntervalBox(vlo, vhi), IntervalMatrix(d1lo, d1hi), d2lo, d2hi)

    def jet_point(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonrigorous value/Jacobian/Hessian at a point: one ``eval_point``
        of :meth:`_stacked_map`, which evaluates each component as its own
        map would."""
        stacked, pair = self._stacked_map()
        return self._split(stacked.eval_point(x), pair)

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
