"""Validated integration of parameterized polynomial ODEs with order-2 jets.

The integrator transports an order-2 jet (value, first and second partials
with respect to eps and the initial-condition parameters) along the flow of
a polynomial field q' = f(eps, q).  Each step evaluates one batched interval
Taylor series of the solution and of its first and second variational
equations: row 0 starts at the current set and gives the Taylor polynomial,
row 1 starts at a Picard rough enclosure of the step and gives the Lagrange
remainders.  The Gronwall-type rough bounds that start row 1's variational
blocks come from its own order-0 field tables.

The transported set is a Lohner-style QR-factored representation with a
doubleton term carrying the initial-condition/parameter correlation
(x in xhat + C r0 + Q r), which controls the wrapping effect over long
transport times.

Step sizes are powers of two, adapted by a coefficient-decay heuristic, so
runs are deterministic; the final step is clipped to land on T.  A step
whose rough enclosure fails or whose enclosures are not finite is halved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels as ku
from .intervals import Interval, IntervalBox, IntervalError
from .jets import Jet2Enclosure, compose_d2, with_eps_row
from .matrices import IntervalMatrix, iinverse
from .polys import PolyMap, VectorFieldDef


class FlowError(IntervalError):
    """Validated integration could not complete; message carries diagnostics."""


@dataclass(frozen=True)
class FlowSettings:
    taylor_order: int = 12
    initial_step: float = 1.0 / 32.0
    min_step: float = 1.0 / 2**20
    wrapping_control: str = "parallelepiped"
    max_steps: int = 100000

    def __post_init__(self):
        if self.taylor_order < 2:
            raise IntervalError("taylor_order must be at least 2")
        if not (0 < self.min_step <= self.initial_step):
            raise IntervalError("steps must be positive with min_step <= initial_step")
        if self.wrapping_control != "parallelepiped":
            raise IntervalError("wrapping_control must be 'parallelepiped' "
                                f"(the only representation), got {self.wrapping_control!r}")


def _iexp_ub(x: float) -> float:
    """Rigorous upper bound of e^x for x >= 0 (interval Taylor plus tail)."""
    if x <= 0.0:
        return 1.0
    if x > 1.0:
        half = _iexp_ub(x / 2.0)
        return (Interval.point(half) * Interval.point(half)).hi
    acc = Interval.point(1.0)
    term = Interval.point(1.0)
    xi = Interval(x, x)
    for k in range(1, 15):
        term = term * xi * (1.0 / k)
        acc = acc + term
    return (acc + term * 2.0).hi  # geometric tail bound, ratio <= 1/15


# ---------------------------------------------------------------------------
# compiled field: series bank of products, monomial tables

class _FieldTables:
    """Symbolic derivatives of a field compiled to a shared product bank.

    Bank rows are time series: row 0 is the constant series, rows 1..n alias
    the state components, later rows are pairwise products of earlier rows
    (grouped by depth so one batched convolution per depth fills an order).
    A table entry is (coefficient, eps power, bank row).
    """

    def __init__(self, field: VectorFieldDef):
        self.field = field
        n = field.dimension
        self.n = n
        self._row_of: dict[tuple, int] = {("const",): 0}
        for v in range(n):
            self._row_of[(("pw", v, 1),)] = 1 + v
        self._products: list[tuple[int, int]] = []  # (left_row, right_row)
        self._depth: list[int] = [0] * (1 + n)

        d1, d2 = field.rhs.derivatives()
        self.f = self._compile(field.rhs)
        aeps = self._compile(d1[0])
        A = [self._compile(d1[1 + a]) for a in range(n)]
        Hxx = [self._compile(d2[1 + a, 1 + b]) for a in range(n) for b in range(a, n)]
        Hxe = [self._compile(d2[0, 1 + a]) for a in range(n)]
        Hee = self._compile(d2[0, 0])
        self.n_rows = 1 + n + len(self._products)
        # grouped (padded rectangular) tables: one fused evaluation per order
        self.g_f = _make_group([self.f])
        self.g_var = _make_group([self.f, *A, aeps, *Hxx, *Hxe, Hee])
        self.xx_a = np.array([a for a in range(n) for b in range(a, n)], dtype=int)
        self.xx_b = np.array([b for a in range(n) for b in range(a, n)], dtype=int)
        # products grouped by depth for batched extension
        groups: dict[int, list[int]] = {}
        for i, _ in enumerate(self._products):
            row = 1 + n + i
            groups.setdefault(self._depth[row], []).append(row)
        self.depth_groups = [
            (np.array([self._products[r - 1 - n][0] for r in rows]),
             np.array([self._products[r - 1 - n][1] for r in rows]),
             np.array(rows))
            for _, rows in sorted(groups.items())
        ]

    def _power_row(self, v: int, e: int) -> int:
        key = (("pw", v, e),)
        if key in self._row_of:
            return self._row_of[key]
        prev = self._power_row(v, e - 1)
        return self._new_product(prev, 1 + v, key)

    def _new_product(self, left: int, right: int, key) -> int:
        self._products.append((left, right))
        row = len(self._depth)
        self._row_of[key] = row
        self._depth.append(1 + max(self._depth[left], self._depth[right]))
        return row

    def _monomial_row(self, exps: tuple[int, ...]) -> int:
        fac = tuple(("pw", v, e) for v, e in enumerate(exps) if e)
        if not fac:
            return 0
        if fac in self._row_of:
            return self._row_of[fac]
        row = self._power_row(fac[0][1], fac[0][2])
        for i, (_, v, e) in enumerate(fac[1:], start=2):
            prefix = fac[:i]
            if prefix in self._row_of:
                row = self._row_of[prefix]
                continue
            row = self._new_product(row, self._power_row(v, e), prefix)
        return row

    def _compile(self, pm: PolyMap):
        """Per component: (coeff_lo, coeff_hi, eps_pow, bank_row) arrays."""
        out = []
        for comp in pm.components:
            clo = np.array([c.lo for c, _ in comp])
            chi = np.array([c.hi for c, _ in comp])
            epow = np.array([e[0] for _, e in comp], dtype=int)
            rows = np.array([self._monomial_row(tuple(e[1:])) for _, e in comp], dtype=int)
            out.append((clo, chi, epow, rows))
        return out


def _make_group(tables):
    """Pad compiled tables into rectangular arrays for fused evaluation."""
    comps = []
    for t in tables:
        comps.extend(t)
    width = max((len(c[0]) for c in comps), default=0)
    width = max(width, 1)
    C = len(comps)
    clo = np.zeros((C, width)); chi = np.zeros((C, width))
    epw = np.zeros((C, width), dtype=int)
    rows = np.zeros((C, width), dtype=int)
    for i, (lo, hi, ep, rw) in enumerate(comps):
        k = len(lo)
        clo[i, :k] = lo; chi[i, :k] = hi
        epw[i, :k] = ep; rows[i, :k] = rw
    return {"clo": clo, "chi": chi, "epow": epw, "rows": rows}


def _tables(field: VectorFieldDef) -> _FieldTables:
    """The field's compiled tables, built on first use and kept on the
    (frozen) field itself."""
    tb = getattr(field, "_tables", None)
    if tb is None:
        tb = _FieldTables(field)
        object.__setattr__(field, "_tables", tb)
    return tb


class _Resolved:
    """Field table groups with eps powers folded into the coefficients."""

    def __init__(self, tb: _FieldTables, eps: Interval):
        self.tb = tb
        self.eps = eps
        maxp = int(max(tb.g_var["epow"].max(), tb.g_f["epow"].max(), 0))
        plo = np.zeros(maxp + 1); phi = np.zeros(maxp + 1)
        for e in range(maxp + 1):
            ep = eps ** e
            plo[e], phi[e] = ep.lo, ep.hi

        def resolve(g):
            rlo, rhi = ku.vmul(g["clo"], g["chi"], plo[g["epow"]], phi[g["epow"]])
            return {"clo": rlo, "chi": rhi, "rows": g["rows"]}

        self.g_f = resolve(tb.g_f)
        self.g_var = resolve(tb.g_var)


# ---------------------------------------------------------------------------
# series engine

class _Series:
    """Order-by-order interval Taylor series of a batch of initial boxes.

    Row b of every block is the series of initial box b: state z (B, P+2, n)
    and, when ``m > 0``, the variational blocks V (B, P+2, n, m) and
    S (B, P+2, n, m, m).  All rows share the resolved field coefficients,
    so every kernel call of an order step serves the whole batch.

    The constructor fills the bank at order 0 and the field tables at order
    0 (``Alo[:, 0]``, ... enclose f's derivatives over the initial boxes);
    a series with variational blocks then needs :meth:`start` before
    :meth:`extend_to`.

    Cauchy products use the fused ``ku.imulsum`` path while every stored
    block is scaled (``ku.is_scaled``): each order step is checked once,
    after it ran, and rerun through the checked kernel when one of the
    blocks it wrote fails the check.  A step writes only its own slots, so
    the rerun overwrites everything the unchecked pass wrote.
    """

    def __init__(self, rf: _Resolved, zlo, zhi, P: int, m: int = 0):
        tb = rf.tb
        n = tb.n
        B = zlo.shape[0]
        self.rf = rf
        self.tb = tb
        self.P = P
        self.n = n
        self.m = m
        self.banklo = np.zeros((B, tb.n_rows, P + 2))
        self.bankhi = np.zeros((B, tb.n_rows, P + 2))
        self.banklo[:, 0, 0] = self.bankhi[:, 0, 0] = 1.0
        self.zlo = np.zeros((B, P + 2, n)); self.zhi = np.zeros((B, P + 2, n))
        self.zlo[:, 0] = zlo; self.zhi[:, 0] = zhi
        self.with_var = m > 0
        if self.with_var:
            def blank(*shape):
                return np.zeros((B, P + 2, *shape)), np.zeros((B, P + 2, *shape))
            self.Vlo, self.Vhi = blank(n, m)
            self.Slo, self.Shi = blank(n, m, m)
            self.Alo, self.Ahi = blank(n, n)
            self.aelo, self.aehi = blank(n)
            self.Hxxlo, self.Hxxhi = blank(n, n, n)
            self.Hxelo, self.Hxehi = blank(n, n)
            self.Heelo, self.Heehi = blank(n)
            self.Tlo, self.Thi = blank(n, n, m)
        g = rf.g_var if self.with_var else rf.g_f
        self.scaled = ku.is_scaled(g["clo"], g["chi"], zlo, zhi)
        self._filled = -1
        self._checked(self._first_step, 0)

    def start(self, V0, S0):
        """Set the variational initial data: (lo, hi) of shape (B, n, m)
        and (B, n, m, m)."""
        self.Vlo[:, 0], self.Vhi[:, 0] = V0
        self.Slo[:, 0], self.Shi[:, 0] = S0
        self.scaled = self.scaled and ku.is_scaled(*V0, *S0)

    def _checked(self, step, k: int):
        if self.scaled:
            step(k, True)
            if ku.is_scaled(*self._written(k)):
                return
            self.scaled = False
        step(k, False)

    def _written(self, k: int):
        """The product operands that order step k writes."""
        out = [self.banklo[:, :, k : k + 2], self.bankhi[:, :, k : k + 2]]
        if self.with_var:
            out += [self.Alo[:, k], self.Ahi[:, k], self.Hxxlo[:, k], self.Hxxhi[:, k],
                    self.Hxelo[:, k], self.Hxehi[:, k], self.Tlo[:, k], self.Thi[:, k],
                    self.Vlo[:, k + 1], self.Vhi[:, k + 1], self.Slo[:, k + 1], self.Shi[:, k + 1]]
        return out

    def _first_step(self, k: int, fast: bool):
        self._extend_bank(0, fast)
        self._field_step(0, fast)

    def _extend_bank(self, k: int, fast: bool):
        self.banklo[:, 1 : 1 + self.n, k] = self.zlo[:, k]
        self.bankhi[:, 1 : 1 + self.n, k] = self.zhi[:, k]
        for lidx, ridx, rows in self.tb.depth_groups:
            slo, shi = ku.imulsum(self.banklo[:, lidx, : k + 1], self.bankhi[:, lidx, : k + 1],
                                  self.banklo[:, ridx, k::-1], self.bankhi[:, ridx, k::-1],
                                  axis=2, scaled=fast)
            self.banklo[:, rows, k] = slo
            self.bankhi[:, rows, k] = shi

    def extend_to(self, upto: int):
        """Fill coefficients through order ``upto`` (state; V/S when enabled)."""
        for k in range(self._filled + 1, upto):
            self._checked(self._order_step, k)
        self._filled = max(self._filled, upto - 1)

    def _order_step(self, k: int, fast: bool):
        if k > 0:  # the constructor ran the field step at order 0
            self._field_step(k, fast)
        if self.with_var:
            self._var_step(k, fast)

    def _field_step(self, k: int, fast: bool):
        """z_{k+1} and the bank at order k+1; with variational blocks also
        the field's derivative tables at order k."""
        n = self.n
        tb = self.tb
        g = self.rf.g_var if self.with_var else self.rf.g_f
        glo, ghi = ku.imulsum(g["clo"], g["chi"], self.banklo[:, g["rows"], k],
                              self.bankhi[:, g["rows"], k], axis=2, scaled=fast)
        inv = 1.0 / (k + 1)
        self.zlo[:, k + 1], self.zhi[:, k + 1] = ku.vscale(inv, glo[:, :n], ghi[:, :n])
        self._extend_bank(k + 1, fast)
        if not self.with_var:
            return
        i0 = n
        B = glo.shape[0]
        self.Alo[:, k] = glo[:, i0 : i0 + n * n].reshape(B, n, n).transpose(0, 2, 1)
        self.Ahi[:, k] = ghi[:, i0 : i0 + n * n].reshape(B, n, n).transpose(0, 2, 1)
        i0 += n * n
        self.aelo[:, k], self.aehi[:, k] = glo[:, i0 : i0 + n], ghi[:, i0 : i0 + n]; i0 += n
        npairs = n * (n + 1) // 2
        xxlo = glo[:, i0 : i0 + npairs * n].reshape(B, npairs, n).transpose(0, 2, 1)
        xxhi = ghi[:, i0 : i0 + npairs * n].reshape(B, npairs, n).transpose(0, 2, 1)
        i0 += npairs * n
        self.Hxxlo[:, k][:, :, tb.xx_a, tb.xx_b] = xxlo
        self.Hxxhi[:, k][:, :, tb.xx_a, tb.xx_b] = xxhi
        self.Hxxlo[:, k][:, :, tb.xx_b, tb.xx_a] = xxlo
        self.Hxxhi[:, k][:, :, tb.xx_b, tb.xx_a] = xxhi
        self.Hxelo[:, k] = glo[:, i0 : i0 + n * n].reshape(B, n, n).transpose(0, 2, 1)
        self.Hxehi[:, k] = ghi[:, i0 : i0 + n * n].reshape(B, n, n).transpose(0, 2, 1)
        i0 += n * n
        self.Heelo[:, k], self.Heehi[:, k] = glo[:, i0 : i0 + n], ghi[:, i0 : i0 + n]

    def _var_step(self, k: int, fast: bool):
        """V_{k+1}, T_k and S_{k+1} from the tables through order k."""
        inv = 1.0 / (k + 1)
        sl = slice(0, k + 1)
        rs = slice(k, None, -1)
        # V_{k+1} = (sum_{i+j=k} A_i V_j + aeps_k e0^T) / (k+1)
        slo, shi = ku.imulsum(self.Alo[:, sl, :, :, None], self.Ahi[:, sl, :, :, None],
                              self.Vlo[:, rs, None, :, :], self.Vhi[:, rs, None, :, :],
                              axis=(1, 3), scaled=fast)
        src_lo = np.zeros_like(slo); src_hi = np.zeros_like(shi)
        src_lo[:, :, 0] = self.aelo[:, k]; src_hi[:, :, 0] = self.aehi[:, k]
        tlo, thi = ku.vadd(slo, shi, src_lo, src_hi)
        self.Vlo[:, k + 1], self.Vhi[:, k + 1] = ku.vscale(inv, tlo, thi)

        # T_k[c,a,be] = sum_{i+j=k} Hxx_i[c,a,b] V_j[b,be]
        self.Tlo[:, k], self.Thi[:, k] = ku.imulsum(
            self.Hxxlo[:, sl, :, :, :, None], self.Hxxhi[:, sl, :, :, :, None],
            self.Vlo[:, rs, None, None, :, :], self.Vhi[:, rs, None, None, :, :],
            axis=(1, 4), scaled=fast)
        # Q1_k[c,al,be] = sum_{i+j=k} T_i[c,a,be] V_j[a,al]
        q1lo, q1hi = ku.imulsum(self.Tlo[:, sl, :, :, None, :], self.Thi[:, sl, :, :, None, :],
                                self.Vlo[:, rs, None, :, :, None], self.Vhi[:, rs, None, :, :, None],
                                axis=(1, 3), scaled=fast)
        # Q2_k[c,al] = sum_{i+j=k} Hxe_i[c,a] V_j[a,al], added on eps row/col
        q2lo, q2hi = ku.imulsum(self.Hxelo[:, sl, :, :, None], self.Hxehi[:, sl, :, :, None],
                                self.Vlo[:, rs, None, :, :], self.Vhi[:, rs, None, :, :],
                                axis=(1, 3), scaled=fast)
        add_lo = np.zeros_like(q1lo); add_hi = np.zeros_like(q1hi)
        add_lo[:, :, 0, :] = q2lo; add_hi[:, :, 0, :] = q2hi
        q1lo, q1hi = ku.vadd(q1lo, q1hi, add_lo, add_hi)
        add_lo = np.zeros_like(q1lo); add_hi = np.zeros_like(q1hi)
        add_lo[:, :, :, 0] = q2lo; add_hi[:, :, :, 0] = q2hi
        q1lo, q1hi = ku.vadd(q1lo, q1hi, add_lo, add_hi)
        add_lo = np.zeros_like(q1lo); add_hi = np.zeros_like(q1hi)
        add_lo[:, :, 0, 0] = self.Heelo[:, k]; add_hi[:, :, 0, 0] = self.Heehi[:, k]
        q1lo, q1hi = ku.vadd(q1lo, q1hi, add_lo, add_hi)
        # S_{k+1} = (sum A_i S_j + Q_k)/(k+1)
        aslo, ashi = ku.imulsum(self.Alo[:, sl, :, :, None, None], self.Ahi[:, sl, :, :, None, None],
                                self.Slo[:, rs, None, :, :, :], self.Shi[:, rs, None, :, :, :],
                                axis=(1, 3), scaled=fast)
        tlo, thi = ku.vadd(aslo, ashi, q1lo, q1hi)
        self.Slo[:, k + 1], self.Shi[:, k + 1] = ku.vscale(inv, tlo, thi)

    def flat(self, row: int, orders: slice):
        """Coefficients ``orders`` of one row, each order's state, V and S
        (when enabled) flattened side by side: (lo, hi) of shape
        (orders, n + n m + n m m)."""
        blocks = [(self.zlo, self.zhi)]
        if self.with_var:
            blocks += [(self.Vlo, self.Vhi), (self.Slo, self.Shi)]
        out = []
        for i in range(2):
            parts = [b[i][row, orders] for b in blocks]
            out.append(np.concatenate([x.reshape(x.shape[0], -1) for x in parts], axis=1))
        return out[0], out[1]

    def unflat(self, x):
        """Split one flattened order back into (state, V, S) blocks."""
        n, m = self.n, self.m
        return x[:n], x[n : n + n * m].reshape(n, m), x[n + n * m :].reshape(n, m, m)

    def eval_flat(self, row: int, h: float, upto: int):
        """The row's Taylor polynomial through order ``upto`` at time h
        (Horner), flattened as in :meth:`flat`."""
        clo, chi = self.flat(row, slice(0, upto + 1))
        lo, hi = clo[upto], chi[upto]
        for k in range(upto - 1, -1, -1):
            lo, hi = ku.vscale(h, lo, hi)
            lo, hi = ku.vadd(lo, hi, clo[k], chi[k])
        return lo, hi


# ---------------------------------------------------------------------------
# rough enclosure and public Taylor coefficients

_ROUGH_ATTEMPTS = 24


def rough_enclosure(field: VectorFieldDef, state: IntervalBox, eps: Interval,
                    step: float) -> IntervalBox:
    """A priori solution enclosure Z over [0, step] from the state box.

    Validated by the Picard condition: state + [0, step] f(eps, Z) inside Z.
    Raises :class:`FlowError` when inflation fails (caller halves the step).
    """
    if step <= 0:
        raise IntervalError("rough_enclosure needs a positive step")
    hiv = Interval(0.0, step)
    scale = float(np.max(np.abs(state.lo))) + float(np.max(np.abs(state.hi))) + 1.0
    f0 = field.eval_box(eps, state)
    z = state + f0.mul_interval(hiv)
    z = z.widened(np.maximum(1e-18, 1e-3 * np.maximum(z.rad(), np.max(z.rad()))))
    for _ in range(_ROUGH_ATTEMPTS):
        if float(np.max(z.width())) > 100.0 * scale:
            raise FlowError(f"rough enclosure diverges for step {step}")
        fz = field.eval_box(eps, z)
        cand = state + fz.mul_interval(hiv)
        if cand.is_subset(z):
            fz2 = field.eval_box(eps, cand)
            cand2 = (state + fz2.mul_interval(hiv)).intersect(cand)
            return cand2 if cand2 is not None else cand
        z = cand.widened(0.2 * np.maximum(cand.rad(), 1e-18))
    raise FlowError(f"no rough enclosure for step {step}")


def taylor_coeffs(field: VectorFieldDef, state: Jet2Enclosure, order: int,
                  eps: Interval | None = None) -> list[Jet2Enclosure]:
    """Formal Taylor coefficients of the flow with the jet as initial data.

    Coefficient k encloses (1/k!) d^k/dt^k at t=0 of the solution and of its
    first/second variational blocks, for all initial data in the jet.
    """
    if eps is None:
        eps = Interval(0.0, 0.0)
    rf = _Resolved(_tables(field), eps)
    ser = _Series(rf, state.value.lo[None], state.value.hi[None], order, m=state.nvars)
    ser.start((state.d1.lo[None], state.d1.hi[None]), (state.d2lo[None], state.d2hi[None]))
    ser.extend_to(order)
    out = []
    for k in range(order + 1):
        out.append(Jet2Enclosure(IntervalBox(ser.zlo[0, k], ser.zhi[0, k]),
                                 IntervalMatrix(ser.Vlo[0, k], ser.Vhi[0, k]),
                                 ser.Slo[0, k], ser.Shi[0, k]))
    return out


# ---------------------------------------------------------------------------
# one validated step

class _StepPieces:
    __slots__ = ("phi_lo", "phi_hi", "val_lo", "val_hi", "Mlo", "Mhi", "Slo", "Shi", "err")


def _gronwall(ser: _Series, row: int):
    """Magnitude bounds over the rough enclosure, read from the order-0
    field tables of its series row: d >= max_c sum_a |df_c/dx_a|,
    ce >= |df/deps|, hxx, hxe, hee >= the second-derivative blocks."""
    jlo, jhi = ser.Alo[row, 0], ser.Ahi[row, 0]
    jmag = ku.vmag(jlo, jhi)
    d = float(np.max(ku.isum(jmag, jmag, axis=1)[1]))

    def mag(lo, hi):
        return float(np.max(ku.vmag(lo[row, 0], hi[row, 0])))

    return (d, mag(ser.aelo, ser.aehi), mag(ser.Hxxlo, ser.Hxxhi),
            mag(ser.Hxelo, ser.Hxehi), mag(ser.Heelo, ser.Heehi))


def _one_step(tb: _FieldTables, rf: _Resolved, rf_pt: _Resolved, eps: Interval,
              hull: IntervalBox, xhat, h: float, P: int) -> _StepPieces:
    """One-step flow jet over (eps, x_k), remainders included.

    One batch-2 series to order P+1 serves the step: row 0 starts at the
    hull and gives the Taylor polynomial, row 1 starts at the rough
    enclosure Z of the step and gives the Lagrange remainders.  Raises
    :class:`FlowError` when the rough enclosure fails or a piece is not
    finite (the caller halves the step).
    """
    n = tb.n
    Z = rough_enclosure(tb.field, hull, eps, h)
    mj = n + 1
    eye = np.hstack([np.zeros((n, 1)), np.eye(n)])
    # overflowing coefficients end in the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        ser = _Series(rf, np.stack([hull.lo, Z.lo]), np.stack([hull.hi, Z.hi]), P + 1, m=mj)

        # Gronwall rough bounds for the variational blocks over the step
        d, ce, hxx, hxe, hee = _gronwall(ser, 1)
        hv = Interval.point(h)
        eh = _iexp_ub((hv * d).hi)
        etaV = ((Interval.point(eh) - 1.0) + hv * ce * eh).hi
        vr_lo, vr_hi = ku.widen_abs(eye, eye, np.full((n, mj), etaV))
        vm = (Interval.point(float(ku.vmag(vr_lo, vr_hi).max())) * n).hi  # column sum bound
        qb = Interval.point(hxx) * vm * vm + Interval.point(2.0 * hxe) * vm + hee
        etaS = (hv * eh * qb).hi
        zero = np.zeros((n, mj, mj))
        ser.start((np.stack([eye, vr_lo]), np.stack([eye, vr_hi])),
                  (np.stack([zero, np.full_like(zero, -etaS)]),
                   np.stack([zero, np.full_like(zero, etaS)])))
        ser.extend_to(P + 1)
        hp1 = hv ** (P + 1)

        # Taylor polynomial of row 0 plus the Lagrange remainder of row 1
        plo, phi = ser.eval_flat(0, h, P)
        clo, chi = ser.flat(1, slice(P + 1, P + 2))
        rlo, rhi = ku.vmul(clo[0], chi[0], np.full(clo.shape[1], hp1.lo),
                           np.full(chi.shape[1], hp1.hi))
        lo, hi = ku.vadd(plo, phi, rlo, rhi)
        pieces = _StepPieces()
        pieces.val_lo, pieces.Mlo, pieces.Slo = ser.unflat(lo)
        pieces.val_hi, pieces.Mhi, pieces.Shi = ser.unflat(hi)
        pieces.err = float(np.max(ku.vmag(ser.zlo[0, P], ser.zhi[0, P]))) * h**P \
            + float(np.max(ku.vmag(rlo[:n], rhi[:n])))

        serp = _Series(rf_pt, xhat[None], xhat[None], P)
        serp.extend_to(P)
        plo, phi = serp.eval_flat(0, h, P)
        pieces.phi_lo, pieces.phi_hi = ku.vadd(plo, phi, rlo[:n], rhi[:n])
    if not (math.isfinite(pieces.err)
            and all(np.isfinite(x).all() for x in (lo, hi, pieces.phi_lo, pieces.phi_hi))):
        raise FlowError(f"non-finite Taylor enclosure for step {h}")
    return pieces


class _LohnerState:
    """x in xhat + C r0 + Q r;  V in C + Q Rv;  W in What + Q Rw."""

    def __init__(self, xhat, C, Q, r, Rv, What, Rw):
        self.xhat = xhat
        self.C = C
        self.Q = Q
        self.rlo, self.rhi = r
        self.Rvlo, self.Rvhi = Rv
        self.What = What
        self.Rwlo, self.Rwhi = Rw

    def hull(self, r0lo, r0hi) -> IntervalBox:
        clo, chi = ku.idot(self.C, self.C, r0lo, r0hi)
        qlo, qhi = ku.idot(self.Q, self.Q, self.rlo, self.rhi)
        lo, hi = ku.vadd(clo, chi, qlo, qhi)
        lo, hi = ku.vadd(lo, hi, self.xhat, self.xhat)
        return IntervalBox(lo, hi)

    def advance(self, pieces: _StepPieces, r0lo, r0hi):
        n, m = self.C.shape
        mxlo, mxhi = pieces.Mlo[:, 1:], pieces.Mhi[:, 1:]
        # P = [Mx] C + [Meps] e0^T
        plo, phi = ku.idot(mxlo, mxhi, self.C, self.C)
        add_lo = np.zeros((n, m)); add_hi = np.zeros((n, m))
        add_lo[:, 0] = pieces.Mlo[:, 0]; add_hi[:, 0] = pieces.Mhi[:, 0]
        plo, phi = ku.vadd(plo, phi, add_lo, add_hi)
        Cn = 0.5 * (plo + phi)
        mq = (0.5 * (mxlo + mxhi)) @ self.Q
        qn, _ = np.linalg.qr(mq)
        qinv = iinverse(IntervalMatrix.point(qn))
        mxq_lo, mxq_hi = ku.idot(mxlo, mxhi, self.Q, self.Q)
        # Lohner transition in the new frame, formed FIRST so its midpoint is
        # near-triangular; associating the products the other way lets the
        # entrywise rotation penalty compound exponentially
        g_lo, g_hi = ku.idot(qinv.lo, qinv.hi, mxq_lo, mxq_hi)
        dlo, dhi = ku.vsub(plo, phi, Cn, Cn)
        qd_lo, qd_hi = ku.idot(qinv.lo, qinv.hi, dlo, dhi)
        # state residual
        t1 = ku.idot(qd_lo, qd_hi, r0lo, r0hi)
        t2 = ku.idot(g_lo, g_hi, self.rlo, self.rhi)
        xn = 0.5 * (pieces.phi_lo + pieces.phi_hi)
        t3 = ku.vsub(pieces.phi_lo, pieces.phi_hi, xn, xn)
        t3 = ku.idot(qinv.lo, qinv.hi, *t3)
        rlo, rhi = ku.vadd(*t1, *t2)
        rlo, rhi = ku.vadd(rlo, rhi, *t3)
        # V residual
        t4 = ku.idot(g_lo, g_hi, self.Rvlo, self.Rvhi)
        rvlo, rvhi = ku.vadd(qd_lo, qd_hi, *t4)
        # W: P_w = [Mx] What + S2[Vext, Vext];  W' = P_w + Q' G Rw
        ext_lo, ext_hi = with_eps_row(*self._v_full())
        pw_lo, pw_hi = compose_d2(pieces.Mlo, pieces.Mhi, pieces.Slo, pieces.Shi,
                                  ext_lo, ext_hi, self.What, self.What)
        wn = 0.5 * (pw_lo + pw_hi)
        dw = ku.vsub(pw_lo, pw_hi, wn, wn)
        dw = ku.idot(qinv.lo, qinv.hi, dw[0].reshape(n, -1), dw[1].reshape(n, -1))
        gr_lo, gr_hi = ku.idot(g_lo, g_hi, self.Rwlo.reshape(n, -1), self.Rwhi.reshape(n, -1))
        rw_lo, rw_hi = ku.vadd(dw[0], dw[1], gr_lo, gr_hi)
        self.xhat = xn
        self.C = Cn
        self.Q = qn
        self.rlo, self.rhi = rlo, rhi
        self.Rvlo, self.Rvhi = rvlo, rvhi
        self.What = wn
        self.Rwlo, self.Rwhi = rw_lo.reshape(n, m, m), rw_hi.reshape(n, m, m)

    def _v_full(self):
        qv = ku.idot(self.Q, self.Q, self.Rvlo, self.Rvhi)
        return ku.vadd(*qv, self.C, self.C)

    def to_jet(self, r0lo, r0hi) -> Jet2Enclosure:
        n, m = self.C.shape
        value = self.hull(r0lo, r0hi)
        vlo, vhi = self._v_full()
        qw = ku.idot(self.Q, self.Q, self.Rwlo.reshape(n, -1), self.Rwhi.reshape(n, -1))
        wlo, whi = ku.vadd(qw[0].reshape(n, m, m), qw[1].reshape(n, m, m), self.What, self.What)
        return Jet2Enclosure(value, IntervalMatrix(vlo, vhi), wlo, whi)


# ---------------------------------------------------------------------------
# the integrator

def _pow2_floor(x: float) -> float:
    if x <= 0:
        raise IntervalError("positive value required")
    return 2.0 ** math.floor(math.log2(x))


def flow_jet(
    field: VectorFieldDef,
    x0: Jet2Enclosure,
    eps: Interval,
    T: float,
    settings: FlowSettings | None = None,
    domain: IntervalBox | None = None,
    x0_center: Jet2Enclosure | None = None,
) -> Jet2Enclosure:
    """Containment-correct order-2 jet of (eps, s) -> Phi_T^eps(x0(eps, s)).

    ``x0`` is the jet of the initial condition in the variables (eps, s).
    Passing ``domain`` (the s-box) and optionally
    ``x0_center`` (a tight jet of the initial condition at the domain
    midpoint) enables the doubleton initialization that keeps long
    transports tight.  ``T`` may be negative (backward flow).  Raises
    :class:`FlowError` on step underflow or when max_steps is exceeded.
    """
    settings = settings or FlowSettings()
    if x0.out_dim != field.dimension:
        raise IntervalError("initial jet dimension does not match the field")
    if T == 0:
        return x0
    if T < 0:
        return flow_jet(field.negated(), x0, eps, -T, settings, domain, x0_center)
    tb = _tables(field)
    rf = _Resolved(tb, eps)
    rf_pt = _Resolved(tb, Interval.point(eps.mid))
    n = tb.n
    m = x0.nvars
    P = settings.taylor_order

    if domain is not None:
        if domain.dim != m - 1:
            raise IntervalError("domain box must have one entry per state parameter of x0")
        smid = domain.mid()
        r0lo = np.minimum(np.concatenate([[eps.lo - eps.mid], domain.lo - smid]), 0.0)
        r0hi = np.maximum(np.concatenate([[eps.hi - eps.mid], domain.hi - smid]), 0.0)
    else:
        # the eps symbol is always tracked; without a domain box the state
        # parameters enter only through the residual term
        r0lo = np.concatenate([[min(eps.lo - eps.mid, 0.0)], np.zeros(m - 1)])
        r0hi = np.concatenate([[max(eps.hi - eps.mid, 0.0)], np.zeros(m - 1)])

    C0 = 0.5 * (x0.d1.lo + x0.d1.hi)
    if x0_center is not None and domain is not None:
        base = x0_center.value
        xhat = base.mid()
        blo, bhi = ku.vsub(base.lo, base.hi, xhat, xhat)
        d1d = ku.vsub(x0.d1.lo, x0.d1.hi, C0, C0)
        tlo, thi = ku.idot(*d1d, r0lo, r0hi)
        rlo, rhi = ku.vadd(blo, bhi, tlo, thi)
    else:
        xhat = x0.value.mid()
        rlo, rhi = ku.vsub(x0.value.lo, x0.value.hi, xhat, xhat)
    w0 = 0.5 * (x0.d2lo + x0.d2hi)
    state = _LohnerState(
        xhat, C0, np.eye(n), (rlo, rhi),
        ku.vsub(x0.d1.lo, x0.d1.hi, C0, C0),
        w0, ku.vsub(x0.d2lo, x0.d2hi, w0, w0),
    )

    t = 0.0
    h = _pow2_floor(settings.initial_step)
    h_cap = _pow2_floor(settings.initial_step) * 32
    steps = 0
    tol = 4e-14
    while t < T:
        if steps >= settings.max_steps:
            raise FlowError(f"max_steps={settings.max_steps} exceeded at t={t}, T={T}")
        h = _pow2_floor(min(h, max(T - t, settings.min_step)))
        last = (T - t) <= h * (1 + 1e-12)
        hcur = (T - t) if last else h
        hull = state.hull(r0lo, r0hi)
        try:
            pieces = _one_step(tb, rf, rf_pt, eps, hull, state.xhat, hcur, P)
        except FlowError:
            if h <= settings.min_step:
                raise FlowError(f"step underflow at t={t}: no rough enclosure at min_step")
            h *= 0.5
            continue
        scale = float(np.max(np.abs(hull.mid()))) + 1.0
        if pieces.err > tol * scale and hcur > settings.min_step * (1 + 1e-12):
            h = max(hcur * 0.5, settings.min_step)
            continue
        state.advance(pieces, r0lo, r0hi)
        t = T if last else t + hcur
        steps += 1
        if pieces.err < tol * scale * 1e-4 and h < h_cap:
            h *= 2.0
    return state.to_jet(r0lo, r0hi)


# ---------------------------------------------------------------------------
# nonrigorous float twin (shooting, candidate sizing, midpoint diagnostics)

def point_flow_jet(field: VectorFieldDef, eps_val: float, x0, T: float,
                   order: int = 16, step: float = 0.125):
    """Plain float Taylor transport of value, Jacobian and second derivative
    with respect to (eps, x0).  For locating candidates and midpoint
    diagnostics only; nothing here is validated."""
    if T < 0:
        return point_flow_jet(field.negated(), eps_val, x0, -T, order, step)
    tb = _tables(field)
    n = tb.n
    m = n + 1
    x = np.asarray(x0, dtype=float).copy()
    V = np.hstack([np.zeros((n, 1)), np.eye(n)])
    S = np.zeros((n, m, m))
    epw_max = int(max(tb.g_var["epow"].max(), 1))
    epows = np.array([eps_val**e for e in range(epw_max + 1)])
    coef = (0.5 * (tb.g_var["clo"] + tb.g_var["chi"])) * epows[tb.g_var["epow"]]
    rows_v = tb.g_var["rows"]
    npairs = n * (n + 1) // 2
    t = 0.0
    while t < T:
        h = min(step, T - t)
        P = order
        zc = np.zeros((P + 2, n)); zc[0] = x
        Vc = np.zeros((P + 2, n, m)); Vc[0] = V
        Sc = np.zeros((P + 2, n, m, m)); Sc[0] = S
        Ac = np.zeros((P + 2, n, n))
        aec = np.zeros((P + 2, n))
        Hxxc = np.zeros((P + 2, n, n, n))
        Hxec = np.zeros((P + 2, n, n))
        Heec = np.zeros((P + 2, n))
        Tser = np.zeros((P + 2, n, n, m))
        bank = np.zeros((tb.n_rows, P + 2))
        bank[0, 0] = 1.0
        for k in range(P + 1):
            bank[1 : 1 + n, k] = zc[k]
            for lidx, ridx, rws in tb.depth_groups:
                bank[rws, k] = np.einsum("ri,ri->r", bank[lidx, : k + 1], bank[ridx, k::-1])
            vals = np.einsum("cm,cm->c", coef, bank[rows_v, k])
            i0 = 0
            zc[k + 1] = vals[i0 : i0 + n] / (k + 1); i0 += n
            Ac[k] = vals[i0 : i0 + n * n].reshape(n, n).T; i0 += n * n
            aec[k] = vals[i0 : i0 + n]; i0 += n
            xx = vals[i0 : i0 + npairs * n].reshape(npairs, n); i0 += npairs * n
            Hxxc[k][:, tb.xx_a, tb.xx_b] = xx.T
            Hxxc[k][:, tb.xx_b, tb.xx_a] = xx.T
            Hxec[k] = vals[i0 : i0 + n * n].reshape(n, n).T; i0 += n * n
            Heec[k] = vals[i0 : i0 + n]
            AV = np.einsum("kca,kam->cm", Ac[: k + 1], Vc[k::-1])
            AV[:, 0] += aec[k]
            Vc[k + 1] = AV / (k + 1)
            Tser[k] = np.einsum("kcab,kbm->kcam", Hxxc[: k + 1], Vc[k::-1]).sum(axis=0)
            Qk = np.einsum("kcam,kan->cnm", Tser[: k + 1], Vc[k::-1])
            q2 = np.einsum("kca,kam->cm", Hxec[: k + 1], Vc[k::-1])
            Qk[:, 0, :] += q2
            Qk[:, :, 0] += q2
            Qk[:, 0, 0] += Heec[k]
            AS = np.einsum("kca,kanm->cnm", Ac[: k + 1], Sc[k::-1])
            Sc[k + 1] = (AS + Qk) / (k + 1)
        hp = np.array([h**k for k in range(P + 2)])
        x = np.tensordot(hp, zc, axes=(0, 0))
        V = np.tensordot(hp, Vc, axes=(0, 0))
        S = np.tensordot(hp, Sc, axes=(0, 0))
        t += h
    return x, V, S


def point_flow(field: VectorFieldDef, eps_val: float, x0, T: float,
               order: int = 16, step: float = 0.125):
    """Float Taylor endpoint only (cheap nonrigorous propagation)."""
    if T < 0:
        return point_flow(field.negated(), eps_val, x0, -T, order, step)
    tb = _tables(field)
    n = tb.n
    x = np.asarray(x0, dtype=float).copy()
    epw_max = int(max(tb.g_f["epow"].max(), 1))
    epows = np.array([eps_val**e for e in range(epw_max + 1)])
    coef = (0.5 * (tb.g_f["clo"] + tb.g_f["chi"])) * epows[tb.g_f["epow"]]
    rows_f = tb.g_f["rows"]
    t = 0.0
    while t < T:
        h = min(step, T - t)
        P = order
        zc = np.zeros((P + 2, n)); zc[0] = x
        bank = np.zeros((tb.n_rows, P + 2))
        bank[0, 0] = 1.0
        for k in range(P + 1):
            bank[1 : 1 + n, k] = zc[k]
            for lidx, ridx, rws in tb.depth_groups:
                bank[rws, k] = np.einsum("ri,ri->r", bank[lidx, : k + 1], bank[ridx, k::-1])
            zc[k + 1] = np.einsum("cm,cm->c", coef, bank[rows_f, k]) / (k + 1)
        hp = np.array([h**k for k in range(P + 2)])
        x = np.tensordot(hp, zc, axes=(0, 0))
        t += h
    return x
