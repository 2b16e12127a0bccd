"""Validated integration of parameterized polynomial ODEs with order-2 jets.

The integrator transports an order-2 jet (value, first and second partials
with respect to eps and the initial-condition parameters) along the flow of
a polynomial field q' = f(eps, q).  Each step evaluates interval Taylor
series of the solution and of its first and second variational equations;
the Lagrange remainders are enclosed by re-evaluating the top coefficient
over a Picard rough enclosure of the step with Gronwall-type rough bounds
for the variational blocks.

Two representations of the transported set are available:

* ``direct`` -- plain interval blocks; simple, fine for short times.
* ``parallelepiped`` -- Lohner-style QR-factored representation with a
  doubleton term carrying the initial-condition/parameter correlation
  (x in xhat + C r0 + Q r).  This controls the wrapping effect over long
  transport times and is what the manifold pipeline uses.

Step sizes are powers of two, adapted by a coefficient-decay heuristic, so
runs are deterministic; the final step is clipped to land on T.
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
        if self.wrapping_control not in ("direct", "parallelepiped"):
            raise IntervalError("wrapping_control must be 'direct' or 'parallelepiped'")


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
        self._d1, self._d2 = d1, d2
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

    # -- rough bounds over a box -------------------------------------------

    def mag_bounds(self, eps: Interval, box: IntervalBox):
        full = IntervalBox(np.concatenate([[eps.lo], box.lo]), np.concatenate([[eps.hi], box.hi]))
        n = self.n

        def mag(pm: PolyMap) -> np.ndarray:
            v = pm.eval_box(full)
            return ku.vmag(v.lo, v.hi)

        jac_mag = np.stack([mag(self._d1[1 + a]) for a in range(n)], axis=1)
        ce = float(np.max(mag(self._d1[0])))
        d = float(np.max(np.sum(jac_mag, axis=1)))
        hxx = max(float(np.max(mag(self._d2[1 + a, 1 + b])))
                  for a in range(n) for b in range(a, n))
        hxe = max(float(np.max(mag(self._d2[0, 1 + a]))) for a in range(n))
        hee = float(np.max(mag(self._d2[0, 0])))
        return d, ce, hxx, hxe, hee


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
    """Order-by-order interval Taylor series: state, V (n x m), S (n x m x m)."""

    def __init__(self, rf: _Resolved, z0: IntervalBox, P: int, V0=None, S0=None, m: int = 0):
        tb = rf.tb
        n = tb.n
        self.rf = rf
        self.tb = tb
        self.P = P
        self.n = n
        self.m = m
        self.banklo = np.zeros((tb.n_rows, P + 2))
        self.bankhi = np.zeros((tb.n_rows, P + 2))
        self.banklo[0, 0] = self.bankhi[0, 0] = 1.0
        self.zlo = np.zeros((P + 2, n)); self.zhi = np.zeros((P + 2, n))
        self.zlo[0] = z0.lo; self.zhi[0] = z0.hi
        self.with_var = V0 is not None
        if self.with_var:
            self.Vlo = np.zeros((P + 2, n, m)); self.Vhi = np.zeros((P + 2, n, m))
            self.Vlo[0], self.Vhi[0] = V0
            self.Slo = np.zeros((P + 2, n, m, m)); self.Shi = np.zeros((P + 2, n, m, m))
            self.Slo[0], self.Shi[0] = S0
            self.Alo = np.zeros((P + 2, n, n)); self.Ahi = np.zeros((P + 2, n, n))
            self.aelo = np.zeros((P + 2, n)); self.aehi = np.zeros((P + 2, n))
            self.Hxxlo = np.zeros((P + 2, n, n, n)); self.Hxxhi = np.zeros((P + 2, n, n, n))
            self.Hxelo = np.zeros((P + 2, n, n)); self.Hxehi = np.zeros((P + 2, n, n))
            self.Heelo = np.zeros((P + 2, n)); self.Heehi = np.zeros((P + 2, n))
            self.Tlo = np.zeros((P + 2, n, n, m)); self.Thi = np.zeros((P + 2, n, n, m))
        self._filled = -1
        self._extend_bank(0)

    def _extend_bank(self, k: int):
        self.banklo[1 : 1 + self.n, k] = self.zlo[k]
        self.bankhi[1 : 1 + self.n, k] = self.zhi[k]
        for lidx, ridx, rows in self.tb.depth_groups:
            plo, phi = ku.vmul(self.banklo[lidx, : k + 1], self.bankhi[lidx, : k + 1],
                               self.banklo[ridx, k::-1], self.bankhi[ridx, k::-1])
            slo, shi = ku.isum(plo, phi, axis=1)
            self.banklo[rows, k] = slo
            self.bankhi[rows, k] = shi

    def _group_at(self, g, k: int):
        plo, phi = ku.vmul(g["clo"], g["chi"],
                           self.banklo[g["rows"], k], self.bankhi[g["rows"], k])
        return ku.isum(plo, phi, axis=1)

    def extend_to(self, upto: int):
        """Fill coefficients through order ``upto`` (state; V/S when enabled)."""
        for k in range(self._filled + 1, upto):
            self._order_step(k)
        self._filled = max(self._filled, upto - 1)

    def _order_step(self, k: int):
        n, m = self.n, self.m
        tb = self.tb
        rf = self.rf
        inv = 1.0 / (k + 1)
        if not self.with_var:
            flo, fhi = self._group_at(rf.g_f, k)
            self.zlo[k + 1], self.zhi[k + 1] = ku.vscale(inv, flo, fhi)
            self._extend_bank(k + 1)
            return
        glo, ghi = self._group_at(rf.g_var, k)
        i0 = 0
        flo, fhi = glo[i0 : i0 + n], ghi[i0 : i0 + n]; i0 += n
        self.zlo[k + 1], self.zhi[k + 1] = ku.vscale(inv, flo, fhi)
        self._extend_bank(k + 1)
        self.Alo[k] = glo[i0 : i0 + n * n].reshape(n, n).T
        self.Ahi[k] = ghi[i0 : i0 + n * n].reshape(n, n).T
        i0 += n * n
        self.aelo[k], self.aehi[k] = glo[i0 : i0 + n], ghi[i0 : i0 + n]; i0 += n
        npairs = n * (n + 1) // 2
        xxlo = glo[i0 : i0 + npairs * n].reshape(npairs, n)
        xxhi = ghi[i0 : i0 + npairs * n].reshape(npairs, n)
        i0 += npairs * n
        self.Hxxlo[k][:, tb.xx_a, tb.xx_b] = xxlo.T
        self.Hxxhi[k][:, tb.xx_a, tb.xx_b] = xxhi.T
        self.Hxxlo[k][:, tb.xx_b, tb.xx_a] = xxlo.T
        self.Hxxhi[k][:, tb.xx_b, tb.xx_a] = xxhi.T
        self.Hxelo[k] = glo[i0 : i0 + n * n].reshape(n, n).T
        self.Hxehi[k] = ghi[i0 : i0 + n * n].reshape(n, n).T
        i0 += n * n
        self.Heelo[k], self.Heehi[k] = glo[i0 : i0 + n], ghi[i0 : i0 + n]

        sl = slice(0, k + 1)
        rs = slice(k, None, -1)
        # V_{k+1} = (sum_{i+j=k} A_i V_j + aeps_k e0^T) / (k+1)
        plo, phi = ku.vmul(self.Alo[sl, :, :, None], self.Ahi[sl, :, :, None],
                           self.Vlo[rs, None, :, :], self.Vhi[rs, None, :, :])
        slo, shi = ku.isum(plo, phi, axis=(0, 2))
        src_lo = np.zeros((n, m)); src_hi = np.zeros((n, m))
        src_lo[:, 0] = self.aelo[k]; src_hi[:, 0] = self.aehi[k]
        tlo, thi = ku.vadd(slo, shi, src_lo, src_hi)
        self.Vlo[k + 1], self.Vhi[k + 1] = ku.vscale(inv, tlo, thi)

        # T_k[c,a,be] = sum_{i+j=k} Hxx_i[c,a,b] V_j[b,be]
        plo, phi = ku.vmul(self.Hxxlo[sl, :, :, :, None], self.Hxxhi[sl, :, :, :, None],
                           self.Vlo[rs, None, None, :, :], self.Vhi[rs, None, None, :, :])
        self.Tlo[k], self.Thi[k] = ku.isum(plo, phi, axis=(0, 3))
        # Q1_k[c,al,be] = sum_{i+j=k} T_i[c,a,be] V_j[a,al]
        plo, phi = ku.vmul(self.Tlo[sl, :, :, None, :], self.Thi[sl, :, :, None, :],
                           self.Vlo[rs, None, :, :, None], self.Vhi[rs, None, :, :, None])
        q1lo, q1hi = ku.isum(plo, phi, axis=(0, 2))
        # Q2_k[c,al] = sum_{i+j=k} Hxe_i[c,a] V_j[a,al], added on eps row/col
        plo, phi = ku.vmul(self.Hxelo[sl, :, :, None], self.Hxehi[sl, :, :, None],
                           self.Vlo[rs, None, :, :], self.Vhi[rs, None, :, :])
        q2lo, q2hi = ku.isum(plo, phi, axis=(0, 2))
        add_lo = np.zeros((n, m, m)); add_hi = np.zeros((n, m, m))
        add_lo[:, 0, :] = q2lo; add_hi[:, 0, :] = q2hi
        q1lo, q1hi = ku.vadd(q1lo, q1hi, add_lo, add_hi)
        add_lo = np.zeros((n, m, m)); add_hi = np.zeros((n, m, m))
        add_lo[:, :, 0] = q2lo; add_hi[:, :, 0] = q2hi
        q1lo, q1hi = ku.vadd(q1lo, q1hi, add_lo, add_hi)
        add_lo = np.zeros((n, m, m)); add_hi = np.zeros((n, m, m))
        add_lo[:, 0, 0] = self.Heelo[k]; add_hi[:, 0, 0] = self.Heehi[k]
        q1lo, q1hi = ku.vadd(q1lo, q1hi, add_lo, add_hi)
        # S_{k+1} = (sum A_i S_j + Q_k)/(k+1)
        plo, phi = ku.vmul(self.Alo[sl, :, :, None, None], self.Ahi[sl, :, :, None, None],
                           self.Slo[rs, None, :, :, :], self.Shi[rs, None, :, :, :])
        aslo, ashi = ku.isum(plo, phi, axis=(0, 2))
        tlo, thi = ku.vadd(aslo, ashi, q1lo, q1hi)
        self.Slo[k + 1], self.Shi[k + 1] = ku.vscale(inv, tlo, thi)

    def _horner(self, lo_arr, hi_arr, h: float, upto: int):
        lo = lo_arr[upto].copy(); hi = hi_arr[upto].copy()
        for k in range(upto - 1, -1, -1):
            lo, hi = ku.vscale(h, lo, hi)
            lo, hi = ku.vadd(lo, hi, lo_arr[k], hi_arr[k])
        return lo, hi

    def eval_value(self, h, upto):
        return self._horner(self.zlo, self.zhi, h, upto)

    def eval_V(self, h, upto):
        return self._horner(self.Vlo, self.Vhi, h, upto)

    def eval_S(self, h, upto):
        return self._horner(self.Slo, self.Shi, h, upto)


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
    m = state.nvars
    ser = _Series(rf, state.value, order,
                  V0=(state.d1.lo.copy(), state.d1.hi.copy()),
                  S0=(state.d2lo.copy(), state.d2hi.copy()), m=m)
    ser.extend_to(order)
    out = []
    for k in range(order + 1):
        out.append(Jet2Enclosure(IntervalBox(ser.zlo[k], ser.zhi[k]),
                                 IntervalMatrix(ser.Vlo[k], ser.Vhi[k]),
                                 ser.Slo[k], ser.Shi[k]))
    return out


# ---------------------------------------------------------------------------
# one validated step

class _StepPieces:
    __slots__ = ("phi_lo", "phi_hi", "val_lo", "val_hi", "Mlo", "Mhi", "Slo", "Shi", "err")


def _one_step(tb: _FieldTables, rf: _Resolved, rf_pt: _Resolved, eps: Interval,
              hull: IntervalBox, xhat, h: float, P: int, need_point: bool) -> _StepPieces:
    """One-step flow jet over (eps, x_k), remainders included."""
    n = tb.n
    Z = rough_enclosure(tb.field, hull, eps, h)
    mj = n + 1
    eye = np.hstack([np.zeros((n, 1)), np.eye(n)])
    ser = _Series(rf, hull, P, V0=(eye, eye), S0=(np.zeros((n, mj, mj)), np.zeros((n, mj, mj))), m=mj)
    ser.extend_to(P)

    # Gronwall rough bounds for the variational blocks over the step
    d, ce, hxx, hxe, hee = tb.mag_bounds(eps, Z)
    eh = _iexp_ub(d * h)
    etaV = ((Interval.point(eh) - 1.0) + Interval.point(h * ce) * Interval.point(eh)).hi
    vr_lo, vr_hi = ku.widen_abs(eye, eye, np.full((n, mj), etaV))
    vm = float(np.maximum(np.abs(vr_lo), np.abs(vr_hi)).max()) * n  # column sum bound
    qb = Interval.point(hxx) * Interval.point(vm) * Interval.point(vm) \
        + Interval.point(2.0 * hxe) * Interval.point(vm) + Interval.point(hee)
    etaS = (Interval.point(h * eh) * qb).hi
    serZ = _Series(rf, Z, P + 1, V0=(vr_lo, vr_hi),
                   S0=(np.full((n, mj, mj), -etaS), np.full((n, mj, mj), etaS)), m=mj)
    serZ.extend_to(P + 1)
    hp1 = Interval.point(h) ** (P + 1)

    def remainder(lo_arr, hi_arr):
        return ku.vmul(lo_arr[P + 1], hi_arr[P + 1],
                       np.full(lo_arr[P + 1].shape, hp1.lo), np.full(hi_arr[P + 1].shape, hp1.hi))

    pieces = _StepPieces()
    rz = remainder(serZ.zlo, serZ.zhi)
    vlo, vhi = ser.eval_value(h, P)
    pieces.val_lo, pieces.val_hi = ku.vadd(vlo, vhi, *rz)
    rv = remainder(serZ.Vlo, serZ.Vhi)
    mlo, mhi = ser.eval_V(h, P)
    pieces.Mlo, pieces.Mhi = ku.vadd(mlo, mhi, *rv)
    rs = remainder(serZ.Slo, serZ.Shi)
    slo, shi = ser.eval_S(h, P)
    pieces.Slo, pieces.Shi = ku.vadd(slo, shi, *rs)
    pieces.err = float(np.max(ku.vmag(ser.zlo[P], ser.zhi[P]))) * h**P \
        + float(np.max(ku.vmag(*rz)))

    if need_point:
        serp = _Series(rf_pt, IntervalBox.point(xhat), P)
        serp.extend_to(P)
        plo, phi = serp.eval_value(h, P)
        pieces.phi_lo, pieces.phi_hi = ku.vadd(plo, phi, *rz)
    else:
        pieces.phi_lo = pieces.phi_hi = None
    return pieces


class _DirectState:
    def __init__(self, value, V, S):
        self.value = value
        self.Vlo, self.Vhi = V
        self.Slo, self.Shi = S

    def hull(self):
        return self.value

    def advance(self, pieces: _StepPieces):
        # the step jet (M, S_step) composed with the accumulated jet (V, S)
        ext_lo, ext_hi = with_eps_row(self.Vlo, self.Vhi)
        self.Slo, self.Shi = compose_d2(pieces.Mlo, pieces.Mhi, pieces.Slo, pieces.Shi,
                                        ext_lo, ext_hi, self.Slo, self.Shi)
        self.Vlo, self.Vhi = ku.idot(pieces.Mlo, pieces.Mhi, ext_lo, ext_hi)
        self.value = IntervalBox(pieces.val_lo, pieces.val_hi)

    def to_jet(self):
        return Jet2Enclosure(self.value, IntervalMatrix(self.Vlo, self.Vhi), self.Slo, self.Shi)


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
    In parallelepiped mode, passing ``domain`` (the s-box) and optionally
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

    para = settings.wrapping_control == "parallelepiped"
    if para:
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
    else:
        state = _DirectState(x0.value, (x0.d1.lo.copy(), x0.d1.hi.copy()),
                             (x0.d2lo.copy(), x0.d2hi.copy()))

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
        hull = state.hull(r0lo, r0hi) if para else state.hull()
        try:
            pieces = _one_step(tb, rf, rf_pt, eps, hull,
                               state.xhat if para else hull.mid(),
                               hcur, P, need_point=para)
        except FlowError:
            if h <= settings.min_step:
                raise FlowError(f"step underflow at t={t}: no rough enclosure at min_step")
            h *= 0.5
            continue
        scale = float(np.max(np.abs(hull.mid()))) + 1.0
        if pieces.err > tol * scale and hcur > settings.min_step * (1 + 1e-12):
            h = max(hcur * 0.5, settings.min_step)
            continue
        if para:
            state.advance(pieces, r0lo, r0hi)
        else:
            state.advance(pieces)
        t = T if last else t + hcur
        steps += 1
        if pieces.err < tol * scale * 1e-4 and h < h_cap:
            h *= 2.0
    return state.to_jet(r0lo, r0hi) if para else state.to_jet()


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
