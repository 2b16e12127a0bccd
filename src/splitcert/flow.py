"""Validated integration of parameterized polynomial ODEs with order-2 jets.

The integrator transports an order-2 jet (value, first and second partials
with respect to eps and the initial-condition parameters) along the flow of
a polynomial field q' = f(eps, q).  Each step evaluates one batched interval
Taylor series of the solution and of its first and second variational
equations: row 0 starts at the current set and gives the Taylor polynomial,
row 1 starts at a Picard rough enclosure of the step and gives the Lagrange
remainders.  The series is filled in three passes.  The state pass gives
the solution coefficients alone, and with them the step's error estimate:
a step that fails the estimate is rejected here, before any variational
work.  For a step that is kept, one fused product sum then fills the
field's derivative tables at every order, the Gronwall-type rough bounds
that start row 1's variational blocks come from its order-0 tables, and the
variational pass runs the first and second variational recursions.

The transported set is a Lohner-style QR-factored representation with a
doubleton term carrying the initial-condition/parameter correlation
(x in xhat + C r0 + Q r), which controls the wrapping effect over long
transport times.

Step sizes are powers of two, adapted by a coefficient-decay heuristic, so
runs are deterministic; the final step is clipped to land on T.  A step
whose rough enclosure fails, whose error estimate is too large or whose
enclosures are not finite is halved.

The nonrigorous float transports (:func:`point_flow`, :func:`point_flow_jet`)
run the same series with round-to-nearest kernels at the field's
coefficient midpoints, in fixed steps and for a batch of points at once.
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
    """Field table groups with eps powers folded into the coefficients:
    enclosures for an interval eps, floats (coefficient midpoints times
    powers of eps) for a float eps."""

    def __init__(self, tb: _FieldTables, eps: Interval | float):
        self.tb = tb
        maxp = int(max(tb.g_var["epow"].max(), tb.g_f["epow"].max(), 0))
        pw = [eps ** e for e in range(maxp + 1)]
        if isinstance(eps, Interval):
            plo, phi = np.array([p.lo for p in pw]), np.array([p.hi for p in pw])

            def resolve(g):
                return ku.vmul(g["clo"], g["chi"], plo[g["epow"]], phi[g["epow"]])
        else:
            def resolve(g):
                c = 0.5 * (g["clo"] + g["chi"]) * np.array(pw)[g["epow"]]
                return c, c

        self.g_f, self.g_var = (dict(zip(("clo", "chi"), resolve(g)), rows=g["rows"])
                                for g in (tb.g_f, tb.g_var))


class _Nearest:
    """Round-to-nearest stand-ins for the kernels :class:`_Series` calls:
    each reads the ``lo`` operands only and returns one float result as
    both endpoints.  Every operand counts as scaled, so a float series
    never reruns a pass through the checked path."""

    @staticmethod
    def imulsum(alo, ahi, blo, bhi, axis, scaled: bool = False):
        s = np.add.reduce(alo * blo, axis=axis)
        return s, s

    @staticmethod
    def vadd(alo, ahi, blo, bhi):
        s = alo + blo
        return s, s

    @staticmethod
    def vscale(c: float, alo, ahi):
        s = c * alo
        return s, s

    @staticmethod
    def is_scaled(*arrays) -> bool:
        return True


# ---------------------------------------------------------------------------
# series engine

class _Series:
    """Order-by-order interval Taylor series of a batch of initial boxes.

    Row b of every block is the series of initial box b: state z (B, P+2, n)
    and, when ``m > 0``, the variational blocks V (B, P+2, n, m) and
    S (B, P+2, n, m, m).  All rows share the resolved field coefficients,
    so every kernel call serves the whole batch.

    A series is filled in three passes, each from where it stopped:

    1. :meth:`extend_state`: z and the bank of products, order by order,
       from the field's own rows of the coefficient group;
    2. :meth:`extend_tables`: the field's derivative tables (``Alo``,
       ``aelo``, ``Hxxlo``, ``Hxelo``, ``Heelo`` and their ``hi``) at every
       order of the bank, in one ``imulsum`` call;
    3. the variational recursion for V, T, Q and S, order by order.

    :meth:`extend_to` runs all three.  A caller that can reject a series on
    its state alone (the step control of :func:`flow_jet`) runs the state
    pass first and pays for the tables and the variational blocks only for
    a series it keeps.  A series with variational blocks needs
    :meth:`start` before its variational pass.

    ``kernels`` is the kernel set the series calls (``imulsum``, ``vadd``,
    ``vscale``, ``is_scaled``): ``ku`` for enclosures, :class:`_Nearest` for
    the float transports, which run the same passes in round-to-nearest
    arithmetic.  Cauchy products use the fused ``imulsum`` path while every
    stored operand is scaled (``is_scaled``): each pass is checked once,
    after it ran, and rerun through the checked kernel when one of the
    operands it wrote fails the check, before a later pass reads them.  A
    pass writes only its own slots, so the rerun overwrites everything the
    unchecked run wrote.
    """

    def __init__(self, rf: _Resolved, zlo, zhi, P: int, m: int = 0, kernels=ku):
        tb = rf.tb
        n = tb.n
        B = zlo.shape[0]
        self.k = kernels
        self.tb = tb
        self.n = n
        self.m = m
        self.banklo = np.zeros((B, tb.n_rows, P + 2))
        self.bankhi = np.zeros((B, tb.n_rows, P + 2))
        self.banklo[:, 0, 0] = self.bankhi[:, 0, 0] = 1.0
        self.zlo = np.zeros((B, P + 2, n)); self.zhi = np.zeros((B, P + 2, n))
        self.zlo[:, 0] = zlo; self.zhi[:, 0] = zhi
        self.with_var = m > 0
        g = rf.g_var if self.with_var else rf.g_f
        # the state pass evaluates f alone: the group's first n rows, at the
        # group's padded width; the table pass evaluates the other rows
        self.g_state = {key: g[key][:n] for key in ("clo", "chi", "rows")}
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
            self.g_tab = {key: g[key][n:] for key in ("clo", "chi", "rows")}
        self.scaled = kernels.is_scaled(g["clo"], g["chi"], zlo, zhi)
        # orders filled by each pass: z through "state" (the bank one less),
        # tables below "tables", V and S through "var" (T one less)
        self._to = {"state": 0, "tables": 0, "var": 0}

    def start(self, V0, S0):
        """Set the variational initial data: (lo, hi) of shape (B, n, m)
        and (B, n, m, m)."""
        self.Vlo[:, 0], self.Vhi[:, 0] = V0
        self.Slo[:, 0], self.Shi[:, 0] = S0
        self.scaled = self.scaled and self.k.is_scaled(*V0, *S0)

    def _pass(self, name: str, upto: int, run, written):
        """Run ``run(k0, upto, fast)`` over the orders k0..upto-1 that pass
        ``name`` has not filled yet, fast while the series is scaled;
        ``written(k0, upto)`` lists the product operands the run writes."""
        k0 = self._to[name]
        if upto <= k0:
            return
        if self.scaled:
            run(k0, upto, True)
            if self.k.is_scaled(*written(k0, upto)):
                self._to[name] = upto
                return
            self.scaled = False
        run(k0, upto, False)
        self._to[name] = upto

    def extend_state(self, upto: int):
        """State pass: z through order ``upto``, the bank through ``upto - 1``."""
        self._pass("state", upto, self._state_orders, lambda k0, k1: (
            self.banklo[:, :, k0:k1], self.bankhi[:, :, k0:k1],
            self.zlo[:, k0 + 1 : k1 + 1], self.zhi[:, k0 + 1 : k1 + 1]))

    def extend_tables(self, upto: int):
        """Table pass: the derivative tables at orders below ``upto``."""
        self.extend_state(upto)
        self._pass("tables", upto, self._table_orders, lambda k0, k1: (
            self.Alo[:, k0:k1], self.Ahi[:, k0:k1], self.Hxxlo[:, k0:k1],
            self.Hxxhi[:, k0:k1], self.Hxelo[:, k0:k1], self.Hxehi[:, k0:k1]))

    def extend_to(self, upto: int):
        """Fill coefficients through order ``upto`` (state; V/S when enabled)."""
        if not self.with_var:
            self.extend_state(upto)
            return
        self.extend_tables(upto)
        self._pass("var", upto, self._var_orders, lambda k0, k1: (
            self.Tlo[:, k0:k1], self.Thi[:, k0:k1],
            self.Vlo[:, k0 + 1 : k1 + 1], self.Vhi[:, k0 + 1 : k1 + 1],
            self.Slo[:, k0 + 1 : k1 + 1], self.Shi[:, k0 + 1 : k1 + 1]))

    def _state_orders(self, k0: int, k1: int, fast: bool):
        """The bank at orders k0..k1-1 and z at orders k0+1..k1."""
        g, ks = self.g_state, self.k
        for k in range(k0, k1):
            self.banklo[:, 1 : 1 + self.n, k] = self.zlo[:, k]
            self.bankhi[:, 1 : 1 + self.n, k] = self.zhi[:, k]
            for lidx, ridx, rows in self.tb.depth_groups:
                slo, shi = ks.imulsum(self.banklo[:, lidx, : k + 1], self.bankhi[:, lidx, : k + 1],
                                      self.banklo[:, ridx, k::-1], self.bankhi[:, ridx, k::-1],
                                      axis=2, scaled=fast)
                self.banklo[:, rows, k] = slo
                self.bankhi[:, rows, k] = shi
            glo, ghi = ks.imulsum(g["clo"], g["chi"], self.banklo[:, g["rows"], k],
                                  self.bankhi[:, g["rows"], k], axis=2, scaled=fast)
            self.zlo[:, k + 1], self.zhi[:, k + 1] = ks.vscale(1.0 / (k + 1), glo, ghi)

    def _table_orders(self, k0: int, k1: int, fast: bool):
        """The derivative tables at orders k0..k1-1: one product sum over
        the monomials, which are the last and contiguous axis."""
        n, tb, g = self.n, self.tb, self.g_tab
        blo, bhi = (np.ascontiguousarray(np.moveaxis(b[:, g["rows"], k0:k1], 3, 1))
                    for b in (self.banklo, self.bankhi))
        tlo, thi = self.k.imulsum(g["clo"], g["chi"], blo, bhi, axis=3, scaled=fast)
        B, K = tlo.shape[:2]
        ks = slice(k0, k1)
        npairs = n * (n + 1) // 2
        for t, A, ae, Hxx, Hxe, Hee in (
                (tlo, self.Alo, self.aelo, self.Hxxlo, self.Hxelo, self.Heelo),
                (thi, self.Ahi, self.aehi, self.Hxxhi, self.Hxehi, self.Heehi)):
            i = 0
            A[:, ks] = t[..., i : i + n * n].reshape(B, K, n, n).swapaxes(2, 3); i += n * n
            ae[:, ks] = t[..., i : i + n]; i += n
            xx = t[..., i : i + npairs * n].reshape(B, K, npairs, n).swapaxes(2, 3)
            i += npairs * n
            Hxx[:, ks, :, tb.xx_a, tb.xx_b] = xx
            Hxx[:, ks, :, tb.xx_b, tb.xx_a] = xx
            Hxe[:, ks] = t[..., i : i + n * n].reshape(B, K, n, n).swapaxes(2, 3); i += n * n
            Hee[:, ks] = t[..., i : i + n]

    def _var_orders(self, k0: int, k1: int, fast: bool):
        for k in range(k0, k1):
            self._var_step(k, fast)

    def _var_step(self, k: int, fast: bool):
        """V_{k+1}, T_k and S_{k+1} from the tables through order k."""
        ks = self.k
        inv = 1.0 / (k + 1)
        sl = slice(0, k + 1)
        rs = slice(k, None, -1)
        # V_{k+1} = (sum_{i+j=k} A_i V_j + aeps_k e0^T) / (k+1)
        slo, shi = ks.imulsum(self.Alo[:, sl, :, :, None], self.Ahi[:, sl, :, :, None],
                              self.Vlo[:, rs, None, :, :], self.Vhi[:, rs, None, :, :],
                              axis=(1, 3), scaled=fast)
        slo[:, :, 0], shi[:, :, 0] = ks.vadd(slo[:, :, 0], shi[:, :, 0],
                                             self.aelo[:, k], self.aehi[:, k])
        self.Vlo[:, k + 1], self.Vhi[:, k + 1] = ks.vscale(inv, slo, shi)

        # T_k[c,a,be] = sum_{i+j=k} Hxx_i[c,a,b] V_j[b,be]
        self.Tlo[:, k], self.Thi[:, k] = ks.imulsum(
            self.Hxxlo[:, sl, :, :, :, None], self.Hxxhi[:, sl, :, :, :, None],
            self.Vlo[:, rs, None, None, :, :], self.Vhi[:, rs, None, None, :, :],
            axis=(1, 4), scaled=fast)
        # Q1_k[c,al,be] = sum_{i+j=k} T_i[c,a,be] V_j[a,al]
        q1lo, q1hi = ks.imulsum(self.Tlo[:, sl, :, :, None, :], self.Thi[:, sl, :, :, None, :],
                                self.Vlo[:, rs, None, :, :, None], self.Vhi[:, rs, None, :, :, None],
                                axis=(1, 3), scaled=fast)
        # Q2_k[c,al] = sum_{i+j=k} Hxe_i[c,a] V_j[a,al], added on eps row/col
        q2lo, q2hi = ks.imulsum(self.Hxelo[:, sl, :, :, None], self.Hxehi[:, sl, :, :, None],
                                self.Vlo[:, rs, None, :, :], self.Vhi[:, rs, None, :, :],
                                axis=(1, 3), scaled=fast)
        q1lo[:, :, 0, :], q1hi[:, :, 0, :] = ks.vadd(q1lo[:, :, 0, :], q1hi[:, :, 0, :], q2lo, q2hi)
        q1lo[:, :, :, 0], q1hi[:, :, :, 0] = ks.vadd(q1lo[:, :, :, 0], q1hi[:, :, :, 0], q2lo, q2hi)
        q1lo[:, :, 0, 0], q1hi[:, :, 0, 0] = ks.vadd(q1lo[:, :, 0, 0], q1hi[:, :, 0, 0],
                                                     self.Heelo[:, k], self.Heehi[:, k])
        # S_{k+1} = (sum A_i S_j + Q_k)/(k+1)
        aslo, ashi = ks.imulsum(self.Alo[:, sl, :, :, None, None], self.Ahi[:, sl, :, :, None, None],
                                self.Slo[:, rs, None, :, :, :], self.Shi[:, rs, None, :, :, :],
                                axis=(1, 3), scaled=fast)
        tlo, thi = ks.vadd(aslo, ashi, q1lo, q1hi)
        self.Slo[:, k + 1], self.Shi[:, k + 1] = ks.vscale(inv, tlo, thi)

    def flat(self, row, orders: slice):
        """Coefficients ``orders`` of a row (an index) or of a slice of rows,
        each order's state, V and S (when enabled) flattened side by side:
        (lo, hi) of shape (orders, n + n m + n m m), behind the rows' axis
        for a slice."""
        blocks = [(self.zlo, self.zhi)]
        if self.with_var:
            blocks += [(self.Vlo, self.Vhi), (self.Slo, self.Shi)]
        out = []
        for i in range(2):
            parts = [b[i][row, orders] for b in blocks]
            lead = parts[0].ndim - 1
            out.append(np.concatenate(
                [x.reshape(*x.shape[:lead], math.prod(x.shape[lead:])) for x in parts], axis=-1))
        return out[0], out[1]

    def unflat(self, x):
        """Split flattened orders (the last axis) back into (state, V, S)
        blocks."""
        n, m = self.n, self.m
        lead = x.shape[:-1]
        return (x[..., :n], x[..., n : n + n * m].reshape(*lead, n, m),
                x[..., n + n * m :].reshape(*lead, n, m, m))

    def eval_flat(self, row, h: float, upto: int):
        """The Taylor polynomial of a row (or a slice of rows) through order
        ``upto`` at time h (Horner), flattened as in :meth:`flat`."""
        clo, chi = self.flat(row, slice(0, upto + 1))
        lo, hi = clo[..., upto, :], chi[..., upto, :]
        for k in range(upto - 1, -1, -1):
            lo, hi = self.k.vscale(h, lo, hi)
            lo, hi = self.k.vadd(lo, hi, clo[..., k, :], chi[..., k, :])
        return lo, hi


# ---------------------------------------------------------------------------
# rough enclosure and public Taylor coefficients

_ROUGH_ATTEMPTS = 24


def _eval_field(field: VectorFieldDef, eps: Interval, box: IntervalBox) -> IntervalBox:
    """f(eps, box); an evaluation that overflows fails the rough enclosure."""
    try:
        return field.eval_box(eps, box)
    except IntervalError as exc:
        raise FlowError(f"rough enclosure: {exc}") from exc


def rough_enclosure(field: VectorFieldDef, state: IntervalBox, eps: Interval,
                    step: float) -> IntervalBox:
    """A priori solution enclosure Z over [0, step] from the state box.

    Validated by the Picard condition: state + [0, step] f(eps, Z) inside Z.
    Raises :class:`FlowError` when inflation fails or the field overflows
    on a candidate (caller halves the step).
    """
    if step <= 0:
        raise IntervalError("rough_enclosure needs a positive step")
    hiv = Interval(0.0, step)
    scale = float(np.max(np.abs(state.lo))) + float(np.max(np.abs(state.hi))) + 1.0
    f0 = _eval_field(field, eps, state)
    z = state + f0.mul_interval(hiv)
    z = z.widened(np.maximum(1e-18, 1e-3 * np.maximum(z.rad(), np.max(z.rad()))))
    for _ in range(_ROUGH_ATTEMPTS):
        if float(np.max(z.width())) > 100.0 * scale:
            raise FlowError(f"rough enclosure diverges for step {step}")
        fz = _eval_field(field, eps, z)
        cand = state + fz.mul_interval(hiv)
        if cand.is_subset(z):
            fz2 = _eval_field(field, eps, cand)
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
              hull: IntervalBox, xhat, h: float, P: int, err_max: float) -> _StepPieces | None:
    """One-step flow jet over (eps, x_k), remainders included.

    One batch-2 series to order P+1 serves the step: row 0 starts at the
    hull and gives the Taylor polynomial, row 1 starts at the rough
    enclosure Z of the step and gives the Lagrange remainders.  Its state
    pass comes first and gives the error estimate
    ``|z_P(row 0)| h^P + |z_{P+1}(row 1)| h^(P+1)``; when that exceeds
    ``err_max`` the step is rejected (None) before any table, Gronwall or
    variational work.  Raises :class:`FlowError` when the rough enclosure
    fails or a piece is not finite (the caller halves the step).
    """
    n = tb.n
    Z = rough_enclosure(tb.field, hull, eps, h)
    mj = n + 1
    eye = np.hstack([np.zeros((n, 1)), np.eye(n)])
    # overflowing coefficients end in the finiteness checks below
    with np.errstate(over="ignore", invalid="ignore"):
        hv = Interval.point(h)
        hp1 = hv ** (P + 1)
        ser = _Series(rf, np.stack([hull.lo, Z.lo]), np.stack([hull.hi, Z.hi]), P + 1, m=mj)
        ser.extend_state(P + 1)
        rzlo, rzhi = ku.vmul(ser.zlo[1, P + 1], ser.zhi[1, P + 1], hp1.lo, hp1.hi)
        err = float(np.max(ku.vmag(ser.zlo[0, P], ser.zhi[0, P]))) * h**P \
            + float(np.max(ku.vmag(rzlo, rzhi)))
        if not math.isfinite(err):
            raise FlowError(f"non-finite Taylor enclosure for step {h}")
        if err > err_max:
            return None
        ser.extend_tables(P + 1)
        # Gronwall rough bounds for the variational blocks over the step
        d, ce, hxx, hxe, hee = _gronwall(ser, 1)
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

        # Taylor polynomial of row 0 plus the Lagrange remainder of row 1
        plo, phi = ser.eval_flat(0, h, P)
        clo, chi = ser.flat(1, slice(P + 1, P + 2))
        vlo, vhi = ku.vmul(clo[0, n:], chi[0, n:], hp1.lo, hp1.hi)
        lo, hi = ku.vadd(plo, phi, np.concatenate([rzlo, vlo]), np.concatenate([rzhi, vhi]))
        pieces = _StepPieces()
        pieces.err = err
        pieces.val_lo, pieces.Mlo, pieces.Slo = ser.unflat(lo)
        pieces.val_hi, pieces.Mhi, pieces.Shi = ser.unflat(hi)

        serp = _Series(rf_pt, xhat[None], xhat[None], P)
        serp.extend_to(P)
        plo, phi = serp.eval_flat(0, h, P)
        pieces.phi_lo, pieces.phi_hi = ku.vadd(plo, phi, rzlo, rzhi)
    if not all(np.isfinite(x).all() for x in (lo, hi, pieces.phi_lo, pieces.phi_hi)):
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
        scale = float(np.max(np.abs(hull.mid()))) + 1.0
        # a step at min_step is kept whatever its error estimate
        err_max = tol * scale if hcur > settings.min_step * (1 + 1e-12) else math.inf
        try:
            pieces = _one_step(tb, rf, rf_pt, eps, hull, state.xhat, hcur, P, err_max)
        except FlowError:
            if h <= settings.min_step:
                raise FlowError(f"step underflow at t={t} of T={T}: "
                                "no rough enclosure at min_step")
            h *= 0.5
            continue
        if pieces is None:
            h = max(hcur * 0.5, settings.min_step)
            continue
        state.advance(pieces, r0lo, r0hi)
        t = T if last else t + hcur
        steps += 1
        if pieces.err < tol * scale * 1e-4 and h < h_cap:
            h *= 2.0
    return state.to_jet(r0lo, r0hi)


# ---------------------------------------------------------------------------
# nonrigorous float transports (shooting, candidate sizing, midpoint
# diagnostics): the same series in round-to-nearest arithmetic

def _float_transport(field: VectorFieldDef, eps_val: float, x0, T: float, order: int,
                     step: float, m: int):
    """Fixed-step transport of x0 ((n,) or a batch (B, n)) by the float
    series through order ``order + 1``: the endpoint and, for m = n + 1, its
    derivatives in (eps, x0), with ``m = 0`` skipping them."""
    if T < 0:
        field, T = field.negated(), -T
    tb = _tables(field)
    rf = _Resolved(tb, float(eps_val))
    n = tb.n
    x = np.array(x0, dtype=float)
    z = x.reshape(-1, n)
    V = np.broadcast_to(np.eye(n, m, 1), (len(z), n, m))
    S = np.zeros((len(z), n, m, m))
    t = 0.0
    while t < T:
        h = min(step, T - t)
        ser = _Series(rf, z, z, order, m=m, kernels=_Nearest)
        if m:
            ser.start((V, V), (S, S))
        ser.extend_to(order + 1)
        z, V, S = ser.unflat(ser.eval_flat(slice(None), h, order + 1)[0])
        t += h
    lead = x.shape[:-1]
    return z.reshape(*lead, n), V.reshape(*lead, n, m), S.reshape(*lead, n, m, m)


def point_flow_jet(field: VectorFieldDef, eps_val: float, x0, T: float,
                   order: int = 16, step: float = 0.125):
    """Plain float Taylor transport of value, Jacobian and second derivative
    with respect to (eps, x0), of one point (n,) or a batch (B, n).  For
    locating candidates and midpoint diagnostics only; nothing here is
    validated."""
    return _float_transport(field, eps_val, x0, T, order, step, field.dimension + 1)


def point_flow(field: VectorFieldDef, eps_val: float, x0, T: float,
               order: int = 16, step: float = 0.125):
    """Float Taylor endpoint only (cheap nonrigorous propagation) of one
    point (n,) or a batch (B, n)."""
    return _float_transport(field, eps_val, x0, T, order, step, 0)[0]
