"""Validated integration of parameterized polynomial ODEs with order-2 jets
(or order-1 ones, for readers of values and first derivatives only).

The integrator transports an order-2 jet (value, first and second partials
with respect to eps and the initial-condition parameters) along the flow of
a polynomial field q' = f(eps, q).  Each step evaluates one batched interval
Taylor series of the solution and of its first and second variational
equations: row 0 starts at the current set and gives the Taylor polynomial,
row 1 starts at a Picard rough enclosure of the step and gives the Lagrange
remainders, and a third, state-only row starts at the Lohner centre point
with the coefficients of the point eps at the middle of the eps box and
gives the centre's image.  The series is filled in three passes.  The state
pass gives the solution coefficients of all three rows, and with them the
step's error estimate: a step that fails the estimate is rejected here,
before any variational work.  For a step that is kept, one fused product
sum then fills the field's derivative tables at every order for the first
two rows, the Gronwall-type rough bounds that start row 1's variational
blocks come from its order-0 tables, and the variational pass runs the
first and second variational recursions on those two rows.  One Horner
evaluation gives the set's and the centre's polynomials side by side.

The field's value and derivative tables are compiled once from the stacked
value/derivative map that :meth:`PolyMap.jet` evaluates, in its layout:
one padded coefficient group over a shared bank of monomial products, f's
rows first, with the table blocks read through :meth:`PolyMap._split`.

The transported set is a Lohner-style QR-factored representation,
x in xhat + C r0 + Q r and [V | W] in [C | What] + Q [Rv | Rw], whose
doubleton term C r0 carries the initial-condition/parameter correlation and
controls the wrapping effect over long transport times.

Step sizes are powers of two, adapted by a coefficient-decay heuristic, so
runs are deterministic (:class:`_StepRule`); an initial step that reaches
T is taken as given, and the step that reaches T is one clipped step.  A
step whose rough enclosure fails, whose error estimate is too large or
whose enclosures are not finite is halved, and an accepted step whose
error estimate is far below the tolerance doubles the next one.  The integrator
remembers the sizes that failed: no doubling returns to a rejected size
(the clipped last step aside) during the next ``patience`` accepted steps,
where patience starts at 1 and doubles each time the size fails again, so
a size that keeps failing is blocked for 1, 2, 4, ... steps in turn
instead of being retried after every step.  The memory only ever removes a
doubling.  The rough enclosure's Picard iteration gives up as soon as it
stops contracting, when the largest width ratio of the Picard image to the
candidate is at least 1 and has risen since the previous attempt; the
step is then halved without running the remaining attempts.

Every Cauchy product of the series, ``sum_{i+j=k} X_i Y_j`` contracted
over a state index too, is one fused interval product sum over the last,
contiguous axis of its operands: left operands keep their orders in the
usual direction and right operands are read through twins stored
reversed, so an order's terms are a prefix of the one and a suffix of the
other.  The variational sums run over the field's term plan
(:class:`_FieldTables`): no entry of [A; Hxe; Hxx] that is identically
zero, or constant in x above order 0, enters a sum.  The second
variational recursion's T V and A S share one sum, so each order of the
variational pass is two product sums.  The (lo, hi) endpoints of every
block are stacked on a leading axis, so one numpy call gathers or
scatters both.  Every division by an order k+1 divides by the integer
itself, outward.

The second variational block S is symmetric in its two parameter indices:
it holds the mixed partials of a C^2 flow.  The series keeps it once, as
the m (m + 1) / 2 pairs (al, be) with al >= be, and so runs its products
over those pairs only; the full block is mirrored back from them once per
step.  One triangle is sound because every exact datum the recursion
encloses is symmetric: the exact S of the flow, the second partials Hxx
of the field, the start of row 0 (S0 = 0, or a symmetric jet) and the
start of row 1 (the same [-etaS, etaS] in every entry), so the recursion
gives the pair (al, be) and its mirror (be, al) the same exact
coefficients, and an enclosure of one encloses the other.  A start that
is not symmetric as an interval block is first intersected with its
mirror, which keeps the exact (symmetric) data.

A transport at order 1 (``flow_jet(..., order=1)``, for readers that need
values and first derivatives only) runs the same loop with V alone: the
table pass evaluates A and aeps alone, the variational pass is one product
sum per order, only the bound etaV is formed, and the Lohner state carries
D = V.  Every operation on V is the one of the order-2 run, entry for
entry, so the value and d1 are the same bit for bit while both runs take
the same kernel path and the same steps.  In the worked example this
costs about 60% of an order-2 transport.

The nonrigorous float transports (:func:`point_flow`, :func:`point_flow_jet`)
run the same series with round-to-nearest kernels at the field's
coefficient midpoints, for a batch of points at once; their blocks carry
one endpoint.  Each batch row takes its own steps by the same
:class:`_StepRule`, its error estimate read from the last two
coefficients of its float series; an attempt that no row takes keeps its
series for the next one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from . import kernels as ku
from .intervals import Interval, IntervalBox, IntervalError
from .jets import Jet1Enclosure, Jet2Enclosure, compose_d2, with_eps_row
from .matrices import IntervalMatrix
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
        if not self.taylor_order >= 2:
            raise IntervalError("taylor_order must be at least 2")
        if not (0 < self.min_step <= self.initial_step < math.inf):
            raise IntervalError("steps must be positive and finite with min_step <= initial_step")
        if self.wrapping_control != "parallelepiped":
            raise IntervalError("wrapping_control must be 'parallelepiped' "
                                f"(the only representation), got {self.wrapping_control!r}")


_LOG_MAX = math.log(sys.float_info.max)


def _iexp_ub(x: float) -> float:
    """Rigorous upper bound of e^x for x >= 0: x is halved (exactly) to at
    most 1, where the Taylor sum to order 14 plus a tail bound is taken,
    and the result squared back once per halving, on floats, each operation
    rounded up by one ulp.  Above log(max float), and for a non-finite x,
    the bound is inf."""
    if x <= 0.0:
        return 1.0
    if not x < _LOG_MAX:
        return math.inf
    halvings = 0
    while x > 1.0:
        x /= 2.0
        halvings += 1
    acc = term = 1.0
    for k in range(1, 15):
        term = math.nextafter(math.nextafter(term * x, math.inf) / k, math.inf)
        acc = math.nextafter(acc + term, math.inf)
    # geometric tail bound, ratio <= 1/15
    acc = math.nextafter(acc + 2.0 * term, math.inf)
    for _ in range(halvings):
        acc = math.nextafter(acc * acc, math.inf)
    return acc


# ---------------------------------------------------------------------------
# compiled field: series bank of products, monomial tables

class _FieldTables:
    """The field's value and derivative map compiled to a shared product bank.

    Bank rows are time series: row 0 is the constant series, rows 1..n alias
    the state components, later rows are pairwise products of earlier rows
    (grouped by depth so one batched convolution per depth fills an order).

    ``g_var`` is :meth:`PolyMap._stacked_map` of the field's right-hand side,
    the map that :meth:`PolyMap.jet` evaluates, padded into rectangular
    arrays for one fused evaluation per order: one row per component (f's n
    rows first, then its first and second partials in the stacked order),
    one column per monomial, an entry (coefficient, eps power, bank row).
    The table pass evaluates the rows after f's; ``left_cols`` and
    ``eps_cols`` name their columns as :meth:`PolyMap._split` reads the
    stacked layout.

    ``plan`` is the term plan of the variational product sums
    (:func:`_term_plan`), compiled on first use from the unresolved
    ``g_var``, so it holds at every eps.
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

        stacked, pair = field.rhs._stacked_map()
        self.g_var = self._compile(stacked)
        self.n_rows = 1 + n + len(self._products)
        # the columns of the table pass's product sums (the rows of g_var
        # after f's), read into the series' table blocks: row r, state index
        # s of the left operands [A; Hxe; Hxx] is column left_cols[r, s];
        # aeps[c] and Hee[c] are columns eps_cols[0, c] and eps_cols[1, c]
        _, d1, d2 = field.rhs._split(np.arange(stacked.out_dim) - n, pair)
        self.left_cols = np.concatenate([
            d1[:, 1:],                                              # A[c, a]
            d2[:, 0, 1:],                                           # Hxe[c, a]
            d2[:, 1:, 1:].reshape(n * n, n)])                       # Hxx[c, a, b]
        self.eps_cols = np.array([d1[:, 0], d2[:, 0, 0]])
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
        # per depth group, its left then its right operand rows, for one
        # gather of both
        self.depth_operands = [np.concatenate([lidx, ridx]) for lidx, ridx, _ in self.depth_groups]

    @cached_property
    def plan(self) -> SimpleNamespace:
        """The term plan (a float transport of values alone needs none)."""
        g, n = self.g_var, self.n
        nz = (g["clo"] != 0) | (g["chi"] != 0)
        # 0 identically zero, 1 constant in x, 2 varying, per entry
        kind = (nz.any(1).astype(int) + (nz & (g["rows"] != 0)).any(1))[n:][self.left_cols]
        return _term_plan(kind, self.left_cols, n)

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

    def _compile(self, pm: PolyMap) -> dict:
        """The map's (coeff_lo, coeff_hi, eps_pow, bank_row) arrays, each
        monomial at its slot of :meth:`PolyMap._compile`'s zero-padded grid
        (at least one column wide); a pad is the exact 0 times bank row 0."""
        clo, chi, _, slot, width = pm._compile()
        exps = [e for comp in pm.components for _, e in comp]
        shape = (pm.out_dim, max(width, 1))
        g = {"clo": np.zeros(shape), "chi": np.zeros(shape),
             "epow": np.zeros(shape, dtype=int), "rows": np.zeros(shape, dtype=int)}
        g["clo"][slot], g["chi"][slot] = clo, chi
        g["epow"][slot] = [e[0] for e in exps]
        g["rows"][slot] = [self._monomial_row(e[1:]) for e in exps]
        return g


def _tables(field: VectorFieldDef) -> _FieldTables:
    """The field's compiled tables, built on first use and kept on the
    (frozen) field itself."""
    tb = getattr(field, "_tables", None)
    if tb is None:
        tb = _FieldTables(field)
        object.__setattr__(field, "_tables", tb)
    return tb


def _items(mask):
    """Per row of the boolean ``mask``, the indices where it holds, padded
    with -1 to the longest row: (rows, width)."""
    lists = [np.flatnonzero(r) for r in mask]
    out = np.full((len(lists), max(map(len, lists), default=0)), -1)
    for i, items in enumerate(lists):
        out[i, : len(items)] = items
    return out


def _term_plan(kind, cols, n: int) -> SimpleNamespace:
    """The term plan from the kinds of the entries of [A; Hxe; Hxx] and
    their table columns ``cols``, both (2n + n^2, n).  An entry is
    identically zero (0), constant in x (1: every monomial bank row 0, so 0
    at every order >= 1) or varying (2).  Per row of a product sum its
    items are the state indices of its constant entries, then of its
    varying ones, each list padded to the longest (``c``, ``v``); a pad
    reads the state 0 and an appended zero table column (-1).  Sum 1
    ([A; Hxe; Hxx] V) runs over the rows ``rows1`` that are not
    identically zero, the ``nA`` kept A rows first; sum 2 (Q1 + A S) runs
    per c over A's row c and the T rows (c, a) whose Hxx row is not
    identically zero, its varying items the T items ``wT`` wide
    (``is_t``), then A's varying ones.  ``T`` lists the T items: state c,
    position q and the sum-1 row that gives them."""
    rows1 = np.flatnonzero(kind.any(1))
    const, var = _items(kind[rows1] == 1), _items(kind[rows1] == 2)
    it1 = np.hstack([const, var])
    tq = _items(kind[2 * n :].reshape(n, n, n).any(2))
    const2, var2 = _items(kind[:n] == 1), _items(kind[:n] == 2)
    c, q = np.nonzero(tq >= 0)

    def col(items, rows):
        return np.where(items >= 0, cols[rows[:, None], items], -1)

    return SimpleNamespace(
        rows1=rows1, nA=int(np.sum(rows1 < n)), nAQ=int(np.sum(rows1 < 2 * n)),
        c1=const.shape[1], v1=var.shape[1], src1=np.maximum(it1, 0), col1=col(it1, rows1),
        c2=const2.shape[1], wT=tq.shape[1], v2=tq.shape[1] + var2.shape[1],
        src2=np.maximum(np.hstack([const2, tq, var2]), 0),
        is_t=np.repeat([False, True, False], [const2.shape[1], tq.shape[1], var2.shape[1]]),
        colc2=col(const2, np.arange(n)), colv2=col(var2, np.arange(n)),
        T=(c, q, np.array([rows1.tolist().index(r) for r in 2 * n + c * n + tq[c, q]], int)))


class _Resolved:
    """Field table groups with eps powers folded into the coefficients:
    enclosures for an interval eps, floats (coefficient midpoints times
    powers of eps) for a float eps."""

    def __init__(self, tb: _FieldTables, eps: Interval | float):
        self.tb = tb
        g = tb.g_var
        e = g["epow"]
        powers = range(int(max(e.max(), 0)) + 1)
        if isinstance(eps, Interval):
            # over eps = [0, q] or [q, 0], c eps^p (p >= 1) is the hull of 0
            # and c q^p, whose 0 stays exact: ``**`` keeps it, but the outward
            # step of vmul would move it to a subnormal, which fails
            # is_scaled and sends every pass of the series down the checked path
            half = (eps.lo == 0.0) != (eps.hi == 0.0)
            base = Interval.point(eps.lo + eps.hi) if half else eps
            pw = [base ** p for p in powers]
            plo, phi = np.array([p.lo for p in pw]), np.array([p.hi for p in pw])
            lo, hi = ku.vmul(g["clo"], g["chi"], plo[e], phi[e])
            if half:
                pos = e > 0
                lo = np.where(pos, np.minimum(lo, 0.0), lo)
                hi = np.where(pos, np.maximum(hi, 0.0), hi)
        else:
            lo = hi = 0.5 * (g["clo"] + g["chi"]) * np.array([eps ** p for p in powers])[e]
        self.g_var = {"clo": lo, "chi": hi, "rows": g["rows"]}


class _Nearest:
    """Round-to-nearest stand-ins for the kernels :class:`_Series` calls:
    each returns its one float result as a stack of one endpoint, the
    (1, ...) array that a float series stores; the (lo, hi) kernels read
    the ``lo`` operands only, the ``stack_`` kernels take such stacks.
    Every operand counts as scaled, so a float series never reruns a pass
    through the checked path."""

    @staticmethod
    def imulsum(alo, ahi, blo, bhi, scaled: bool = False):
        return np.add.reduce(alo * blo, axis=-1)[None]

    @staticmethod
    def vscale(c: float, alo, ahi):
        return (c * alo)[None]

    @staticmethod
    def stack_add(a, b):
        return a + b

    @staticmethod
    def stack_divint(d: int, x):
        return x / d

    @staticmethod
    def is_scaled(*arrays) -> bool:
        return True


# ---------------------------------------------------------------------------
# series engine

def _ends(x):
    """The (lo, hi) of a stack of endpoints: both are the one endpoint of a
    float series' stack."""
    return x[0], x[-1]


def _split(x, n: int, m: int, order: int = 2):
    """The (state, V, S) blocks of flattened coefficients (the last axis,
    n + n m + n npairs wide), S on its pairs: (..., n, npairs); at order 1
    the last axis is n + n m wide and S is None."""
    lead = x.shape[:-1]
    z, V = x[..., :n], x[..., n : n + n * m].reshape(*lead, n, m)
    if order == 1:
        return z, V, None
    return z, V, x[..., n + n * m :].reshape(*lead, n, m * (m + 1) // 2)


@lru_cache(maxsize=None)
def _pairs(m: int):
    """The pairs (al, be), al >= be, that hold a symmetric m x m block,
    column by column: (0, 0), (1, 0), ..., (m-1, 0), (1, 1), (2, 1), ...,
    so the first m pairs are the eps column (al, 0).  Returns the arrays
    ``al`` and ``be`` of the pairs and the (m, m) array ``mirror`` that
    gives the pair of (al, be) and of (be, al) alike; built once per m."""
    al, be = np.tril_indices(m)
    order = np.lexsort((al, be))
    al, be = al[order], be[order]
    mirror = np.empty((m, m), dtype=int)
    mirror[al, be] = mirror[be, al] = np.arange(len(al))
    return al, be, mirror


class _Series:
    """Order-by-order interval Taylor series of a batch of initial boxes.

    Every kernel call serves the whole batch.  The leading rows share the
    resolved field coefficients ``rf``; the trailing ``len(state_rf)`` rows
    are state-only, each with its own coefficients ``state_rf[i]`` (the
    step's centre point at the point eps).  The state pass runs every row,
    its coefficient group per row, (B, n, w), so each row's sums are those
    of a series of its own; the tables and the variational blocks exist
    for the ``nvar`` leading rows only.  Every block stacks its endpoints
    on axis 0, ``e`` of them (``ends``: 2, lo and hi, for an enclosure; 1
    for a float series), and its batch row on axis 1, so that one numpy
    call gathers or scatters both endpoints.  The bank's operand rows of a
    depth group repeat rows (x_1 x_1, x_1 x_2, ...), so they are one gather
    of both operands, whose right half a reversed view reads backwards.

    The two variational product sums of an order run over the terms of the
    field's term plan (``plan`` of :class:`_FieldTables`) alone: a row of
    a sum takes the order-0 terms of its constant and varying entries and
    the order >= 1 terms of its varying ones, so no identically-zero entry
    or row, and no constant entry above order 0, reaches ``imulsum``; the
    terms it drops are exact zeros on either kernel path.  Each left
    operand is written compact where it is produced, as one row per sum
    row: its constant items (``c`` wide), then one block of its varying
    items (``v`` wide) per order i, at ``c + i v``, so the terms of
    ``sum_{i+j=k} X_i Y_j`` are the prefix ``[:c + (k+1) v]``.  The right
    operand meets it in a twin whose orders are reversed: the items of
    Y_j at index ``(P+1-j) v``, its constant items first, so the terms of
    order k are the suffix ``[(P+1-k) v:]``.  Each order of Y is written
    into its twin when it is produced; its constant items overwrite those
    of the order before, which no later sum reads, so a checked rerun of
    the pass writes its first order again.  A pad multiplies an exact 0 of
    the left operand by an entry of V or S.
    The symmetric S is kept on the pairs p = (al, be) with al >= be, in the
    order of :func:`_pairs` (the eps column (al, 0) first).

    * ``bank`` (e, B, rows, P+2): the field's product bank, rows as in
      :class:`_FieldTables`, orders last.  ``z`` is the view of its state
      rows 1..n, (e, B, n, P+2).
    * ``var`` (e, nvar, P+2, n, m + npairs), when ``m > 0``: the joined
      rows [V_j | S_j on its pairs] in order, m wide at order 1;
      :meth:`flat` reads them.
    * ``L`` (e, nvar, R, c1 + (P+2) v1): the left operand of sum 1, the
      plan's rows of [A; Hxe; Hxx] (A's first; at order 1 A's alone), and
      ``Lr`` (e, nvar, R, m, ...) its right operand, V_j[s, al] at the
      row's items s.  ``L0`` (e, nvar, 2n + n^2, n) keeps the order-0
      tables A[c, a] (rows 0..n-1), Hxe[c, a] (rows n..2n-1) and
      Hxx[c, a, b] (row 2n + c n + a) densely for :func:`_gronwall`;
      ``E`` (e, nvar, 2, P+2, n) holds aeps[c] and Hee[c], which are only
      added.
    * ``TA`` (e, nvar, npairs, n, c2 + (P+2) v2), at order 2: the left
      operand of Q1 + A S per pair p = (al, be) and c: A's constant items,
      then per order i the T items T_i[c, a, be] and A's varying items;
      ``TAr`` its right operand, V_j[a, al] at a T item and S_j[a, p] at
      an A item.

    Sum 1 gives A V, Hxe V and Hxx V (T, written into ``TA``); each output
    is the same last-axis reduction as in separate calls, and the A rows
    take the same terms at either order.  Sum 2 gives Q1 + A S, and one
    row joins A V and Q1 + A S for two adds (the eps-column terms aeps, Q2
    and Hee) and one division by k+1.

    A series is filled in three passes, each from where it stopped:

    1. :meth:`extend_state`: z and the bank of products, order by order,
       from the field's own rows of the coefficient group;
    2. :meth:`extend_tables`: the field's derivative tables (``L``, ``L0``,
       ``E`` and A's items of ``TA``) at every order of the bank, in one
       ``imulsum`` call;
    3. the variational recursion for V, T, Q and S, order by order.

    :meth:`extend_to` runs all three.  A caller that can reject a series on
    its state alone (the step control of :func:`flow_jet`) runs the state
    pass first and pays for the tables and the variational blocks only for
    a series it keeps.  A series with variational blocks needs
    :meth:`start` before its variational pass.

    ``kernels`` is the kernel set the series calls (``imulsum``,
    ``stack_add``, ``stack_divint``, ``vscale``, ``is_scaled``): ``ku``
    for enclosures, :class:`_Nearest` for the float transports, which run
    the same passes in round-to-nearest arithmetic.  Cauchy products use
    the fused ``imulsum`` path while every stored operand is scaled
    (``is_scaled``): each pass is checked once, after it ran, and rerun
    through the checked kernel when one of the operands it wrote fails the
    check, before a later pass reads them.  A pass writes only its own
    slots, so the rerun overwrites everything the unchecked run wrote.  The
    flag is the series', not a row's: when one row's operands fail the
    check, every row takes the checked kernel.
    """

    def __init__(self, rf: _Resolved, zlo, zhi, P: int, m: int = 0, kernels=ku,
                 state_rf: tuple[_Resolved, ...] = (), order: int = 2):
        tb = rf.tb
        n = tb.n
        B = zlo.shape[0]
        self.k = kernels
        self.tb = tb
        self.n = n
        self.m = m
        self.P = P
        self.order = order
        # the leading rows; the trailing len(state_rf) rows are state-only
        self.nvar = nv = B - len(state_rf)
        # a float series carries one endpoint, an enclosure two
        self.ends = e = 1 if kernels is _Nearest else 2
        self.bank = np.zeros((e, B, tb.n_rows, P + 2))
        self.bank[:, :, 0, 0] = 1.0
        self.z = self.bank[:, :, 1 : 1 + n]
        # a float series' one endpoint takes zhi, which equals zlo there
        self.z[0, :, :, 0] = zlo
        self.z[-1, :, :, 0] = zhi
        self.with_var = m > 0
        # the state pass evaluates f alone (the first n rows of g_var), each
        # row with its own coefficients: (B, n, w)
        def per_row(key):
            c = rf.g_var[key][:n]
            return np.concatenate([np.broadcast_to(c, (nv, *c.shape)),
                                   *(r.g_var[key][None, :n] for r in state_rf)])

        self.g_state = {"clo": per_row("clo"), "chi": per_row("chi"), "rows": rf.g_var["rows"][:n]}
        coeffs = [self.g_state["clo"], self.g_state["chi"]]
        if self.with_var:
            pl = self.plan = tb.plan
            # the rows of sum 1 and the dense order-0 tables: [A; Hxe; Hxx]
            # and the added aeps, Hee, or at order 1 A and aeps alone
            R, nl = (len(pl.rows1), 2 * n + n * n) if order == 2 else (pl.nA, n)
            self.left_cols, self.eps_cols = tb.left_cols[:nl], tb.eps_cols[:order]
            self.L = np.zeros((e, nv, R, pl.c1 + (P + 2) * pl.v1))
            self.Lv = self.L[..., pl.c1 :].reshape(e, nv, R, P + 2, pl.v1)
            self.Lr = np.zeros((e, nv, R, m, self.L.shape[-1]))
            self.E = np.zeros((e, nv, order, P + 2, n))
            al, be, _ = _pairs(m)
            npairs = len(al) if order == 2 else 0
            self.var = np.zeros((e, nv, P + 2, n, m + npairs))
            # the right operands' items, flat in a joined row (n, m + npairs):
            # V's column al of each item s of sum 1, (R, m, c1 + v1), and in
            # sum 2 V's column al(p) at a T item and S's column m + p at an A
            # item, (npairs, n, c2 + v2)
            self.gather1 = pl.src1[:R, None, :] * (m + npairs) + np.arange(m)[:, None]
            if order == 2:
                self.TA = np.zeros((e, nv, npairs, n, pl.c2 + (P + 2) * pl.v2))
                self.TAv = self.TA[..., pl.c2 :].reshape(e, nv, npairs, n, P + 2, pl.v2)
                self.TAr = np.zeros_like(self.TA)
                self.gather2 = pl.src2 * (m + npairs) + np.where(
                    pl.is_t, al[:, None], m + np.arange(npairs)[:, None])[:, None]
                # T_k[c, a, be] of pair p, flat in sum 1's output (R, m), to
                # its T item of c, flat in TA's (n, c2 + (P+2) v2) at order 0
                c, q, r = pl.T
                self.t_src = r * m + be[:, None]
                self.t_dst = c * self.TA.shape[-1] + pl.c2 + q
            # the table pass evaluates the other rows of g_var, at order 1
            # f's first partials alone (its n (n + 1) rows after f's)
            stop = None if order == 2 else n + n * (n + 1)
            self.g_tab = {key: rf.g_var[key][n:stop] for key in ("clo", "chi", "rows")}
            coeffs += [self.g_tab["clo"], self.g_tab["chi"]]
        self.scaled = kernels.is_scaled(*coeffs, zlo, zhi)
        # orders filled by each pass: z through "state" (the bank one less),
        # tables below "tables", V and S through "var" (T one less)
        self._to = {"state": 0, "tables": 0, "var": 0}

    def start(self, V0, S0=None):
        """Set the variational initial data: (lo, hi) of shape (B, n, m)
        and (B, n, m, m), the latter at order 2 only; equal endpoints for a
        float series.  Each pair (al, be) of S takes the intersection of
        S0[..., al, be] and its mirror S0[..., be, al], which both enclose
        the one exact entry; raises :class:`IntervalError` when they do not
        intersect."""
        if self.order == 1:
            self.start_pairs(V0)
            return
        al, be, _ = _pairs(self.m)
        lo = np.maximum(S0[0][..., al, be], S0[0][..., be, al])
        hi = np.minimum(S0[-1][..., al, be], S0[-1][..., be, al])
        if not (lo <= hi).all():
            raise IntervalError("mixed-partial enclosures do not intersect")
        self.start_pairs(V0, (lo, hi))

    def start_pairs(self, V0, Sp0=()):
        """:meth:`start` from S0 already on the pairs: (lo, hi) of shape
        (B, n, npairs), as :meth:`split` gives them; none at order 1."""
        self._write(0, np.concatenate([np.stack(x)[-self.ends :] for x in (V0, Sp0) if x],
                                      axis=-1))
        self.scaled = self.scaled and self.k.is_scaled(*V0, *Sp0)

    def _write(self, j: int, row):
        """Store the joined row [V_j | S_j] (e, nvar, n, m [+ npairs]) in
        ``var`` and its items in the right operands' twins."""
        pl, P = self.plan, self.P
        self.var[:, :, j] = row
        row = row.reshape(*row.shape[:2], -1)
        o = (P + 1 - j) * pl.v1
        self.Lr[..., o : o + pl.c1 + pl.v1] = np.take(row, self.gather1, axis=-1)
        if self.order == 2:
            o = (P + 1 - j) * pl.v2
            self.TAr[..., o : o + pl.c2 + pl.v2] = np.take(row, self.gather2, axis=-1)

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
            self.bank[..., k0:k1], self.z[..., k0 + 1 : k1 + 1]))

    def extend_tables(self, upto: int):
        """Table pass: the derivative tables at orders below ``upto``; every
        item of ``TA`` is an item of ``L`` too."""
        self.extend_state(upto)
        self._pass("tables", upto, self._table_orders, lambda k0, k1: (
            self.Lv[..., k0:k1, :], self.L[..., : self.plan.c1]))

    def extend_to(self, upto: int):
        """Fill coefficients through order ``upto`` (state; V/S when enabled)."""
        if not self.with_var:
            self.extend_state(upto)
            return
        self.extend_tables(upto)

        def written(k0, k1):
            # the twins copy var's entries; T is read from TA
            v = [self.var[:, :, k0 + 1 : k1 + 1]]
            return v + [self.TAv[..., k0:k1, : self.plan.wT]] if self.order == 2 else v

        self._pass("var", upto, self._var_orders, written)

    def _state_orders(self, k0: int, k1: int, fast: bool):
        """The bank at orders k0..k1-1 and z at orders k0+1..k1."""
        g, ks, n, bank = self.g_state, self.k, self.n, self.bank
        for k in range(k0, k1):
            for (lidx, _, rows), operands in zip(self.tb.depth_groups, self.tb.depth_operands):
                # both operands' rows in one gather; the right ones read
                # their orders backwards through a view
                x = bank[:, :, operands, : k + 1]
                a, b = x[:, :, : len(lidx)], x[:, :, len(lidx) :, ::-1]
                bank[:, :, rows, k] = ks.imulsum(a[0], a[-1], b[0], b[-1], fast)
            x = bank[:, :, g["rows"], k]
            bank[:, :, 1 : 1 + n, k + 1] = ks.stack_divint(
                k + 1, ks.imulsum(g["clo"], g["chi"], x[0], x[-1], fast))

    def _table_orders(self, k0: int, k1: int, fast: bool):
        """The derivative tables at orders k0..k1-1: one product sum over
        the monomials, which are the last axis, read into the left operands
        through the plan's items (a pad reads an appended zero column)."""
        g, pl = self.g_tab, self.plan
        x = np.moveaxis(self.bank[:, : self.nvar, g["rows"], k0:k1], 4, 2)
        t = self.k.imulsum(g["clo"], g["chi"], x[0], x[-1], fast)
        self.E[:, :, :, k0:k1] = np.moveaxis(t[..., self.eps_cols], 2, 3)
        t = np.concatenate([t, np.zeros((*t.shape[:-1], 1))], axis=-1)
        col1 = pl.col1[: self.L.shape[2]]
        self.Lv[..., k0:k1, :] = np.moveaxis(t[..., col1[:, pl.c1 :]], 2, 3)
        if self.order == 2:
            # A's items of TA, the same for every pair
            self.TAv[..., k0:k1, pl.wT :] = np.moveaxis(t[..., pl.colv2], 2, 3)[:, :, None]
        if k0 == 0:
            self.L0 = t[:, :, 0][..., self.left_cols]
            self.L[..., : pl.c1] = t[:, :, 0][..., col1[:, : pl.c1]]
            if self.order == 2:
                self.TA[..., : pl.c2] = t[:, :, 0][..., pl.colc2][:, :, None]

    def _var_orders(self, k0: int, k1: int, fast: bool):
        if not fast:
            # a checked run may follow an unchecked one from k0, which
            # overwrote order k0's constant items in the twins
            self._write(k0, self.var[:, :, k0])
        for k in range(k0, k1):
            self._var_step(k, fast)

    def _var_step(self, k: int, fast: bool):
        """V_{k+1}, T_k and S_{k+1} from the tables through order k; at
        order 1, V_{k+1} alone from one product sum."""
        ks, n, m, e, B, pl = self.k, self.n, self.m, self.ends, self.nvar, self.plan
        # [A; Hxe; Hxx]_i V_j over the plan's rows in one product sum:
        # (A V)_k, Q2_k[c,al] = sum_{i+j=k} Hxe_i[c,a] V_j[a,al] and
        # T_k[c,a,be] = sum_{i+j=k} Hxx_i[c,a,b] V_j[b,be] (A V alone at
        # order 1)
        x = self.L[..., None, : pl.c1 + (k + 1) * pl.v1]
        v = self.Lr[..., (self.P + 1 - k) * pl.v1 :]
        lv = ks.imulsum(x[0], x[-1], v[0], v[-1], fast)
        # the joined row [(A V)_k | Q1_k + (A S)_k] and its corrections d:
        # aeps_k on V's eps column, and at order 2 Q2_k on S's eps-column
        # pairs (al, 0) and at (0, 0) Q2_k once more (an exact doubling) and
        # Hee_k.  One division by k+1 then gives V_{k+1} (and S_{k+1}); the
        # zero entries of d keep every bit of A V as at order 2
        row = np.zeros(self.var.shape[:2] + self.var.shape[3:])
        row[:, :, pl.rows1[: pl.nA], :m] = lv[:, :, : pl.nA]
        d = np.zeros_like(row)
        d[..., 0] = self.E[:, :, 0, k]
        if self.order == 2:
            # T_k per pair p = (al, be) into TA: T_k[c, a, be] at c's T items
            self.TA.reshape(*self.TA.shape[:3], -1)[..., self.t_dst + k * pl.v2] = np.take(
                lv.reshape(e, B, -1), self.t_src, axis=-1)
            # Q1_k + (A S)_k over the pairs in one product sum: sum_{i+j=k}
            # T_i[c,a,be] V_j[a,al] + A_i[c,a] S_j[a,p]
            x = self.TA[..., : pl.c2 + (k + 1) * pl.v2]
            y = self.TAr[..., (self.P + 1 - k) * pl.v2 :]
            row[..., m:] = np.swapaxes(ks.imulsum(x[0], x[-1], y[0], y[-1], fast), -1, -2)
            d[:, :, pl.rows1[pl.nA : pl.nAQ] - n, m : 2 * m] = lv[:, :, pl.nA : pl.nAQ]
            d[..., m] = ks.stack_add(2.0 * d[..., m], self.E[:, :, 1, k])
        self._write(k + 1, ks.stack_divint(k + 1, ks.stack_add(row, d)))

    def flat(self, row, orders: slice):
        """Coefficients ``orders`` of a row (an index) or of a slice of rows,
        each order's state, V and S (when enabled) flattened side by side:
        the stack of endpoints (e, orders, n + n m + n npairs), S on its
        pairs, with the rows' axis after the first for a slice.  A
        state-only row gives its state alone, and a tuple of rows gives
        theirs side by side."""
        if isinstance(row, tuple):
            return np.concatenate([self.flat(r, orders) for r in row], axis=-1)
        # a copy, not a view of the bank: the Horner sums of eval_flat run
        # on its few contiguous rows faster
        z = np.swapaxes(self.z[:, row][..., np.arange(self.P + 2)[orders]], -1, -2)
        if not self.with_var or (isinstance(row, int) and row >= self.nvar):
            return z
        w = self.var[:, row][..., orders, :, :]
        return np.concatenate([z, w[..., : self.m].reshape(*z.shape[:-1], -1),
                               w[..., self.m :].reshape(*z.shape[:-1], -1)], axis=-1)

    def split(self, x):
        """Split flattened orders (the last axis) back into (state, V, S)
        blocks, S on its pairs: (..., n, npairs); S is None at order 1."""
        return _split(x, self.n, self.m, self.order)

    def unflat(self, x):
        """:meth:`split` with S mirrored back from its pairs to the full
        (..., n, m, m) block, which is symmetric bit for bit."""
        z, V, Sp = self.split(x)
        return z, V, None if Sp is None else Sp[..., _pairs(self.m)[2]]

    def eval_flat(self, row, h: float, upto: int):
        """The Taylor polynomial of a row (a slice or a tuple of rows) through
        order ``upto`` at time h (Horner), flattened as in :meth:`flat`: the
        stack of its endpoints, (lo, hi) or the one endpoint of a float
        series."""
        c = self.flat(row, slice(0, upto + 1))
        x = c[..., upto, :]
        for k in range(upto - 1, -1, -1):
            x = self.k.stack_add(np.array(self.k.vscale(h, *_ends(x))), c[..., k, :])
        return x


# ---------------------------------------------------------------------------
# rough enclosure and public Taylor coefficients

_ROUGH_ATTEMPTS = 24


def _eval_field(field: VectorFieldDef, eps: Interval, box: IntervalBox) -> IntervalBox:
    """f(eps, box); an evaluation that overflows fails the rough enclosure."""
    try:
        return field.eval_box(eps, box)
    except IntervalError as exc:
        raise FlowError(f"rough enclosure: {exc}") from exc


def _picard_image(state: IntervalBox, f: IntervalBox, hiv: Interval) -> IntervalBox:
    """state + [0, step] f; an image that overflows, though f is finite,
    fails the rough enclosure."""
    try:
        with np.errstate(over="ignore"):
            return state + f.mul_interval(hiv)
    except IntervalError as exc:  # a non-finite endpoint
        raise FlowError(f"rough enclosure: the Picard image overflows for step {hiv.hi}") \
            from exc


def rough_enclosure(field: VectorFieldDef, state: IntervalBox, eps: Interval,
                    step: float) -> IntervalBox:
    """A priori solution enclosure Z over [0, step] from the state box.

    Validated by the Picard condition: state + [0, step] f(eps, Z) inside Z.
    Each failed attempt inflates the Picard image and tries again, at most
    ``_ROUGH_ATTEMPTS`` times.  Raises :class:`FlowError` when inflation
    fails, when the Picard map stops contracting (the largest width ratio
    of image to candidate is at least 1 and has risen since the previous
    attempt) or when the field or its Picard image overflows on a candidate
    (caller halves the step).
    """
    if step <= 0:
        raise IntervalError("rough_enclosure needs a positive step")
    hiv = Interval(0.0, step)
    scale = float(np.max(np.abs(state.lo))) + float(np.max(np.abs(state.hi))) + 1.0
    z = _picard_image(state, _eval_field(field, eps, state), hiv)
    # every widening is outward by at least 1e-18, so no width of z is 0
    z = z.widened(np.maximum(1e-18, 1e-3 * np.maximum(z.rad(), np.max(z.rad()))))
    ratio = math.inf
    for _ in range(_ROUGH_ATTEMPTS):
        if float(np.max(z.width())) > 100.0 * scale:
            raise FlowError(f"rough enclosure diverges for step {step}")
        cand = _picard_image(state, _eval_field(field, eps, z), hiv)
        if cand.is_subset(z):
            cand2 = _picard_image(state, _eval_field(field, eps, cand), hiv).intersect(cand)
            return cand2 if cand2 is not None else cand
        prev, ratio = ratio, float(np.max(cand.width() / z.width()))
        if ratio >= 1.0 and ratio > prev:
            raise FlowError(f"rough enclosure for step {step}: the Picard map "
                            f"stopped contracting (width ratio {ratio:.3g})")
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
    z, V, S = ser.unflat(ser.flat(0, slice(0, order + 1)))
    return [Jet2Enclosure(IntervalBox(z[0, k], z[1, k]), IntervalMatrix(V[0, k], V[1, k]),
                          S[0, k], S[1, k]) for k in range(order + 1)]


# ---------------------------------------------------------------------------
# one validated step

class _StepPieces:
    __slots__ = ("phi_lo", "phi_hi", "Mlo", "Mhi", "Slo", "Shi", "err")


def _gronwall(ser: _Series, row: int):
    """Magnitude bounds over the rough enclosure, read from the order-0
    field tables of its series row (``L0``, dense): d >= max_c sum_a
    |df_c/dx_a|, ce >= |df/deps|, and at order 2 hxx, hxe, hee >= the
    second-derivative blocks."""
    n = ser.n
    left, eps = ser.L0[:, row], ser.E[:, row, :, 0]
    jmag = ku.vmag(*left[:, :n])
    d = float(np.max(ku.isum(jmag, jmag, axis=1)[1]))

    def mag(x):
        return float(np.max(ku.vmag(*x)))

    if ser.order == 1:
        return d, mag(eps[:, 0])
    return (d, mag(eps[:, 0]), mag(left[:, 2 * n :]), mag(left[:, n : 2 * n]), mag(eps[:, 1]))


def _one_step(tb: _FieldTables, rf: _Resolved, rf_pt: _Resolved, eps: Interval,
              hull: IntervalBox, xhat, h: float, P: int, err_max: float,
              order: int = 2) -> _StepPieces | None:
    """One-step flow jet over (eps, x_k) to ``order``, remainders included.

    One series to order P+1 serves the step, with three state rows and two
    variational ones: row 0 starts at the hull and gives the Taylor
    polynomial of the set, row 1 starts at the rough enclosure Z of the step
    and gives the Lagrange remainders, and the state-only row 2 starts at
    the centre point ``xhat`` with the point-eps coefficients ``rf_pt`` and
    gives the image of the centre.  The state pass comes first and gives
    the error estimate ``|z_P(row 0)| h^P + |z_{P+1}(row 1)| h^(P+1)``; when
    that exceeds ``err_max`` the step is rejected (None) before any table,
    Gronwall or variational work.  One Horner evaluates the polynomials of
    rows 0 and 2 side by side, and both take row 1's state remainder.
    At order 1 the series carries V alone, the tables A and aeps alone, and
    only etaV is bounded; the pieces' S blocks are None.
    Raises :class:`FlowError` when the rough enclosure fails or a piece is
    not finite (the caller halves the step).
    """
    n = tb.n
    Z = rough_enclosure(tb.field, hull, eps, h)
    mj = n + 1
    eye = np.hstack([np.zeros((n, 1)), np.eye(n)])
    # overflowing coefficients end in the finiteness checks below
    with np.errstate(over="ignore", invalid="ignore"):
        hv = Interval.point(h)
        hp1 = hv ** (P + 1)
        ser = _Series(rf, np.stack([hull.lo, Z.lo, xhat]), np.stack([hull.hi, Z.hi, xhat]),
                      P + 1, m=mj, state_rf=(rf_pt,), order=order)
        ser.extend_state(P + 1)
        rzlo, rzhi = ku.vmul(*ser.z[:, 1, :, P + 1], hp1.lo, hp1.hi)
        err = float(np.max(ku.vmag(*ser.z[:, 0, :, P]))) * h**P \
            + float(np.max(ku.vmag(rzlo, rzhi)))
        if not math.isfinite(err):
            raise FlowError(f"non-finite Taylor enclosure for step {h}")
        if err > err_max:
            return None
        ser.extend_tables(P + 1)
        # Gronwall rough bounds for the variational blocks over the step, h d
        # on floats rounded up (an exact 0 kept); a bound that overflows
        # fails the step, which halves it
        d, ce, *second = _gronwall(ser, 1)
        eh = _iexp_ub(math.nextafter(h * d, math.inf) if d != 0.0 else 0.0)
        try:
            etaV = ((Interval.point(eh) - 1.0) + hv * ce * eh).hi
            vr_lo, vr_hi = ku.widen_abs(eye, eye, np.full((n, mj), etaV))
            if second:
                hxx, hxe, hee = second
                vm = (Interval.point(float(ku.vmag(vr_lo, vr_hi).max())) * n).hi  # column sum bound
                qb = Interval.point(hxx) * vm * vm + Interval.point(2.0 * hxe) * vm + hee
                etaS = (hv * eh * qb).hi
        except IntervalError as exc:
            raise FlowError(f"the Gronwall bound overflows for step {h}") from exc
        V0 = (np.stack([eye, vr_lo]), np.stack([eye, vr_hi]))
        if second:
            zero = np.zeros((n, mj, mj))
            ser.start(V0, (np.stack([zero, np.full_like(zero, -etaS)]),
                           np.stack([zero, np.full_like(zero, etaS)])))
        else:
            ser.start(V0)
        ser.extend_to(P + 1)

        # Taylor polynomials of rows 0 and 2 plus the Lagrange remainders of
        # row 1: (z, V, S) of the set (z, V at order 1), then z of the centre
        plo, phi = ser.eval_flat((0, 2), h, P)
        clo, chi = ser.flat(1, slice(P + 1, P + 2))
        vlo, vhi = ku.vmul(clo[0, n:], chi[0, n:], hp1.lo, hp1.hi)
        lo, hi = ku.vadd(plo, phi, np.concatenate([rzlo, vlo, rzlo]),
                         np.concatenate([rzhi, vhi, rzhi]))
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise FlowError(f"non-finite Taylor enclosure for step {h}")
    pieces = _StepPieces()
    pieces.err = err
    _, pieces.Mlo, pieces.Slo = ser.unflat(lo[:-n])
    _, pieces.Mhi, pieces.Shi = ser.unflat(hi[:-n])
    pieces.phi_lo, pieces.phi_hi = lo[-n:], hi[-n:]
    return pieces


def _frame_inverse(q):
    """Enclosure (lo, hi) of the inverse of the float square matrix ``q``,
    a nearly orthogonal frame, as q^T + [-rho, rho] entrywise: the bound
    is derived in :meth:`_LohnerState.advance`.  Raises :class:`FlowError`
    when delta >= 1/2."""
    n = len(q)
    eye = np.eye(n)
    glo, ghi = ku.idot(q.T, q.T, q, q)
    elo, ehi = ku.vsub(eye, eye, glo, ghi)
    mag = ku.vmag(elo, ehi)
    delta = float(np.max(ku.isum(mag, mag, axis=1)[1]))
    if not delta < 0.5:
        raise FlowError(f"the Lohner frame is not near orthogonal: ||I - Q^T Q|| <= {delta:.3g}")
    rho = math.nextafter(delta / math.nextafter(1.0 - delta, -math.inf), math.inf)
    rho = math.nextafter(rho * float(np.max(np.abs(q))), math.inf)
    return ku.widen_abs(q.T, q.T, rho)


class _LohnerState:
    """x in xhat + C r0 + Q r;  [V | W] in [C | What] + Q [Rv | Rw].

    D = [V | W] is one block of m + m^2 columns (W's (m, m) flattened), with
    one midpoint ``dmid``, one residual (``rdlo``, ``rdhi``) and one update
    per step; ``C`` is the view ``dmid[:, :m]``.  At order 1, D = V: its m
    columns get the same update, column for column."""

    def __init__(self, xhat, Q, r, dmid, rd, m: int):
        self.xhat = xhat
        self.Q = Q
        self.rlo, self.rhi = r
        self.dmid = dmid
        self.rdlo, self.rdhi = rd
        self.m = m
        self.C = dmid[:, :m]

    def hull(self, r0lo, r0hi) -> IntervalBox:
        clo, chi = ku.idot(self.C, self.C, r0lo, r0hi)
        qlo, qhi = ku.idot(self.Q, self.Q, self.rlo, self.rhi)
        lo, hi = ku.vadd(clo, chi, qlo, qhi)
        lo, hi = ku.vadd(lo, hi, self.xhat, self.xhat)
        return IntervalBox(lo, hi)

    def advance(self, pieces: _StepPieces, r0lo, r0hi):
        """Move the set through one step's pieces into the new frame Q'.

        D' in mid(P_D) + Q' ([Q'^-1](P_D - mid) + [Q'^-1 [Mx] Q] Rd), P_D =
        [P_V | P_W].  Q' is the float Q factor of mid([Mx]) Q, orthogonal up
        to rounding, and its inverse is enclosed from its transpose
        (:func:`_frame_inverse`).
        Let G = Q'^T Q' (exact) and E = I - G.  One interval product gives
        [G], and delta = max_i sum_j max |I - [G]|_ij, rounded up, bounds
        ||E||_inf.  For delta < 1 the Neumann series gives G^-1 = I + F with
        F = sum_{k>=1} E^k, ||F||_inf <= delta / (1 - delta), and
        Q'^-1 = G^-1 Q'^T, so Q'^-1 - Q'^T = F Q'^T and entrywise
        |(F Q'^T)_ij| <= sum_k |F_ik| |Q'_jk| <= ||F||_inf max|Q'|.  So
        Q'^-1 lies in Q'^T + [-rho, rho] with rho = delta / (1 - delta)
        max|Q'|, each operation rounded up (1 - delta rounded down).  A
        delta >= 1/2 raises :class:`FlowError`; a QR factor's delta is a
        few ulps.
        """
        n, m = len(self.xhat), self.m
        mxlo, mxhi = pieces.Mlo[:, 1:], pieces.Mhi[:, 1:]
        # (lo, hi) of P_D: P_V = [Mx] C + [Meps] e0^T, then at order 2 P_W =
        # [Mx] What + S2[Vext, Vext]
        pd = np.empty((2, *self.dmid.shape))
        pd[:, :, :m] = ku.idot(mxlo, mxhi, self.C, self.C)
        pd[:, :, 0] = ku.vadd(*pd[:, :, 0], pieces.Mlo[:, 0], pieces.Mhi[:, 0])
        if pieces.Slo is not None:
            what = self.dmid[:, m:].reshape(n, m, m)
            pw = compose_d2(pieces.Mlo, pieces.Mhi, pieces.Slo, pieces.Shi,
                            *with_eps_row(*self._mid_plus_qr(m)), what, what)
            pd[:, :, m:] = np.reshape(pw, (2, n, -1))
        dmid = 0.5 * (pd[0] + pd[1])
        mq = (0.5 * (mxlo + mxhi)) @ self.Q
        qn, _ = np.linalg.qr(mq)
        qilo, qihi = _frame_inverse(qn)
        mxq_lo, mxq_hi = ku.idot(mxlo, mxhi, self.Q, self.Q)
        # Lohner transition in the new frame, formed FIRST so its midpoint is
        # near-triangular; associating the products the other way lets the
        # entrywise rotation penalty compound exponentially
        g_lo, g_hi = ku.idot(qilo, qihi, mxq_lo, mxq_hi)
        dlo, dhi = ku.vsub(*pd, dmid, dmid)
        qd_lo, qd_hi = ku.idot(qilo, qihi, dlo, dhi)
        # state residual, from V's columns of [Q'^-1](P_D - mid)
        t1 = ku.idot(qd_lo[:, :m], qd_hi[:, :m], r0lo, r0hi)
        t2 = ku.idot(g_lo, g_hi, self.rlo, self.rhi)
        xn = 0.5 * (pieces.phi_lo + pieces.phi_hi)
        t3 = ku.idot(qilo, qihi, *ku.vsub(pieces.phi_lo, pieces.phi_hi, xn, xn))
        rlo, rhi = ku.vadd(*t1, *t2)
        self.rlo, self.rhi = ku.vadd(rlo, rhi, *t3)
        # derivative residual
        gr = ku.idot(g_lo, g_hi, self.rdlo, self.rdhi)
        self.rdlo, self.rdhi = ku.vadd(qd_lo, qd_hi, *gr)
        self.xhat = xn
        self.Q = qn
        self.dmid = dmid
        self.C = dmid[:, :m]

    def _mid_plus_qr(self, cols: int):
        """mid + Q R over the leading ``cols`` columns of D: (lo, hi)."""
        qr = ku.idot(self.Q, self.Q, self.rdlo[:, :cols], self.rdhi[:, :cols])
        return ku.vadd(*qr, self.dmid[:, :cols], self.dmid[:, :cols])

    def to_jet(self, r0lo, r0hi) -> Jet2Enclosure | Jet1Enclosure:
        n, m = len(self.xhat), self.m
        dlo, dhi = self._mid_plus_qr(self.dmid.shape[1])
        first = Jet1Enclosure(self.hull(r0lo, r0hi), IntervalMatrix(dlo[:, :m], dhi[:, :m]))
        if self.dmid.shape[1] == m:
            return first
        return Jet2Enclosure(first.value, first.d1,
                             dlo[:, m:].reshape(n, m, m), dhi[:, m:].reshape(n, m, m))


# ---------------------------------------------------------------------------
# the integrator

def _pow2_floor(x: float) -> float:
    """The largest power of two at most a finite x > 0, from the exponent
    of x (exact, also for subnormals; ``log2`` rounds up just below a
    power)."""
    if not 0 < x < math.inf:
        raise IntervalError(f"a positive finite value is required, got {x!r}")
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


# the error bound of a step is _TOL (max|x| + 1) at the step's start
_TOL = 4e-14


class _StepRule:
    """The step sizes of one transport over [0, T], T > 0.

    The initial step is used as given when it reaches T; otherwise it is
    floored to a power of two, and so is every size after it.  The step
    that reaches T is one clipped step.  A step whose error estimate is
    above ``_TOL (max|x| + 1)`` is rejected (a step at ``min_step`` is kept
    whatever its estimate), and a rejected step halves, to no less than
    ``min_step``.  An accepted step whose estimate is below 1e-4 of that
    bound doubles the next one, up to 32 times the floored initial step,
    unless the doubled size is blocked: a rejected size (the clipped last
    step aside) is not doubled into during the next ``patience`` accepted
    steps, where patience starts at 1 and doubles each time the size fails
    again before a step of it is accepted.

    Each attempt reads ``hcur`` and ``last`` after :meth:`propose`, then
    calls :meth:`accept` or :meth:`reject`; ``t`` is the time reached.
    """

    __slots__ = ("T", "t", "h", "cap", "min_step", "max_steps", "steps", "blocked",
                 "hcur", "last")

    def __init__(self, T: float, initial: float, min_step: float, max_steps: int):
        self.T, self.t = T, 0.0
        self.h = initial if initial >= T else _pow2_floor(initial)
        self.cap = 32 * _pow2_floor(initial)
        self.min_step, self.max_steps = min_step, max_steps
        self.steps = 0
        # rejected size -> (patience, accepted-step count it is blocked through)
        self.blocked: dict[float, tuple[int, int]] = {}

    def propose(self):
        """Size the next attempt: ``hcur``, and ``last`` when it reaches T.
        Raises :class:`FlowError` after ``max_steps`` accepted steps."""
        if self.steps >= self.max_steps:
            raise FlowError(f"max_steps={self.max_steps} exceeded at t={self.t}, T={self.T}")
        rest = self.T - self.t
        self.last = rest <= self.h * (1 + 1e-12)
        if not self.last:
            self.h = _pow2_floor(self.h)
        self.hcur = rest if self.last else self.h

    def bound(self, scale: float) -> float:
        """The error bound of the proposed step, ``scale`` = max|x| + 1."""
        return _TOL * scale if self.hcur > self.min_step * (1 + 1e-12) else math.inf

    def reject(self):
        if not self.last:
            patience = 2 * self.blocked[self.h][0] if self.h in self.blocked else 1
            self.blocked[self.h] = (patience, self.steps + patience)
        self.h = max(self.hcur * 0.5, self.min_step)

    def accept(self, err: float, scale: float):
        self.t = self.T if self.last else self.t + self.hcur
        self.steps += 1
        self.blocked.pop(self.h, None)
        if (err < _TOL * scale * 1e-4 and self.h < self.cap
                and self.steps > self.blocked.get(2.0 * self.h, (0, -1))[1]):
            self.h *= 2.0


def flow_jet(
    field: VectorFieldDef,
    x0: Jet2Enclosure,
    eps: Interval,
    T: float,
    settings: FlowSettings | None = None,
    domain: IntervalBox | None = None,
    x0_center: Jet2Enclosure | None = None,
    order: int = 2,
) -> Jet2Enclosure | Jet1Enclosure:
    """Containment-correct order-2 jet of (eps, s) -> Phi_T^eps(x0(eps, s)).

    ``x0`` is the jet of the initial condition in the variables (eps, s).
    Passing ``domain`` (the s-box) and optionally
    ``x0_center`` (a tight jet of the initial condition at the domain
    midpoint) enables the doubleton initialization that keeps long
    transports tight.  ``T`` may be negative (backward flow).  Raises
    :class:`FlowError` on step underflow or when max_steps is exceeded, and
    :class:`IntervalError` on a non-finite ``T``.

    ``order=1`` runs the same loop with the first variational block alone
    (no S, T or Q, only the A and aeps tables and the bound etaV, and no W
    in the Lohner state) and returns the (value, d1) pair as a
    :class:`Jet1Enclosure`; ``x0`` then needs no second derivatives.  The
    blocks equal the order-2 ones bit for bit while both runs take the same
    kernel path and the same steps.  An order-2 step also fails when its S
    bounds overflow, so on such a field the order-1 run may take a step
    that the order-2 run halves.
    """
    if not math.isfinite(T):  # a NaN T would skip the step loop below
        raise IntervalError(f"the transport time must be finite, got T={T}")
    if order not in (1, 2):
        raise IntervalError(f"the jet order must be 1 or 2, got {order!r}")
    settings = settings or FlowSettings()
    if x0.out_dim != field.dimension:
        raise IntervalError("initial jet dimension does not match the field")
    if T == 0:
        return x0 if order == 2 else x0.order1()
    if T < 0:
        return flow_jet(field.negated(), x0, eps, -T, settings, domain, x0_center, order)
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

    # the derivative block [V | W] of x0 (V at order 1): its midpoint and
    # residual
    if order == 2:
        dlo = np.hstack([x0.d1.lo, x0.d2lo.reshape(n, -1)])
        dhi = np.hstack([x0.d1.hi, x0.d2hi.reshape(n, -1)])
    else:
        dlo, dhi = x0.d1.lo, x0.d1.hi
    dmid = 0.5 * (dlo + dhi)
    rdlo, rdhi = ku.vsub(dlo, dhi, dmid, dmid)
    if x0_center is not None and domain is not None:
        base = x0_center.value
        xhat = base.mid()
        blo, bhi = ku.vsub(base.lo, base.hi, xhat, xhat)
        tlo, thi = ku.idot(rdlo[:, :m], rdhi[:, :m], r0lo, r0hi)
        rlo, rhi = ku.vadd(blo, bhi, tlo, thi)
    else:
        xhat = x0.value.mid()
        rlo, rhi = ku.vsub(x0.value.lo, x0.value.hi, xhat, xhat)
    state = _LohnerState(xhat, np.eye(n), (rlo, rhi), dmid, (rdlo, rdhi), m)

    rule = _StepRule(T, settings.initial_step, settings.min_step, settings.max_steps)
    while rule.t < T:
        rule.propose()
        hull = state.hull(r0lo, r0hi)
        scale = float(np.max(np.abs(hull.mid()))) + 1.0
        try:
            pieces = _one_step(tb, rf, rf_pt, eps, hull, state.xhat, rule.hcur, P,
                               rule.bound(scale), order)
        except FlowError:
            if rule.hcur <= settings.min_step:
                raise FlowError(f"step underflow at t={rule.t} of T={T}: "
                                "no rough enclosure at min_step")
            rule.reject()
            continue
        if pieces is None:
            rule.reject()
            continue
        state.advance(pieces, r0lo, r0hi)
        rule.accept(pieces.err, scale)
    return state.to_jet(r0lo, r0hi)


# ---------------------------------------------------------------------------
# nonrigorous float transports (shooting, candidate sizing, midpoint
# diagnostics): the same series in round-to-nearest arithmetic

def _float_transport(field: VectorFieldDef, eps_val: float, x0, T: float, order: int,
                     step: float, m: int):
    """Transport of x0 ((n,) or a batch (B, n)) by the float series through
    order ``order + 1``: the endpoint and, for m = n + 1, its derivatives in
    (eps, x0), with ``m = 0`` skipping them.  Each row takes the steps of
    its own :class:`_StepRule` from the initial step ``step``, with the
    error estimate ``|z_P| h^P + |z_{P+1}| h^(P+1)``, P = ``order``, so a
    batch row equals its single call bit for bit; a row that reaches T
    leaves the batch, and each series holds the other rows only.  When no
    row is accepted, no state changes and the next attempt keeps the series
    and its state pass, which do not depend on h.  Raises
    :class:`FlowError` on a non-finite estimate or state."""
    if not math.isfinite(T):
        raise IntervalError(f"the transport time must be finite, got T={T}")
    if T < 0:
        field, T = field.negated(), -T
    tb = _tables(field)
    rf = _Resolved(tb, float(eps_val))
    n = tb.n
    x = np.array(x0, dtype=float)
    # each row's state, V and S (on its pairs) flattened side by side, as
    # the series evaluates them
    y = np.zeros((x.size // n, n + n * m + n * m * (m + 1) // 2))
    y[:, :n] = x.reshape(-1, n)
    y[:, n : n + n * m] = np.eye(n, m, 1).ravel()
    rules = [_StepRule(T, step, FlowSettings.min_step, FlowSettings.max_steps) for _ in y]
    # the rows that have not reached T; each series is built on them alone
    live = np.flatnonzero([rule.t < T for rule in rules])
    ser = None
    while live.size:
        with np.errstate(over="ignore", invalid="ignore"):
            if ser is None:
                z, V, Sp = _split(y[live], n, m)
                ser = _Series(rf, z, z, order, m=m, kernels=_Nearest)
                ser.extend_state(order + 1)
                # per row: max|x|, max|z_P| and max|z_{P+1}|
                mags = np.abs(ser.z[0][..., [0, order, order + 1]]).max(axis=1).tolist()
            keep = np.zeros(live.size, dtype=bool)
            for r, (i, (x_mag, zp, zp1)) in enumerate(zip(live, mags)):
                rule = rules[i]
                rule.propose()
                h = rule.hcur
                err = zp * h**order + zp1 * h ** (order + 1)
                if not math.isfinite(err):
                    raise FlowError(f"non-finite float Taylor series at t={rule.t}, T={T}")
                keep[r] = err <= rule.bound(x_mag + 1.0)
                if keep[r]:
                    rule.accept(err, x_mag + 1.0)
                else:
                    rule.reject()
            if keep.any():
                if m:
                    ser.start_pairs((V, V), (Sp, Sp))
                    ser.extend_to(order + 1)
                # a rejected row keeps its state
                h = np.array([[rules[i].hcur] for i in live])
                y_new = ser.eval_flat(slice(None), h, order + 1)[0]
                if not np.isfinite(y_new[keep]).all():
                    raise FlowError(f"non-finite float transport before T={T}")
                y[live[keep]] = y_new[keep]
                ser = None
        live = np.flatnonzero([rule.t < T for rule in rules])
    z, V, Sp = _split(y.reshape(*x.shape[:-1], y.shape[1]), n, m)
    return z, V, Sp[..., _pairs(m)[2]]


def point_flow_jet(field: VectorFieldDef, eps_val: float, x0, T: float,
                   order: int = 16, step: float = 0.125):
    """Plain float Taylor transport of value, Jacobian and second derivative
    with respect to (eps, x0), of one point (n,) or a batch (B, n), in
    adaptive steps from the initial step ``step`` (:func:`_float_transport`).
    For locating candidates and midpoint diagnostics only; nothing here is
    validated."""
    return _float_transport(field, eps_val, x0, T, order, step, field.dimension + 1)


def point_flow(field: VectorFieldDef, eps_val: float, x0, T: float,
               order: int = 16, step: float = 0.125):
    """Float Taylor endpoint only (cheap nonrigorous propagation) of one
    point (n,) or a batch (B, n), in adaptive steps from the initial step
    ``step`` (:func:`_float_transport`)."""
    return _float_transport(field, eps_val, x0, T, order, step, 0)[0]
