"""Validated integration of parameterized polynomial ODEs with order-2 jets.

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
contiguous axis of its operands.  The series blocks are laid out for it:
the summed (order, state index) pair comes last, left operands keep their
orders in the usual direction and right operands (V, S and the bank) are
read in reversed order, V and S through twins stored reversed, so the
trailing axes of both operands merge into one with no copy.  Two products
that add up share one sum: the second variational recursion's T V and
A S are two slots of one left block (T, A) and one right block (V, S),
side by side at each order, so each order of the variational pass is
two product sums.  The (lo, hi) endpoints of every block are stacked on a
leading axis, so one numpy call gathers or scatters both.  Every division
by an order k+1 divides by the integer itself, outward.

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

The nonrigorous float transports (:func:`point_flow`, :func:`point_flow_jet`)
run the same series with round-to-nearest kernels at the field's
coefficient midpoints, for a batch of points at once; their blocks carry
one endpoint.  Each batch row takes its own steps by the same
:class:`_StepRule`, its error estimate read from the last two
coefficients of its float series.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels as ku
from .intervals import Interval, IntervalBox, IntervalError
from .jets import Jet2Enclosure, compose_d2, with_eps_row
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


def _split(x, n: int, m: int):
    """The (state, V, S) blocks of flattened coefficients (the last axis,
    n + n m + n npairs wide), S on its pairs: (..., n, npairs)."""
    lead = x.shape[:-1]
    return (x[..., :n], x[..., n : n + n * m].reshape(*lead, n, m),
            x[..., n + n * m :].reshape(*lead, n, m * (m + 1) // 2))


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


@lru_cache(maxsize=None)
def _slots(m: int):
    """The columns of a joined row [V | S on its pairs] (m + npairs wide)
    that fill the two slots of each pair p = (al, be) of the right block
    ``VS``: (npairs, 2), V's column al and S's column m + p."""
    al = _pairs(m)[0]
    return np.stack([al, m + np.arange(len(al))], axis=-1)


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
    call gathers or scatters both endpoints.  The blocks are laid out for
    the Cauchy products ``sum_{i+j=k} X_i Y_j``: the left operand X keeps
    its orders in the usual direction, the right operand Y is read with its
    orders reversed, and the contracted state index follows the order axis
    in both.  V and S keep only a twin whose orders are reversed (order j
    at index P+1-j), so that ``X[:k+1]`` and the twin's ``[P+1-k:]`` are
    forward slices over the same (order, state) pairs, their two trailing
    axes merge into one with no copy, and every variational product is one
    ``imulsum`` over a contiguous last axis.  The second product sum of an
    order adds T V and A S: T and A are two slots of one left block ``TA``
    and the twins of V and S the matching two slots of one right block
    ``VS``, so ``TA[..., :k+1, :, :]`` and ``VS[..., P+1-k:, :, :]`` are
    forward slices over the same (order, slot, state) triples and merge
    into one contiguous last axis too.  The bank's operand rows of a
    depth group repeat rows (x_1 x_1, x_1 x_2, ...), so they are one gather
    of both operands, whose right half a reversed view reads backwards.

    The symmetric S is kept on the pairs p = (al, be) with al >= be, in the
    order of :func:`_pairs` (the eps column (al, 0) first), and every block
    that meets it in a product is written per pair once per order, so its
    product sums read contiguous views with no gather.

    * ``bank`` (e, B, rows, P+2): the field's product bank, rows as in
      :class:`_FieldTables`, orders last.  ``z`` is the view of its state
      rows 1..n, (e, B, n, P+2).
    * ``L`` (e, nvar, 2n + n^2, P+2, n), when ``m > 0``: the left operands
      A[c, a] (rows 0..n-1), Hxe[c, a] (rows n..2n-1) and Hxx[c, a, b]
      (row 2n + c n + a), with orders and then the contracted index last;
      ``E`` (e, nvar, 2, P+2, n) holds aeps[c] and Hee[c], which are only
      added.
    * ``TA`` (e, nvar, n, npairs, P+2, 2, n), the left operand of
      Q1 + A S: slot 0 is the view ``T``, T[c, p, i, a] = T_i[c, a, be]
      for the pair p = (al, be); slot 1 holds A_i[c, a] for every pair,
      written by the table pass.
    * ``VS`` (e, nvar, npairs, P+2, 2, n), the right operand: slot 0 is
      the view ``Vp``, the V pair twin, the reversed twin of V_j[c, al]
      for the pair p = (al, be) at index P+1-j; slot 1 is the view ``Sr``,
      the reversed twin of S_j[c, al, be].  The first m pairs are (al, 0),
      al = 0..m-1, so the view ``Vr`` = ``Vp[:, :, :m]`` (e, nvar, m, P+2,
      n) is the reversed twin of V itself; the other pairs repeat its
      columns.  ``Vr`` and ``Sr`` are the only copies of V and S;
      :meth:`flat` reads them back in order.

    The three left operands [A; Hxe; Hxx] share their right operand V and
    lie next to each other in ``L``, so one product sum gives A V, Hxe V
    and Hxx V; each output is the same last-axis reduction as in separate
    calls.  The second product sum gives Q1 + A S, and one row joins A V
    and Q1 + A S for two adds (the eps-column terms aeps, Q2 and Hee)
    and one division by k+1.

    A series is filled in three passes, each from where it stopped:

    1. :meth:`extend_state`: z and the bank of products, order by order,
       from the field's own rows of the coefficient group;
    2. :meth:`extend_tables`: the field's derivative tables (``L``, ``E``
       and A's slot of ``TA``) at every order of the bank, in one
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
                 state_rf: tuple[_Resolved, ...] = ()):
        tb = rf.tb
        n = tb.n
        B = zlo.shape[0]
        self.k = kernels
        self.tb = tb
        self.n = n
        self.m = m
        self.P = P
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
            npairs = len(_pairs(m)[0])
            self.L = np.zeros((e, nv, 2 * n + n * n, P + 2, n))
            self.E = np.zeros((e, nv, 2, P + 2, n))
            self.TA = np.zeros((e, nv, n, npairs, P + 2, 2, n))
            self.T = self.TA[..., 0, :]
            self.VS = np.zeros((e, nv, npairs, P + 2, 2, n))
            self.Vp, self.Sr = self.VS[..., 0, :], self.VS[..., 1, :]
            self.Vr = self.Vp[:, :, :m]
            # the table pass evaluates the other rows of g_var
            self.g_tab = {key: rf.g_var[key][n:] for key in ("clo", "chi", "rows")}
            coeffs += [self.g_tab["clo"], self.g_tab["chi"]]
        self.scaled = kernels.is_scaled(*coeffs, zlo, zhi)
        # orders filled by each pass: z through "state" (the bank one less),
        # tables below "tables", V and S through "var" (T one less)
        self._to = {"state": 0, "tables": 0, "var": 0}

    def start(self, V0, S0):
        """Set the variational initial data: (lo, hi) of shape (B, n, m)
        and (B, n, m, m); equal endpoints for a float series.  Each pair
        (al, be) of S takes the intersection of S0[..., al, be] and its
        mirror S0[..., be, al], which both enclose the one exact entry;
        raises :class:`IntervalError` when they do not intersect."""
        al, be, _ = _pairs(self.m)
        lo = np.maximum(S0[0][..., al, be], S0[0][..., be, al])
        hi = np.minimum(S0[-1][..., al, be], S0[-1][..., be, al])
        if not (lo <= hi).all():
            raise IntervalError("mixed-partial enclosures do not intersect")
        self.start_pairs(V0, (lo, hi))

    def start_pairs(self, V0, Sp0):
        """:meth:`start` from S0 already on the pairs: (lo, hi) of shape
        (B, n, npairs), as :meth:`split` gives them."""
        m = self.m
        for end in (0, -1):
            self.Vr[end, :, :, -1] = np.swapaxes(V0[end], -1, -2)
            self.Sr[end, :, :, -1] = np.swapaxes(Sp0[end], -1, -2)
        self.Vp[:, :, m:, -1] = self.Vp[:, :, _pairs(m)[0][m:], -1]
        self.scaled = self.scaled and self.k.is_scaled(*V0, *Sp0)

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
        """Table pass: the derivative tables at orders below ``upto``."""
        self.extend_state(upto)
        self._pass("tables", upto, self._table_orders, lambda k0, k1: (
            self.L[:, :, :, k0:k1],))

    def extend_to(self, upto: int):
        """Fill coefficients through order ``upto`` (state; V/S when enabled)."""
        if not self.with_var:
            self.extend_state(upto)
            return
        self.extend_tables(upto)
        P = self.P
        self._pass("var", upto, self._var_orders, lambda k0, k1: (
            self.T[..., k0:k1, :], self.Vr[..., P + 1 - k1 : P + 1 - k0, :],
            self.Sr[..., P + 1 - k1 : P + 1 - k0, :]))

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
        the monomials, which are the last axis."""
        tb, g = self.tb, self.g_tab
        x = np.moveaxis(self.bank[:, : self.nvar, g["rows"], k0:k1], 4, 2)
        t = self.k.imulsum(g["clo"], g["chi"], x[0], x[-1], fast)
        self.L[:, :, :, k0:k1] = np.moveaxis(t[..., tb.left_cols], 2, 3)
        self.E[:, :, :, k0:k1] = np.moveaxis(t[..., tb.eps_cols], 2, 3)
        # A's slot of TA, the same for every pair
        self.TA[..., k0:k1, 1, :] = self.L[:, :, : self.n, None, k0:k1]

    def _var_orders(self, k0: int, k1: int, fast: bool):
        for k in range(k0, k1):
            self._var_step(k, fast)

    def _var_step(self, k: int, fast: bool):
        """V_{k+1}, T_k and S_{k+1} from the tables through order k."""
        ks, n, m, e, B = self.k, self.n, self.m, self.ends, self.nvar
        be = _pairs(m)[1]
        npairs = len(be)
        terms = (k + 1) * n
        j = self.P + 1 - k  # the twins' orders k, k-1, ..., 0

        # [A; Hxe; Hxx]_i V_j in one product sum: (A V)_k, Q2_k[c,al] =
        # sum_{i+j=k} Hxe_i[c,a] V_j[a,al] and T_k[c,a,be] = sum_{i+j=k}
        # Hxx_i[c,a,b] V_j[b,be]; V's slot of VS is read through a copy
        x = self.L[:, :, :, : k + 1].reshape(e, B, 2 * n + n * n, 1, terms)
        v = self.Vr[:, :, :, j:].reshape(e, B, 1, m, terms)
        lv = ks.imulsum(x[0], x[-1], v[0], v[-1], fast)
        # T_k per pair p = (al, be): T[c, p, k, a] = T_k[c, a, be]
        t = lv[:, :, 2 * n :].reshape(e, B, n, n, m)
        self.T[..., k, :] = np.swapaxes(t, -1, -2)[:, :, :, be]

        # Q1_k + (A S)_k over the pairs in one product sum: sum_{i+j=k}
        # T_i[c,a,be] V_j[a,al] + A_i[c,a] S_j[a,p], the slots of TA and VS
        # side by side
        x = self.TA[..., : k + 1, :, :].reshape(e, B, n, npairs, 2 * terms)
        y = self.VS[:, :, :, j:].reshape(e, B, 1, npairs, 2 * terms)
        q = ks.imulsum(x[0], x[-1], y[0], y[-1], fast)

        # the joined row [(A V)_k | Q1_k + (A S)_k] plus its corrections:
        # aeps_k on V's eps column; Q2_k on S's eps-column pairs (al, 0),
        # and at (0, 0) Q2_k once more (an exact doubling) and Hee_k.  One
        # division by k+1 then gives V_{k+1} and S_{k+1}
        row = np.concatenate([lv[:, :, :n], q], axis=-1)
        d = np.zeros_like(row)
        q2 = lv[:, :, n : 2 * n]
        d[..., 0] = self.E[:, :, 0, k]
        d[..., m : 2 * m] = q2
        d[..., m] = ks.stack_add(2.0 * q2[..., 0], self.E[:, :, 1, k])
        row = ks.stack_divint(k + 1, ks.stack_add(row, d))
        # both slots of VS at order k+1 in one gather: V's columns al of the
        # pairs and S's pairs
        self.VS[:, :, :, j - 1] = np.moveaxis(row[..., _slots(m)], 2, -1)

    def flat(self, row, orders: slice):
        """Coefficients ``orders`` of a row (an index) or of a slice of rows,
        each order's state, V and S (when enabled) flattened side by side:
        the stack of endpoints (e, orders, n + n m + n npairs), S on its
        pairs, with the rows' axis after the first for a slice.  A
        state-only row gives its state alone, and a tuple of rows gives
        theirs side by side."""
        if isinstance(row, tuple):
            return np.concatenate([self.flat(r, orders) for r in row], axis=-1)
        idx = np.arange(self.P + 2)[orders]
        z = np.swapaxes(self.z[:, row][..., idx], -1, -2)
        if not self.with_var or (isinstance(row, int) and row >= self.nvar):
            return z
        # the twins of V and S, (e, [rows,] m or npairs, orders, n), back in order
        rev = self.P + 1 - idx
        return np.concatenate([z, *(np.moveaxis(b[:, row][..., rev, :], -3, -1).reshape(
            *z.shape[:-1], -1) for b in (self.Vr, self.Sr))], axis=-1)

    def split(self, x):
        """Split flattened orders (the last axis) back into (state, V, S)
        blocks, S on its pairs: (..., n, npairs)."""
        return _split(x, self.n, self.m)

    def unflat(self, x):
        """:meth:`split` with S mirrored back from its pairs to the full
        (..., n, m, m) block, which is symmetric bit for bit."""
        z, V, Sp = self.split(x)
        return z, V, Sp[..., _pairs(self.m)[2]]

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
    field tables of its series row: d >= max_c sum_a |df_c/dx_a|,
    ce >= |df/deps|, hxx, hxe, hee >= the second-derivative blocks."""
    n = ser.n
    left, eps = ser.L[:, row, :, 0], ser.E[:, row, :, 0]
    jmag = ku.vmag(*left[:, :n])
    d = float(np.max(ku.isum(jmag, jmag, axis=1)[1]))

    def mag(x):
        return float(np.max(ku.vmag(*x)))

    return (d, mag(eps[:, 0]), mag(left[:, 2 * n :]), mag(left[:, n : 2 * n]), mag(eps[:, 1]))


def _one_step(tb: _FieldTables, rf: _Resolved, rf_pt: _Resolved, eps: Interval,
              hull: IntervalBox, xhat, h: float, P: int, err_max: float) -> _StepPieces | None:
    """One-step flow jet over (eps, x_k), remainders included.

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
                      P + 1, m=mj, state_rf=(rf_pt,))
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
        d, ce, hxx, hxe, hee = _gronwall(ser, 1)
        eh = _iexp_ub(math.nextafter(h * d, math.inf) if d != 0.0 else 0.0)
        try:
            etaV = ((Interval.point(eh) - 1.0) + hv * ce * eh).hi
            vr_lo, vr_hi = ku.widen_abs(eye, eye, np.full((n, mj), etaV))
            vm = (Interval.point(float(ku.vmag(vr_lo, vr_hi).max())) * n).hi  # column sum bound
            qb = Interval.point(hxx) * vm * vm + Interval.point(2.0 * hxe) * vm + hee
            etaS = (hv * eh * qb).hi
        except IntervalError as exc:
            raise FlowError(f"the Gronwall bound overflows for step {h}") from exc
        zero = np.zeros((n, mj, mj))
        ser.start((np.stack([eye, vr_lo]), np.stack([eye, vr_hi])),
                  (np.stack([zero, np.full_like(zero, -etaS)]),
                   np.stack([zero, np.full_like(zero, etaS)])))
        ser.extend_to(P + 1)

        # Taylor polynomials of rows 0 and 2 plus the Lagrange remainders of
        # row 1: (z, V, S) of the set, then z of the centre
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
    per step; ``C`` is the view ``dmid[:, :m]``."""

    def __init__(self, xhat, Q, r, dmid, rd):
        self.xhat = xhat
        self.Q = Q
        self.rlo, self.rhi = r
        self.dmid = dmid
        self.rdlo, self.rdhi = rd
        self.m = m = math.isqrt(4 * dmid.shape[1] + 1) // 2  # from m + m^2 columns
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
        # (lo, hi) of P_D: P_V = [Mx] C + [Meps] e0^T, then P_W = [Mx] What +
        # S2[Vext, Vext]
        pd = np.empty((2, n, m + m * m))
        pd[:, :, :m] = ku.idot(mxlo, mxhi, self.C, self.C)
        pd[:, :, 0] = ku.vadd(*pd[:, :, 0], pieces.Mlo[:, 0], pieces.Mhi[:, 0])
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

    def to_jet(self, r0lo, r0hi) -> Jet2Enclosure:
        n, m = len(self.xhat), self.m
        dlo, dhi = self._mid_plus_qr(self.dmid.shape[1])
        return Jet2Enclosure(self.hull(r0lo, r0hi), IntervalMatrix(dlo[:, :m], dhi[:, :m]),
                             dlo[:, m:].reshape(n, m, m), dhi[:, m:].reshape(n, m, m))


# ---------------------------------------------------------------------------
# the integrator

def _pow2_floor(x: float) -> float:
    if x <= 0:
        raise IntervalError("positive value required")
    return 2.0 ** math.floor(math.log2(x))


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
) -> Jet2Enclosure:
    """Containment-correct order-2 jet of (eps, s) -> Phi_T^eps(x0(eps, s)).

    ``x0`` is the jet of the initial condition in the variables (eps, s).
    Passing ``domain`` (the s-box) and optionally
    ``x0_center`` (a tight jet of the initial condition at the domain
    midpoint) enables the doubleton initialization that keeps long
    transports tight.  ``T`` may be negative (backward flow).  Raises
    :class:`FlowError` on step underflow or when max_steps is exceeded, and
    :class:`IntervalError` on a non-finite ``T``.
    """
    if not math.isfinite(T):  # a NaN T would skip the step loop below
        raise IntervalError(f"the transport time must be finite, got T={T}")
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

    # the derivative block [V | W] of x0: its midpoint and residual
    dlo = np.hstack([x0.d1.lo, x0.d2lo.reshape(n, -1)])
    dhi = np.hstack([x0.d1.hi, x0.d2hi.reshape(n, -1)])
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
    state = _LohnerState(xhat, np.eye(n), (rlo, rhi), dmid, (rdlo, rdhi))

    rule = _StepRule(T, settings.initial_step, settings.min_step, settings.max_steps)
    while rule.t < T:
        rule.propose()
        hull = state.hull(r0lo, r0hi)
        scale = float(np.max(np.abs(hull.mid()))) + 1.0
        try:
            pieces = _one_step(tb, rf, rf_pt, eps, hull, state.xhat, rule.hcur, P,
                               rule.bound(scale))
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
    leaves the batch, and each series holds the other rows only.  Raises
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
    while live.size:
        z, V, Sp = _split(y[live], n, m)
        ser = _Series(rf, z, z, order, m=m, kernels=_Nearest)
        with np.errstate(over="ignore", invalid="ignore"):
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
