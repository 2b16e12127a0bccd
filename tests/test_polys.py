"""Polynomial maps: evaluation enclosures and symbolic derivatives."""

import hashlib
import warnings
from fractions import Fraction

import numpy as np
import pytest

from splitcert.intervals import Interval, IntervalBox, IntervalError
from splitcert.flow import _FieldTables
from splitcert.lerman import LUConfig, _hk_polys, lu_field
from splitcert.polys import PolyMap, VectorFieldDef


def test_eval_contains_sampled_points():
    # p(eps, x, y) = 2 x^2 y - eps y + 0.5
    p = PolyMap(3, [[(2.0, (0, 2, 1)), (-1.0, (1, 0, 1)), (0.5, (0, 0, 0))]])
    box = IntervalBox([0.0, -1.0, 0.5], [0.1, 2.0, 1.5])
    val = p.eval_box(box)
    rng = np.random.RandomState(2)
    for _ in range(100):
        e, x, y = rng.uniform(box.lo, box.hi)
        assert val[0].contains(2 * x * x * y - e * y + 0.5)


def test_partial_derivatives_symbolic():
    p = PolyMap(2, [[(3.0, (0, 4))]])  # 3 x^4
    dx = p.partial(1)
    assert dx.components[0][0][1] == (0, 3)
    assert dx.components[0][0][0] == Interval(12.0, 12.0)  # exact: no widening
    de = p.partial(0)
    assert de.components[0] == []


def test_partial_coefficients_widen_only_when_inexact():
    # the conserved K = x2 x3 - x1 x4 of the worked example: exact +-1 partials
    k = _hk_polys(LUConfig()).components[1]
    for v in range(4):
        for c, _ in PolyMap(4, [k]).partial(v).components[0]:
            assert c.lo == c.hi and abs(c.lo) == 1.0
    # 0.1 * 3 is not a float: the enclosure is widened and still holds it
    c = PolyMap(2, [[(0.1, (0, 3))]]).partial(1).components[0][0][0]
    assert c.lo < c.hi
    assert Fraction(c.lo) <= Fraction(0.1) * 3 <= Fraction(c.hi)


def test_jet_matches_hand_values():
    # p(eps, x) = x^3 + eps x
    p = PolyMap(2, [[(1.0, (0, 3)), (1.0, (1, 1))]])
    box = IntervalBox([0.0, 2.0], [0.0, 2.0])  # eps = 0, x = 2
    j = p.jet(box)
    assert j.value[0].contains(8.0)
    assert j.d1[0, 0].contains(2.0)   # d/deps = x
    assert j.d1[0, 1].contains(12.0)  # d/dx = 3x^2
    assert j.d2lo[0, 1, 1] <= 12.0 <= j.d2hi[0, 1, 1]
    assert j.d2lo[0, 0, 1] <= 1.0 <= j.d2hi[0, 0, 1]
    assert j.d2lo[0, 0, 0] <= 0.0 <= j.d2hi[0, 0, 0]


def test_interval_coefficients():
    c = Interval(1.0, 1.0 + 1e-12)
    p = PolyMap(1, [[(c, (2,))]])
    v = p.eval_box(IntervalBox([3.0], [3.0]))
    assert v[0].contains(9.0) and v[0].contains(9.0 * (1 + 1e-12))


def test_affine_builder():
    p = PolyMap.affine(2, [1.0, 0.0], [[0.0, 2.0], [1.0, 0.0]])
    v = p.eval_box(IntervalBox([0.5, 3.0], [0.5, 3.0]))
    assert v[0].contains(7.0) and v[1].contains(0.5)


def test_vector_field_validation():
    p = PolyMap(2, [[(1.0, (0, 1))]])
    f = VectorFieldDef(1, p)
    assert f.eval_point(0.0, [2.0])[0] == 2.0
    with pytest.raises(IntervalError):
        VectorFieldDef(2, p)
    neg = f.negated()
    assert neg.eval_point(0.0, [2.0])[0] == -2.0


def _tables_digest(tb) -> str:
    depth = [[a.tolist() for a in g] for g in tb.depth_groups]
    h = hashlib.sha256(repr((tb.n_rows, depth, tb.left_cols.tolist(),
                             tb.eps_cols.tolist())).encode())
    for key in ("clo", "chi", "epow", "rows"):
        dtype = "<f8" if key in ("clo", "chi") else "<i8"
        h.update(np.ascontiguousarray(tb.g_var[key], dtype=dtype).tobytes())
    return h.hexdigest()


def test_derivative_maps_built_once_and_field_tables_unchanged(monkeypatch):
    p = PolyMap(3, [[(2.0, (0, 2, 1)), (-1.0, (1, 0, 1)), (0.5, (0, 0, 0))]])
    box = IntervalBox([0.0, -1.0, 0.5], [0.1, 2.0, 1.5])
    d1, d2 = p.derivatives()
    first = p.jet(box)
    stacked = p._stacked_map()
    p.jet_point([0.05, 0.5, 1.0])
    again = p.jet(box)
    d1b, d2b = p.derivatives()
    assert d1b is d1 and d2b is d2
    # the stacked map of value, d1 and d2 that jet evaluates is kept too
    assert p._stacked_map() is stacked and stacked[0].out_dim == 1 + 3 + 6
    assert all(x is y for x, y in zip(d1, d1b)) and all(d2[k] is d2b[k] for k in d2)
    assert np.array_equal(first.d2lo, again.d2lo) and np.array_equal(first.d2hi, again.d2hi)
    # the flow's compiled tables read the same cached maps: they compile
    # the very stacked map that jet evaluates ...
    field = lu_field(LUConfig())
    maps = field.rhs.derivatives()
    compiled = []
    compile_ = _FieldTables._compile
    monkeypatch.setattr(_FieldTables, "_compile",
                        lambda self, pm: compiled.append(pm) or compile_(self, pm))
    tb = _FieldTables(field)
    assert field.rhs.derivatives() is maps
    assert len(compiled) == 1 and compiled[0] is field.rhs._stacked_map()[0]
    # ... and compile to these arrays, in the stacked layout
    assert _tables_digest(tb) == "4bcf532fd23c10918342c3b661b8da75a76acd9e4db8c6fd35030feebf920dc7"


def _eval_box_scalar(pm: PolyMap, box: IntervalBox):
    """The scalar-Interval loop eval_box replaced: per component, terms in
    monomial order, each its coefficient times x_v ** e in variable order."""
    xs = box.components()
    lo, hi = [], []
    for comp in pm.components:
        acc = Interval.point(0.0)
        for c, exps in comp:
            term = c
            for v, e in enumerate(exps):
                if e:
                    term = term * xs[v] ** e
            acc = acc + term
        lo.append(acc.lo)
        hi.append(acc.hi)
    return np.array(lo), np.array(hi)


def _toy_maps():
    import inspect
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import toy_pair
    finally:
        sys.path.pop(0)
    oracles = toy_pair(np.array([[3.0, 0.75], [1.25, 2.875]]), 0.3125)
    return [inspect.getclosurevars(w.jet).nonlocals["pm"] for w in oracles]


def test_eval_box_equals_scalar_loop():
    # the terms are multiplied by factor position (the s-th variable of
    # each term), each still in variable order, so every output equals the
    # term-by-term scalar evaluation bit for bit; the worked example's
    # terms have at most two variables, the last map's three and four
    rhs = lu_field(LUConfig()).rhs
    assert len(rhs._compile()[2][2]) == 2
    many = PolyMap(4, [[(1.5, (1, 2, 0, 1)), (Interval(-0.3, -0.2), (0, 1, 3, 2)),
                        (2.0, (2, 0, 0, 0)), (0.25, (1, 1, 1, 1))],
                       [(-1.0, (0, 0, 0, 0)), (0.7, (0, 3, 1, 1)), (1.25, (3, 0, 2, 0))]])
    maps = [rhs, many]
    for pm in [rhs, *_toy_maps()]:
        d1, d2 = pm.derivatives()
        maps += [pm, *d1, *d2.values()]
    rng = np.random.default_rng(11)
    for _ in range(40):
        for pm in maps:
            mid = rng.uniform(-1.5, 1.5, pm.nvars)
            rad = rng.uniform(0.0, 0.3, pm.nvars) * (rng.random(pm.nvars) < 0.7)
            box = IntervalBox(mid - rad, mid + rad)
            got = pm.eval_box(box)
            lo, hi = _eval_box_scalar(pm, box)
            assert got.lo.tobytes() == lo.tobytes() and got.hi.tobytes() == hi.tobytes()


@pytest.mark.parametrize("second, x1, message", [
    ((0, 1, 1, 0), 1.0, "term overflows at variable 2"),
    ((0, 2, 1, 0), 1e200, "power overflows at variable 1"),
    ((0, 1, 0, 0), 1e200, "term overflows at variable 1"),
])
def test_eval_box_overflow_names_the_first_variable_in_variable_order(second, x1, message):
    # the first term overflows at its first factor, x3 (position 0), the
    # second at x1 or x2: the message names the first variable in variable
    # order whose power or running product overflows, the power first
    p = PolyMap(4, [[(1e200, (0, 0, 0, 1)), (1e300, second)]])
    box = IntervalBox([0.0, x1, 1e10, 1e200], [0.0, x1, 1e10, 1e200])
    with pytest.raises(IntervalError, match=message):
        p.eval_box(box)


def test_eval_box_overflow_is_not_hidden_by_a_zero_factor():
    # 1e300 * x0 overflows; the later factor x1 = [0, 0] would turn the
    # infinite term into an exact zero
    p = PolyMap(3, [[(1.0, (0, 0, 0))], [(1e300, (0, 1, 1)), (1.0, (1, 0, 0))]])
    box = IntervalBox([0.5, 1e10, 0.0], [0.5, 1e10, 0.0])
    with np.errstate(over="ignore"):
        with pytest.raises(IntervalError):
            _eval_box_scalar(p, box)
        with pytest.raises(IntervalError):
            p.eval_box(box)
    v = p.eval_box(IntervalBox([0.5, 1e5, 0.0], [0.5, 1e5, 0.0]))
    assert v[0].contains(1.0) and v[1].contains(0.5) and v[1].width < 1e-15


def test_overflowing_eval_box_and_jet_raise_without_a_warning():
    # x^2 at 1e160 overflows in the square; eval_box reports it as an
    # IntervalError, also inside PolyMap.jet, and numpy warns of nothing
    p = PolyMap(1, [[(1.0, (2,))]])
    box = IntervalBox([1e160], [1e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IntervalError, match="overflows"):
            p.eval_box(box)
        with pytest.raises(IntervalError, match="overflows"):
            p.jet(box)


def _random_map(rng, nvars: int, m: int) -> PolyMap:
    """A seeded map with point and interval coefficients; its first
    component is empty and its second a constant."""
    comps = [[], [(float(rng.uniform(-2, 2)), (0,) * nvars)]]
    for _ in range(m - 2):
        comp = []
        for _ in range(int(rng.integers(1, 6))):
            c = float(rng.uniform(-2, 2))
            if rng.random() < 0.4:
                c = Interval(c, c + float(rng.uniform(0, 1e-3)))
            comp.append((c, tuple(int(e) for e in rng.integers(0, 4, nvars))))
        comps.append(comp)
    return PolyMap(nvars, comps)


def _jet_maps():
    rng = np.random.default_rng(12)
    return [lu_field(LUConfig()).rhs, _hk_polys(LUConfig()), *_toy_maps(),
            *[_random_map(rng, nv, m) for nv, m in ((1, 3), (2, 4), (3, 5), (5, 4))]]


def test_jet_equals_per_map_evaluation():
    # one eval_box of the stacked map gives each partial bit for bit as its
    # own map's eval_box
    rng = np.random.default_rng(5)
    for pm in _jet_maps():
        d1maps, d2maps = pm.derivatives()
        for _ in range(10):
            mid = rng.uniform(-1.5, 1.5, pm.nvars)
            rad = rng.uniform(0.0, 0.3, pm.nvars) * (rng.random(pm.nvars) < 0.7)
            box = IntervalBox(mid - rad, mid + rad)
            j = pm.jet(box)
            val = pm.eval_box(box)
            assert np.array_equal(j.value.lo, val.lo) and np.array_equal(j.value.hi, val.hi)
            for v, dv in enumerate(d1maps):
                col = dv.eval_box(box)
                assert np.array_equal(j.d1.lo[:, v], col.lo) and np.array_equal(j.d1.hi[:, v], col.hi)
            for (a, b), dab in d2maps.items():
                sec = dab.eval_box(box)
                for lo, hi in ((j.d2lo[:, a, b], j.d2hi[:, a, b]), (j.d2lo[:, b, a], j.d2hi[:, b, a])):
                    assert np.array_equal(lo, sec.lo) and np.array_equal(hi, sec.hi)


def test_jet_point_equals_per_map_eval_point():
    rng = np.random.default_rng(6)
    for pm in _jet_maps():
        d1maps, d2maps = pm.derivatives()
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, pm.nvars)
            val, d1, d2 = pm.jet_point(x)
            assert np.array_equal(val, pm.eval_point(x))
            assert np.array_equal(d1, np.stack([dv.eval_point(x) for dv in d1maps], axis=1))
            for (a, b), dab in d2maps.items():
                assert np.array_equal(d2[:, a, b], dab.eval_point(x))
                assert np.array_equal(d2[:, b, a], dab.eval_point(x))


def test_jet_raises_when_a_partial_overflows():
    # p = 0.6e308 (x^2 y + x y^2): at x = y = 0.8 the value and first
    # partials are finite, but d2p/dxdy = 1.2e308 (x + y) overflows
    p = PolyMap(2, [[(0.6e308, (2, 1)), (0.6e308, (1, 2))]])
    box = IntervalBox([0.8, 0.8], [0.8, 0.8])
    d1maps, d2maps = p.derivatives()
    p.eval_box(box)
    for dv in d1maps:
        dv.eval_box(box)
    with pytest.raises(IntervalError):
        d2maps[0, 1].eval_box(box)
    with pytest.raises(IntervalError):
        p.jet(box)
    p.jet(IntervalBox([0.5, 0.5], [0.5, 0.5]))



@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper", "lower"])
def test_odd_power_keeps_an_exact_zero_endpoint(n, sign):
    # x^n is monotone for odd n: [0, q]^n = [0, q^n] and [-q, 0]^n = [-q^n, 0]
    # exactly, so ``**`` keeps the 0; eval_box takes the same power and then
    # multiplies it by the coefficient 1, whose vmul may move the 0 by one
    # outward step but no further (the power itself used to take one more)
    step = float(np.nextafter(0.0, 1.0))
    pm = PolyMap(1, [[(1.0, (n,))]])
    for q in (1e-7, 0.75, 1.5, 2.0 ** -600, 1e40):
        lo, hi = sorted((0.0, sign * q))
        exact_lo, exact_hi = Fraction(lo) ** n, Fraction(hi) ** n
        p = Interval(lo, hi) ** n
        assert Fraction(p.lo) <= exact_lo and exact_hi <= Fraction(p.hi)
        assert (p.lo if sign > 0 else p.hi) == 0.0
        v = pm.eval_box(IntervalBox([lo], [hi]))[0]
        assert Fraction(v.lo) <= exact_lo and exact_hi <= Fraction(v.hi)
        assert abs(v.lo if sign > 0 else v.hi) <= step
