"""Distance-function oracles on toy systems with closed forms."""

import numpy as np
import pytest

from splitcert.distance import (
    ConditionError,
    ManifoldOracle,
    distance_fixed_point,
    distance_nhim_section,
    distance_unequal,
)
from splitcert.implicit import ImplicitContractionError
from splitcert.intervals import Interval, IntervalBox, IntervalError
from splitcert.polys import PolyMap


def poly_manifold(pm: PolyMap, **proj) -> ManifoldOracle:
    def jet(eps: Interval, params: IntervalBox):
        box = IntervalBox(np.concatenate([[eps.lo], params.lo]),
                          np.concatenate([[eps.hi], params.hi]))
        return pm.jet(box)

    def approx(eps: float, params):
        return pm.eval_point(np.concatenate([[eps], np.asarray(params, dtype=float)]))

    return ManifoldOracle(jet=jet, approx=approx, **proj)


# (eps, u) -> R^2 manifolds
WU_PARAB = poly_manifold(PolyMap(2, [[(1.0, (0, 1))], [(1.0, (0, 2))]]),
                         x_proj=(0,), y_proj=(1,))
WS_FLAT = poly_manifold(PolyMap(2, [[(1.0, (0, 1)), (1.0, (0, 3))], []]),
                        x_proj=(0,), y_proj=(1,))
WS_NEG = poly_manifold(PolyMap(2, [[(1.0, (0, 1))], [(-1.0, (0, 2))]]),
                       x_proj=(0,), y_proj=(1,))

XBOX = IntervalBox([-0.1], [0.1])


def test_coincident_manifolds_zero_oracle():
    d = distance_fixed_point(WU_PARAB, WU_PARAB, 0.1, XBOX, k1=0, k2=1)
    j = d.jet(Interval(0.0, 0.1), XBOX)
    assert j.value[0].contains(0.0)
    assert j.value[0].width <= 0.1  # mean-value refined, cannot cancel exactly
    assert j.d1[0, 0].contains(0.0) and j.d1[0, 1].contains(0.0)
    jp = d.jet(Interval(0.0, 0.0), IntervalBox.point([0.03]))
    assert jp.value[0].contains(0.0) and jp.value[0].width <= 1e-12


def test_graphs_without_reparameterization():
    d = distance_fixed_point(WU_PARAB, WS_NEG, 0.0, XBOX, k1=1, k2=0)
    j = d.jet(Interval(0.0, 0.0), XBOX)
    for x in np.linspace(-0.1, 0.1, 7):
        assert j.value[0].contains(2 * x * x)
        assert j.d1[0, 1].contains(4 * x)
    assert j.d2lo[0, 1, 1] <= 4.0 <= j.d2hi[0, 1, 1]


def test_reparameterized_cubic_side():
    # ws(s) = (s + s^3, 0): solve s + s^3 = x, y = x^2 - 0
    def s_root(x):
        s = x
        for _ in range(60):
            s -= (s + s**3 - x) / (1 + 3 * s * s)
        return s

    d = distance_fixed_point(WU_PARAB, WS_FLAT, 0.0, XBOX, k1=1, k2=0)
    j = d.jet(Interval(0.0, 0.0), XBOX)
    for x in np.linspace(-0.1, 0.1, 9):
        assert s_root(x) is not None  # oracle well-defined
        assert j.value[0].contains(x * x)
        assert j.d1[0, 1].contains(2 * x)


def test_unperturbed_zero_spot_check():
    # wu - ws = eps * x: y2(0, x) = 0 holds
    wu = poly_manifold(PolyMap(2, [[(1.0, (0, 1))], [(1.0, (0, 2)), (1.0, (1, 1))]]),
                       x_proj=(0,), y_proj=(1,))
    ws = poly_manifold(PolyMap(2, [[(1.0, (0, 1))], [(1.0, (0, 2))]]),
                       x_proj=(0,), y_proj=(1,))
    d = distance_fixed_point(wu, ws, 0.1, XBOX, k1=0, k2=1)
    assert d.check_unperturbed_zero(XBOX, samples=50)
    j = d.jet(Interval(0.0, 0.1), XBOX)
    for e in (0.0, 0.05, 0.1):
        for x in (-0.1, 0.02, 0.1):
            assert j.value[0].contains(e * x)
    assert j.d2lo[0, 0, 1] <= 1.0 <= j.d2hi[0, 0, 1]  # d2y/deps dx = 1


def test_finite_difference_containment():
    d = distance_fixed_point(WU_PARAB, WS_FLAT, 0.0, XBOX, k1=1, k2=0)
    j = d.jet(Interval(0.0, 0.0), XBOX)
    h = 1e-6
    rng = np.random.RandomState(3)
    for _ in range(20):
        x = rng.uniform(-0.1 + h, 0.1 - h)
        fd = ((x + h) ** 2 - (x - h) ** 2) / (2 * h)
        assert j.d1[0, 1].lo - 1e-6 <= fd <= j.d1[0, 1].hi + 1e-6


def test_singular_projection_raises():
    # pi_x w = u^3 has zero derivative at the origin
    bad = poly_manifold(PolyMap(2, [[(1.0, (0, 3))], [(1.0, (0, 2))]]),
                        x_proj=(0,), y_proj=(1,))
    with pytest.raises((ConditionError, ImplicitContractionError, IntervalError)):
        d = distance_fixed_point(bad, WS_NEG, 0.0, XBOX, k1=1, k2=0)
        d.jet(Interval(0.0, 0.0), XBOX)


def test_projection_partition_checked_at_build():
    # y_proj overlapping x_proj, or skipping an output, is refused before any query
    pm = PolyMap(2, [[(1.0, (0, 1))], [(1.0, (0, 2))]])
    overlap = poly_manifold(pm, x_proj=(0,), y_proj=(0,))
    gapped = poly_manifold(pm, x_proj=(0,), y_proj=(2,))
    for bad in (overlap, gapped):
        with pytest.raises(IntervalError, match="partition"):
            distance_fixed_point(bad, WS_NEG, 0.0, XBOX, k1=1, k2=0)
        with pytest.raises(IntervalError, match="partition"):
            distance_fixed_point(WU_PARAB, bad, 0.0, XBOX, k1=1, k2=0)


def test_manifold_outputs_past_the_projections_raise():
    # a third output that no projection names used to be silently ignored
    pm = PolyMap(2, [[(1.0, (0, 1))], [(1.0, (0, 2))], [(1.0, (0, 1))]])
    extra = poly_manifold(pm, x_proj=(0,), y_proj=(1,))
    for wu, ws in ((extra, WS_NEG), (WU_PARAB, extra)):
        d = distance_fixed_point(wu, ws, 0.0, XBOX, k1=1, k2=0)
        with pytest.raises(IntervalError, match="3 outputs"):
            d.jet(Interval(0.0, 0.0), XBOX)


# --- center-section scenario ------------------------------------------------

# coords (x, y, z); params (a, z)
WCU_PROD = poly_manifold(PolyMap(3, [[(1.0, (0, 1, 0))], [(1.0, (0, 2, 0))], [(1.0, (0, 0, 1))]]),
                         x_proj=(0,), y_proj=(1,), z_proj=(2,))
WCS_PROD = poly_manifold(PolyMap(3, [[(1.0, (0, 1, 0))], [(-1.0, (0, 2, 0))], [(1.0, (0, 0, 1))]]),
                         x_proj=(0,), y_proj=(1,), z_proj=(2,))


def test_nhim_section_product_reduces_to_fixed_point():
    d2 = distance_nhim_section(WCU_PROD, WCS_PROD, [0.7], 0.0, XBOX, k1=1, k2=0)
    j2 = d2.jet(Interval(0.0, 0.0), XBOX)
    d1 = distance_fixed_point(WU_PARAB, WS_NEG, 0.0, XBOX, k1=1, k2=0)
    j1 = d1.jet(Interval(0.0, 0.0), XBOX)
    for x in np.linspace(-0.1, 0.1, 7):
        assert j2.value[0].contains(2 * x * x)
        assert j2.d1[0, 1].contains(4 * x)
    # center direction decoupled: same enclosure up to rounding
    assert j2.value[0].intersect(j1.value[0]) is not None
    assert abs(j2.value[0].mid - j1.value[0].mid) <= 1e-12


def test_nhim_section_coincident_zero():
    d = distance_nhim_section(WCU_PROD, WCU_PROD, [0.0], 0.1, XBOX, k1=0, k2=1)
    j = d.jet(Interval(0.0, 0.1), XBOX)
    assert j.value[0].contains(0.0) and j.value[0].width <= 0.1
    jp = d.jet(Interval(0.0, 0.0), IntervalBox.point([0.0]))
    assert jp.value[0].contains(0.0) and jp.value[0].width <= 1e-12


# --- unequal dimensions -----------------------------------------------------

# coords (x, y, v, z); u = 1, s = 2, c = 1
# wcu(eps, a, z) = (a, a^2 + eps, 0.3 a, z)
WCU_UNEQ = poly_manifold(
    PolyMap(3, [[(1.0, (0, 1, 0))],
                [(1.0, (0, 2, 0)), (1.0, (1, 0, 0))],
                [(0.3, (0, 1, 0))],
                [(1.0, (0, 0, 1))]]),
    x_proj=(0,), y_proj=(1,), v_proj=(2,), z_proj=(3,))
# wcs(eps, b1, b2, z) = (b1, -b1^2 + b2 + 2 eps, b2, z)
WCS_UNEQ = poly_manifold(
    PolyMap(4, [[(1.0, (0, 1, 0, 0))],
                [(-1.0, (0, 2, 0, 0)), (1.0, (0, 0, 1, 0)), (2.0, (1, 0, 0, 0))],
                [(1.0, (0, 0, 1, 0))],
                [(1.0, (0, 0, 0, 1))]]),
    x_proj=(0,), y_proj=(1,), v_proj=(2,), z_proj=(3,))


def test_unequal_dimensions_closed_form():
    # y(eps, x) = (x^2 + eps) - (-x^2 + 0.3 x + 2 eps) = 2 x^2 - 0.3 x - eps
    d = distance_unequal(WCU_UNEQ, WCS_UNEQ, [0.4], 0.05, XBOX, k1=1, k2=0)
    j = d.jet(Interval(0.0, 0.05), XBOX)
    for e in (0.0, 0.02, 0.05):
        for x in (-0.1, 0.0, 0.07):
            assert j.value[0].contains(2 * x * x - 0.3 * x - e)
    assert j.d1[0, 0].contains(-1.0)
    for x in (-0.1, 0.0, 0.1):
        assert j.d1[0, 1].contains(4 * x - 0.3)
    assert j.d2lo[0, 1, 1] <= 4.0 <= j.d2hi[0, 1, 1]
    assert j.d2lo[0, 0, 1] <= 0.0 <= j.d2hi[0, 0, 1]


def test_unequal_feedthrough_chain_rule():
    # make the stable y-block depend quadratically on v to exercise the
    # composition order: wcs y = b2^2, wcu v = 0.3 a  ->  y_s = 0.09 x^2
    wcs = poly_manifold(
        PolyMap(4, [[(1.0, (0, 1, 0, 0))],
                    [(1.0, (0, 0, 2, 0))],
                    [(1.0, (0, 0, 1, 0))],
                    [(1.0, (0, 0, 0, 1))]]),
        x_proj=(0,), y_proj=(1,), v_proj=(2,), z_proj=(3,))
    d = distance_unequal(WCU_UNEQ, wcs, [0.0], 0.0, XBOX, k1=1, k2=0)
    j = d.jet(Interval(0.0, 0.0), XBOX)
    for x in (-0.1, -0.03, 0.0, 0.05, 0.1):
        y = (x * x) - (0.3 * x) ** 2
        assert j.value[0].contains(y)
        assert j.d1[0, 1].contains(2 * x - 2 * 0.09 * x)
    d2 = 2 - 2 * 0.09
    assert j.d2lo[0, 1, 1] <= d2 <= j.d2hi[0, 1, 1]
