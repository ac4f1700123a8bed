import random
from fractions import Fraction

import pytest

from asw_slopes.errors import ConfigError, InsufficientPrecision
from asw_slopes.newton import (
    NewtonPolygon,
    hodge_polygon,
    lower_hull,
    render_svg,
    turning_points,
)
from asw_slopes.padic import Valuation
from oracles import max_gap, upper_bound_polygon


def E(v):
    return Valuation.exact(v)


def test_lower_hull_drops_interior_points():
    pts = [(0, E(0)), (1, E(5)), (2, E(1)), (3, E(9)), (4, E(4))]
    np = lower_hull(pts)
    assert np.vertices == [(0, Fraction(0)), (2, Fraction(1)), (4, Fraction(4))]
    assert np.slopes() == [Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(3, 2)]


def test_lower_hull_ignores_infinite_and_high_floors():
    pts = [
        (0, E(0)),
        (1, Valuation.infinite()),
        (2, E(2)),
        (1, Valuation.at_least(1)),  # on the hull: fine
    ]
    np = lower_hull(pts)
    assert np.vertices == [(0, Fraction(0)), (2, Fraction(2))]


def test_lower_hull_floor_below_refuses():
    pts = [(0, E(0)), (2, E(2)), (1, Valuation.at_least(Fraction(1, 2)))]
    with pytest.raises(InsufficientPrecision):
        lower_hull(pts)


def test_lower_hull_truncates_at_last_exact_point():
    # a floor past the exact range is a prefix claim, not a hull vertex
    pts = [(0, E(0)), (3, E(1)), (5, Valuation.at_least(10))]
    np = lower_hull(pts)
    assert np.vertices[-1][0] == 3


def test_lower_hull_needs_an_exact_anchor():
    with pytest.raises(InsufficientPrecision):
        lower_hull([(0, Valuation.at_least(0)), (1, Valuation.infinite())])


def test_lower_hull_convexity_seeded():
    rng = random.Random(99)
    for _ in range(25):
        pts = [(x, E(Fraction(rng.randrange(0, 60), rng.randrange(1, 5)))) for x in range(12)]
        np = lower_hull(pts)
        sl = np.slopes()
        assert sl == sorted(sl)
        assert all(np.y_at(x) <= y.value for x, y in pts)


def test_vertex_order_enforced():
    with pytest.raises(ConfigError):
        NewtonPolygon([(0, 0), (0, 1)])
    with pytest.raises(ConfigError):
        NewtonPolygon([])


def test_y_at_domain():
    np = NewtonPolygon([(0, 0), (2, 1)])
    assert np.y_at(1) == Fraction(1, 2)
    with pytest.raises(ConfigError):
        np.y_at(3)


def test_rescale_involution():
    np = NewtonPolygon([(0, 0), (1, Fraction(1, 3)), (4, 5)])
    f = Fraction(7, 2)
    assert np.rescale(f).rescale(1 / f) == np


def test_dominates_and_touch():
    hi = NewtonPolygon([(0, 0), (2, 2)])
    lo = NewtonPolygon([(0, 0), (1, 0), (2, 2)])
    assert hi.dominates(lo)
    assert not lo.dominates(hi)
    assert hi.touch_points(lo) == [0, 2]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_model_polygons_touch_at_turning_points(d):
    w = 3 * d + 1
    up = upper_bound_polygon(d, w)
    hp = hodge_polygon(d, w)
    assert up.dominates(hp)
    assert up.touch_points(hp) == [x for x, _ in turning_points(d, w)]
    for x, y in turning_points(d, w):
        assert hp.y_at(x) == y
        assert up.y_at(x) == y


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_max_gap_value(d):
    g, xstar = max_gap(d)
    assert g == Fraction((d - 1) ** 2, 8 * d)
    assert xstar == Fraction(d + 1, 2)
    # the peak is measured against the smooth chord x(x-1)/(2d)
    up = upper_bound_polygon(d, d + 1)
    assert up.y_at(xstar) - xstar * (xstar - 1) / (2 * d) == g


def test_hodge_slopes():
    hp = hodge_polygon(3, 7)
    assert hp.slopes() == [Fraction(k, 3) for k in range(7)]


def test_polygon_json_roundtrip_shape():
    np = NewtonPolygon([(0, 0), (2, 1)], source="probe")
    j = np.to_json()
    assert j["source"] == "probe"
    assert j["vertices"] == [[0, 0, 1], [2, 1, 1]]
    assert j["slopes"] == [[1, 2], [1, 2]]


def test_render_svg_smoke():
    hp = hodge_polygon(2, 5)
    up = upper_bound_polygon(2, 5)
    svg = render_svg([(hp, "#1f77b4", "hodge"), (up, "#d62728", "upper")], title="probe")
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "probe" in svg
    with pytest.raises(ConfigError):
        render_svg([])
