from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cropdet.geometry import (
    BoundingBox,
    BoxGrid,
    FrameDims,
    clamp_box,
    intersection_area,
    iou,
    to_crop_coords,
)
# the specification's own helpers, which the optimised paths inline
from naive_reference import center_distance, intersect, pixel_iou, to_frame_coords


def boxes(max_coord=1000.0, min_size=0.0):
    return st.builds(
        lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
        st.floats(0.0, max_coord),
        st.floats(0.0, max_coord),
        st.floats(min_size, 200.0),
        st.floats(min_size, 200.0),
    )


def int_boxes(limit=24):
    return st.tuples(
        st.integers(0, limit), st.integers(0, limit), st.integers(1, 12), st.integers(1, 12)
    ).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


def test_box_properties():
    box = BoundingBox(10.0, 20.0, 40.0, 100.0)
    assert box.width == 30.0
    assert box.height == 80.0
    assert box.area == 2400.0


def test_box_rejects_inverted_coordinates():
    with pytest.raises(ValueError):
        BoundingBox(10.0, 0.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        BoundingBox(0.0, 10.0, 5.0, 5.0)


def test_box_rejects_non_finite_coordinates():
    with pytest.raises(ValueError):
        BoundingBox(float("nan"), 0.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        BoundingBox(0.0, 0.0, float("inf"), 5.0)


def test_box_is_a_validated_tuple():
    box = BoundingBox(1.0, 2.0, 3.0, 4.0)
    x_min, y_min, x_max, y_max = box
    assert (x_min, y_min, x_max, y_max) == (1.0, 2.0, 3.0, 4.0)
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == (1.0, 2.0, 3.0, 4.0)
    assert BoundingBox._make([1.0, 2.0, 3.0, 4.0]) == box
    assert box._replace(x_max=5.0) == BoundingBox(1.0, 2.0, 5.0, 4.0)
    nan = float("nan")
    for build in (
        lambda: BoundingBox(nan, 2.0, 3.0, 4.0),
        lambda: BoundingBox(1.0, 2.0, 0.0, 4.0),
        lambda: BoundingBox._make((1.0, nan, 3.0, 4.0)),
        lambda: BoundingBox._make((1.0, 2.0, 3.0, 1.0)),
        lambda: box._replace(x_max=nan),
        lambda: box._replace(y_min=5.0),
    ):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(AttributeError):
        box.x_min = 0.0
    with pytest.raises(AttributeError):
        box.label = "walker"


def test_zero_area_box_is_allowed():
    box = BoundingBox(5.0, 5.0, 5.0, 9.0)
    assert box.area == 0.0


def test_contains():
    outer = BoundingBox(0.0, 0.0, 100.0, 100.0)
    assert outer.contains(BoundingBox(10.0, 10.0, 90.0, 90.0))
    assert outer.contains(outer)
    assert not outer.contains(BoundingBox(10.0, 10.0, 101.0, 90.0))


def test_intersect():
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    assert intersect(a, BoundingBox(5.0, 5.0, 15.0, 15.0)) == BoundingBox(5.0, 5.0, 10.0, 10.0)
    assert intersect(a, BoundingBox(20.0, 20.0, 30.0, 30.0)) is None
    # edge contact has zero area
    assert intersect(a, BoundingBox(10.0, 0.0, 20.0, 10.0)) is None


def test_iou_known_value():
    # 2x2 squares overlapping in a 1x2 strip: 2 / (4 + 4 - 2)
    a = BoundingBox(0.0, 0.0, 2.0, 2.0)
    b = BoundingBox(1.0, 0.0, 3.0, 2.0)
    assert iou(a, b) == pytest.approx(1.0 / 3.0)


def test_iou_disjoint_and_identical():
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    assert iou(a, BoundingBox(20.0, 0.0, 30.0, 10.0)) == 0.0
    assert iou(a, a) == 1.0


def test_iou_zero_area_box():
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    degenerate = BoundingBox(5.0, 5.0, 5.0, 5.0)
    assert iou(a, degenerate) == 0.0


def test_intersection_area():
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    assert intersection_area(a, BoundingBox(5.0, 5.0, 20.0, 20.0)) == 25.0
    assert intersection_area(a, BoundingBox(10.0, 10.0, 20.0, 20.0)) == 0.0


def test_center_distance_known_value():
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    b = BoundingBox(12.0, 0.0, 22.0, 10.0)
    assert center_distance(a, b) == 12.0


def test_clamp_box():
    dims = FrameDims(100, 50)
    assert clamp_box(BoundingBox(-10.0, -5.0, 60.0, 40.0), dims) == BoundingBox(0.0, 0.0, 60.0, 40.0)
    assert clamp_box(BoundingBox(90.0, 40.0, 120.0, 70.0), dims) == BoundingBox(90.0, 40.0, 100.0, 50.0)
    # a box entirely outside collapses onto the border
    assert clamp_box(BoundingBox(200.0, 10.0, 250.0, 20.0), dims) == BoundingBox(100.0, 10.0, 100.0, 20.0)


def test_frame_dims_validation():
    with pytest.raises(ValueError):
        FrameDims(0, 100)
    assert FrameDims(100, 50).rect == BoundingBox(0.0, 0.0, 100.0, 50.0)


def test_to_frame_coords_known_value():
    # region resized 1:1, so the mapping is a pure translation
    region = BoundingBox(100.0, 50.0, 300.0, 150.0)
    box = BoundingBox(10.0, 10.0, 20.0, 20.0)
    assert to_frame_coords(box, region, 200, 100) == BoundingBox(110.0, 60.0, 120.0, 70.0)


def test_to_frame_coords_scales():
    region = BoundingBox(0.0, 0.0, 400.0, 200.0)
    box = BoundingBox(50.0, 25.0, 100.0, 50.0)
    assert to_frame_coords(box, region, 200, 100) == BoundingBox(100.0, 50.0, 200.0, 100.0)


def test_to_crop_coords_inverts_to_frame_coords():
    region = BoundingBox(120.0, 40.0, 520.0, 240.0)
    box = BoundingBox(150.0, 60.0, 200.0, 120.0)
    local = to_crop_coords(box, region, 160, 96)
    back = to_frame_coords(local, region, 160, 96)
    assert back == pytest.approx(box)


def test_transforms_reject_zero_area_region():
    degenerate = BoundingBox(5.0, 5.0, 5.0, 10.0)
    with pytest.raises(ValueError):
        to_crop_coords(BoundingBox(0.0, 0.0, 1.0, 1.0), degenerate, 100, 100)
    with pytest.raises(ValueError):
        to_frame_coords(BoundingBox(0.0, 0.0, 1.0, 1.0), degenerate, 100, 100)


@given(boxes(), boxes())
def test_iou_is_symmetric(a, b):
    assert iou(a, b) == iou(b, a)


@given(boxes(min_size=0.5))
def test_iou_identity(box):
    assert iou(box, box) == pytest.approx(1.0)


@given(boxes(), boxes())
def test_iou_bounded(a, b):
    assert 0.0 <= iou(a, b) <= 1.0


@given(st.tuples(int_boxes(), int_boxes()))
def test_iou_matches_pixel_counting(pair):
    a, b = pair
    expected = pixel_iou(a, b)
    got = iou(BoundingBox(*map(float, a)), BoundingBox(*map(float, b)))
    assert got == pytest.approx(expected)


@given(boxes(), boxes(), boxes())
def test_center_distance_triangle_inequality(a, b, c):
    assert center_distance(a, c) <= center_distance(a, b) + center_distance(b, c) + 1e-9


@given(
    boxes(max_coord=1500.0),
    st.tuples(st.floats(0.0, 1500.0), st.floats(0.0, 1500.0), st.floats(1.0, 400.0), st.floats(1.0, 400.0)),
    st.integers(32, 512),
    st.integers(32, 512),
)
def test_coordinate_round_trip(box, region_parts, target_w, target_h):
    rx, ry, rw, rh = region_parts
    region = BoundingBox(rx, ry, rx + rw, ry + rh)
    back = to_frame_coords(to_crop_coords(box, region, target_w, target_h), region, target_w, target_h)
    for got, expected in zip(back, box):
        assert got == pytest.approx(expected, abs=1e-9)


@st.composite
def grid_cases(draw):
    """Boxes and a query rectangle on one lattice, so that borders coincide.

    The lattice sits near the origin or near +-1e15, its boxes include
    zero-width and zero-height ones, and the query may be far larger
    than every box.
    """
    origin = draw(st.sampled_from((0.0, -300.0, 1e15, -1e15)))
    unit = draw(st.sampled_from((0.25, 1.0, 7.5)))
    coord = st.integers(-4, 8).map(lambda k: origin + k * unit)
    size = st.integers(0, 3).map(lambda k: k * unit)

    def box(x, y, w, h):
        return BoundingBox(x, y, x + w, y + h)

    rects = st.builds(box, coord, coord, size, size)
    boxes = draw(st.lists(rects, max_size=25))
    reach = st.sampled_from((1e9, 1e300))
    band = st.builds(lambda r, far: BoundingBox(origin - far, r.y_min, origin + far, r.y_max),
                     rects, reach)
    huge = st.builds(
        lambda far: BoundingBox(origin - far, origin - far, origin + far, origin + far), reach)
    return boxes, draw(rects | band | huge)


@settings(max_examples=60)
@given(grid_cases())
# a box in the cell before the rectangle's on both axes, with more
# occupied cells than the rectangle's block, which is then searched
@example(([BoundingBox(2.0, 2.0, 5.0, 5.0)]
           + [BoundingBox(x, 40.0, x, 40.0) for x in range(0, 60, 6)],
          BoundingBox(4.0, 4.0, 6.0, 6.0)))
# a box in the rectangle's last cell on both axes, searched by cell
@example(([BoundingBox(6.5, 6.5, 9.5, 9.5)]
           + [BoundingBox(x, 100.0, x, 100.0) for x in range(0, 240, 6)],
          BoundingBox(0.0, 0.0, 7.0, 7.0)))
# a rectangle beyond every minimum corner but inside a box
@example(([BoundingBox(0.0, 0.0, 10.0, 10.0)], BoundingBox(5.0, 5.0, 6.0, 6.0)))
# boxes touching the rectangle's borders, one without height
@example(([BoundingBox(0.0, 0.0, 2.0, 2.0), BoundingBox(4.0, 0.0, 6.0, 2.0),
           BoundingBox(2.0, 2.0, 3.0, 2.0)], BoundingBox(2.0, 0.0, 4.0, 2.0)))
def test_grid_query_equals_brute_force(case):
    boxes, rect = case
    meets = [
        i for i, b in enumerate(boxes)
        if b.x_min <= rect.x_max and rect.x_min <= b.x_max
        and b.y_min <= rect.y_max and rect.y_min <= b.y_max
    ]
    assert BoxGrid(boxes).query(rect) == meets
    assert {i for i, b in enumerate(boxes) if intersection_area(b, rect) > 0.0} <= set(meets)


def test_grid_query_of_a_huge_region_visits_only_occupied_cells():
    class CountingDict(dict):
        gets = 0

        def get(self, key, default=None):
            CountingDict.gets += 1
            return super().get(key, default)

    # cells about a pixel wide: the region spans some 4e10 of them, 2 occupied
    boxes = [BoundingBox(0.0, 0.0, 1.0, 1.0), BoundingBox(1e5, -1e5, 1e5 + 1.0, -1e5)]
    grid = BoxGrid(boxes)
    grid._columns = CountingDict(grid._columns)
    assert grid.query(BoundingBox(-1e300, -1e300, 1e300, 1e300)) == [0, 1]
    assert grid.query(BoundingBox(0.5, 0.5, 1e300, 1e300)) == [0]
    assert grid.query(BoundingBox(-1e300, -1e300, -1.0, 1e300)) == []
    assert CountingDict.gets <= len(boxes)  # the occupied cells
