from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from cropdet.crop_proposal import (
    COVERAGE_MIN,
    Crop,
    CropTierConfig,
    LARGE_TIER_DEFAULT,
    SMALL_TIER_DEFAULT,
    Tree,
    crop_to_dict,
    expand_crop,
    propose_crops,
    select_largest_k,
    two_tier_proposal,
)
from cropdet.geometry import BoundingBox, FrameDims, grid_cell, intersection_area
from naive_reference import (
    naive_edges_scanned,
    naive_forest,
    naive_tree_rect,
    naive_uncovered,
    random_boxes,
)

DIMS = FrameDims(1920, 1080)


def small_boxes():
    return st.builds(
        lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
        st.floats(0.0, 1500.0),
        st.floats(0.0, 900.0),
        st.floats(1.0, 60.0),
        st.floats(1.0, 120.0),
    )


def test_three_box_example():
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    b = BoundingBox(12.0, 0.0, 22.0, 10.0)
    c = BoundingBox(100.0, 0.0, 110.0, 10.0)
    forest = propose_crops([a, b, c], k=2, max_width=50.0, max_height=50.0)

    assert [t.members for t in forest.trees] == [(0, 1), (2,)]
    assert forest.trees[0].rect == BoundingBox(0.0, 0.0, 22.0, 10.0)
    assert forest.trees[1].rect == c
    # the nearest pair merges on the first edge, then the sweep stops
    assert forest.edges_scanned == 1
    assert forest.merged_edges == ((0, 1, 12.0),)


def test_budget_already_met_scans_nothing():
    boxes = [BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(50.0, 0.0, 60.0, 10.0)]
    forest = propose_crops(boxes, k=2, max_width=1000.0, max_height=1000.0)
    assert forest.edges_scanned == 0
    assert forest.merged_edges == ()
    assert [t.members for t in forest.trees] == [(0,), (1,)]


def test_empty_input():
    forest = propose_crops([], k=3, max_width=100.0, max_height=100.0)
    assert forest.trees == ()
    assert forest.edges_scanned == 0


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        propose_crops([BoundingBox(0.0, 0.0, 1.0, 1.0)], k=0, max_width=10.0, max_height=10.0)


def test_size_cap_blocks_merge():
    boxes = [BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(60.0, 0.0, 70.0, 10.0)]
    forest = propose_crops(boxes, k=1, max_width=50.0, max_height=50.0)
    # merged rect would be 70 wide, so both stay singletons despite k=1
    assert len(forest.trees) == 2
    assert forest.merged_edges == ()
    assert forest.edges_scanned == 1


def test_single_box():
    box = BoundingBox(5.0, 5.0, 15.0, 25.0)
    forest = propose_crops([box], k=1, max_width=10.0, max_height=10.0)
    assert forest.trees == (Tree((0,), box),)


def test_tree_rects_match_members():
    rng = Random(42)
    boxes = random_boxes(rng, 10)
    forest = propose_crops(boxes, k=3, max_width=300.0, max_height=300.0)
    for tree in forest.trees:
        assert tree.rect == naive_tree_rect(boxes, tree.members)


def test_partition_matches_naive_reference():
    rng = Random(7)
    for trial in range(50):
        boxes = random_boxes(rng, rng.randint(1, 8))
        k = rng.randint(1, 4)
        max_w = rng.uniform(50.0, 600.0)
        max_h = rng.uniform(50.0, 600.0)
        forest = propose_crops(boxes, k, max_w, max_h)
        assert [t.members for t in forest.trees] == naive_forest(boxes, k, max_w, max_h), (
            f"trial {trial}"
        )
        scanned, merges = naive_edges_scanned(boxes, k, max_w, max_h)
        assert (forest.edges_scanned, list(forest.merged_edges)) == (scanned, merges)


# tiny to huge crop caps
CAPS = (1e-3, 0.75, 30.0, 160.0, 448.0, 1e12)


@st.composite
def sweep_cases(draw):
    """Boxes whose centers sit on a lattice of the grid cell, the reach or
    the caps, so centers fall exactly on cell borders, pairs lie exactly
    at the cap, and centers repeat (tied weights); k runs from 1 to n+1."""
    max_w = draw(st.sampled_from(CAPS))
    max_h = draw(st.sampled_from(CAPS))
    reach = math.hypot(max_w, max_h)
    # the cell propose_crops uses when coordinates are small next to reach
    cell = grid_cell(reach * (1.0 + 2.0**-40), 0.0)
    unit_x, unit_y = draw(st.sampled_from(
        [(cell, cell), (reach, reach), (max_w, max_h), (max_w, cell), (10.0, 10.0), (1e5, 1e5)]
    ))
    # points merge exactly at the cap; boxes of a few sizes do not
    points = draw(st.booleans())
    n = draw(st.integers(1, 12))
    boxes = []
    for _ in range(n):
        cx = draw(st.integers(-2, 3)) * unit_x
        cy = draw(st.integers(-2, 3)) * unit_y
        half_w = half_h = 0.0
        if not points:
            half_w = draw(st.sampled_from((0.0, 0.5, max_w / 4.0, max_w / 2.0, 20.0)))
            half_h = draw(st.sampled_from((0.0, 0.5, max_h / 4.0, max_h / 2.0, 20.0)))
        boxes.append(BoundingBox(cx - half_w, cy - half_h, cx + half_w, cy + half_h))
    k = draw(st.integers(1, n + 1))
    return boxes, k, max_w, max_h


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
# two points exactly one cap apart on each axis: the edge is as long as
# the reach and still merges
@example(([BoundingBox(0.0, 0.0, 0.0, 0.0), BoundingBox(30.0, 160.0, 30.0, 160.0)], 1, 30.0, 160.0))
def test_pruned_sweep_matches_full_sweep(case):
    boxes, k, max_w, max_h = case
    forest = propose_crops(boxes, k, max_w, max_h)
    assert [t.members for t in forest.trees] == naive_forest(boxes, k, max_w, max_h)
    scanned, merges = naive_edges_scanned(boxes, k, max_w, max_h)
    assert forest.edges_scanned == scanned
    assert list(forest.merged_edges) == merges
    for tree in forest.trees:
        assert tree.rect == naive_tree_rect(boxes, tree.members)


def test_select_all_when_under_budget():
    boxes = [BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(500.0, 0.0, 510.0, 10.0)]
    forest = propose_crops(boxes, k=5, max_width=100.0, max_height=100.0)
    selected = select_largest_k(forest, 5)
    assert len(selected) == 2


def test_select_prefers_larger_trees():
    # pair (0,1) and singletons 2, 3; budget of 2 keeps the pair plus the
    # smaller-area singleton
    boxes = [
        BoundingBox(0.0, 0.0, 10.0, 10.0),
        BoundingBox(12.0, 0.0, 22.0, 10.0),
        BoundingBox(500.0, 0.0, 540.0, 40.0),
        BoundingBox(900.0, 0.0, 910.0, 10.0),
    ]
    forest = propose_crops(boxes, k=2, max_width=60.0, max_height=60.0)
    assert len(forest.trees) == 3
    selected = select_largest_k(forest, 2)
    assert selected[0].members == (0, 1)
    assert selected[1].members == (3,)  # area 100 beats area 1600


def test_expand_grows_width_to_aspect():
    tier = CropTierConfig("t", 1, 500.0, 500.0, 224, 128, pad_fraction=0.0)
    region = expand_crop(BoundingBox(0.0, 0.0, 100.0, 100.0), tier, DIMS)
    # needs 175 wide for 224:128; the left half is clipped at the frame
    # edge, so growth lands entirely on the right
    assert region == BoundingBox(0.0, 0.0, 175.0, 100.0)


def test_expand_grows_height_to_aspect():
    tier = CropTierConfig("t", 1, 500.0, 500.0, 100, 100, pad_fraction=0.0)
    region = expand_crop(BoundingBox(500.0, 500.0, 700.0, 600.0), tier, DIMS)
    assert region == BoundingBox(500.0, 450.0, 700.0, 650.0)


def test_expand_pads_each_side():
    tier = CropTierConfig("t", 1, 500.0, 500.0, 100, 100, pad_fraction=0.10, min_pad_px=8.0)
    region = expand_crop(BoundingBox(500.0, 500.0, 700.0, 700.0), tier, DIMS)
    # 10% of 200 is 20, above the 8 px floor
    assert region == BoundingBox(480.0, 480.0, 720.0, 720.0)


def test_expand_pad_floor_applies_to_small_boxes():
    tier = CropTierConfig("t", 1, 500.0, 500.0, 100, 100, pad_fraction=0.10, min_pad_px=8.0)
    region = expand_crop(BoundingBox(500.0, 500.0, 520.0, 520.0), tier, DIMS)
    # 10% of 20 is 2, lifted to the 8 px floor
    assert region == BoundingBox(492.0, 492.0, 528.0, 528.0)


def test_expand_zero_pad_fraction_is_fixed_point():
    tier = CropTierConfig("t", 1, 500.0, 500.0, 100, 100, pad_fraction=0.0)
    box = BoundingBox(500.0, 500.0, 600.0, 600.0)
    assert expand_crop(box, tier, DIMS) == box


def test_expand_inflates_degenerate_axes():
    tier = CropTierConfig("t", 1, 500.0, 500.0, 100, 100, pad_fraction=0.0)
    region = expand_crop(BoundingBox(500.0, 500.0, 500.0, 500.0), tier, DIMS)
    assert region == BoundingBox(499.5, 499.5, 500.5, 500.5)


def test_expand_clamps_by_translation():
    tier = CropTierConfig("t", 1, 500.0, 500.0, 100, 100, pad_fraction=0.0)
    frame = FrameDims(200, 200)
    # hangs over the right edge: slides left without shrinking
    region = expand_crop(BoundingBox(150.0, 50.0, 250.0, 150.0), tier, frame)
    assert region == BoundingBox(100.0, 50.0, 200.0, 150.0)
    # hangs over the top-left: slides to the origin
    region = expand_crop(BoundingBox(-30.0, -40.0, 70.0, 60.0), tier, frame)
    assert region == BoundingBox(0.0, 0.0, 100.0, 100.0)


def test_expand_wider_than_frame_clips_to_frame():
    tier = CropTierConfig("t", 1, 5000.0, 5000.0, 100, 100, pad_fraction=0.0)
    frame = FrameDims(200, 200)
    region = expand_crop(BoundingBox(-50.0, 0.0, 300.0, 100.0), tier, frame)
    assert region.x_min == 0.0 and region.x_max == 200.0


@given(
    st.builds(
        lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
        st.floats(0.0, 1800.0),
        st.floats(0.0, 1000.0),
        st.floats(0.0, 400.0),
        st.floats(0.0, 250.0),
    )
)
def test_expand_never_loses_the_cluster(rect):
    """If the grown region still fits in the frame, clamping by translation
    must keep the original rectangle fully covered."""
    region = expand_crop(rect, LARGE_TIER_DEFAULT, DIMS)
    clipped = BoundingBox(
        max(rect.x_min, 0.0), max(rect.y_min, 0.0), min(rect.x_max, 1920.0), min(rect.y_max, 1080.0)
    )
    if region.width < 1920.0 and region.height < 1080.0:
        assert region.contains(clipped)


def test_two_tier_empty():
    assert two_tier_proposal([], LARGE_TIER_DEFAULT, SMALL_TIER_DEFAULT, DIMS) == ([], [], frozenset())


def test_two_tier_small_covers_what_large_missed():
    # four clustered boxes take the large slots; a distant lone box gets
    # a small crop instead of being dropped
    cluster = [
        BoundingBox(100.0 + dx, 100.0 + dy, 120.0 + dx, 140.0 + dy)
        for dx, dy in ((0.0, 0.0), (40.0, 10.0), (80.0, 0.0), (40.0, 60.0))
    ]
    lone = BoundingBox(1700.0, 900.0, 1720.0, 940.0)
    large, small, uncovered = two_tier_proposal(
        cluster + [lone], CropTierConfig("large", 1, 448.0, 256.0, 224, 128), SMALL_TIER_DEFAULT, DIMS
    )
    assert len(large) == 1
    assert large[0].members == (0, 1, 2, 3)
    assert len(small) == 1
    assert small[0].members == (4,)
    assert uncovered == frozenset()
    assert all(intersection_area(b, large[0].region) / b.area >= COVERAGE_MIN for b in cluster)
    assert intersection_area(lone, small[0].region) / lone.area >= COVERAGE_MIN


def test_two_tier_small_members_use_original_indices():
    # all singleton trees; the large slot goes to the smallest-area box,
    # so the other two fall through to the small tier with their original
    # indices intact
    covered = BoundingBox(100.0, 100.0, 115.0, 130.0)
    missed_a = BoundingBox(900.0, 200.0, 920.0, 240.0)
    missed_b = BoundingBox(1500.0, 800.0, 1520.0, 840.0)
    large, small, uncovered = two_tier_proposal(
        [covered, missed_a, missed_b],
        CropTierConfig("large", 1, 448.0, 256.0, 224, 128),
        SMALL_TIER_DEFAULT,
        DIMS,
    )
    assert large[0].members == (0,)
    assert sorted(m for crop in small for m in crop.members) == [1, 2]
    assert uncovered == frozenset()


def test_two_tier_respects_small_budget():
    boxes = [
        BoundingBox(80.0 * i, 700.0, 80.0 * i + 10.0, 720.0) for i in range(1, 9)
    ]
    tiny_small = CropTierConfig("small", 2, 160.0, 96.0, 160, 96)
    no_large = CropTierConfig("large", 0, 448.0, 256.0, 224, 128)
    large, small, uncovered = two_tier_proposal(boxes, no_large, tiny_small, DIMS)
    assert large == []
    assert len(small) <= 2
    covered = {m for crop in small for m in crop.members}
    assert uncovered == frozenset(range(8)) - covered


@settings(max_examples=60)
@given(st.lists(small_boxes(), max_size=40))
def test_two_tier_crop_budget_holds(boxes):
    large, small, _ = two_tier_proposal(boxes, LARGE_TIER_DEFAULT, SMALL_TIER_DEFAULT, DIMS)
    assert len(large) <= LARGE_TIER_DEFAULT.k
    assert len(small) <= SMALL_TIER_DEFAULT.k
    assert len(large) + len(small) <= LARGE_TIER_DEFAULT.k + SMALL_TIER_DEFAULT.k


# zero-width and zero-height boxes on the frame's borders, where crop
# regions clamped into the frame have theirs
border_boxes = st.builds(
    lambda x, y, h: BoundingBox(x, y, x, y + h),
    st.sampled_from((0.0, 1920.0)), st.floats(0.0, 1000.0), st.sampled_from((0.0, 30.0)),
) | st.builds(
    lambda y, x, w: BoundingBox(x, y, x + w, y),
    st.sampled_from((0.0, 1080.0)), st.floats(0.0, 1800.0), st.sampled_from((0.0, 30.0)),
)


@settings(max_examples=40)
@given(st.lists(small_boxes() | border_boxes, max_size=40), st.integers(0, 3))
def test_two_tier_uncovered_matches_naive(boxes, large_k):
    large_tier = CropTierConfig("large", large_k, 448.0, 256.0, 224, 128)
    large, small, uncovered = two_tier_proposal(boxes, large_tier, SMALL_TIER_DEFAULT, DIMS)
    assert uncovered == naive_uncovered(boxes, [crop.region for crop in large + small])


@settings(max_examples=60)
@given(st.lists(small_boxes(), max_size=25), st.integers(1, 5))
def test_forest_trees_respect_size_cap(boxes, k):
    forest = propose_crops(boxes, k, 448.0, 256.0)
    for tree in forest.trees:
        if tree.node_count > 1:
            assert tree.rect.width <= 448.0
            assert tree.rect.height <= 256.0


def test_tier_config_validation():
    with pytest.raises(ValueError):
        CropTierConfig("t", -1, 100.0, 100.0, 100, 100)
    with pytest.raises(ValueError):
        CropTierConfig("t", 1, 0.0, 100.0, 100, 100)
    with pytest.raises(ValueError):
        CropTierConfig("t", 1, 100.0, 100.0, 0, 100)
    with pytest.raises(ValueError):
        CropTierConfig("t", 1, 100.0, 100.0, 100, 100, pad_fraction=-0.1)


def test_crop_serialization_fields():
    crop = Crop(BoundingBox(1.0, 2.0, 3.0, 4.0), "large", 224, 128, (0, 2))
    assert crop_to_dict(crop) == {
        "x_min": 1.0,
        "y_min": 2.0,
        "x_max": 3.0,
        "y_max": 4.0,
        "tier": "large",
        "target_w": 224,
        "target_h": 128,
        "members": [0, 2],
    }
