"""Crop region proposal by constrained clustering of detection boxes.

Boxes are clustered with a Kruskal-style sweep over the fully connected
center-distance graph: edges are taken in ascending weight order and two
clusters merge only while the merged enclosing rectangle still fits the
tier's maximum crop size. Edges too long to ever merge are never built.
The sweep stops as soon as the number of clusters reaches the tier budget
k. Clusters become crop regions after padding, aspect correction, and
clamping into the frame.

Two tiers run in sequence: a large tier for dense groups, then a small
tier over whatever the large crops left uncovered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import NEIGHBOURHOOD, BoundingBox, BoxGrid, FrameDims, grid_cell, require_finite

# A box counts as covered once at least this fraction of its area lies
# inside some already-proposed crop region.
COVERAGE_MIN = 0.95


@dataclass(frozen=True)
class CropTierConfig:
    """Budget and geometry limits for one crop tier."""

    name: str
    k: int
    max_width: float
    max_height: float
    target_width: int
    target_height: int
    pad_fraction: float = 0.10
    min_pad_px: float = 8.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.k < 0:
            raise ValueError(f"tier budget k must be >= 0, got {self.k}")
        if self.max_width <= 0 or self.max_height <= 0:
            raise ValueError(f"max crop size must be positive, got {self.max_width}x{self.max_height}")
        if self.target_width < 1 or self.target_height < 1:
            raise ValueError(
                f"target resolution must be >= 1, got {self.target_width}x{self.target_height}"
            )
        if self.pad_fraction < 0 or self.min_pad_px < 0:
            raise ValueError("padding must be non-negative")


LARGE_TIER_DEFAULT = CropTierConfig(
    name="large", k=3, max_width=448.0, max_height=256.0, target_width=224, target_height=128
)
SMALL_TIER_DEFAULT = CropTierConfig(
    name="small", k=20, max_width=160.0, max_height=96.0, target_width=160, target_height=96
)


@dataclass(frozen=True)
class Tree:
    """One cluster: member box indices (ascending) and their enclosing rect."""

    members: tuple[int, ...]
    rect: BoundingBox

    @property
    def node_count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CropForest:
    """Result of one clustering sweep.

    merged_edges lists the accepted merges as (u, v, weight) in merge
    order; edges_scanned counts how many sorted edges were examined
    before the sweep stopped.
    """

    trees: tuple[Tree, ...]
    merged_edges: tuple[tuple[int, int, float], ...]
    edges_scanned: int


@dataclass(frozen=True)
class Crop:
    """A proposed crop: frame-space region plus the detector input size."""

    region: BoundingBox
    tier: str
    target_width: int
    target_height: int
    members: tuple[int, ...] = ()


def propose_crops(
    boxes: Sequence[BoundingBox], k: int, max_width: float, max_height: float
) -> CropForest:
    """Cluster boxes into at most-k-seeking trees under a crop size cap.

    Edges of the complete graph are weighted by center distance and
    scanned in ascending (weight, u, v) order. An edge merges its two
    trees only if the merged enclosing rectangle fits within
    max_width x max_height; the scan exits once k or fewer trees remain.
    More than k trees can survive when the size cap blocks every
    remaining merge.

    Only edges no longer than reach = hypot(max_width, max_height) are
    built and sorted: a merged rectangle holds both centers, so a longer
    edge can never merge and sorts after every edge that can. Those
    edges are found by bucketing centers in a grid of cells a little
    wider than reach and searching each center's 3x3 neighbourhood. The result equals the
    sweep over all n(n-1)/2 edges, edges_scanned included: a sweep that
    reaches k stops on an edge within reach, and one that does not scans
    every edge.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(boxes)
    if n <= k:
        return CropForest(tuple(Tree((i,), box) for i, box in enumerate(boxes)), (), 0)

    rects = list(boxes)
    centers = [((x0 + x1) / 2.0, (y0 + y1) / 2.0) for x0, y0, x1, y1 in rects]
    # the margin covers math.hypot's sub-ulp error on reach and on the weights
    reach = math.hypot(max_width, max_height) * (1.0 + 2.0**-40)
    cell = grid_cell(reach, max(max(abs(x), abs(y)) for x, y in centers))
    grid: dict[tuple[int, int], list[int]] = {}
    edges: list[tuple[float, int, int]] = []
    for v, (x, y) in enumerate(centers):
        gx, gy = math.floor(x / cell), math.floor(y / cell)
        for dx, dy in NEIGHBOURHOOD:
            for u in grid.get((gx + dx, gy + dy), ()):
                ux, uy = centers[u]
                weight = math.hypot(ux - x, uy - y)
                if weight <= reach:
                    edges.append((weight, u, v))
        grid.setdefault((gx, gy), []).append(v)
    edges.sort()

    # union-find over box indices; rects[root] is the root's enclosing rect
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    tree_count = n
    merged: list[tuple[int, int, float]] = []
    scanned = 0
    for weight, u, v in edges:
        if tree_count <= k:
            break
        scanned += 1
        root_u = u if parent[u] == u else find(u)
        root_v = v if parent[v] == v else find(v)
        if root_u == root_v:
            continue
        # min() and max() of (root_u's, root_v's) coordinates, inlined
        ux0, uy0, ux1, uy1 = rects[root_u]
        vx0, vy0, vx1, vy1 = rects[root_v]
        x0 = vx0 if vx0 < ux0 else ux0
        y0 = vy0 if vy0 < uy0 else uy0
        x1 = vx1 if vx1 > ux1 else ux1
        y1 = vy1 if vy1 > uy1 else uy1
        if x1 - x0 <= max_width and y1 - y0 <= max_height:
            parent[root_v] = root_u
            rects[root_u] = (x0, y0, x1, y1)
            tree_count -= 1
            merged.append((u, v, weight))
    if tree_count > k:
        scanned = n * (n - 1) // 2

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # groups were opened in order of their smallest member
    trees = tuple(
        Tree(tuple(members), BoundingBox(*rects[root])) for root, members in groups.items()
    )
    return CropForest(trees, tuple(merged), scanned)


def select_largest_k(forest: CropForest, k: int) -> list[Tree]:
    """Keep the k largest trees.

    Ranking is by node count descending, then smaller enclosing area,
    then smallest member index. The returned order is the proposal order.
    """
    if len(forest.trees) <= k:
        return list(forest.trees)
    ranked = sorted(forest.trees, key=lambda t: (-t.node_count, t.rect.area, t.members[0]))
    return ranked[:k]


def _pad_amount(extent: float, tier: CropTierConfig) -> float:
    if tier.pad_fraction <= 0.0:
        return 0.0
    return max(tier.pad_fraction * extent, tier.min_pad_px)


def _clamp_axis(lo: float, hi: float, limit: float) -> tuple[float, float]:
    """Slide the interval into [0, limit], shrinking only if it cannot fit."""
    if hi - lo >= limit:
        return 0.0, limit
    if lo < 0.0:
        return 0.0, hi - lo
    if hi > limit:
        return limit - (hi - lo), limit
    return lo, hi


def expand_crop(rect: BoundingBox, tier: CropTierConfig, frame: FrameDims) -> BoundingBox:
    """Turn a cluster rectangle into the crop region actually sampled.

    Zero-extent axes are inflated to one pixel, each side is padded,
    then the shorter axis grows to match the tier's target aspect ratio
    (the region is never shrunk). Finally the region is slid back inside
    the frame, clipping only when it exceeds the frame outright.
    """
    x_min, x_max = rect.x_min, rect.x_max
    y_min, y_max = rect.y_min, rect.y_max
    if x_max - x_min == 0.0:
        x_min -= 0.5
        x_max += 0.5
    if y_max - y_min == 0.0:
        y_min -= 0.5
        y_max += 0.5

    pad_x = _pad_amount(x_max - x_min, tier)
    pad_y = _pad_amount(y_max - y_min, tier)
    x_min -= pad_x
    x_max += pad_x
    y_min -= pad_y
    y_max += pad_y

    width = x_max - x_min
    height = y_max - y_min
    needed_w = height * tier.target_width / tier.target_height
    if needed_w > width:
        grow = (needed_w - width) / 2.0
        x_min -= grow
        x_max += grow
    else:
        needed_h = width * tier.target_height / tier.target_width
        if needed_h > height:
            grow = (needed_h - height) / 2.0
            y_min -= grow
            y_max += grow

    x_min, x_max = _clamp_axis(x_min, x_max, float(frame.width))
    y_min, y_max = _clamp_axis(y_min, y_max, float(frame.height))
    return BoundingBox(x_min, y_min, x_max, y_max)


def _covered(box: BoundingBox, region: BoundingBox) -> bool:
    x_min, y_min, x_max, y_max = box
    area = (x_max - x_min) * (y_max - y_min)
    if area <= 0.0:
        return (region[0] <= x_min and region[1] <= y_min
                and x_max <= region[2] and y_max <= region[3])
    w = min(x_max, region[2]) - max(x_min, region[0])
    h = min(y_max, region[3]) - max(y_min, region[1])
    if w <= 0.0 or h <= 0.0:
        return False
    return w * h / area >= COVERAGE_MIN


def _covered_by(boxes: list[BoundingBox], grid: BoxGrid, crops: list[Crop]) -> set[int]:
    """Indices of the boxes that some crop covers.

    Each crop tests only the boxes its region meets: a box covered by a
    region overlaps it with positive area or, having no area, lies inside it.
    """
    return {
        i
        for crop in crops
        for i in grid.query(crop.region)
        if _covered(boxes[i], crop.region)
    }


def _make_crop(tree_rect: BoundingBox, tier: CropTierConfig, frame: FrameDims,
               members: tuple[int, ...]) -> Crop:
    region = expand_crop(tree_rect, tier, frame)
    return Crop(region, tier.name, tier.target_width, tier.target_height, members)


def two_tier_proposal(
    boxes: Sequence[BoundingBox],
    large_tier: CropTierConfig,
    small_tier: CropTierConfig,
    frame: FrameDims,
) -> tuple[list[Crop], list[Crop], frozenset[int]]:
    """Propose large crops, then small crops for what they missed.

    Returns (large_crops, small_crops, uncovered) where uncovered holds
    the indices of input boxes not covered by any proposed crop.
    """
    boxes = list(boxes)
    if not boxes:
        return [], [], frozenset()

    large_crops: list[Crop] = []
    if large_tier.k > 0:
        forest = propose_crops(boxes, large_tier.k, large_tier.max_width, large_tier.max_height)
        selected = select_largest_k(forest, large_tier.k)
        large_crops = [_make_crop(t.rect, large_tier, frame, t.members) for t in selected]

    grid = BoxGrid(boxes)
    covered = _covered_by(boxes, grid, large_crops)
    uncovered = [i for i in range(len(boxes)) if i not in covered]

    small_crops: list[Crop] = []
    if uncovered and small_tier.k > 0:
        sub_boxes = [boxes[i] for i in uncovered]
        sub_forest = propose_crops(sub_boxes, small_tier.k, small_tier.max_width, small_tier.max_height)
        sub_selected = select_largest_k(sub_forest, small_tier.k)
        for tree in sub_selected:
            members = tuple(uncovered[j] for j in tree.members)
            small_crops.append(_make_crop(tree.rect, small_tier, frame, members))

    covered = _covered_by(boxes, grid, small_crops)
    still_uncovered = frozenset(i for i in uncovered if i not in covered)
    return large_crops, small_crops, still_uncovered


def crop_to_dict(crop: Crop) -> dict:
    return {
        "x_min": crop.region.x_min,
        "y_min": crop.region.y_min,
        "x_max": crop.region.x_max,
        "y_max": crop.region.y_max,
        "tier": crop.tier,
        "target_w": crop.target_width,
        "target_h": crop.target_height,
        "members": list(crop.members),
    }

