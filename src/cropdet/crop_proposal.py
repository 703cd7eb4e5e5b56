"""Crop region proposal by constrained clustering of detection boxes.

Boxes are clustered with a Kruskal-style sweep over the fully connected
center-distance graph: edges are taken in ascending weight order and two
clusters merge only while the merged enclosing rectangle still fits the
tier's maximum crop size. The sweep stops as soon as the number of
clusters reaches the tier budget k. Clusters become crop regions after
padding, aspect correction, and clamping into the frame.

Two tiers run in sequence: a large tier for dense groups, then a small
tier over whatever the large crops left uncovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import (
    BoundingBox,
    FrameDims,
    center_distance,
    enclosing_rect,
    intersection_area,
    require_finite,
)

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


class DisjointSetForest:
    """Union-find over box indices, tracking per-root size and enclosing rect.

    find uses path compression, union uses rank. Aggregates are stored
    per root so merge validity can be checked without walking members.
    """

    def __init__(self, rects: Sequence[BoundingBox]) -> None:
        n = len(rects)
        self._parent = list(range(n))
        self._rank = [0] * n
        self._count = [1] * n
        self._rect = list(rects)
        self.tree_count = n

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def rect(self, root: int) -> BoundingBox:
        return self._rect[root]

    def count(self, root: int) -> int:
        return self._count[root]

    def union(self, a: int, b: int, merged_rect: BoundingBox) -> int:
        """Merge two distinct roots; the caller supplies the merged rect."""
        if a == b:
            raise ValueError("union of a root with itself")
        if self._rank[a] < self._rank[b]:
            a, b = b, a
        self._parent[b] = a
        if self._rank[a] == self._rank[b]:
            self._rank[a] += 1
        self._count[a] += self._count[b]
        self._rect[a] = merged_rect
        self.tree_count -= 1
        return a


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
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(boxes)
    if n == 0:
        return CropForest((), (), 0)

    dsf = DisjointSetForest(list(boxes))
    edges = sorted(
        (center_distance(boxes[u], boxes[v]), u, v) for u in range(n) for v in range(u + 1, n)
    )

    merged: list[tuple[int, int, float]] = []
    scanned = 0
    for weight, u, v in edges:
        if dsf.tree_count <= k:
            break
        scanned += 1
        root_u = dsf.find(u)
        root_v = dsf.find(v)
        if root_u == root_v:
            continue
        rect = enclosing_rect((dsf.rect(root_u), dsf.rect(root_v)))
        if rect.width <= max_width and rect.height <= max_height:
            dsf.union(root_u, root_v, rect)
            merged.append((u, v, weight))

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(dsf.find(i), []).append(i)
    trees = sorted(
        (Tree(tuple(members), dsf.rect(root)) for root, members in groups.items()),
        key=lambda t: t.members[0],
    )
    return CropForest(tuple(trees), tuple(merged), scanned)


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
    if box.area <= 0.0:
        return region.contains(box)
    return intersection_area(box, region) / box.area >= COVERAGE_MIN


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

    uncovered = [
        i for i, box in enumerate(boxes)
        if not any(_covered(box, crop.region) for crop in large_crops)
    ]

    small_crops: list[Crop] = []
    if uncovered and small_tier.k > 0:
        sub_boxes = [boxes[i] for i in uncovered]
        sub_forest = propose_crops(sub_boxes, small_tier.k, small_tier.max_width, small_tier.max_height)
        sub_selected = select_largest_k(sub_forest, small_tier.k)
        for tree in sub_selected:
            members = tuple(uncovered[j] for j in tree.members)
            small_crops.append(_make_crop(tree.rect, small_tier, frame, members))

    still_uncovered = frozenset(
        i for i in uncovered
        if not any(_covered(boxes[i], crop.region) for crop in small_crops)
    )
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


def proposal_debug_dump(frame_index: int, large: Sequence[Crop], small: Sequence[Crop]) -> dict:
    return {
        "frame": frame_index,
        "large_crops": [crop_to_dict(c) for c in large],
        "small_crops": [crop_to_dict(c) for c in small],
    }
