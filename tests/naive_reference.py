"""Slow reference implementations used only as test oracles.

Everything here recomputes from first principles: partitions are plain
lists of sets, enclosing rectangles are rebuilt from every member box on
each merge, overlap is counted pixel by pixel, every pair of boxes is
tested and every box is mapped through validated BoundingBox steps. No
union-find, no incremental aggregates, no pruning, no inlined arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import replace
from random import Random
from typing import Mapping

from cropdet.crop_proposal import COVERAGE_MIN
from cropdet.datasets_eval import AnnotationSet
from cropdet.detections import Detection
from cropdet.detector_stub import OracleConfig, oracle_detect
from cropdet.geometry import BoundingBox, FrameDims, _check_region, intersection_area, iou


def center_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Euclidean distance between box centers, in pixels."""
    ax, ay = (a.x_min + a.x_max) / 2.0, (a.y_min + a.y_max) / 2.0
    bx, by = (b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0
    return math.hypot(ax - bx, ay - by)


def intersect(a: BoundingBox, b: BoundingBox) -> BoundingBox | None:
    """Overlap box of the two rectangles, or None when the overlap has no area."""
    x_min = max(a.x_min, b.x_min)
    y_min = max(a.y_min, b.y_min)
    x_max = min(a.x_max, b.x_max)
    y_max = min(a.y_max, b.y_max)
    if x_max <= x_min or y_max <= y_min:
        return None
    return BoundingBox(x_min, y_min, x_max, y_max)


def to_frame_coords(
    box: BoundingBox, region: BoundingBox, target_width: float, target_height: float
) -> BoundingBox:
    """Map a box from crop space (0..target size) back to frame coordinates.

    The crop is the `region` rectangle of the frame resized to
    target_width x target_height; this applies the inverse affine map.
    """
    _check_region(region, target_width, target_height)
    sx = region.width / target_width
    sy = region.height / target_height
    return BoundingBox(
        region.x_min + box.x_min * sx,
        region.y_min + box.y_min * sy,
        region.x_min + box.x_max * sx,
        region.y_min + box.y_max * sy,
    )


def _naive_sweep(
    boxes: list[BoundingBox], k: int, max_width: float, max_height: float
) -> tuple[list[set[int]], int, list[tuple[int, int, float]]]:
    """The constrained merge sweep over every one of the n(n-1)/2 edges.

    Returns the trees as sets, the number of edges examined before the
    sweep stopped, and the merges as (u, v, weight) in merge order.
    """
    n = len(boxes)
    trees: list[set[int]] = [{i} for i in range(n)]
    edges = sorted(
        (center_distance(boxes[u], boxes[v]), u, v) for u in range(n) for v in range(u + 1, n)
    )
    scanned = 0
    merges: list[tuple[int, int, float]] = []
    for weight, u, v in edges:
        if len(trees) <= k:
            break
        scanned += 1
        tree_u = next(t for t in trees if u in t)
        tree_v = next(t for t in trees if v in t)
        if tree_u is tree_v:
            continue
        merged = tree_u | tree_v
        width = max(boxes[i].x_max for i in merged) - min(boxes[i].x_min for i in merged)
        height = max(boxes[i].y_max for i in merged) - min(boxes[i].y_min for i in merged)
        if width <= max_width and height <= max_height:
            trees.remove(tree_u)
            trees.remove(tree_v)
            trees.append(merged)
            merges.append((u, v, weight))
    return trees, scanned, merges


def naive_forest(
    boxes: list[BoundingBox], k: int, max_width: float, max_height: float
) -> list[tuple[int, ...]]:
    """Partition of box indices after the constrained merge sweep.

    Returned as a list of sorted member tuples, ordered by smallest
    member, with each tree's enclosing rect recomputed from scratch.
    """
    trees, _, _ = _naive_sweep(boxes, k, max_width, max_height)
    return sorted((tuple(sorted(t)) for t in trees), key=lambda t: t[0])


def naive_edges_scanned(
    boxes: list[BoundingBox], k: int, max_width: float, max_height: float
) -> tuple[int, list[tuple[int, int, float]]]:
    """Edges the sweep over all n(n-1)/2 edges examines, and its merges."""
    _, scanned, merges = _naive_sweep(boxes, k, max_width, max_height)
    return scanned, merges


def naive_nms(detections: list[Detection], nms_iou: float) -> list[Detection]:
    """Greedy NMS testing each candidate against every kept box."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    kept: list[Detection] = []
    for i in order:
        if all(iou(detections[i].box, k.box) <= nms_iou for k in kept):
            kept.append(detections[i])
    return kept


def naive_oracle_detect(
    annotations: AnnotationSet,
    config: OracleConfig,
    frame: int,
    region: BoundingBox,
    input_width: float,
    input_height: float,
) -> list[Detection]:
    """The oracle's answer for one call, scanning every object of the frame."""
    if not 0 <= frame < annotations.frame_count:
        return []
    truths = annotations.eval_boxes(frame)
    return oracle_detect(truths, region, input_width, input_height, config, frame)


def naive_match(
    predictions: Mapping[int, list[Detection]], truth: AnnotationSet, iou_threshold: float
) -> list[bool]:
    """Whether each prediction is a true positive, in the pooled sweep order.

    Per frame, predictions in descending confidence (ties: earlier first)
    each take the unmatched ground truth of highest IoU, the lowest index
    among equals, tested against every ground truth of the frame.
    """
    decisions = []
    for frame, dets in predictions.items():
        truths = truth.eval_boxes(frame)
        matched: set[int] = set()
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
        for rank, i in enumerate(order):
            best_iou, best_j = max(
                ((iou(dets[i].box, truths[j].box), -j) for j in range(len(truths))
                 if j not in matched),
                default=(0.0, 0),
            )
            is_tp = best_iou > 0.0 and best_iou >= iou_threshold
            if is_tp:
                matched.add(-best_j)
            decisions.append((dets[i].confidence, frame, rank, is_tp))
    decisions.sort(key=lambda d: (-d[0], d[1], d[2]))
    return [is_tp for _, _, _, is_tp in decisions]


def naive_uncovered(boxes: list[BoundingBox], regions: list[BoundingBox]) -> frozenset[int]:
    """Indices of the boxes no region covers: COVERAGE_MIN of a box's area inside a
    region, or a box without area lying inside it, tested for every pair."""
    def covered(box: BoundingBox, region: BoundingBox) -> bool:
        if box.area <= 0.0:
            return region.contains(box)
        return intersection_area(box, region) / box.area >= COVERAGE_MIN

    return frozenset(
        i for i, box in enumerate(boxes) if not any(covered(box, r) for r in regions)
    )


def naive_to_frame_detections(
    raw: list[Detection],
    region: BoundingBox,
    input_width: float,
    input_height: float,
    source: str,
    dims: FrameDims,
) -> list[Detection]:
    """Region-local detections mapped by to_frame_coords and clipped by intersect."""
    out = []
    for det in raw:
        clipped = intersect(to_frame_coords(det.box, region, input_width, input_height), dims.rect)
        if clipped is not None:
            out.append(replace(det, box=clipped, source=source))
    return out


def naive_tree_rect(boxes: list[BoundingBox], members: tuple[int, ...]) -> BoundingBox:
    return BoundingBox(
        min(boxes[i].x_min for i in members),
        min(boxes[i].y_min for i in members),
        max(boxes[i].x_max for i in members),
        max(boxes[i].y_max for i in members),
    )


def kruskal_mst_weight(boxes: list[BoundingBox]) -> float:
    """Total weight of the minimum spanning tree over box centers."""
    n = len(boxes)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = sorted(
        (center_distance(boxes[u], boxes[v]), u, v) for u in range(n) for v in range(u + 1, n)
    )
    total = 0.0
    picked = 0
    for weight, u, v in edges:
        root_u, root_v = find(u), find(v)
        if root_u == root_v:
            continue
        parent[root_u] = root_v
        total += weight
        picked += 1
        if picked == n - 1:
            break
    return total


def pixel_iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    """IoU of integer-corner boxes by counting unit cells."""
    cells_a = {(x, y) for x in range(a[0], a[2]) for y in range(a[1], a[3])}
    cells_b = {(x, y) for x in range(b[0], b[2]) for y in range(b[1], b[3])}
    union = cells_a | cells_b
    if not union:
        return 0.0
    return len(cells_a & cells_b) / len(union)


def random_boxes(rng: Random, n_boxes: int, span: float = 1000.0) -> list[BoundingBox]:
    boxes = []
    for _ in range(n_boxes):
        x = rng.uniform(0.0, span)
        y = rng.uniform(0.0, span)
        w = rng.uniform(1.0, 60.0)
        h = rng.uniform(1.0, 120.0)
        boxes.append(BoundingBox(x, y, x + w, y + h))
    return boxes
