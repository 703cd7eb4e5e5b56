"""Axis-aligned box arithmetic and frame/crop coordinate transforms.

All coordinates are continuous frame pixels; rounding to integer pixel
grids only ever happens at detector boundaries, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence


# A box as a plain (x_min, y_min, x_max, y_max) tuple, for the per-frame
# loops where building a validated BoundingBox per operation dominates.
Rect = tuple[float, float, float, float]


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned rectangle, corners (x_min, y_min) to (x_max, y_max)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        for name in ("x_min", "y_min", "x_max", "y_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"non-finite coordinate {name}={value!r}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(
                f"inverted box: ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0

    def contains(self, other: BoundingBox) -> bool:
        """True when `other` lies entirely inside this box (borders included)."""
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and other.x_max <= self.x_max
            and other.y_max <= self.y_max
        )

    def intersect(self, other: BoundingBox) -> BoundingBox | None:
        """Overlap box of the two rectangles, or None when the overlap has no area."""
        x_min = max(self.x_min, other.x_min)
        y_min = max(self.y_min, other.y_min)
        x_max = min(self.x_max, other.x_max)
        y_max = min(self.y_max, other.y_max)
        if x_max <= x_min or y_max <= y_min:
            return None
        return BoundingBox(x_min, y_min, x_max, y_max)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True)
class FrameDims:
    """Integer frame size in pixels."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"frame dims must be >= 1, got {self.width}x{self.height}")

    @property
    def rect(self) -> BoundingBox:
        return BoundingBox(0.0, 0.0, float(self.width), float(self.height))


def require_finite(config: object) -> None:
    """Reject a NaN or infinite float field of a config dataclass; < and <= let NaN pass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def intersection_area(a: BoundingBox, b: BoundingBox) -> float:
    """Area of the overlap region; 0.0 when the boxes do not overlap."""
    w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint or zero-area boxes."""
    inter = intersection_area(a, b)
    if inter <= 0.0:
        return 0.0
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def rect_iou(a: Rect, b: Rect) -> float:
    """iou of two Rect tuples, with the same float operations in the same
    order, so the two agree exactly."""
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


# The 3x3 block of grid cells around a cell, as offsets.
NEIGHBOURHOOD = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def grid_cell(extent: float, span: float) -> float:
    """Side of the grid cells that bucket coordinates for a neighbour search.

    Cells are indexed by math.floor(coordinate / cell). Two coordinates of
    magnitude at most `span` that differ by at most `extent` (give or take
    a few ulps) then land in the same or adjacent cells, whatever the
    rounding: the cell is wider than extent by a relative 2**-20, and at
    most 2**26 cells fit across span, so the division rounds by at most
    2**-27 of a cell.
    """
    return max(extent * (1.0 + 2.0**-20), span * 2.0**-26) or 1.0


def center_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Euclidean distance between box centers, in pixels."""
    ax, ay = a.center
    bx, by = b.center
    return math.hypot(ax - bx, ay - by)


def enclosing_rect(boxes: Sequence[BoundingBox] | Iterable[BoundingBox]) -> BoundingBox:
    """Smallest axis-aligned rectangle containing every input box.

    Raises ValueError on an empty input; callers must not ask for the
    enclosure of nothing.
    """
    boxes = list(boxes)
    if not boxes:
        raise ValueError("enclosing_rect requires at least one box")
    return BoundingBox(
        min(b.x_min for b in boxes),
        min(b.y_min for b in boxes),
        max(b.x_max for b in boxes),
        max(b.y_max for b in boxes),
    )


def clamp_box(box: BoundingBox, dims: FrameDims) -> BoundingBox:
    """Clamp every coordinate into the frame; may return a zero-area box."""
    w, h = float(dims.width), float(dims.height)
    return BoundingBox(
        min(max(box.x_min, 0.0), w),
        min(max(box.y_min, 0.0), h),
        min(max(box.x_max, 0.0), w),
        min(max(box.y_max, 0.0), h),
    )


def _check_region(region: BoundingBox, target_width: float, target_height: float) -> None:
    if region.area <= 0.0:
        raise ValueError(f"zero-area crop region: {region.as_tuple()}")
    if target_width <= 0 or target_height <= 0:
        raise ValueError(f"target resolution must be positive, got {target_width}x{target_height}")


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


def to_crop_coords(
    box: BoundingBox, region: BoundingBox, target_width: float, target_height: float
) -> BoundingBox:
    """Map a frame-space box into the resized-crop coordinate system."""
    _check_region(region, target_width, target_height)
    sx = target_width / region.width
    sy = target_height / region.height
    return BoundingBox(
        (box.x_min - region.x_min) * sx,
        (box.y_min - region.y_min) * sy,
        (box.x_max - region.x_min) * sx,
        (box.y_max - region.y_min) * sy,
    )
