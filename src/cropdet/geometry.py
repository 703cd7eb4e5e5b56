"""Axis-aligned box arithmetic and frame/crop coordinate transforms.

All coordinates are continuous frame pixels; rounding to integer pixel
grids only ever happens at detector boundaries, never here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Iterable


class BoundingBox(namedtuple("BoundingBox", "x_min y_min x_max y_max")):
    """Axis-aligned rectangle, corners (x_min, y_min) to (x_max, y_max).

    A validated 4-tuple: every construction path, _make and _replace
    included, rejects a non-finite or inverted box, and hot loops may
    index or unpack it as (x_min, y_min, x_max, y_max).
    """

    __slots__ = ()

    def __new__(cls, x_min: float, y_min: float, x_max: float, y_max: float) -> BoundingBox:
        finite = math.isfinite
        if not (finite(x_min) and finite(y_min) and finite(x_max) and finite(y_max)):
            for name, value in zip(cls._fields, (x_min, y_min, x_max, y_max)):
                if not finite(value):
                    raise ValueError(f"non-finite coordinate {name}={value!r}")
        if x_min > x_max or y_min > y_max:
            raise ValueError(f"inverted box: ({x_min}, {y_min}, {x_max}, {y_max})")
        return tuple.__new__(cls, (x_min, y_min, x_max, y_max))

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> BoundingBox:
        return cls(*iterable)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        x_min, y_min, x_max, y_max = self
        return (x_max - x_min) * (y_max - y_min)

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
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    # min() and max() inlined, here and in iou: same results, a fraction of the time
    w = (ax1 if ax1 < bx1 else bx1) - (ax0 if ax0 > bx0 else bx0)
    h = (ay1 if ay1 < by1 else by1) - (ay0 if ay0 > by0 else by0)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1]; 0 for disjoint or zero-area boxes."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    w = (ax1 if ax1 < bx1 else bx1) - (ax0 if ax0 > bx0 else bx0)
    if w <= 0.0:
        return 0.0
    h = (ay1 if ay1 < by1 else by1) - (ay0 if ay0 > by0 else by0)
    if h <= 0.0:
        return 0.0
    inter = w * h
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
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
        raise ValueError(f"zero-area crop region: {tuple(region)}")
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
