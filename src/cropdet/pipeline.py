"""Per-frame detection pipeline.

Each frame runs a fixed schedule of detector calls: a downscaled
full-frame pass on every full_frame_period-th frame (frame 0 included),
plus the crop regions proposed on the previous frame. Region-local boxes
are mapped back to frame coordinates, deduplicated with greedy NMS,
passed through the temporal confidence filter, and the surviving boxes
seed the next frame's crops. Detector calls happen in a fixed order
(full frame first, then crops in proposal order), so a deterministic
detector makes the whole replay deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Protocol, Sequence

from .crop_proposal import (
    LARGE_TIER_DEFAULT,
    SMALL_TIER_DEFAULT,
    Crop,
    CropTierConfig,
    crop_to_dict,
    two_tier_proposal,
)
from .detections import FULL_FRAME, Detection, crop_source
from .geometry import (
    NEIGHBOURHOOD,
    BoundingBox,
    FrameDims,
    grid_cell,
    iou,
    require_finite,
    to_frame_coords,
)
from .temporal_filter import TemporalConfig, filter_detections


class Detector(Protocol):
    """Anything that can detect pedestrians in a resized region of a frame.

    detect receives the frame handle, the frame-space region to sample,
    and the input size the region is resized to; it returns boxes in
    that resized input's coordinate space.
    """

    def detect(
        self, frame_handle: int, region: BoundingBox, input_width: float, input_height: float
    ) -> Sequence[Detection]: ...


@dataclass(frozen=True)
class PipelineConfig:
    full_frame_period: int = 5
    full_frame_width: int = 416
    full_frame_height: int = 416
    large_tier: CropTierConfig = LARGE_TIER_DEFAULT
    small_tier: CropTierConfig = SMALL_TIER_DEFAULT
    temporal: TemporalConfig = field(default_factory=TemporalConfig)
    nms_iou: float = 0.45
    crops_on_refresh: bool = True
    full_frame_only: bool = False

    def __post_init__(self) -> None:
        require_finite(self)
        if self.full_frame_period < 1:
            raise ValueError(f"full_frame_period must be >= 1, got {self.full_frame_period}")
        if self.full_frame_width < 1 or self.full_frame_height < 1:
            raise ValueError(
                f"full-frame input must be >= 1 px, got "
                f"{self.full_frame_width}x{self.full_frame_height}"
            )
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ValueError(f"nms_iou must be in [0, 1], got {self.nms_iou}")


@dataclass(frozen=True)
class FrameState:
    """What carries over between frames: the reference detections feeding
    the temporal filter and the crops scheduled for the next frame."""

    frame_index: int = 0
    genuine_prev: tuple[Detection, ...] = ()
    active_crops: tuple[Crop, ...] = ()


@dataclass(frozen=True)
class FrameTiming:
    full_frame_s: float
    crops_s: float
    nms_s: float
    proposal_s: float
    filter_s: float
    total_s: float


@dataclass(frozen=True)
class FrameResult:
    frame_index: int
    detections: tuple[Detection, ...]
    crops_used: tuple[Crop, ...]
    timing: FrameTiming
    pixels_processed: int


class FrameProcessingError(Exception):
    """A detector call failed; carries the frame and region being processed."""

    def __init__(self, frame_index: int, region: BoundingBox, message: str) -> None:
        super().__init__(message)
        self.frame_index = frame_index
        self.region = region


def merge_detections(groups: Sequence[Sequence[Detection]], nms_iou: float) -> list[Detection]:
    """Greedy NMS across all detector calls of one frame.

    Candidates are visited in descending confidence (ties: earlier call,
    earlier box wins) and kept unless they overlap an already-kept box
    with IoU strictly above nms_iou.

    A candidate is tested only against kept boxes whose minimum corner
    lies in the 3x3 grid neighbourhood of its own, with cells as wide and
    as tall as the widest and tallest box. Boxes further apart do not
    overlap, and an IoU of 0 never suppresses since nms_iou >= 0.
    """
    if not nms_iou >= 0.0:  # NaN included
        raise ValueError(f"nms_iou must be >= 0, got {nms_iou}")
    flat = [det for group in groups for det in group]
    if not flat:
        return []
    boxes = [det.box for det in flat]
    span = max(max(abs(b[0]), abs(b[1])) for b in boxes)
    cell_w = grid_cell(max(b[2] - b[0] for b in boxes), span)
    cell_h = grid_cell(max(b[3] - b[1] for b in boxes), span)
    order = sorted(range(len(flat)), key=lambda i: (-flat[i].confidence, i))
    grid: dict[tuple[int, int], list[BoundingBox]] = {}
    kept: list[Detection] = []
    for i in order:
        box = boxes[i]
        gx, gy = math.floor(box[0] / cell_w), math.floor(box[1] / cell_h)
        if all(
            iou(box, other) <= nms_iou
            for dx, dy in NEIGHBOURHOOD
            for other in grid.get((gx + dx, gy + dy), ())
        ):
            kept.append(flat[i])
            grid.setdefault((gx, gy), []).append(box)
    return kept


def _call_detector(
    detector: Detector,
    frame_handle: int,
    region: BoundingBox,
    input_width: float,
    input_height: float,
    frame_index: int,
) -> Sequence[Detection]:
    try:
        return detector.detect(frame_handle, region, input_width, input_height)
    except Exception as exc:
        raise FrameProcessingError(
            frame_index,
            region,
            f"detector failed on frame {frame_index}, region {tuple(region)}: {exc}",
        ) from exc


def _to_frame_detections(
    raw: Sequence[Detection],
    region: BoundingBox,
    input_width: float,
    input_height: float,
    source: str,
    dims: FrameDims,
) -> list[Detection]:
    """Map region-local boxes to frame space, clip to the frame, tag the source."""
    out: list[Detection] = []
    frame_rect = dims.rect
    for det in raw:
        frame_box = to_frame_coords(det.box, region, input_width, input_height)
        clipped = frame_box.intersect(frame_rect)
        if clipped is None:
            continue
        out.append(replace(det, box=clipped, source=source))
    return out


def process_frame(
    frame_handle: int,
    state: FrameState,
    detector: Detector,
    config: PipelineConfig,
    dims: FrameDims,
) -> tuple[FrameResult, FrameState]:
    """Run one frame through the schedule; returns the result and next state."""
    t_start = perf_counter()
    refresh = config.full_frame_only or state.frame_index % config.full_frame_period == 0
    groups: list[list[Detection]] = []
    pixels = 0

    full_frame_s = 0.0
    if refresh:
        t0 = perf_counter()
        raw = _call_detector(
            detector,
            frame_handle,
            dims.rect,
            config.full_frame_width,
            config.full_frame_height,
            state.frame_index,
        )
        groups.append(
            _to_frame_detections(
                raw, dims.rect, config.full_frame_width, config.full_frame_height, FULL_FRAME, dims
            )
        )
        full_frame_s = perf_counter() - t0
        pixels += config.full_frame_width * config.full_frame_height

    crops_s = 0.0
    run_crops = not config.full_frame_only and (not refresh or config.crops_on_refresh)
    if run_crops:
        t0 = perf_counter()
        for i, crop in enumerate(state.active_crops):
            raw = _call_detector(
                detector,
                frame_handle,
                crop.region,
                crop.target_width,
                crop.target_height,
                state.frame_index,
            )
            groups.append(
                _to_frame_detections(
                    raw, crop.region, crop.target_width, crop.target_height, crop_source(i), dims
                )
            )
            pixels += crop.target_width * crop.target_height
        crops_s = perf_counter() - t0

    t0 = perf_counter()
    merged = merge_detections(groups, config.nms_iou)
    nms_s = perf_counter() - t0

    t0 = perf_counter()
    accepted, genuine_next = filter_detections(merged, state.genuine_prev, config.temporal)
    filter_s = perf_counter() - t0

    t0 = perf_counter()
    if config.full_frame_only:
        next_crops: tuple[Crop, ...] = ()
    else:
        large, small, _ = two_tier_proposal(
            [det.box for det in accepted], config.large_tier, config.small_tier, dims
        )
        next_crops = tuple(large) + tuple(small)
    proposal_s = perf_counter() - t0

    timing = FrameTiming(
        full_frame_s=full_frame_s,
        crops_s=crops_s,
        nms_s=nms_s,
        proposal_s=proposal_s,
        filter_s=filter_s,
        total_s=perf_counter() - t_start,
    )
    result = FrameResult(
        frame_index=state.frame_index,
        detections=tuple(accepted),
        crops_used=state.active_crops,
        timing=timing,
        pixels_processed=pixels,
    )
    next_state = FrameState(
        frame_index=state.frame_index + 1,
        genuine_prev=tuple(genuine_next),
        active_crops=next_crops,
    )
    return result, next_state


def run_replay(
    detector: Detector,
    config: PipelineConfig,
    dims: FrameDims,
    n_frames: int,
    on_frame: Callable[[FrameResult], None] | None = None,
) -> list[FrameResult]:
    """Process frames 0..n_frames-1 in order, using frame indices as handles."""
    if n_frames < 0:
        raise ValueError(f"n_frames must be >= 0, got {n_frames}")
    state = FrameState()
    results: list[FrameResult] = []
    for frame in range(n_frames):
        result, state = process_frame(frame, state, detector, config, dims)
        results.append(result)
        if on_frame is not None:
            on_frame(result)
    return results


def detection_to_dict(det: Detection) -> dict:
    return {
        "x_min": det.box.x_min,
        "y_min": det.box.y_min,
        "x_max": det.box.x_max,
        "y_max": det.box.y_max,
        "confidence": det.confidence,
        "source": det.source,
        "resurrected": det.resurrected,
    }


def detection_from_dict(data: dict) -> Detection:
    return Detection(
        box=BoundingBox(
            float(data["x_min"]), float(data["y_min"]), float(data["x_max"]), float(data["y_max"])
        ),
        confidence=float(data["confidence"]),
        source=str(data.get("source", "")),
        resurrected=bool(data.get("resurrected", False)),
    )


def frame_result_to_dict(result: FrameResult) -> dict:
    """Deterministic per-frame record: detections, crops used, pixel count."""
    return {
        "frame": result.frame_index,
        "detections": [detection_to_dict(d) for d in result.detections],
        "crops": [crop_to_dict(c) for c in result.crops_used],
        "pixels_processed": result.pixels_processed,
    }


def timing_to_dict(result: FrameResult) -> dict:
    """Wall-clock breakdown for one frame; varies run to run by nature."""
    t = result.timing
    return {
        "frame": result.frame_index,
        "full_frame_s": t.full_frame_s,
        "crops_s": t.crops_s,
        "nms_s": t.nms_s,
        "proposal_s": t.proposal_s,
        "filter_s": t.filter_s,
        "total_s": t.total_s,
    }
