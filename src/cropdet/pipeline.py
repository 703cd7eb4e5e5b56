"""Per-frame detection pipeline.

plan_frame decides each frame's detector calls: a downscaled full-frame
pass on every full_frame_period-th frame (frame 0 included), plus the
crop regions proposed on the previous frame. process_frame runs those
calls in one loop, maps the region-local boxes back to frame
coordinates, deduplicates them with greedy NMS and passes them through
the temporal confidence filter; the surviving boxes seed the next
frame's crops. Detector calls happen in a fixed order (full frame first,
then crops in proposal order), so a deterministic detector makes the
whole replay deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Protocol, Sequence

from .crop_proposal import (
    LARGE_TIER_DEFAULT,
    SMALL_TIER_DEFAULT,
    Crop,
    CropTierConfig,
    crop_to_dict,
    two_tier_proposal,
)
from .detections import FULL_FRAME, Detection, crop_source
from .geometry import BoundingBox, BoxGrid, FrameDims, _check_region, iou, require_finite
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


@dataclass(frozen=True)
class FramePlan:
    """One frame's detector calls in execution order, each a (region,
    input_width, input_height, source) tuple: the full-frame pass first on
    a refresh frame, then the crops in proposal order. `crops` are the
    crops among those calls."""

    calls: tuple[tuple[BoundingBox, int, int, str], ...]
    crops: tuple[Crop, ...]


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

    A candidate is tested only against the kept boxes a BoxGrid query
    finds near it. The others do not overlap it, and an IoU of 0 never
    suppresses since nms_iou >= 0.
    """
    if not nms_iou >= 0.0:  # NaN included
        raise ValueError(f"nms_iou must be >= 0, got {nms_iou}")
    flat = [det for group in groups for det in group]
    boxes = [det.box for det in flat]
    grid = BoxGrid(boxes)
    is_kept = [False] * len(flat)
    kept: list[Detection] = []
    for i in sorted(range(len(flat)), key=lambda i: (-flat[i].confidence, i)):
        box = boxes[i]
        for j in grid.query(box):
            if is_kept[j] and iou(box, boxes[j]) > nms_iou:
                break
        else:
            is_kept[i] = True
            kept.append(flat[i])
    return kept


def _to_frame_detections(
    raw: Sequence[Detection],
    region: BoundingBox,
    input_width: float,
    input_height: float,
    source: str,
    dims: FrameDims,
) -> list[Detection]:
    """Map region-local boxes to frame space, clip to the frame, tag the source.

    The map inverts to_crop_coords' affine map and the clip keeps the
    overlap with the frame, as tests/naive_reference.py states them step by
    step; here they are inlined, with the region checked once per call.
    """
    if not raw:
        return []
    _check_region(region, input_width, input_height)
    rx0, ry0, rx1, ry1 = region
    sx = (rx1 - rx0) / input_width
    sy = (ry1 - ry0) / input_height
    fw, fh = float(dims.width), float(dims.height)
    isfinite = math.isfinite
    out: list[Detection] = []
    for det in raw:
        bx0, by0, bx1, by1 = det.box
        x0, y0, x1, y1 = rx0 + bx0 * sx, ry0 + by0 * sy, rx0 + bx1 * sx, ry0 + by1 * sy
        if not (isfinite(x0) and isfinite(y0) and isfinite(x1) and isfinite(y1)):
            BoundingBox(x0, y0, x1, y1)  # raises the non-finite coordinate error
        # max(a, b) and min(a, b) as the clip computes them, -0.0 included
        x0 = 0.0 if 0.0 > x0 else x0
        y0 = 0.0 if 0.0 > y0 else y0
        x1 = fw if fw < x1 else x1
        y1 = fh if fh < y1 else y1
        if x1 <= x0 or y1 <= y0:
            continue
        out.append(Detection(BoundingBox(x0, y0, x1, y1), det.confidence, source, det.resurrected))
    return out


def plan_frame(state: FrameState, config: PipelineConfig, dims: FrameDims) -> FramePlan:
    """Decide one frame's detector calls. The refresh rule and
    crops_on_refresh are read here and nowhere else."""
    refresh = config.full_frame_only or state.frame_index % config.full_frame_period == 0
    run_crops = not config.full_frame_only and (not refresh or config.crops_on_refresh)
    crops = state.active_crops if run_crops else ()
    calls = []
    if refresh:
        calls.append((dims.rect, config.full_frame_width, config.full_frame_height, FULL_FRAME))
    for i, crop in enumerate(crops):
        calls.append((crop.region, crop.target_width, crop.target_height, crop_source(i)))
    return FramePlan(tuple(calls), crops)


def process_frame(
    frame_handle: int,
    state: FrameState,
    detector: Detector,
    config: PipelineConfig,
    dims: FrameDims,
) -> tuple[FrameResult, FrameState]:
    """Run one frame's planned calls, then merge, filter and propose; returns
    the result and next state."""
    t_start = perf_counter()
    plan = plan_frame(state, config, dims)
    groups: list[list[Detection]] = []
    t_calls = t_full = perf_counter()
    for region, input_width, input_height, source in plan.calls:
        try:
            raw = detector.detect(frame_handle, region, input_width, input_height)
        except Exception as exc:
            raise FrameProcessingError(
                state.frame_index,
                region,
                f"detector failed on frame {state.frame_index}, region {tuple(region)}: {exc}",
            ) from exc
        groups.append(_to_frame_detections(raw, region, input_width, input_height, source, dims))
        if source == FULL_FRAME:  # planned first, so the crop calls start here
            t_full = perf_counter()

    t0 = perf_counter()
    crops_s = t0 - t_full if plan.crops else 0.0
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
        full_frame_s=t_full - t_calls,
        crops_s=crops_s,
        nms_s=nms_s,
        proposal_s=proposal_s,
        filter_s=filter_s,
        total_s=perf_counter() - t_start,
    )
    result = FrameResult(
        frame_index=state.frame_index,
        detections=tuple(accepted),
        crops_used=plan.crops,
        timing=timing,
        pixels_processed=sum(width * height for _, width, height, _ in plan.calls),
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
) -> list[FrameResult]:
    """Process frames 0..n_frames-1 in order, using frame indices as handles."""
    if n_frames < 0:
        raise ValueError(f"n_frames must be >= 0, got {n_frames}")
    state = FrameState()
    results: list[FrameResult] = []
    for frame in range(n_frames):
        result, state = process_frame(frame, state, detector, config, dims)
        results.append(result)
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
