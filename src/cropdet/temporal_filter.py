"""Temporal confidence filter.

Splits each frame's raw detections into three bands: confident boxes are
kept and seed the next frame's reference set, boxes below a hard floor
are discarded, and boxes in between are kept only when they overlap a
confident box from the previous frame. Resurrected boxes never join the
reference set themselves, so a detection cannot stay alive indefinitely
on marginal scores alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .detections import Detection
from .geometry import rect_iou, require_finite


@dataclass(frozen=True)
class TemporalConfig:
    conf_genuine: float = 0.2
    conf_floor: float = 0.001
    overlap_min: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 <= self.conf_floor <= self.conf_genuine <= 1.0:
            raise ValueError(
                f"need 0 <= conf_floor <= conf_genuine <= 1, "
                f"got floor={self.conf_floor} genuine={self.conf_genuine}"
            )
        if not 0.0 < self.overlap_min <= 1.0:
            raise ValueError(f"overlap_min must be in (0, 1], got {self.overlap_min}")


def filter_detections(
    candidates: Sequence[Detection],
    genuine_prev: Sequence[Detection],
    config: TemporalConfig,
) -> tuple[list[Detection], list[Detection]]:
    """Apply the confidence bands to one frame's merged detections.

    Args:
        candidates: detections for the current frame, already deduplicated.
        genuine_prev: the previous frame's confident detections.
        config: band thresholds.

    Returns:
        (accepted, genuine_next). `accepted` preserves candidate order and
        contains confident boxes as-is plus resurrected boxes flagged with
        resurrected=True; `genuine_next` is the confident subset only.
    """
    accepted: list[Detection] = []
    genuine_next: list[Detection] = []
    prev_rects = [prev.box.as_tuple() for prev in genuine_prev]
    for det in candidates:
        if det.confidence >= config.conf_genuine:
            accepted.append(det)
            genuine_next.append(det)
        elif det.confidence < config.conf_floor:
            continue
        else:
            rect = det.box.as_tuple()
            if any(rect_iou(rect, prev) >= config.overlap_min for prev in prev_rects):
                accepted.append(replace(det, resurrected=True))
    return accepted, genuine_next
