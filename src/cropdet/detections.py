"""Detection record shared by the detector, filter, and evaluation stages."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import BoundingBox

FULL_FRAME = "full_frame"


def crop_source(index: int) -> str:
    """Source tag for the crop at position `index` in the frame's crop list."""
    return f"crop:{index}"


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector output box with its score.

    `source` records which detector call produced the box ("full_frame"
    or "crop:<i>"); `resurrected` marks low-confidence boxes kept only
    because they overlap a confident box from the previous frame.
    """

    box: BoundingBox
    confidence: float
    source: str = ""
    resurrected: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence!r}")
