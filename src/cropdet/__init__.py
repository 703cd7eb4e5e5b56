"""Detector-agnostic pedestrian detection pipeline for high-resolution video.

Detections from a cheap downscaled full-frame pass seed clustered crop
regions; subsequent frames run the detector only on those crops, and a
temporal confidence filter carries marginal detections across frames.
"""

from .crop_proposal import (
    Crop,
    CropForest,
    CropTierConfig,
    LARGE_TIER_DEFAULT,
    SMALL_TIER_DEFAULT,
    Tree,
    expand_crop,
    propose_crops,
    select_largest_k,
    two_tier_proposal,
)
from .datasets_eval import (
    AnnotationParseError,
    AnnotationSet,
    EvalReport,
    EvaluationError,
    GroundTruth,
    evaluate_map,
    load_annotations,
    parse_darklabel,
    parse_visdrone,
    save_annotations,
)
from .detections import Detection
from .detector_stub import (
    DetectorError,
    ExternalProcessDetector,
    OracleConfig,
    OracleDetector,
    ProtocolError,
)
from .geometry import BoundingBox, FrameDims, center_distance, enclosing_rect, iou
from .pipeline import (
    Detector,
    FrameProcessingError,
    FrameResult,
    FrameState,
    PipelineConfig,
    merge_detections,
    process_frame,
    run_replay,
)
from .temporal_filter import TemporalConfig, filter_detections

__version__ = "0.1.0"

__all__ = [
    "AnnotationParseError",
    "AnnotationSet",
    "BoundingBox",
    "Crop",
    "CropForest",
    "CropTierConfig",
    "Detection",
    "Detector",
    "DetectorError",
    "EvalReport",
    "EvaluationError",
    "ExternalProcessDetector",
    "FrameDims",
    "FrameProcessingError",
    "FrameResult",
    "FrameState",
    "GroundTruth",
    "LARGE_TIER_DEFAULT",
    "OracleConfig",
    "OracleDetector",
    "PipelineConfig",
    "ProtocolError",
    "SMALL_TIER_DEFAULT",
    "TemporalConfig",
    "Tree",
    "center_distance",
    "enclosing_rect",
    "evaluate_map",
    "expand_crop",
    "filter_detections",
    "iou",
    "load_annotations",
    "merge_detections",
    "parse_darklabel",
    "parse_visdrone",
    "process_frame",
    "propose_crops",
    "run_replay",
    "save_annotations",
    "select_largest_k",
    "two_tier_proposal",
]
