"""Detector-agnostic pedestrian detection pipeline for high-resolution video.

Detections from a cheap downscaled full-frame pass seed clustered crop
regions; subsequent frames run the detector only on those crops, and a
temporal confidence filter carries marginal detections across frames.
Everything else is imported from its module, e.g. cropdet.geometry.
"""

from .datasets_eval import evaluate_map
from .detector_stub import OracleConfig, OracleDetector
from .pipeline import PipelineConfig, run_replay

__all__ = ["OracleConfig", "OracleDetector", "PipelineConfig", "evaluate_map", "run_replay"]
