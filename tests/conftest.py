from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from cropdet.datasets_eval import save_annotations
from cropdet.geometry import BoundingBox, FrameDims
from cropdet.synthetic import fidelity_scene, flicker_scene, low_resolution_scene

TESTS_DIR = Path(__file__).parent
PROTOCOL_DIR = TESTS_DIR / "data" / "protocol"
RESPONDER = TESTS_DIR / "proto_responder.py"
SRC_DIR = TESTS_DIR.parent / "src"

sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Child Python processes import cropdet from this checkout, as the
    test process does through pytest's pythonpath setting."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC_DIR), prepend=os.pathsep)
        yield


class CountingDetector:
    """Returns nothing, counts full-frame versus crop calls."""

    def __init__(self, dims: FrameDims) -> None:
        self._frame_rect = dims.rect
        self.full_frame_calls = 0
        self.crop_calls = 0
        self.regions: list[BoundingBox] = []

    def detect(self, frame_handle, region, input_width, input_height):
        self.regions.append(region)
        if region == self._frame_rect:
            self.full_frame_calls += 1
        else:
            self.crop_calls += 1
        return []


class CannedDetector:
    """Replays a fixed frame -> detections mapping for full-frame calls and
    answers crop calls with nothing. Detections are given in frame space
    and converted to the call's input space."""

    def __init__(self, dims: FrameDims, by_frame: dict) -> None:
        self._dims = dims
        self._by_frame = by_frame

    def detect(self, frame_handle, region, input_width, input_height):
        from cropdet.geometry import to_crop_coords
        from dataclasses import replace

        if region != self._dims.rect:
            return []
        return [
            replace(det, box=to_crop_coords(det.box, region, input_width, input_height))
            for det in self._by_frame.get(int(frame_handle), [])
        ]


@pytest.fixture
def counting_detector():
    return CountingDetector


@pytest.fixture
def canned_detector():
    return CannedDetector


@pytest.fixture(scope="session")
def fidelity_annotations():
    return fidelity_scene()


@pytest.fixture(scope="session")
def low_res_annotations():
    return low_resolution_scene()


@pytest.fixture(scope="session")
def flicker_annotations():
    return flicker_scene()


@pytest.fixture
def scene_json(tmp_path):
    """Write a scene to JSON and return the path."""

    def _write(annotations, name="scene.json"):
        path = tmp_path / name
        save_annotations(annotations, path)
        return path

    return _write


@pytest.fixture(scope="session")
def responder_cmd():
    """Base argv for the protocol responder subprocess."""

    def _cmd(*args: str) -> list[str]:
        return [sys.executable, str(RESPONDER), *args]

    return _cmd


@pytest.fixture(scope="session")
def protocol_dir():
    return PROTOCOL_DIR
