from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from cropdet.crop_proposal import Crop
from cropdet.detections import Detection
from cropdet.detector_stub import OracleConfig, OracleDetector
from cropdet.geometry import BoundingBox, FrameDims, grid_cell
from cropdet.pipeline import (
    FrameProcessingError,
    FrameState,
    PipelineConfig,
    detection_from_dict,
    detection_to_dict,
    frame_result_to_dict,
    merge_detections,
    process_frame,
    run_replay,
    timing_to_dict,
)
from cropdet.synthetic import fidelity_scene
from naive_reference import naive_nms

DIMS = FrameDims(1920, 1080)


def det(conf, x, y=0.0, w=10.0, h=20.0, source=""):
    return Detection(BoundingBox(x, y, x + w, y + h), conf, source=source)


class ExplodingDetector:
    def detect(self, frame_handle, region, input_width, input_height):
        raise RuntimeError("model crashed")


def test_full_frame_cadence(counting_detector):
    detector = counting_detector(DIMS)
    run_replay(detector, PipelineConfig(full_frame_period=5), DIMS, 100)
    assert detector.full_frame_calls == 20


def test_frame_zero_runs_full_frame(counting_detector):
    detector = counting_detector(DIMS)
    run_replay(detector, PipelineConfig(full_frame_period=5), DIMS, 1)
    assert detector.full_frame_calls == 1


def test_period_one_runs_every_frame(counting_detector):
    detector = counting_detector(DIMS)
    run_replay(detector, PipelineConfig(full_frame_period=1), DIMS, 7)
    assert detector.full_frame_calls == 7


def test_full_frame_only_never_uses_crops():
    scene = fidelity_scene(12)
    detector = OracleDetector(scene, OracleConfig(jitter_fraction=0.0))
    results = run_replay(detector, PipelineConfig(full_frame_only=True), scene.dims, 12)
    for result in results:
        assert result.crops_used == ()
        assert result.pixels_processed == 416 * 416
        assert all(d.source == "full_frame" for d in result.detections)


def test_crops_on_refresh_toggle():
    scene = fidelity_scene(6)
    base = OracleConfig(jitter_fraction=0.0)

    class Spy:
        def __init__(self):
            self.inner = OracleDetector(scene, base)
            self.calls = []

        def detect(self, frame_handle, region, w, h):
            self.calls.append((int(frame_handle), region == scene.dims.rect))
            return self.inner.detect(frame_handle, region, w, h)

    spy = Spy()
    run_replay(spy, PipelineConfig(crops_on_refresh=False), scene.dims, 6)
    # frame 5 is a refresh: full frame only, no crop calls
    frame5 = [full for f, full in spy.calls if f == 5]
    assert frame5 == [True]

    spy = Spy()
    run_replay(spy, PipelineConfig(crops_on_refresh=True), scene.dims, 6)
    frame5 = [full for f, full in spy.calls if f == 5]
    assert frame5[0] is True and len(frame5) > 1 and not any(frame5[1:])


def test_nms_suppression_chain():
    # a overlaps b, b overlaps c, a barely overlaps c: b is suppressed
    # by a, then c survives because it only competes with kept boxes
    a = det(0.9, 0.0)
    b = det(0.8, 4.0)  # IoU with a: 6/14
    c = det(0.7, 8.0)  # IoU with a: 2/18
    assert merge_detections([[a, b, c]], nms_iou=0.3) == [a, c]


def test_nms_tie_prefers_earlier_source():
    first = det(0.8, 0.0, source="full_frame")
    second = det(0.8, 0.5, source="crop:0")
    kept = merge_detections([[first], [second]], nms_iou=0.45)
    assert kept == [first]


def test_nms_threshold_is_strict():
    # IoU exactly at the threshold is kept
    a = det(0.9, 0.0, w=10.0)
    b = det(0.8, 5.0, w=10.0)  # IoU = 5/15 = 1/3
    kept = merge_detections([[a, b]], nms_iou=1.0 / 3.0)
    assert kept == [a, b]


def test_merge_orders_by_confidence():
    kept = merge_detections([[det(0.3, 0.0), det(0.9, 100.0)]], nms_iou=0.45)
    assert [d.confidence for d in kept] == [0.9, 0.3]


def test_merge_rejects_negative_threshold():
    with pytest.raises(ValueError):
        merge_detections([[det(0.9, 0.0)]], nms_iou=-0.1)


@st.composite
def detection_groups(draw):
    """Groups of detections whose minimum corners sit on lattices of the
    NMS grid cell and of the largest box size, so corners fall exactly on
    cell borders, boxes touch, and boxes repeat; confidences tie often."""
    width = draw(st.sampled_from((0.0, 1.0, 12.0, 40.0)))
    height = draw(st.sampled_from((0.0, 3.0, 25.0, 90.0)))
    # the first box is the largest, so the grid cell is known here
    units_x = (grid_cell(width, 0.0), width, 7.0)
    units_y = (grid_cell(height, 0.0), height, 7.0)
    n = draw(st.integers(1, 30))
    dets = []
    for i in range(n):
        x = draw(st.integers(-3, 6)) * draw(st.sampled_from(units_x))
        y = draw(st.integers(-3, 6)) * draw(st.sampled_from(units_y))
        w = width if i == 0 else draw(st.sampled_from((0.0, width / 2.0, width)))
        h = height if i == 0 else draw(st.sampled_from((0.0, height / 2.0, height)))
        conf = draw(st.sampled_from((0.1, 0.5, 0.9)))
        dets.append(Detection(BoundingBox(x, y, x + w, y + h), conf, source=f"crop:{i}"))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    groups = [dets[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    return groups, dets


_KEPT = det(0.9, 5.0, 5.0, 10.0, 10.0)
_DIAGONAL = det(0.5, 10.5, 10.5, 10.0, 10.0)  # the next cell on both axes


@settings(max_examples=200, deadline=None)
@given(detection_groups(), st.sampled_from((0.0, 0.45, 1.0)))
@example(([[_KEPT, _DIAGONAL]], [_KEPT, _DIAGONAL]), 0.0)
def test_merge_matches_naive_nms(case, nms_iou):
    groups, flat = case
    assert merge_detections(groups, nms_iou) == naive_nms(flat, nms_iou)


def test_detection_remap_and_source_tagging():
    scene_gt = BoundingBox(500.0, 400.0, 520.0, 440.0)

    class OneBox:
        def detect(self, frame_handle, region, w, h):
            from cropdet.geometry import to_crop_coords

            return [Detection(to_crop_coords(scene_gt, region, w, h), 0.9)]

    state = FrameState(
        frame_index=1,  # not a refresh frame
        active_crops=(Crop(BoundingBox(450.0, 350.0, 674.0, 478.0), "large", 224, 128, (0,)),),
    )
    result, _ = process_frame(1, state, OneBox(), PipelineConfig(), DIMS)
    assert len(result.detections) == 1
    out = result.detections[0]
    assert out.source == "crop:0"
    assert out.box == pytest.approx(scene_gt)
    assert result.pixels_processed == 224 * 128


def test_out_of_frame_detections_are_dropped():
    class OffScreen:
        def detect(self, frame_handle, region, w, h):
            return [Detection(BoundingBox(-50.0, -50.0, -10.0, -10.0), 0.9)]

    result, _ = process_frame(0, FrameState(), OffScreen(), PipelineConfig(), DIMS)
    assert result.detections == ()


def test_detector_failure_is_wrapped():
    with pytest.raises(FrameProcessingError) as excinfo:
        process_frame(0, FrameState(), ExplodingDetector(), PipelineConfig(), DIMS)
    assert excinfo.value.frame_index == 0
    assert excinfo.value.region == DIMS.rect
    assert "model crashed" in str(excinfo.value)


def test_state_threads_through_replay():
    scene = fidelity_scene(8)
    detector = OracleDetector(scene, OracleConfig(jitter_fraction=0.0))
    results = run_replay(detector, PipelineConfig(), scene.dims, 8)
    assert [r.frame_index for r in results] == list(range(8))
    # crops used on frame n were proposed from frame n-1 detections
    assert results[0].crops_used == ()
    for prev, curr in zip(results, results[1:]):
        assert len(curr.crops_used) >= 1
        assert curr.pixels_processed > 0


def test_pixels_processed_accounting():
    state = FrameState(
        frame_index=1,
        active_crops=(
            Crop(BoundingBox(0.0, 0.0, 400.0, 200.0), "large", 224, 128, ()),
            Crop(BoundingBox(500.0, 0.0, 640.0, 96.0), "small", 160, 96, ()),
        ),
    )

    class Silent:
        def detect(self, *args):
            return []

    result, _ = process_frame(1, state, Silent(), PipelineConfig(), DIMS)
    assert result.pixels_processed == 224 * 128 + 160 * 96


def test_replay_is_deterministic():
    scene = fidelity_scene(10)
    config = PipelineConfig()
    oracle_cfg = OracleConfig(rng_seed=123, jitter_fraction=0.05, flicker_prob=0.2)
    first = run_replay(OracleDetector(scene, oracle_cfg), config, scene.dims, 10)
    second = run_replay(OracleDetector(scene, oracle_cfg), config, scene.dims, 10)
    assert [r.detections for r in first] == [r.detections for r in second]
    assert [r.crops_used for r in first] == [r.crops_used for r in second]
    assert [r.pixels_processed for r in first] == [r.pixels_processed for r in second]


def test_serialization_round_trip():
    d = Detection(BoundingBox(1.5, 2.5, 3.5, 4.5), 0.75, source="crop:2", resurrected=True)
    data = detection_to_dict(d)
    assert data == {
        "x_min": 1.5,
        "y_min": 2.5,
        "x_max": 3.5,
        "y_max": 4.5,
        "confidence": 0.75,
        "source": "crop:2",
        "resurrected": True,
    }
    assert detection_from_dict(data) == d


def test_frame_result_serialization_fields():
    scene = fidelity_scene(2)
    detector = OracleDetector(scene, OracleConfig(jitter_fraction=0.0))
    results = run_replay(detector, PipelineConfig(), scene.dims, 2)
    record = frame_result_to_dict(results[1])
    assert set(record) == {"frame", "detections", "crops", "pixels_processed"}
    assert record["frame"] == 1
    assert len(record["crops"]) == len(results[1].crops_used)
    timing = timing_to_dict(results[1])
    assert set(timing) == {"frame", "full_frame_s", "crops_s", "nms_s", "proposal_s", "filter_s", "total_s"}
    assert timing["total_s"] >= 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(full_frame_period=0)
    with pytest.raises(ValueError):
        PipelineConfig(nms_iou=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(full_frame_width=0)
