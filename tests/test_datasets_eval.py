from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cropdet.cli import DEFAULTS, run_one_sequence
from cropdet.datasets_eval import (
    AnnotationParseError,
    AnnotationSet,
    EvaluationError,
    GroundTruth,
    evaluate_map,
    load_annotations,
    parse_darklabel,
    parse_visdrone,
    save_annotations,
    write_pr_csv,
)
from cropdet.detections import Detection
from cropdet.geometry import BoundingBox, FrameDims
from cropdet.synthetic import fidelity_scene

DIMS = FrameDims(1920, 1080)


def det(x, y, w, h, conf):
    return Detection(BoundingBox(x, y, x + w, y + h), conf)


def one_frame(*gts):
    return AnnotationSet(dims=DIMS, frames=(tuple(gts),))


def gt(x, y, w, h, object_id=1, **kwargs):
    return GroundTruth(BoundingBox(x, y, x + w, y + h), object_id=object_id, **kwargs)


# ----------------------------------------------------------- visdrone


def test_visdrone_basic_row(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1,3,100,200,50,120,1,1,0,0\n")
    annotations = parse_visdrone(path, DIMS)
    assert annotations.frame_count == 1
    (entry,) = annotations.frames[0]
    assert entry.object_id == 3
    assert entry.box == BoundingBox(100.0, 200.0, 150.0, 320.0)
    assert entry.category == 1
    assert not entry.ignore
    assert annotations.eval_boxes(0) == [entry]


def test_visdrone_ignore_region(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1,0,0,0,500,500,0,0,0,0\n1,4,10,10,20,40,1,1,0,0\n")
    annotations = parse_visdrone(path, DIMS)
    ignored, kept = annotations.frames[0]
    assert ignored.ignore and ignored.category == 0
    assert annotations.eval_boxes(0) == [kept]


def test_visdrone_non_pedestrian_category_excluded(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1,9,10,10,60,30,1,4,0,0\n")  # category 4: car
    annotations = parse_visdrone(path, DIMS)
    assert annotations.frames[0][0].category == 4
    assert annotations.eval_boxes(0) == []


def test_visdrone_frames_are_one_based_with_gaps(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("3,1,10,10,20,40,1,1,0,0\n1,2,5,5,20,40,1,1,0,0\n")
    annotations = parse_visdrone(path, DIMS)
    assert annotations.frame_count == 3
    assert [len(f) for f in annotations.frames] == [1, 0, 1]
    assert annotations.frames[0][0].object_id == 2
    assert annotations.frames[2][0].object_id == 1


def test_visdrone_clamps_to_frame(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1,1,1900,1060,50,50,1,1,0,0\n1,2,2500,500,50,50,1,1,0,0\n")
    annotations = parse_visdrone(path, DIMS)
    partial, outside = annotations.frames[0]
    assert partial.box == BoundingBox(1900.0, 1060.0, 1920.0, 1080.0)
    assert outside.box.area == 0.0
    # the fully clamped-away box stays in the set but never reaches evaluation
    assert annotations.eval_boxes(0) == [partial]


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("1,2,3,4,5,6,7,8,9", "expected 10"),
        ("1,2,3,4,5,6,7,8,9,10,11", "expected 10"),
        ("x,2,3,4,5,6,7,8,9,10", "non-numeric"),
        ("1,2,3,4,five,6,7,8,9,10", "non-numeric"),
        ("0,2,3,4,5,6,7,1,9,10", "must be >= 1"),
        ("1,2,3,4,-5,6,7,1,9,10", "negative box size"),
    ],
)
def test_visdrone_rejects_bad_rows(tmp_path, row, fragment):
    path = tmp_path / "seq.txt"
    path.write_text("1,1,10,10,20,40,1,1,0,0\n" + row + "\n")
    with pytest.raises(AnnotationParseError) as err:
        parse_visdrone(path, DIMS)
    message = str(err.value)
    assert f"{path}:2" in message
    assert fragment in message


def test_visdrone_skips_blank_lines(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("\n1,1,10,10,20,40,1,1,0,0\n\n")
    assert parse_visdrone(path, DIMS).frame_count == 1


# ---------------------------------------------------------- darklabel


def test_darklabel_frame_aggregated_row(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("0,2,5,10,10,20,40,person,7,300,200,15,30,car\n")
    annotations = parse_darklabel(path, DIMS)
    person, car = annotations.frames[0]
    assert person.object_id == 5
    assert person.box == BoundingBox(10.0, 10.0, 30.0, 50.0)
    assert person.category == 1
    assert car.object_id == 7
    assert car.category == -1
    assert annotations.eval_boxes(0) == [person]


def test_darklabel_is_zero_based(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("2,1,1,10,10,20,40,pedestrian\n")
    annotations = parse_darklabel(path, DIMS)
    assert annotations.frame_count == 3
    assert [len(f) for f in annotations.frames] == [0, 0, 1]
    assert annotations.frames[2][0].category == 1


def test_darklabel_label_matching_is_case_insensitive(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("0,2,1,10,10,20,40,Person,2,50,50,20,40,PEDESTRIAN\n")
    annotations = parse_darklabel(path, DIMS)
    assert [g.category for g in annotations.frames[0]] == [1, 1]


def test_darklabel_empty_frame_row(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("0,0\n1,1,1,10,10,20,40,person\n")
    annotations = parse_darklabel(path, DIMS)
    assert annotations.frame_count == 2
    assert annotations.frames[0] == ()


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("0,2,5,10,10,20,40,person", "declared 2 objects"),
        ("0,1,5,10,10,20,40,person,extra", "declared 1 objects"),
        ("0", "at least frame and count"),
        ("x,1,5,10,10,20,40,person", "non-numeric frame or count"),
        ("-1,1,5,10,10,20,40,person", "negative frame index"),
        ("0,-2", "negative object count"),
        ("0,1,5,10,ten,20,40,person", "non-numeric field in object 0"),
        ("0,1,5,10,10,-20,40,person", "negative box size"),
    ],
)
def test_darklabel_rejects_bad_rows(tmp_path, row, fragment):
    path = tmp_path / "seq.csv"
    path.write_text(row + "\n")
    with pytest.raises(AnnotationParseError) as err:
        parse_darklabel(path, DIMS)
    message = str(err.value)
    assert f"{path}:1" in message
    assert fragment in message


# ------------------------------------------------------- json round trip


def test_json_round_trip(tmp_path):
    annotations = AnnotationSet(
        dims=FrameDims(640, 480),
        frames=(
            (
                gt(10.0, 20.0, 30.5, 40.25, object_id=1),
                gt(0.0, 0.0, 100.0, 100.0, object_id=2, category=0, ignore=True),
                gt(50.0, 50.0, 5.0, 5.0, object_id=3, category=-1),
            ),
            (),
            (gt(1.5, 2.5, 3.5, 4.5, object_id=4),),
        ),
    )
    path = tmp_path / "scene.json"
    save_annotations(annotations, path)
    assert load_annotations(path) == annotations


def test_load_annotations_rejects_broken_json(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text("{not json")
    with pytest.raises(AnnotationParseError) as err:
        load_annotations(path)
    assert str(path) in str(err.value)


def test_from_json_dict_rejects_missing_keys():
    with pytest.raises(AnnotationParseError):
        AnnotationSet.from_json_dict({"width": 10, "height": 10, "frames": [[{"x_min": 0}]]})


# ----------------------------------------------------------- evaluation


def test_ap_half_from_one_hit_one_miss():
    truth = one_frame(gt(100.0, 100.0, 20.0, 40.0, object_id=1), gt(500.0, 500.0, 20.0, 40.0, object_id=2))
    predictions = {0: [det(100.0, 100.0, 20.0, 40.0, 0.9), det(900.0, 900.0, 20.0, 40.0, 0.8)]}
    report = evaluate_map(predictions, truth)
    assert report.mean_ap == 0.5
    assert report.true_positives == 1
    assert report.false_positives == 1
    assert report.false_negatives == 1
    assert report.n_ground_truth == 2
    assert report.n_predictions == 2
    assert report.pr_curve == [(0.5, 1.0), (0.5, 0.5)]


def test_ap_eleven_point_variant():
    truth = one_frame(gt(100.0, 100.0, 20.0, 40.0, object_id=1), gt(500.0, 500.0, 20.0, 40.0, object_id=2))
    predictions = {0: [det(100.0, 100.0, 20.0, 40.0, 0.9), det(900.0, 900.0, 20.0, 40.0, 0.8)]}
    report = evaluate_map(predictions, truth, interpolation="eleven_point")
    assert report.mean_ap == 6.0 / 11.0
    assert report.interpolation == "eleven_point"


def test_perfect_predictions_score_exactly_one():
    frames = tuple(
        tuple(gt(10.0 * j, 50.0, 8.0, 16.0, object_id=j) for j in range(1, 12)) for _ in range(3)
    )
    truth = AnnotationSet(dims=DIMS, frames=frames)
    predictions = {
        f: [Detection(g.box, 0.9) for g in truth.eval_boxes(f)] for f in range(truth.frame_count)
    }
    report = evaluate_map(predictions, truth)
    assert report.mean_ap == 1.0
    assert report.false_positives == 0
    assert report.false_negatives == 0


def test_ap_edge_cases():
    truth = one_frame(gt(100.0, 100.0, 20.0, 40.0))
    empty_truth = AnnotationSet(dims=DIMS, frames=((),))
    assert evaluate_map({}, truth).mean_ap == 0.0
    assert evaluate_map({}, empty_truth).mean_ap == 1.0
    assert evaluate_map({0: [det(1.0, 1.0, 5.0, 5.0, 0.9)]}, empty_truth).mean_ap == 0.0


def test_duplicate_detection_counts_as_false_positive():
    truth = one_frame(gt(100.0, 100.0, 20.0, 40.0))
    predictions = {0: [det(100.0, 100.0, 20.0, 40.0, 0.9), det(100.0, 100.0, 20.0, 40.0, 0.8)]}
    report = evaluate_map(predictions, truth)
    assert report.true_positives == 1
    assert report.false_positives == 1


def test_matching_needs_iou_at_threshold():
    truth = one_frame(gt(0.0, 0.0, 10.0, 10.0))
    # IoU 50/150 = 1/3: a hit at threshold 1/3, a miss just above
    pred = {0: [det(0.0, 5.0, 10.0, 10.0, 0.9)]}
    assert evaluate_map(pred, truth, iou_threshold=1.0 / 3.0).true_positives == 1
    assert evaluate_map(pred, truth, iou_threshold=0.34).true_positives == 0


def test_greedy_matching_prefers_confident_predictions():
    # one ground truth, two candidates; the confident one takes it
    truth = one_frame(gt(0.0, 0.0, 10.0, 10.0))
    weak_first = {0: [det(0.0, 0.0, 10.0, 10.0, 0.3), det(0.0, 1.0, 10.0, 10.0, 0.9)]}
    report = evaluate_map(weak_first, truth)
    assert report.true_positives == 1
    # pooled sweep: the 0.9 entry comes first and is the TP
    assert report.pr_curve[0] == (1.0, 1.0)


def test_out_of_range_frames_rejected():
    truth = one_frame(gt(0.0, 0.0, 10.0, 10.0))
    with pytest.raises(EvaluationError) as err:
        evaluate_map({5: [det(0.0, 0.0, 10.0, 10.0, 0.9)]}, truth)
    assert "[5]" in str(err.value)
    with pytest.raises(EvaluationError):
        evaluate_map({-1: []}, truth)


def test_evaluate_map_validates_arguments():
    truth = one_frame(gt(0.0, 0.0, 10.0, 10.0))
    with pytest.raises(ValueError):
        evaluate_map({}, truth, iou_threshold=0.0)
    with pytest.raises(ValueError):
        evaluate_map({}, truth, iou_threshold=1.5)
    with pytest.raises(ValueError):
        evaluate_map({}, truth, interpolation="trapezoid")


def test_report_json_dict_and_pr_csv(tmp_path):
    truth = one_frame(gt(100.0, 100.0, 20.0, 40.0, object_id=1), gt(500.0, 500.0, 20.0, 40.0, object_id=2))
    predictions = {0: [det(100.0, 100.0, 20.0, 40.0, 0.9), det(900.0, 900.0, 20.0, 40.0, 0.8)]}
    report = evaluate_map(predictions, truth)
    data = report.to_json_dict()
    assert data["mean_ap"] == 0.5
    assert "ap_per_class" not in data
    assert "fps" not in data
    assert data["mean_pixels_per_frame"] is None
    assert data["pr_curve"] == [[0.5, 1.0], [0.5, 0.5]]

    path = tmp_path / "pr.csv"
    write_pr_csv(report, path)
    assert path.read_text() == "recall,precision\n0.5,1.0\n0.5,0.5\n"


def test_measure_fps(tmp_path, scene_json):
    path = scene_json(fidelity_scene(), "fidelity.json")
    out = tmp_path / "out"
    summary = run_one_sequence(str(path), out, dict(DEFAULTS, frames=4), "json")

    def rows(name):
        return [json.loads(line) for line in (out / name).read_text().splitlines()]

    perf = json.loads((out / "perf.json").read_text())
    assert perf["wall_seconds"] == math.fsum(row["total_s"] for row in rows("timing.jsonl"))
    assert perf["wall_seconds"] > 0
    assert perf["fps"] == 4 / perf["wall_seconds"]
    pixels = [row["pixels_processed"] for row in rows("detections.jsonl")]
    assert perf["mean_pixels_per_frame"] == sum(pixels) / 4
    assert summary["frames"] == 4


@st.composite
def frame_and_predictions(draw):
    n_gt = draw(st.integers(0, 5))
    n_pred = draw(st.integers(0, 5))
    coords = st.floats(0.0, 500.0, allow_nan=False)
    sizes = st.floats(1.0, 60.0)
    gts = tuple(
        gt(draw(coords), draw(coords), draw(sizes), draw(sizes), object_id=j)
        for j in range(n_gt)
    )
    preds = [
        det(draw(coords), draw(coords), draw(sizes), draw(sizes), draw(st.floats(0.0, 1.0)))
        for _ in range(n_pred)
    ]
    return one_frame(*gts), preds


@settings(max_examples=60, deadline=None)
@given(frame_and_predictions(), st.sampled_from(["all_point", "eleven_point"]))
def test_ap_stays_in_unit_interval(example, interpolation):
    truth, preds = example
    report = evaluate_map({0: preds}, truth, interpolation=interpolation)
    assert 0.0 <= report.mean_ap <= 1.0
    assert report.true_positives + report.false_positives == report.n_predictions
    assert report.true_positives + report.false_negatives == report.n_ground_truth
    for recall, precision in report.pr_curve:
        assert 0.0 <= recall <= 1.0 + 1e-12
        assert 0.0 <= precision <= 1.0
