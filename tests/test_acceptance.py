"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints one
`ACCEPTANCE nn PASS/FAIL <name>` line (visible with `pytest -s`), so the
verdict can be scraped from the output of:

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import io
import math
import random
import time
from contextlib import contextmanager

from naive_reference import kruskal_mst_weight, naive_forest, random_boxes

from cropdet.cli import main as cli_main
from cropdet.crop_proposal import (
    LARGE_TIER_DEFAULT,
    SMALL_TIER_DEFAULT,
    propose_crops,
    select_largest_k,
    two_tier_proposal,
)
from cropdet.datasets_eval import evaluate_map, save_annotations
from cropdet.detections import Detection
from cropdet.detector_stub import (
    ExternalProcessDetector,
    LineProtocolClient,
    OracleConfig,
    OracleDetector,
    ProtocolError,
)
from cropdet.geometry import BoundingBox, FrameDims
from cropdet.pipeline import PipelineConfig, run_replay
from cropdet.synthetic import (
    SCENE_DIMS,
    fidelity_scene,
    flicker_scene,
    low_resolution_scene,
)
from cropdet.temporal_filter import TemporalConfig


@contextmanager
def criterion(n: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:02d} FAIL {name}")
        raise
    print(f"ACCEPTANCE {n:02d} PASS {name}")


class _CallCounter:
    def __init__(self, dims: FrameDims) -> None:
        self._frame_rect = dims.rect
        self.full_frame_calls = 0

    def detect(self, frame_handle, region, input_width, input_height):
        if region == self._frame_rect:
            self.full_frame_calls += 1
        return []


def _replay_map(annotations, oracle_config, pipeline_config):
    detector = OracleDetector(annotations, oracle_config)
    results = run_replay(detector, pipeline_config, annotations.dims, annotations.frame_count)
    predictions = {r.frame_index: list(r.detections) for r in results}
    return evaluate_map(predictions, annotations), results


def test_01_kruskal_reduction():
    with criterion(1, "kruskal-reduction"):
        start = time.perf_counter()
        for seed in range(100):
            rng = random.Random(seed)
            boxes = random_boxes(rng, rng.randint(2, 12))
            forest = propose_crops(boxes, k=1, max_width=1e12, max_height=1e12)
            merged_weight = sum(weight for _, _, weight in forest.merged_edges)
            assert merged_weight == kruskal_mst_weight(boxes)
            assert len(forest.trees) == 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_exhaustive_equivalence():
    with criterion(2, "exhaustive-equivalence"):
        start = time.perf_counter()
        for seed in range(1000):
            rng = random.Random(10_000 + seed)
            boxes = random_boxes(rng, rng.randint(1, 7))
            k = rng.randint(1, 4)
            max_width = rng.uniform(10.0, 500.0)
            max_height = rng.uniform(10.0, 500.0)
            forest = propose_crops(boxes, k=k, max_width=max_width, max_height=max_height)
            expected = naive_forest(boxes, k, max_width, max_height)
            assert [tree.members for tree in forest.trees] == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_03_forest_constraints():
    with criterion(3, "forest-constraints"):
        for seed in range(300):
            rng = random.Random(20_000 + seed)
            boxes = random_boxes(rng, rng.randint(1, 25), span=900.0)
            k = rng.randint(1, 6)
            max_width = rng.uniform(50.0, 600.0)
            max_height = rng.uniform(50.0, 400.0)
            forest = propose_crops(boxes, k=k, max_width=max_width, max_height=max_height)
            for tree in forest.trees:
                if tree.node_count > 1:
                    assert tree.rect.width <= max_width
                    assert tree.rect.height <= max_height
            selected = select_largest_k(forest, k)
            assert len(selected) <= k

            large, small, _ = two_tier_proposal(
                boxes, LARGE_TIER_DEFAULT, SMALL_TIER_DEFAULT, SCENE_DIMS
            )
            assert len(large) <= LARGE_TIER_DEFAULT.k
            assert len(small) <= SMALL_TIER_DEFAULT.k
            assert len(large) + len(small) <= 23


def test_04_full_frame_cadence():
    with criterion(4, "full-frame-cadence"):
        detector = _CallCounter(SCENE_DIMS)
        run_replay(detector, PipelineConfig(full_frame_period=5), SCENE_DIMS, 100)
        assert detector.full_frame_calls == 20


def test_05_pipeline_fidelity():
    with criterion(5, "pipeline-fidelity"):
        start = time.perf_counter()
        report, _ = _replay_map(
            fidelity_scene(50),
            OracleConfig(rng_seed=0, jitter_fraction=0.0, flicker_prob=0.0),
            PipelineConfig(),
        )
        elapsed = time.perf_counter() - start
        assert abs(report.mean_ap - 1.0) <= 1e-9
        assert report.false_negatives == 0
        assert report.false_positives == 0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_06_temporal_filter_benefit():
    with criterion(6, "temporal-filter-benefit"):
        scene = flicker_scene(60)
        oracle = OracleConfig(rng_seed=3, jitter_fraction=0.0, flicker_prob=0.3)
        with_filter = PipelineConfig()
        without_filter = PipelineConfig(
            temporal=TemporalConfig(conf_genuine=0.2, conf_floor=0.2)
        )
        report_with, _ = _replay_map(scene, oracle, with_filter)
        report_without, _ = _replay_map(scene, oracle, without_filter)

        recall_with = report_with.true_positives / report_with.n_ground_truth
        recall_without = report_without.true_positives / report_without.n_ground_truth
        assert recall_with >= recall_without
        assert recall_with > recall_without
        # regression pin: first seeded run of this fixture, frozen
        assert report_with.n_ground_truth == 480
        assert report_with.true_positives == 379
        assert report_without.true_positives == 199


def test_07_resolution_asymmetry():
    with criterion(7, "resolution-asymmetry"):
        scene = low_resolution_scene(50)
        oracle = OracleConfig(rng_seed=0, jitter_fraction=0.0)
        crop_report, crop_results = _replay_map(scene, oracle, PipelineConfig())
        full_report, full_results = _replay_map(
            scene, oracle, PipelineConfig(full_frame_only=True)
        )

        assert crop_report.mean_ap > full_report.mean_ap

        crop_mean_px = math.fsum(r.pixels_processed for r in crop_results) / len(crop_results)
        full_mean_px = math.fsum(r.pixels_processed for r in full_results) / len(full_results)
        assert full_mean_px == 416 * 416 == 173056
        assert crop_mean_px < full_mean_px
        # steady-state frames run on crops alone: 3 large at 224x128 + 2 small at 160x96
        for result in crop_results:
            if result.frame_index % 5 != 0:
                assert result.pixels_processed == 3 * 224 * 128 + 2 * 160 * 96 == 116736


def test_08_ap_hand_fixture():
    with criterion(8, "ap-hand-fixture"):
        from cropdet.datasets_eval import AnnotationSet, GroundTruth

        truth = AnnotationSet(
            dims=SCENE_DIMS,
            frames=(
                (
                    GroundTruth(BoundingBox(100.0, 100.0, 120.0, 140.0), object_id=1),
                    GroundTruth(BoundingBox(500.0, 500.0, 520.0, 540.0), object_id=2),
                ),
            ),
        )
        predictions = {
            0: [
                Detection(BoundingBox(100.0, 100.0, 120.0, 140.0), 0.9),
                Detection(BoundingBox(900.0, 900.0, 920.0, 940.0), 0.8),
            ]
        }
        report = evaluate_map(predictions, truth)
        assert report.mean_ap == 0.5
        assert report.true_positives == 1
        assert report.false_positives == 1


def test_09_determinism(tmp_path):
    with criterion(9, "determinism"):
        scene_path = tmp_path / "scene.json"
        save_annotations(low_resolution_scene(12), scene_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = cli_main(
                [
                    "run",
                    "--annotations", str(scene_path),
                    "--out", str(out),
                    "--frames", "10",
                    "--seed", "7",
                    "--jitter-fraction", "0.05",
                    "--flicker-prob", "0.1",
                ]
            )
            assert code == 0
        for name in ("detections.jsonl", "report.json", "pr_curve.csv", "config.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_10_protocol_robustness(protocol_dir, responder_cmd):
    with criterion(10, "protocol-robustness"):
        region = BoundingBox(0.0, 0.0, 100.0, 100.0)
        expected_two = [
            Detection(BoundingBox(10.0, 20.0, 30.0, 40.0), 0.9),
            Detection(BoundingBox(0.0, 0.0, 5.5, 5.5), 0.25),
        ]

        def parse(name):
            payload = (protocol_dir / name).read_bytes()
            client = LineProtocolClient(io.BytesIO(), io.BytesIO(payload))
            return client.request(0, region, 100, 100)

        assert parse("ok_empty.txt") == []
        assert parse("ok_two.txt") == expected_two
        for name in (
            "truncated.txt",
            "malformed_header.txt",
            "bad_count.txt",
            "negative_count.txt",
            "short_line.txt",
            "non_numeric.txt",
            "bad_confidence.txt",
            "inverted_box.txt",
            "nan_coordinate.txt",
            "eof.txt",
        ):
            try:
                parse(name)
            except ProtocolError:
                continue
            raise AssertionError(f"{name} did not raise ProtocolError")

        # same behavior through a real child process
        with ExternalProcessDetector(
            responder_cmd("file", str(protocol_dir / "ok_two.txt")), timeout=10.0
        ) as detector:
            assert detector.detect(0, region, 100, 100) == expected_two
        for name in ("truncated.txt", "malformed_header.txt"):
            with ExternalProcessDetector(
                responder_cmd("file", str(protocol_dir / name)), timeout=10.0
            ) as detector:
                try:
                    detector.detect(0, region, 100, 100)
                except ProtocolError:
                    continue
                raise AssertionError(f"{name} did not raise ProtocolError via subprocess")
