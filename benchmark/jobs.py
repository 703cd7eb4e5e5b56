"""One benchmark job and the checks on its outputs.

A job is one `cropdet run` of one sequence through
`cli.run_one_sequence`: annotation file in, every output file written.
The job's phases are timed by the spans in `spans.py`, with the
benchmark's own clock; `timing.jsonl` and `perf.json` are not read.
"""

from __future__ import annotations

import json
import math
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import cropdet.cli
from cropdet.pipeline import FrameProcessingError

from spans import DETECT, SpanLog, installed

BENCH_DIR = Path(__file__).resolve().parent
DETERMINISTIC_FILES = ("detections.jsonl", "report.json", "pr_curve.csv", "config.json")
# config.json records which detector ran, so it differs between
# `external` and `sparse` by design; the other outputs must not.
DETECTOR_INDEPENDENT_FILES = ("detections.jsonl", "report.json", "pr_curve.csv")


class CheckFailed(Exception):
    """An output of the program is not what it must be."""


def job_config(workload: str, seed: int, scene_path: Path, work: Path) -> dict:
    """The `cropdet run` configuration of a workload: the CLI defaults
    plus the workload's detector settings. For `external` it also writes
    the oracle settings the child process reads to `work/oracle.json`."""
    cfg = dict(cropdet.cli.DEFAULTS, seed=seed)
    if workload == "crowd":
        cfg["flicker_prob"] = 0.1
    elif workload == "external":
        oracle_cfg = work / "oracle.json"
        oracle_cfg.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        cfg["detector"] = "external"
        cfg["external_cmd"] = shlex.join(
            [sys.executable, str(BENCH_DIR / "responder.py"), str(scene_path), str(oracle_cfg)]
        )
    return cfg


@dataclass
class Job:
    out_dir: Path
    frames_attempted: int
    frames_completed: int
    job_s: float
    replay_s: float
    setup_s: float
    frame_s: list[float]
    log: SpanLog
    error: str | None


def run_job(scene_path: Path, n_frames: int, out_dir: Path, cfg: dict,
            traced: bool = False, on_propose=None) -> Job:
    """Run one job with spans installed and read its timings from them."""
    log = SpanLog()
    error = None
    with installed(log, traced, on_propose):
        job = log.wrap("cli.run_one_sequence", cropdet.cli.run_one_sequence)
        try:
            job(str(scene_path), out_dir, cfg, "json")
        except FrameProcessingError as exc:
            error = str(exc)
    (job_span,) = log.named("cli.run_one_sequence")
    replay = log.named("pipeline.run_replay")
    frames = [s.seconds for s in log.named("pipeline.process_frame") if not s.error]
    detects = log.named(DETECT)
    if not replay or not detects:
        raise CheckFailed("the job never reached the replay or the detector: a wrapped "
                          "module attribute is no longer called")
    return Job(
        out_dir=out_dir,
        frames_attempted=n_frames,
        frames_completed=len(frames),
        job_s=job_span.seconds,
        replay_s=replay[0].seconds,
        setup_s=detects[0].end - job_span.start,
        frame_s=frames,
        log=log,
        error=error,
    )


def check_same_outputs(a: Path, b: Path, names=DETERMINISTIC_FILES) -> None:
    for name in names:
        if (a / name).read_bytes() != (b / name).read_bytes():
            raise CheckFailed(f"{name} differs between {a.name} and {b.name}")


def check_outputs(out_dir: Path, cfg: dict, n_frames: int) -> dict:
    """Check one job's output files; return its deterministic quality figures.

    Every frame's pixels_processed must equal the full-frame input area
    on refresh frames plus target_w * target_h over the crops it ran.
    """
    full_frame_px = cfg["full_frame_width"] * cfg["full_frame_height"]
    pixels = []
    with open(out_dir / "detections.jsonl", "r", encoding="utf-8") as fh:
        for expected_frame, line in enumerate(fh):
            row = json.loads(line)
            if row["frame"] != expected_frame:
                raise CheckFailed(f"detections.jsonl row {expected_frame} is frame {row['frame']}")
            refresh = row["frame"] % cfg["full_frame_period"] == 0
            expected = (full_frame_px if refresh else 0) + sum(
                c["target_w"] * c["target_h"] for c in row["crops"])
            if row["pixels_processed"] != expected:
                raise CheckFailed(f"frame {row['frame']}: pixels_processed "
                                  f"{row['pixels_processed']} != {expected}")
            pixels.append(row["pixels_processed"])
    if len(pixels) != n_frames:
        raise CheckFailed(f"detections.jsonl has {len(pixels)} frames, expected {n_frames}")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    pixels_per_frame = math.fsum(pixels) / len(pixels)
    if report["mean_pixels_per_frame"] != pixels_per_frame:
        raise CheckFailed("report.json mean_pixels_per_frame disagrees with detections.jsonl")
    if report["n_ground_truth"] <= 0:
        raise CheckFailed("report.json counts no ground truth")
    return {
        "pixels_per_frame": pixels_per_frame,
        "map": report["mean_ap"],
        "recall": report["true_positives"] / report["n_ground_truth"],
    }
