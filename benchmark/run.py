"""cropdet benchmark: replay seeded scenes through `cropdet run` and time it.

Usage (from the root of a cropdet checkout):

    python3 benchmark/run.py --workload crowd|sparse|external|all \
        [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 a run prints the end-to-end metrics; with --trace 1 it
prints the per-layer metrics of a traced run. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
where attempted and failed count frames. The exit code is non-zero when a
correctness check fails. See benchmark/README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("crowd", "sparse", "external")
SETUP_PROBES = 5  # one-frame jobs per untraced run, so setup_s is a median
MIN_JOBS = 2  # byte-identity needs two jobs; traced runs pair traced with untraced
NAIVE_STRIDE = 37  # every 37th propose_crops call of a traced job is re-checked
NAIVE_SAMPLES = 6


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: shows host speed drift."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - t0


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between the closest samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """One run of a workload. Returns (result, information) where result
    is the JSON object to print and information the human-readable extras."""
    from cropdet.datasets_eval import save_annotations

    import jobs
    import scenes
    from spans import DETECT

    info = {"calibration_s_before": calibrate()}
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        scene = scenes.crowd_scene(seed) if workload == "crowd" else scenes.sparse_scene(seed)
        scene_path = work / "scene.json"
        save_annotations(scene, scene_path)
        n_frames = scene.frame_count
        cfg = jobs.job_config(workload, seed, scene_path, work)
        reference = None
        if workload == "external":
            sparse_cfg = jobs.job_config("sparse", seed, scene_path, work)
            reference = jobs.run_job(scene_path, n_frames, work / "reference", sparse_cfg)

        captured: list[tuple] = []
        calls = [0]

        def capture(args, kwargs, result):
            if calls[0] % NAIVE_STRIDE == 0 and len(captured) < NAIVE_SAMPLES:
                captured.append((list(args[0]), args[1:], kwargs, result))
            calls[0] += 1

        deadline = perf_counter() + seconds
        probes = [] if traced else [
            jobs.run_job(scene_path, 1, work / "probe", dict(cfg, frames=1))
            for _ in range(SETUP_PROBES)
        ]
        full: list = []
        while len(full) < MIN_JOBS or (
                perf_counter() + statistics.median(j.job_s for j in full) <= deadline):
            trace_this = traced and len(full) % 2 == 1
            job = jobs.run_job(scene_path, n_frames, work / f"job{len(full)}", cfg,
                               trace_this, capture if trace_this else None)
            full.append(job)
            if job.error is None and len(full) > 1 and full[0].error is None:
                jobs.check_same_outputs(full[0].out_dir, job.out_dir)
                shutil.rmtree(job.out_dir)

        all_jobs = ([reference] if reference else []) + probes + full
        attempted = sum(j.frames_attempted for j in all_jobs)
        failed = sum(j.frames_attempted - j.frames_completed for j in all_jobs)
        errors = [j.error for j in all_jobs if j.error is not None]
        info.update(jobs=len(full), probes=len(probes), errors=errors,
                    frame_samples=sum(len(j.frame_s) for j in full),
                    frame_error_rate=ratio(failed, attempted))
        if errors:
            return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, info

        quality = jobs.check_outputs(full[0].out_dir, cfg, n_frames)
        if reference is not None:
            jobs.check_same_outputs(reference.out_dir, full[0].out_dir,
                                    jobs.DETECTOR_INDEPENDENT_FILES)
        if traced:
            info["naive_checked"] = check_against_naive(captured)
            traced_jobs = full[1::2]
            values = layer_metrics(traced_jobs, full[0::2], DETECT)
            traced_jobs[-1].log.dump(ROOT / ".bench_work" / f"spans-{workload}.jsonl")
        else:
            frame_s = [t for j in full for t in j.frame_s]
            values = {
                "job_s": (statistics.median(j.job_s for j in full), "s"),
                "fps": (statistics.median(n_frames / j.replay_s for j in full), "frames/s"),
                "frame_ms_p50": (1000.0 * quantile(frame_s, 50), "ms"),
                "frame_ms_p90": (1000.0 * quantile(frame_s, 90), "ms"),
                "pixels_per_frame": (quality["pixels_per_frame"], "px"),
                "map": (quality["map"], "share"),
                "recall": (quality["recall"], "share"),
                "setup_s": (statistics.median(j.setup_s for j in probes + full), "s"),
                "peak_rss_mib": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
        return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}, info
    finally:
        info["calibration_s_after"] = calibrate()
        shutil.rmtree(work, ignore_errors=True)


def check_against_naive(captured: list[tuple]) -> int:
    """The propose_crops partition must equal the naive reference's."""
    import importlib.util

    from jobs import CheckFailed

    spec = importlib.util.spec_from_file_location(
        "naive_reference", ROOT / "tests" / "naive_reference.py")
    naive = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(naive)
    if not captured:
        raise CheckFailed("no propose_crops call was captured for the naive check")
    for boxes, rest, kwargs, forest in captured:
        expected = naive.naive_forest(boxes, *rest, **kwargs)
        if [t.members for t in forest.trees] != expected:
            raise CheckFailed(f"propose_crops partition of {len(boxes)} boxes differs from naive_forest")
    return len(captured)


def layer_metrics(traced_jobs: list, untraced_jobs: list, detect: str) -> dict:
    """Per-layer figures over the traced jobs, named <module>.<function>.<what>."""
    frames = sum(j.frames_completed for j in traced_jobs)
    spans = defaultdict(list)
    self_s = defaultdict(float)
    per_job = defaultdict(list)
    for job in traced_jobs:
        job_s = defaultdict(float)
        for span, own in zip(job.log.spans, job.log.self_seconds()):
            spans[span.name].append(span)
            self_s[span.name] += own
            job_s[span.name] += span.seconds
            job_s[span.name + ".self"] += own
        for name in ("datasets_eval.evaluate_map", "datasets_eval.load_annotations",
                     "cli.run_one_sequence.self"):
            per_job[name].append(job_s[name])

    def ms(name: str) -> float:
        return 1000.0 * sum(s.seconds for s in spans[name])

    def count(name: str, key: str) -> int:
        return sum(s.counts[key] for s in spans[name] if s.counts is not None)

    ttp, pc = "crop_proposal.two_tier_proposal", "crop_proposal.propose_crops"
    merge, filt = "pipeline.merge_detections", "temporal_filter.filter_detections"
    calls_us = [s.seconds * 1e6 for s in spans[detect]]
    untraced_s = statistics.median(j.job_s for j in untraced_jobs)
    traced_s = statistics.median(j.job_s for j in traced_jobs)
    return {
        f"{ttp}.ms_per_frame": (ms(ttp) / frames, "ms"),
        f"{pc}.ms_per_call": (ratio(ms(pc), len(spans[pc])), "ms"),
        "crop_proposal.boxes_in_per_frame": (count(ttp, "boxes_in") / frames, "count"),
        "crop_proposal.edges_scanned_per_frame": (count(pc, "edges_scanned") / frames, "count"),
        "crop_proposal.merge_share": (ratio(count(pc, "merged"), count(pc, "edges_scanned")), "share"),
        "crop_proposal.crops_per_frame": (count(ttp, "crops") / frames, "count"),
        "crop_proposal.uncovered_per_frame": (count(ttp, "uncovered") / frames, "count"),
        f"{merge}.ms_per_frame": (ms(merge) / frames, "ms"),
        f"{merge}.boxes_in_per_frame": (count(merge, "boxes_in") / frames, "count"),
        f"{merge}.kept_share": (ratio(count(merge, "kept"), count(merge, "boxes_in")), "share"),
        "pipeline.process_frame.self_ms_per_frame": (
            1000.0 * self_s["pipeline.process_frame"] / frames, "ms"),
        f"{filt}.ms_per_frame": (ms(filt) / frames, "ms"),
        "temporal_filter.resurrected_per_frame": (count(filt, "resurrected") / frames, "count"),
        "temporal_filter.dropped_per_frame": (count(filt, "dropped") / frames, "count"),
        f"{detect}.calls_per_frame": (len(calls_us) / frames, "count"),
        f"{detect}.ms_per_frame": (ms(detect) / frames, "ms"),
        f"{detect}.call_us_p50": (quantile(calls_us, 50), "us"),
        f"{detect}.call_us_p99": (quantile(calls_us, 99), "us"),
        f"{detect}.boxes_per_call": (ratio(count(detect, "boxes"), len(calls_us)), "count"),
        f"{detect}.errors": (sum(s.error for s in spans[detect]), "count"),
        "datasets_eval.evaluate_map.ms": (
            1000.0 * statistics.median(per_job["datasets_eval.evaluate_map"]), "ms"),
        "datasets_eval.load_annotations.ms": (
            1000.0 * statistics.median(per_job["datasets_eval.load_annotations"]), "ms"),
        "cli.run_one_sequence.self_ms": (
            1000.0 * statistics.median(per_job["cli.run_one_sequence.self"]), "ms"),
        "tracing_overhead_share": (traced_s / untraced_s - 1.0, "share"),
    }


def print_summary(workload: str, args: argparse.Namespace, result: dict, info: dict) -> None:
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  jobs {info['jobs']}"
          f"  set-up probes {info['probes']}  frame samples {info['frame_samples']}")
    for error in info["errors"]:
        print(f"  job failed: {error}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  {'frame_error_rate':<48} {info['frame_error_rate']:.6g} share"
          f" ({result['failed']} of {result['attempted']} frames)")
    if "naive_checked" in info:
        print(f"  propose_crops partitions checked against naive_forest: {info['naive_checked']}")
    print(f"  calibration loop {info['calibration_s_before']:.4f} s before, "
          f"{info['calibration_s_after']:.4f} s after (information, not a metric)")


def run_all(args: argparse.Namespace) -> int:
    """Run every workload, each in its own process so peak memory is its own."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cropdet").is_dir() or not (ROOT / "tests" / "naive_reference.py").is_file():
        print(f"error: {ROOT} holds no cropdet sources (src/cropdet, tests/naive_reference.py)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    from jobs import CheckFailed

    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"error: correctness check failed: {exc}", file=sys.stderr)
        return 1
    print_summary(args.workload, args, result, info)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
