"""Command-line entry points.

Subcommands:
    run      replay annotated sequences through the pipeline, write results
    propose  print the crop proposal for one annotated frame
    eval     score a predictions JSONL file against annotations
    bench    compare crops, crops without the temporal filter, and full frame

Every field of the config dataclasses is a tunable with a flag, and
--config takes a JSON file with the same keys, type-checked against the
defaults. Precedence is defaults, then config file, then flags. --frames N
replays and scores the first N annotated frames only. Outputs split into
deterministic files (detections.jsonl, report.json, pr_curve.csv,
config.json), which are byte-identical for identical seeded runs, and
wall-clock files (timing.jsonl, perf.json), which are not.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import Sequence

from .crop_proposal import crop_to_dict, two_tier_proposal
from .datasets_eval import (
    AnnotationParseError,
    AnnotationSet,
    EvaluationError,
    evaluate_map,
    load_annotations,
    parse_darklabel,
    parse_visdrone,
    write_pr_csv,
)
from .detections import Detection
from .detector_stub import (
    DetectorError,
    ExternalProcessDetector,
    OracleConfig,
    OracleDetector,
)
from .geometry import FrameDims
from .pipeline import (
    Detector,
    FrameProcessingError,
    PipelineConfig,
    detection_from_dict,
    frame_result_to_dict,
    run_replay,
    timing_to_dict,
)


class CliError(Exception):
    """User-facing invocation problem; printed without a traceback."""


# Config keys are the fields of the config dataclasses, named by one rule:
# a crop tier's fields take the tier's name as a prefix (large_k), except
# the padding both tiers share; other nested configs add no prefix; and
# OracleConfig.rng_seed is `seed`.
_SHARED_TIER_FIELDS = ("pad_fraction", "min_pad_px")
_RENAMED_FIELDS = {"rng_seed": "seed"}

# settings of a run that no config dataclass holds
_RUN_DEFAULTS = {
    "temporal_filter": True,
    "frame_width": 1920,
    "frame_height": 1080,
    "frames": None,
    "detector": "oracle",
    "external_cmd": None,
}
# value types of the keys whose default is None; these keys also take null
_NULLABLE_TYPES = {"frames": int, "external_cmd": str}

# annotation format -> parser of a text format, which needs the frame size;
# `json` is read by load_annotations, looked up here at call time
_PARSERS = {"visdrone": parse_visdrone, "darklabel": parse_darklabel}
_AUTO_FORMATS = {".json": "json", ".txt": "visdrone", ".csv": "darklabel"}

# what each `cropdet bench` row changes in the resolved configuration
_BENCH_MODES = {
    "crop": {"full_frame_only": False},
    "crop_no_filter": {"full_frame_only": False, "temporal_filter": False},
    "full_frame": {"full_frame_only": True},
}


def _prefix(field_name: str) -> str:
    return field_name.removesuffix("tier") if field_name.endswith("_tier") else ""


def _key(field_name: str, prefix: str) -> str:
    if field_name in _SHARED_TIER_FIELDS:
        return field_name
    return _RENAMED_FIELDS.get(field_name, prefix + field_name)


def _tunables(config) -> list[tuple[str, object]]:
    # a tier's name labels it and is not tunable
    return [(f.name, getattr(config, f.name)) for f in fields(config) if f.name != "name"]


def _flatten(config, prefix: str = "") -> dict:
    """Config key -> value for every tunable field of a config dataclass."""
    flat = {}
    for name, value in _tunables(config):
        if is_dataclass(value):
            flat.update(_flatten(value, _prefix(name)))
        else:
            flat[_key(name, prefix)] = value
    return flat


def _build(default, cfg: dict, prefix: str = ""):
    """The inverse of _flatten: `default` with every tunable field read from cfg."""
    changes = {
        name: _build(value, cfg, _prefix(name)) if is_dataclass(value) else cfg[_key(name, prefix)]
        for name, value in _tunables(default)
    }
    return replace(default, **changes)


DEFAULTS: dict = {**_flatten(PipelineConfig()), **_flatten(OracleConfig()), **_RUN_DEFAULTS}


def number(text: str) -> int | float:
    """A float flag's value; an integer literal stays an int, as in a config file."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _config_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", metavar="JSON", help="config file; flags override it")
    for key, default in DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            parent.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction, default=None)
        else:
            value_type = _NULLABLE_TYPES.get(key, type(default))
            parent.add_argument(flag, dest=key, type=number if value_type is float else value_type,
                                default=None)
    return parent


def _check_type(config_path: str, key: str, value: object) -> None:
    """Raise CliError unless a config-file value has its key's type.

    Booleans are not numbers here, and an integer is a valid float.
    """
    expected = _NULLABLE_TYPES.get(key, type(DEFAULTS[key]))
    if value is None:
        ok = key in _NULLABLE_TYPES
    elif isinstance(value, bool):
        ok = expected is bool
    elif expected is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, expected)
    if not ok:
        name = expected.__name__ + (" or null" if key in _NULLABLE_TYPES else "")
        raise CliError(f"{config_path}: {key} must be {name}, got {json.dumps(value)}")


def resolve_config(args: argparse.Namespace) -> dict:
    resolved = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"{config_path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise CliError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(data) - set(DEFAULTS))
        if unknown:
            raise CliError(f"{config_path}: unknown config keys: {', '.join(unknown)}")
        for key, value in data.items():
            _check_type(config_path, key, value)
        resolved.update(data)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    if not resolved["temporal_filter"]:
        # disabling the filter means nothing below the genuine threshold survives
        resolved["conf_floor"] = resolved["conf_genuine"]
    return resolved


def build_pipeline_config(cfg: dict) -> PipelineConfig:
    return _build(PipelineConfig(), cfg)


def build_oracle_config(cfg: dict) -> OracleConfig:
    return _build(OracleConfig(), cfg)


def load_annotation_file(path: str, fmt: str, cfg: dict) -> AnnotationSet:
    if fmt == "auto":
        fmt = _AUTO_FORMATS.get(Path(path).suffix.lower())
        if fmt is None:
            raise CliError(f"cannot infer annotation format from {path!r}; pass --format explicitly")
    if fmt == "json":
        return load_annotations(path)
    return _PARSERS[fmt](path, FrameDims(cfg["frame_width"], cfg["frame_height"]))


def load_frames(path: str, fmt: str, cfg: dict) -> AnnotationSet:
    """The annotated frames to replay and score: the first --frames, or all."""
    annotations = load_annotation_file(path, fmt, cfg)
    if annotations.frame_count == 0:
        raise CliError(f"{path}: no annotated frames")
    n_frames = cfg["frames"] if cfg["frames"] is not None else annotations.frame_count
    if not 1 <= n_frames <= annotations.frame_count:
        raise CliError(f"--frames {n_frames} outside the annotated range 1..{annotations.frame_count}")
    return replace(annotations, frames=annotations.frames[:n_frames])


def make_detector(cfg: dict, annotations: AnnotationSet) -> Detector:
    kind = cfg["detector"]
    if kind == "oracle":
        return OracleDetector(annotations, build_oracle_config(cfg))
    if kind == "external":
        command = cfg["external_cmd"]
        if not command:
            raise CliError("--external-cmd is required with --detector external")
        return ExternalProcessDetector(shlex.split(command))
    raise CliError(f"unknown detector {kind!r} (expected oracle or external)")


def _write_jsonl(path: Path, rows: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_one_sequence(
    annotations_path: str,
    out_dir: Path,
    cfg: dict,
    fmt: str,
    eval_iou: float = 0.5,
    interpolation: str = "all_point",
) -> dict:
    """Replay one annotated sequence and write the output file set."""
    annotations = load_frames(annotations_path, fmt, cfg)
    n_frames = annotations.frame_count

    pipeline_cfg = build_pipeline_config(cfg)
    detector = make_detector(cfg, annotations)
    try:
        results = run_replay(detector, pipeline_cfg, annotations.dims, n_frames)
    finally:
        close = getattr(detector, "close", None)
        if close is not None:
            close()

    predictions = {r.frame_index: list(r.detections) for r in results}
    report = evaluate_map(
        predictions, annotations, iou_threshold=eval_iou, interpolation=interpolation
    )
    mean_pixels = math.fsum(r.pixels_processed for r in results) / n_frames
    report = replace(report, mean_pixels_per_frame=mean_pixels)
    wall_seconds = math.fsum(r.timing.total_s for r in results)
    fps = n_frames / wall_seconds

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out_dir / "detections.jsonl", [frame_result_to_dict(r) for r in results])
    _write_jsonl(out_dir / "timing.jsonl", [timing_to_dict(r) for r in results])
    _write_json(out_dir / "report.json", report.to_json_dict())
    write_pr_csv(report, out_dir / "pr_curve.csv")
    _write_json(
        out_dir / "config.json",
        dict(cfg, annotations=str(annotations_path), format=fmt,
             eval_iou=eval_iou, interpolation=interpolation),
    )
    _write_json(
        out_dir / "perf.json",
        {"fps": fps, "wall_seconds": wall_seconds, "mean_pixels_per_frame": mean_pixels},
    )
    return {
        "sequence": Path(annotations_path).stem,
        "frames": n_frames,
        "mean_ap": report.mean_ap,
        "recall": report.true_positives / report.n_ground_truth if report.n_ground_truth else 0.0,
        "fps": fps,
        "mean_pixels_per_frame": mean_pixels,
        "out_dir": str(out_dir),
    }


def cmd_run(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = Path(args.out)
    paths = args.annotations
    if len(paths) == 1:
        jobs = [(paths[0], out)]
    else:
        stems = [Path(p).stem for p in paths]
        if len(set(stems)) != len(stems):
            raise CliError("annotation files must have distinct basenames for a multi-sequence run")
        jobs = [(p, out / stem) for p, stem in zip(paths, stems)]
    summaries = [
        run_one_sequence(p, d, cfg, args.format, args.eval_iou, args.interpolation)
        for p, d in jobs
    ]
    for s in summaries:
        print(
            f"{s['sequence']}: mAP {s['mean_ap']:.4f}, fps {s['fps']:.1f}, "
            f"mean px/frame {s['mean_pixels_per_frame']:.0f}, frames {s['frames']}"
        )
    return 0


def cmd_propose(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    annotations = load_annotation_file(args.annotations, args.format, cfg)
    if not 0 <= args.frame < annotations.frame_count:
        raise CliError(
            f"frame {args.frame} outside the annotated range 0..{annotations.frame_count - 1}"
        )
    pipeline_cfg = build_pipeline_config(cfg)
    boxes = [gt.box for gt in annotations.eval_boxes(args.frame)]
    large, small, _ = two_tier_proposal(
        boxes, pipeline_cfg.large_tier, pipeline_cfg.small_tier, annotations.dims
    )
    plan = {
        "frame": args.frame,
        "large_crops": [crop_to_dict(c) for c in large],
        "small_crops": [crop_to_dict(c) for c in small],
    }
    print(json.dumps(plan, sort_keys=True, indent=2))
    return 0


def _read_predictions(path: str) -> dict[int, list[Detection]]:
    predictions: dict[int, list[Detection]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                frame = int(row["frame"])
                dets = [detection_from_dict(d) for d in row["detections"]]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
                raise CliError(f"{path}:{lineno}: bad prediction row ({exc})") from exc
            predictions.setdefault(frame, []).extend(dets)
    return predictions


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    annotations = load_frames(args.annotations, args.format, cfg)
    predictions = _read_predictions(args.predictions)
    report = evaluate_map(
        predictions, annotations, iou_threshold=args.eval_iou, interpolation=args.interpolation
    )
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "report.json", report.to_json_dict())
        write_pr_csv(report, out / "pr_curve.csv")
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    out = Path(args.out)
    summaries = {}
    for mode, settings in _BENCH_MODES.items():
        # a row's settings act as flags: crop_no_filter gets --no-temporal-filter's floor
        cfg = resolve_config(argparse.Namespace(**{**vars(args), **settings}))
        summaries[mode] = run_one_sequence(
            args.annotations, out / mode, cfg, args.format, args.eval_iou, args.interpolation
        )
    _write_json(out / "bench.json", summaries)
    header = f"{'mode':<14} {'mAP':>8} {'recall':>8} {'fps':>10} {'mean px/frame':>14}"
    print(header)
    print("-" * len(header))
    for mode, s in summaries.items():
        print(
            f"{mode:<14} {s['mean_ap']:>8.4f} {s['recall']:>8.4f} {s['fps']:>10.1f} "
            f"{s['mean_pixels_per_frame']:>14.0f}"
        )
    return 0


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eval-iou", type=float, default=0.5,
                        help="IoU threshold for matching predictions to ground truth")
    parser.add_argument("--interpolation", choices=("all_point", "eleven_point"),
                        default="all_point", help="precision/recall interpolation rule")


def _add_input_flags(parser: argparse.ArgumentParser, nargs: str | None = None) -> None:
    parser.add_argument("--annotations", nargs=nargs, required=True, metavar="PATH")
    parser.add_argument("--format", default="auto", choices=("auto", *_PARSERS, "json"))


def build_parser() -> argparse.ArgumentParser:
    parent = _config_parent()
    parser = argparse.ArgumentParser(prog="cropdet", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[parent], help="replay sequences through the pipeline")
    _add_input_flags(p_run, nargs="+")
    p_run.add_argument("--out", required=True, metavar="DIR")
    _add_eval_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_propose = sub.add_parser("propose", parents=[parent],
                               help="print the crop proposal for one frame")
    _add_input_flags(p_propose)
    p_propose.add_argument("--frame", type=int, default=0)
    p_propose.set_defaults(func=cmd_propose)

    p_eval = sub.add_parser("eval", parents=[parent],
                            help="score a predictions JSONL file against annotations")
    _add_input_flags(p_eval)
    p_eval.add_argument("--predictions", required=True, metavar="JSONL")
    p_eval.add_argument("--out", default=None, metavar="DIR")
    _add_eval_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", parents=[parent],
                             help="compare crops, crops without the filter, and full frame only")
    _add_input_flags(p_bench)
    p_bench.add_argument("--out", required=True, metavar="DIR")
    _add_eval_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        AnnotationParseError,
        EvaluationError,
        DetectorError,
        FrameProcessingError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
