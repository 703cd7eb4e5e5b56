from __future__ import annotations

import dataclasses
import json
import shlex
import sys

import pytest

from cropdet.cli import (
    DEFAULTS,
    build_oracle_config,
    build_parser,
    build_pipeline_config,
    load_annotation_file,
    main,
    resolve_config,
)
from cropdet.datasets_eval import save_annotations
from cropdet.geometry import FrameDims
from cropdet.synthetic import fidelity_scene, flicker_scene, low_resolution_scene

RUN_FILES = ("detections.jsonl", "timing.jsonl", "report.json", "pr_curve.csv", "config.json", "perf.json")


def parse_run_args(*extra):
    parser = build_parser()
    return parser.parse_args(["run", "--annotations", "unused.json", "--out", "unused", *extra])


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def scene_path(scene_json):
    return scene_json(low_resolution_scene(12), "lowres.json")


# -------------------------------------------------------- config layering


def test_defaults_pass_through():
    cfg = resolve_config(parse_run_args())
    assert cfg == DEFAULTS


def test_config_file_overrides_defaults(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"nms_iou": 0.3, "seed": 7, "crops_on_refresh": False}))
    cfg = resolve_config(parse_run_args("--config", str(config)))
    assert cfg["nms_iou"] == 0.3
    assert cfg["seed"] == 7
    assert cfg["crops_on_refresh"] is False
    assert cfg["full_frame_period"] == DEFAULTS["full_frame_period"]


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 7, "nms_iou": 0.3}))
    cfg = resolve_config(parse_run_args("--config", str(config), "--seed", "9"))
    assert cfg["seed"] == 9
    assert cfg["nms_iou"] == 0.3


def test_boolean_flags_have_no_form():
    assert resolve_config(parse_run_args("--no-crops-on-refresh"))["crops_on_refresh"] is False
    assert resolve_config(parse_run_args("--crops-on-refresh"))["crops_on_refresh"] is True
    assert resolve_config(parse_run_args("--full-frame-only"))["full_frame_only"] is True


def test_disabling_temporal_filter_raises_the_floor():
    cfg = resolve_config(parse_run_args("--no-temporal-filter"))
    assert cfg["conf_floor"] == cfg["conf_genuine"] == DEFAULTS["conf_genuine"]
    # the default keeps the resurrection band open
    assert resolve_config(parse_run_args())["conf_floor"] == DEFAULTS["conf_floor"]


def test_unknown_config_key_fails(tmp_path, scene_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"nms_iuo": 0.3}))
    code = run_cli("run", "--annotations", scene_path, "--out", tmp_path / "out",
                   "--config", config)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nms_iuo" in err


def test_invalid_config_json_fails(tmp_path, scene_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text("[1, 2]")
    assert run_cli("run", "--annotations", scene_path, "--out", tmp_path / "out",
                   "--config", config) == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"large_k": "3"},
    {"frames": 2.5},
    {"nms_iou": None},
    {"temporal_filter": "no"},
    {"seed": "abc"},
    {"seed": True},
], ids=json.dumps)
def test_wrong_typed_config_value_fails(tmp_path, scene_path, capsys, data):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(data))
    assert run_cli("run", "--annotations", scene_path, "--out", tmp_path / "out",
                   "--config", config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    (key,) = data
    assert key in err


def test_integer_config_value_for_float_key_is_kept(tmp_path, scene_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"large_max_width": 448}))
    out = tmp_path / "out"
    assert run_cli("run", "--annotations", scene_path, "--out", out, "--frames", 2,
                   "--config", config) == 0
    echoed = json.loads((out / "config.json").read_text())["large_max_width"]
    assert echoed == 448 and isinstance(echoed, int)


@pytest.mark.parametrize("value", ["448", "448.5"])
def test_float_flag_echoes_like_config_file(tmp_path, scene_path, value):
    config = tmp_path / "cfg.json"
    config.write_text(f'{{"large_max_width": {value}}}')
    by_flag = tmp_path / "flag"
    by_file = tmp_path / "file"
    assert run_cli("run", "--annotations", scene_path, "--out", by_flag, "--frames", 2,
                   "--large-max-width", value) == 0
    assert run_cli("run", "--annotations", scene_path, "--out", by_file, "--frames", 2,
                   "--config", config) == 0
    echoed = (by_flag / "config.json").read_text()
    assert f'"large_max_width": {value},' in echoed
    assert echoed == (by_file / "config.json").read_text()


FLOAT_KEYS = [key for key, default in DEFAULTS.items() if isinstance(default, float)]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_config_value_fails(tmp_path, scene_path, capsys, key, literal):
    config = tmp_path / "cfg.json"
    config.write_text(f'{{"{key}": {literal}}}')
    out = tmp_path / "out"
    assert run_cli("run", "--annotations", scene_path, "--out", out, "--frames", 2,
                   "--config", config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--large-max-width", "inf"), ("--jitter-fraction", "nan")])
def test_non_finite_flag_value_fails(tmp_path, scene_path, capsys, flag):
    out = tmp_path / "out"
    assert run_cli("run", "--annotations", scene_path, "--out", out, *flag) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


# keys that set the run itself, not a field of a config dataclass
RUN_ONLY_KEYS = {"temporal_filter", "frame_width", "frame_height", "frames", "detector", "external_cmd"}


def _built_fields(cfg):
    """Field path -> value over the built pipeline and oracle configs."""
    leaves = {}

    def walk(config, path):
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if dataclasses.is_dataclass(value):
                walk(value, path + (f.name,))
            else:
                leaves[path + (f.name,)] = value

    walk(build_pipeline_config(cfg), ("pipeline",))
    walk(build_oracle_config(cfg), ("oracle",))
    return leaves


def test_each_config_key_sets_exactly_its_field():
    base = _built_fields(DEFAULTS)
    covered = set()
    for key, default in DEFAULTS.items():
        if key in RUN_ONLY_KEYS:
            continue
        if isinstance(default, bool):
            value = not default
        else:
            value = default + (1 if isinstance(default, int) else 0.01)
        built = _built_fields(dict(DEFAULTS, **{key: value}))
        changed = {path for path in base if built[path] != base[path]}
        # the padding keys are shared by both tiers
        assert len(changed) == (2 if key in ("pad_fraction", "min_pad_px") else 1), key
        assert all(built[path] == value for path in changed), key
        covered |= changed
    # every field but the tiers' names is set by some key
    assert covered == {path for path in base if path[-1] != "name"}


# ------------------------------------------------------------------- run


def test_run_writes_output_files(tmp_path, scene_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--annotations", scene_path, "--out", out, "--frames", 8) == 0
    for name in RUN_FILES:
        assert (out / name).exists(), name

    lines = (out / "detections.jsonl").read_text().splitlines()
    assert len(lines) == 8
    first = json.loads(lines[0])
    assert set(first) == {"frame", "detections", "crops", "pixels_processed"}
    assert first["frame"] == 0
    assert first["pixels_processed"] >= 416 * 416

    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["mean_ap"] <= 1.0
    assert "fps" not in report
    pixels = [json.loads(line)["pixels_processed"] for line in lines]
    assert report["mean_pixels_per_frame"] == sum(pixels) / 8

    timing_row = json.loads((out / "timing.jsonl").read_text().splitlines()[0])
    assert set(timing_row) == {"frame", "full_frame_s", "crops_s", "nms_s", "proposal_s", "filter_s", "total_s"}

    perf = json.loads((out / "perf.json").read_text())
    assert perf["fps"] > 0
    assert perf["wall_seconds"] > 0
    assert perf["mean_pixels_per_frame"] == report["mean_pixels_per_frame"]

    config = json.loads((out / "config.json").read_text())
    assert config["annotations"] == str(scene_path)
    assert config["seed"] == 0
    assert config["eval_iou"] == 0.5

    assert "mAP" in capsys.readouterr().out


def test_identical_runs_are_byte_identical(tmp_path, scene_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run_cli("run", "--annotations", scene_path, "--out", out,
                       "--frames", 10, "--seed", 3, "--jitter-fraction", 0.05) == 0
    for name in ("detections.jsonl", "report.json", "pr_curve.csv", "config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_rejects_bad_frame_counts(tmp_path, scene_path, capsys):
    assert run_cli("run", "--annotations", scene_path, "--out", tmp_path / "o",
                   "--frames", 0) == 1
    assert "1..12" in capsys.readouterr().err
    assert run_cli("run", "--annotations", scene_path, "--out", tmp_path / "o",
                   "--frames", 99) == 1


def test_frames_limits_scoring(tmp_path, scene_json, capsys):
    path = scene_json(fidelity_scene(), "fidelity.json")
    out = tmp_path / "out"
    assert run_cli("run", "--annotations", path, "--out", out, "--frames", 3,
                   "--jitter-fraction", 0) == 0
    report = json.loads((out / "report.json").read_text())
    # a perfect replay of the first 3 frames, scored against those frames only
    assert report["mean_ap"] == 1.0
    assert report["n_ground_truth"] == 33
    capsys.readouterr()

    predictions = out / "detections.jsonl"
    assert run_cli("eval", "--annotations", path, "--predictions", predictions,
                   "--frames", 3) == 0
    assert json.loads(capsys.readouterr().out) == report | {"mean_pixels_per_frame": None}
    # without --frames, eval scores every annotated frame
    assert run_cli("eval", "--annotations", path, "--predictions", predictions) == 0
    assert json.loads(capsys.readouterr().out)["n_ground_truth"] == 550
    assert run_cli("eval", "--annotations", path, "--predictions", predictions,
                   "--frames", 51) == 1
    assert "1..50" in capsys.readouterr().err


def test_run_multiple_sequences(tmp_path, capsys):
    a = tmp_path / "alpha.json"
    b = tmp_path / "beta.json"
    save_annotations(fidelity_scene(6), a)
    save_annotations(low_resolution_scene(6), b)
    out = tmp_path / "out"
    assert run_cli("run", "--annotations", a, b, "--out", out, "--jitter-fraction", 0) == 0
    for stem in ("alpha", "beta"):
        for name in RUN_FILES:
            assert (out / stem / name).exists()
    stdout = capsys.readouterr().out
    assert stdout.index("alpha:") < stdout.index("beta:")


def test_run_rejects_duplicate_basenames(tmp_path, capsys):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    a = tmp_path / "x" / "scene.json"
    b = tmp_path / "y" / "scene.json"
    save_annotations(fidelity_scene(3), a)
    save_annotations(fidelity_scene(3), b)
    assert run_cli("run", "--annotations", a, b, "--out", tmp_path / "out") == 1
    assert "distinct basenames" in capsys.readouterr().err


def test_format_auto_needs_known_suffix(tmp_path, capsys):
    path = tmp_path / "scene.data"
    save_annotations(fidelity_scene(3), path)
    assert run_cli("run", "--annotations", path, "--out", tmp_path / "out") == 1
    assert "--format" in capsys.readouterr().err
    assert run_cli("run", "--annotations", path, "--format", "json",
                   "--out", tmp_path / "out") == 0


def test_annotation_format_dispatch(tmp_path):
    vis = tmp_path / "a.txt"
    vis.write_text("1,1,10,10,20,40,1,1,0,0\n")
    dark = tmp_path / "b.csv"
    dark.write_text("0,1,1,10,10,20,40,person\n")
    scene = tmp_path / "c.json"
    save_annotations(fidelity_scene(1), scene)
    small = dict(DEFAULTS, frame_width=640, frame_height=480)

    for fmt in ("visdrone", "auto"):
        parsed = load_annotation_file(str(vis), fmt, small)
        assert parsed.frames[0][0].box.x_min == 10.0
        assert parsed.dims == FrameDims(640, 480)
    for fmt in ("darklabel", "auto"):
        assert load_annotation_file(str(dark), fmt, small).frames[0][0].category == 1
    for fmt in ("json", "auto"):
        # the JSON format carries its own frame size
        assert load_annotation_file(str(scene), fmt, small) == fidelity_scene(1)


# the arguments each subcommand requires besides --annotations
REQUIRED_ARGS = {"run": ["--out", "o"], "propose": [], "eval": ["--predictions", "p"],
                 "bench": ["--out", "o"]}


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_every_subcommand_takes_every_format(command, capsys):
    argv = [command, "--annotations", "x", *REQUIRED_ARGS[command]]
    for fmt in ("auto", "visdrone", "darklabel", "json"):
        assert build_parser().parse_args(argv + ["--format", fmt]).format == fmt
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["--format", "coco"])
    assert "invalid choice" in capsys.readouterr().err


def test_run_visdrone_input(tmp_path):
    path = tmp_path / "seq.txt"
    rows = []
    for frame in range(1, 7):
        rows.append(f"{frame},1,400,300,40,80,1,1,0,0")
        rows.append(f"{frame},2,900,500,40,80,1,1,0,0")
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run_cli("run", "--annotations", path, "--out", out, "--jitter-fraction", 0) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_ground_truth"] == 12


def test_unknown_detector_fails(tmp_path, scene_path, capsys):
    assert run_cli("run", "--annotations", scene_path, "--out", tmp_path / "o",
                   "--detector", "resnet") == 1
    assert "unknown detector" in capsys.readouterr().err
    assert run_cli("run", "--annotations", scene_path, "--out", tmp_path / "o",
                   "--detector", "external") == 1
    assert "--external-cmd" in capsys.readouterr().err


def test_run_with_external_detector_matches_oracle(tmp_path, scene_json, responder_cmd):
    scene = low_resolution_scene(6)
    path = scene_json(scene, "ext.json")
    oracle_out = tmp_path / "oracle"
    external_out = tmp_path / "external"
    assert run_cli("run", "--annotations", path, "--out", oracle_out,
                   "--jitter-fraction", 0, "--seed", 0) == 0
    command = " ".join(shlex.quote(part) for part in responder_cmd("oracle", str(path), "0", "0.0"))
    assert run_cli("run", "--annotations", path, "--out", external_out,
                   "--detector", "external", "--external-cmd", command) == 0
    assert (oracle_out / "detections.jsonl").read_bytes() == (
        external_out / "detections.jsonl"
    ).read_bytes()


# ----------------------------------------------------------------- propose


def test_propose_prints_crop_plan(scene_json, capsys):
    path = scene_json(fidelity_scene(3), "fid.json")
    assert run_cli("propose", "--annotations", path, "--frame", 1) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["frame"] == 1
    assert 1 <= len(dump["large_crops"]) <= 3
    assert len(dump["small_crops"]) <= 20
    for crop in dump["large_crops"] + dump["small_crops"]:
        assert set(crop) == {
            "x_min", "y_min", "x_max", "y_max", "tier", "target_w", "target_h", "members",
        }
    assert all(c["tier"] == "large" for c in dump["large_crops"])


def test_propose_rejects_out_of_range_frame(scene_json, capsys):
    path = scene_json(fidelity_scene(3), "fid.json")
    assert run_cli("propose", "--annotations", path, "--frame", 3) == 1
    assert "0..2" in capsys.readouterr().err


# -------------------------------------------------------------------- eval


def test_eval_reproduces_run_report(tmp_path, scene_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--annotations", scene_path, "--out", out, "--frames", 8) == 0
    run_report = json.loads((out / "report.json").read_text())
    capsys.readouterr()

    eval_out = tmp_path / "eval"
    assert run_cli("eval", "--annotations", scene_path, "--frames", 8,
                   "--predictions", out / "detections.jsonl", "--out", eval_out) == 0
    eval_report = json.loads(capsys.readouterr().out)
    for key in ("mean_ap", "true_positives", "false_positives", "false_negatives",
                "n_ground_truth", "n_predictions", "pr_curve"):
        assert eval_report[key] == run_report[key], key
    assert json.loads((eval_out / "report.json").read_text()) == eval_report
    assert (eval_out / "pr_curve.csv").exists()


def test_eval_rejects_bad_prediction_rows(tmp_path, scene_path, capsys):
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text('{"frame": 0, "detections": [{"confidence": 0.9}]}\n')
    assert run_cli("eval", "--annotations", scene_path, "--predictions", predictions) == 1
    assert f"{predictions}:1" in capsys.readouterr().err

    predictions.write_text("not json\n")
    assert run_cli("eval", "--annotations", scene_path, "--predictions", predictions) == 1
    capsys.readouterr()

    # json reads 1e400 as inf, which int() cannot convert
    predictions.write_text('{"frame": 1e400, "detections": []}\n')
    assert run_cli("eval", "--annotations", scene_path, "--predictions", predictions) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {predictions}:1")
    assert err.count("\n") == 1

    predictions.write_text('{"frame": 0, "detections": ' + "[" * 100_000 + "]" * 100_000 + "}\n")
    assert run_cli("eval", "--annotations", scene_path, "--predictions", predictions) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {predictions}:1") and err.count("\n") == 1

    predictions.write_bytes(b'{"frame": 0, "detections": []}\n\xff\xfe{}\n')
    assert run_cli("eval", "--annotations", scene_path, "--predictions", predictions) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {predictions}:2: not UTF-8") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--annotations", "--config"])
def test_deeply_nested_json_fails_in_one_line(tmp_path, scene_path, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    annotations, config = (deep, empty) if flag == "--annotations" else (scene_path, deep)
    assert run_cli("run", "--annotations", annotations, "--config", config,
                   "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"


@pytest.mark.parametrize("name", ["scene.json", "seq.txt", "cfg.json"])
def test_invalid_utf8_names_the_file_and_line(tmp_path, scene_path, capsys, name):
    bad = tmp_path / name
    bad.write_bytes(b'{"width": 1920,\n"height": \xff1080}\n' if name.endswith(".json")
                    else b"1,1,10,10,20,40,1,1,0,0\n\xff\xfe1,1,10,10,20,40,1,1,0,0\n")
    annotations, config = (scene_path, bad) if name == "cfg.json" else (bad, None)
    argv = ["run", "--annotations", annotations, "--out", tmp_path / "out"]
    assert run_cli(*argv, *(["--config", config] if config else [])) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 (invalid start byte, byte 0xff)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    '{"width": 1e400, "height": 1080, "frames": [[]]}',
    '{"width": 1920, "height": 1080, "frames": [[{"object_id": 1e400, '
    '"x_min": 0, "y_min": 0, "x_max": 10, "y_max": 20}]]}',
])
def test_run_rejects_overflowing_annotation_number(tmp_path, capsys, text):
    path = tmp_path / "scene.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert run_cli("run", "--annotations", path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    {"ignore": "false"},
    {"x_min": "10"},
    {"y_max": True},
    {"category": True},
    {"category": 1.0},
    {"object_id": 2.5},
])
def test_run_rejects_mistyped_annotation_value(tmp_path, capsys, bad):
    good = {"object_id": 1, "x_min": 0, "y_min": 0, "x_max": 10.5, "y_max": 20, "ignore": False}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(
        {"width": 1920, "height": 1080, "frames": [[good], [good, dict(good, **bad)]]}
    ))
    assert run_cli("run", "--annotations", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    [(key, value)] = bad.items()
    assert err.startswith(f"error: {path}: frame 1, object 1: ")
    assert f"{key} must be" in err and json.dumps(value) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("dims", [{"width": "1920"}, {"height": 1080.0}, {"width": True}])
def test_run_rejects_mistyped_frame_size(tmp_path, capsys, dims):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"width": 1920, "height": 1080, "frames": [[]], **dims}))
    assert run_cli("run", "--annotations", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "must be int" in err
    assert err.count("\n") == 1


# ------------------------------------------------------------------- bench


def test_bench_compares_modes(tmp_path, scene_path, capsys):
    out = tmp_path / "bench"
    assert run_cli("bench", "--annotations", scene_path, "--out", out,
                   "--frames", 8, "--jitter-fraction", 0) == 0
    bench = json.loads((out / "bench.json").read_text())
    assert set(bench) == {"crop", "crop_no_filter", "full_frame"}
    for mode in bench:
        for name in RUN_FILES:
            assert (out / mode / name).exists()
        report = json.loads((out / mode / "report.json").read_text())
        assert bench[mode]["recall"] == report["true_positives"] / report["n_ground_truth"]
    # crop scheduling sees the small walkers that the full-frame pass misses
    assert bench["crop"]["mean_ap"] > bench["full_frame"]["mean_ap"]
    stdout = capsys.readouterr().out
    assert "recall" in stdout.splitlines()[0]
    assert all(mode in stdout for mode in bench)

    full_config = json.loads((out / "full_frame" / "config.json").read_text())
    assert full_config["full_frame_only"] is True
    # the filter-off row is --no-temporal-filter: the drop floor rises to the genuine threshold
    no_filter_config = json.loads((out / "crop_no_filter" / "config.json").read_text())
    assert no_filter_config["full_frame_only"] is False
    assert no_filter_config["temporal_filter"] is False
    assert no_filter_config["conf_floor"] == no_filter_config["conf_genuine"]


def test_bench_reproduces_temporal_filter_benefit(tmp_path, scene_json):
    # acceptance 06 through the CLI: the filter recovers flickered detections
    path = scene_json(flicker_scene(60), "flicker.json")
    out = tmp_path / "bench"
    assert run_cli("bench", "--annotations", path, "--out", out, "--seed", 3,
                   "--jitter-fraction", 0, "--flicker-prob", 0.3) == 0
    bench = json.loads((out / "bench.json").read_text())
    for mode, hits in (("crop", 379), ("crop_no_filter", 199)):
        report = json.loads((out / mode / "report.json").read_text())
        assert (report["true_positives"], report["n_ground_truth"]) == (hits, 480), mode
        assert bench[mode]["recall"] == hits / 480


def test_module_entry_point(tmp_path, scene_json):
    import subprocess

    path = scene_json(fidelity_scene(3), "fid.json")
    proc = subprocess.run(
        [sys.executable, "-m", "cropdet", "propose", "--annotations", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["frame"] == 0
