#!/usr/bin/env python3
"""Golden digests of the deterministic output files of fixed runs.

Usage:
    PYTHONPATH=src python3 scripts/golden.py --write   # regenerate tests/data/golden.json

tests/test_golden.py re-runs each run and compares it with the manifest.

Each run is one `cropdet run` of a prebuilt scene from cropdet.synthetic.
It starts in a fresh directory that holds the scene as `<scene>.json`, and
it is given that relative path, so config.json echoes the same
`annotations` value wherever the run happens. The manifest keeps, for each
run and file, the SHA-256 of the file and the first four hex digits of the
SHA-256 of each of its lines, from which a mismatch names its first
differing line. A change that moves an output on purpose regenerates the
manifest in the same commit; no digest is edited by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Sequence

from cropdet.cli import main as cropdet_main
from cropdet.datasets_eval import save_annotations
from cropdet.synthetic import SCENES

MANIFEST = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden.json"
FILES = ("detections.jsonl", "report.json", "pr_curve.csv", "config.json")
# run name -> (scene, extra `cropdet run` flags)
RUNS = {
    "fidelity": ("fidelity", ()),
    "low_resolution": ("low_resolution", ()),
    "flicker_seed3_flicker0.3": ("flicker", ("--seed", "3", "--flicker-prob", "0.3")),
    "low_resolution_no_crops_on_refresh": ("low_resolution", ("--no-crops-on-refresh",)),
}
LINE_DIGITS = 4
SHOWN_CHARS = 300


def run_outputs(run: str, work: Path, extra_flags: Sequence[str] = ()) -> dict[str, bytes]:
    """The deterministic files of one run, made inside the empty directory
    `work`, with extra_flags appended to the run's flags."""
    scene, flags = RUNS[run]
    flags = (*flags, *extra_flags)
    save_annotations(SCENES[scene](), work / f"{scene}.json")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cropdet_main(["run", "--annotations", f"{scene}.json", "--out", "out", *flags])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"{run}: cropdet run exited {code}")
    return {name: (work / "out" / name).read_bytes() for name in FILES}


def _line_digests(data: bytes) -> list[str]:
    return [hashlib.sha256(line).hexdigest()[:LINE_DIGITS] for line in data.split(b"\n")]


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "lines": "".join(_line_digests(data))}


def mismatch(run: str, name: str, expected: dict, data: bytes) -> str | None:
    """None when `data` has the expected digest; otherwise a message naming
    the run, the file and the first line whose digest differs."""
    if hashlib.sha256(data).hexdigest() == expected["sha256"]:
        return None
    lines = data.split(b"\n")
    want = expected["lines"]
    want = [want[i:i + LINE_DIGITS] for i in range(0, len(want), LINE_DIGITS)]
    got = _line_digests(data)
    first = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b), min(len(want), len(got)))
    shown = lines[first].decode("utf-8", "replace") if first < len(lines) else "<end of file>"
    shown = shown if len(shown) <= SHOWN_CHARS else shown[:SHOWN_CHARS] + "..."
    return (f"{run}: {name} differs from the golden digest; first differing line "
            f"{first + 1} of {len(lines)} (golden has {len(want)}): {shown}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    # required, so that no run rewrites the manifest by accident
    parser.add_argument("--write", action="store_true", required=True,
                        help=f"rewrite {MANIFEST.name} from this checkout's outputs")
    parser.parse_args(argv)
    manifest = {}
    for run in RUNS:
        with tempfile.TemporaryDirectory() as work:
            outputs = run_outputs(run, Path(work))
        manifest[run] = {name: digest(data) for name, data in outputs.items()}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
