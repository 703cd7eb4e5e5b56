"""The deterministic output files of fixed runs against tests/data/golden.json.

scripts/golden.py defines the runs and writes the manifest. Each run starts
in its own directory and passes the scene as the relative path
`<scene>.json`, so config.json is hashed as written, with no value
replaced. A change that moves an output on purpose regenerates the manifest
with `python3 scripts/golden.py --write` and says in CHANGES.md which
digests moved and why.
"""

from __future__ import annotations

import importlib.util
import json
import shlex
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MANIFEST = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_run_and_file():
    assert set(MANIFEST) == set(golden.RUNS)
    for files in MANIFEST.values():
        assert set(files) == set(golden.FILES)


@pytest.mark.parametrize("run", sorted(golden.RUNS))
def test_outputs_match_golden_digests(tmp_path, run):
    outputs = golden.run_outputs(run, tmp_path)
    messages = [golden.mismatch(run, name, MANIFEST[run][name], data)
                for name, data in outputs.items()]
    assert [m for m in messages if m] == []


def test_external_detector_run_matches_golden_digests(tmp_path, responder_cmd):
    """The low_resolution run through an oracle child process, at the CLI's
    default seed and jitter: every output but config.json (which names the
    detector) equals the in-process run's."""
    command = shlex.join(responder_cmd("oracle", "low_resolution.json", "0", "0.05"))
    outputs = golden.run_outputs("low_resolution", tmp_path,
                                 ("--detector", "external", "--external-cmd", command))
    messages = [golden.mismatch("low_resolution", name, MANIFEST["low_resolution"][name], data)
                for name, data in outputs.items() if name != "config.json"]
    assert [m for m in messages if m] == []


def test_mismatch_names_the_first_differing_line():
    data = b'{"a": 1}\n{"b": 2}\n{"c": 3}\n'
    expected = golden.digest(data)
    assert golden.mismatch("run", "f.jsonl", expected, data) is None
    message = golden.mismatch("run", "f.jsonl", expected, data.replace(b"2", b"5"))
    assert message.startswith("run: f.jsonl differs")
    assert 'line 2 of 4 (golden has 4): {"b": 5}' in message
    message = golden.mismatch("run", "f.jsonl", expected, data + b"extra")
    assert "line 4 of 4 (golden has 4): extra" in message
