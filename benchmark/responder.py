"""Oracle detector child process for the `external` workload.

Usage: responder.py ANNOTATIONS_JSON CONFIG_JSON

Answers line-protocol requests on stdin/stdout with an OracleDetector
over the given scene, configured from a `cropdet run` config file, so its
answers equal those of the in-process oracle under the same config.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cropdet.cli import build_oracle_config  # noqa: E402
from cropdet.datasets_eval import load_annotations  # noqa: E402
from cropdet.detector_stub import OracleDetector, serve_requests  # noqa: E402


def main() -> int:
    annotations_path, config_path = sys.argv[1:3]
    with open(config_path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    detector = OracleDetector(load_annotations(annotations_path), build_oracle_config(cfg))
    serve_requests(detector.detect, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
