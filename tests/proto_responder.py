"""Detector process fixture for protocol tests.

Usage: proto_responder.py MODE [ARGS...]

Modes:
    oracle ANNOTATIONS_JSON [SEED [JITTER]]
        answer requests from a ground-truth oracle over the given scene
    file PATH
        read one request, dump PATH's content verbatim, then exit
    empty
        answer every request with an empty box list
    silent SECONDS
        read one request and never answer
    late SECONDS
        answer every request with an empty box list after SECONDS
"""

from __future__ import annotations

import sys
import time

from cropdet.datasets_eval import load_annotations
from cropdet.detector_stub import OracleConfig, OracleDetector, serve_requests


def main() -> int:
    mode = sys.argv[1]
    if mode == "oracle":
        annotations = load_annotations(sys.argv[2])
        seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
        jitter = float(sys.argv[4]) if len(sys.argv) > 4 else 0.0
        detector = OracleDetector(annotations, OracleConfig(rng_seed=seed, jitter_fraction=jitter))
        serve_requests(detector.detect, sys.stdin, sys.stdout)
    elif mode == "file":
        sys.stdin.readline()
        with open(sys.argv[2], "r", encoding="utf-8") as fh:
            sys.stdout.write(fh.read())
        sys.stdout.flush()
    elif mode == "empty":
        for line in sys.stdin:
            if line.strip():
                sys.stdout.write("BOXES 0\n")
                sys.stdout.flush()
    elif mode == "silent":
        sys.stdin.readline()
        time.sleep(float(sys.argv[2]))
    elif mode == "late":
        for line in sys.stdin:
            if line.strip():
                time.sleep(float(sys.argv[2]))
                sys.stdout.write("BOXES 0\n")
                sys.stdout.flush()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
