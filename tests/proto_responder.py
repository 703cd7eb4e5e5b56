"""Detector process fixture for protocol tests.

Usage: proto_responder.py MODE [ARGS...]

Modes:
    oracle ANNOTATIONS_JSON [SEED [JITTER]]
        answer requests from a ground-truth oracle over the given scene
    die-after N ANNOTATIONS_JSON [SEED [JITTER]]
        answer the first N requests as oracle does, then exit with code 3
    boxes N
        answer every request with the same N boxes
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

import itertools
import sys
import time

from cropdet.datasets_eval import load_annotations
from cropdet.detections import Detection
from cropdet.detector_stub import OracleConfig, OracleDetector, format_response, serve_requests
from cropdet.geometry import BoundingBox


def oracle(args: list[str]) -> OracleDetector:
    """OracleDetector from ANNOTATIONS_JSON [SEED [JITTER]]."""
    seed = int(args[1]) if len(args) > 1 else 0
    jitter = float(args[2]) if len(args) > 2 else 0.0
    return OracleDetector(load_annotations(args[0]), OracleConfig(rng_seed=seed, jitter_fraction=jitter))


def main() -> int:
    mode = sys.argv[1]
    if mode == "oracle":
        serve_requests(oracle(sys.argv[2:]).detect, sys.stdin, sys.stdout)
    elif mode == "die-after":
        detector = oracle(sys.argv[3:])
        serve_requests(detector.detect, itertools.islice(sys.stdin, int(sys.argv[2])), sys.stdout)
        return 3
    elif mode == "boxes":
        box = Detection(BoundingBox(1.25, 2.5, 30.125, 60.0625), 0.875)
        response = format_response([box] * int(sys.argv[2])) + "\n"
        for line in sys.stdin:
            if line.strip():
                sys.stdout.write(response)
                sys.stdout.flush()
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
