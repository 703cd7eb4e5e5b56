"""Spans recorded around calls into cropdet's modules, from outside them.

A wrapper is installed on the module attribute the caller looks up (for
example `cropdet.pipeline.two_tier_proposal`, which `process_frame`
resolves at call time), and the original is put back afterwards. Nothing
under `src/` is edited. Each span records its name, start, end, parent
span and, for the traced layers, counts read from the call's arguments
and return value.

`geometry` is not wrapped: its functions are called far too often for a
per-call wrapper not to distort the run. Its cost shows in its callers.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

import cropdet.cli
import cropdet.crop_proposal
import cropdet.pipeline

Counter = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict | None = None
    error: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory spans of one job, in the order they opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), parent=open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                open_.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "error": s.error, "counts": s.counts,
                }) + "\n")


def _proposal_counts(args, kwargs, result) -> dict:
    large, small, uncovered = result
    return {"boxes_in": len(args[0]), "crops": len(large) + len(small), "uncovered": len(uncovered)}


def _forest_counts(args, kwargs, result) -> dict:
    return {"edges_scanned": result.edges_scanned, "merged": len(result.merged_edges)}


def _merge_counts(args, kwargs, result) -> dict:
    return {"boxes_in": sum(len(g) for g in args[0]), "kept": len(result)}


def _filter_counts(args, kwargs, result) -> dict:
    accepted, _ = result
    return {
        "resurrected": sum(1 for d in accepted if d.resurrected),
        "dropped": len(args[0]) - len(accepted),
    }


def _boxes_counts(args, kwargs, result) -> dict:
    return {"boxes": len(result)}


# (module, attribute, span name, counter) for every wrapped call.
# JOB_LAYERS are always installed: they give the end-to-end timings.
JOB_LAYERS = [
    (cropdet.cli, "run_replay", "pipeline.run_replay", None),
    (cropdet.pipeline, "process_frame", "pipeline.process_frame", None),
]
TRACED_LAYERS = [
    (cropdet.cli, "load_annotations", "datasets_eval.load_annotations", None),
    (cropdet.cli, "evaluate_map", "datasets_eval.evaluate_map", None),
    (cropdet.pipeline, "merge_detections", "pipeline.merge_detections", _merge_counts),
    (cropdet.pipeline, "filter_detections", "temporal_filter.filter_detections", _filter_counts),
    (cropdet.pipeline, "two_tier_proposal", "crop_proposal.two_tier_proposal", _proposal_counts),
    (cropdet.crop_proposal, "propose_crops", "crop_proposal.propose_crops", _forest_counts),
]
DETECT = "detector_stub.detect"


@contextmanager
def installed(log: SpanLog, traced: bool, on_propose: Callable | None = None) -> Iterator[None]:
    """Wrap the layers' module attributes for the duration of the block.

    Untraced, only the replay and per-frame calls are wrapped, plus the
    detector's first call, which ends set-up. Traced, every layer is
    wrapped and every detector call is a span. on_propose, if given,
    sees each propose_crops call's arguments and result.
    """
    layers = JOB_LAYERS + (TRACED_LAYERS if traced else [])
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in layers]
    make_detector = cropdet.cli.make_detector

    def traced_make_detector(*args, **kwargs):
        detector = make_detector(*args, **kwargs)
        detect = log.wrap(DETECT, detector.detect, _boxes_counts)
        if traced:
            detector.detect = detect
        else:
            def first_detect(*args, **kwargs):
                del detector.detect  # later calls go straight to the class method
                return detect(*args, **kwargs)
            detector.detect = first_detect
        return detector

    try:
        for (module, attr, name, counter), (_, _, original) in zip(layers, originals):
            if name == "crop_proposal.propose_crops" and on_propose is not None:
                counter = _observed(counter, on_propose)
            setattr(module, attr, log.wrap(name, original, counter))
        cropdet.cli.make_detector = traced_make_detector
        yield
    finally:
        cropdet.cli.make_detector = make_detector
        for module, attr, original in originals:
            setattr(module, attr, original)


def _observed(counter: Counter, on_call: Callable) -> Counter:
    def both(args, kwargs, result):
        on_call(args, kwargs, result)
        return counter(args, kwargs, result)
    return both
