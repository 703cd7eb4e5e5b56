"""Annotation parsing and detection-quality metrics.

Three annotation sources are supported: per-object MOT text files
(one `frame,id,x,y,w,h,score,category,truncation,occlusion` row per
line, frames 1-based), frame-aggregated CSV exports
(`frame,n,[id,x,y,w,h,label]` with frames 0-based), and this package's
own JSON round-trip format. All of them normalize to an AnnotationSet
with 0-based contiguous frames and corner-form boxes clamped to the
frame.

Evaluation is single-class average precision over the pooled detections
of every frame, matched greedily per frame against unmatched ground
truth at an IoU threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .detections import Detection
from .geometry import BoundingBox, BoxGrid, FrameDims, clamp_box, iou

PEDESTRIAN_CATEGORY = 1
IGNORE_CATEGORY = 0

_PERSON_LABELS = ("person", "pedestrian")


class AnnotationParseError(Exception):
    """An annotation file, or another text input, could not be understood;
    message carries path:line."""


class EvaluationError(Exception):
    """Predictions and ground truth cannot be compared as given."""


@dataclass(frozen=True, slots=True)
class GroundTruth:
    box: BoundingBox
    object_id: int
    category: int = PEDESTRIAN_CATEGORY
    ignore: bool = False


@dataclass(frozen=True)
class AnnotationSet:
    """Ground truth for one sequence: frame size plus per-frame object lists."""

    dims: FrameDims
    frames: tuple[tuple[GroundTruth, ...], ...]

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    def eval_boxes(self, frame_index: int) -> list[GroundTruth]:
        """Objects that count for detection: pedestrian category, not in an
        ignore region, and with positive area after clamping."""
        return [
            gt
            for gt in self.frames[frame_index]
            if gt.category == PEDESTRIAN_CATEGORY and not gt.ignore and gt.box.area > 0.0
        ]

    def to_json_dict(self) -> dict:
        return {
            "width": self.dims.width,
            "height": self.dims.height,
            "frames": [
                [
                    {
                        "object_id": gt.object_id,
                        "x_min": gt.box.x_min,
                        "y_min": gt.box.y_min,
                        "x_max": gt.box.x_max,
                        "y_max": gt.box.y_max,
                        "category": gt.category,
                        "ignore": gt.ignore,
                    }
                    for gt in frame
                ]
                for frame in self.frames
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict, source: str = "annotation JSON") -> AnnotationSet:
        """The set from its JSON form, every value type-checked; an error
        names `source` and the frame and object index it occurred at."""
        f = j = None
        try:
            width, height = data["width"], data["height"]
            if type(width) is not int or type(height) is not int:
                raise TypeError(f"width and height must be int, got {json.dumps([width, height])}")
            dims = FrameDims(width, height)
            frames = []
            for f, frame in enumerate(data["frames"]):
                j = None
                objects = []
                for j, gt in enumerate(frame):
                    x0, y0, x1, y1 = gt["x_min"], gt["y_min"], gt["x_max"], gt["y_max"]
                    object_id = gt["object_id"]
                    category = gt.get("category", PEDESTRIAN_CATEGORY)
                    ignore = gt.get("ignore", False)
                    if not ({type(x0), type(y0), type(x1), type(y1)} <= {int, float}
                            and type(object_id) is int and type(category) is int
                            and type(ignore) is bool):
                        raise TypeError(_mistyped(gt))
                    box = BoundingBox(float(x0), float(y0), float(x1), float(y1))
                    objects.append(GroundTruth(box, object_id, category, ignore))
                frames.append(tuple(objects))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            where = source if f is None else f"{source}: frame {f}"
            where += "" if j is None else f", object {j}"
            raise AnnotationParseError(f"{where}: bad annotation JSON: {exc}") from exc
        return cls(dims=dims, frames=tuple(frames))


# the JSON types of an annotation object's values, compared by type(),
# so that a boolean is neither a number nor an integer
_OBJECT_TYPES = {
    "x_min": (int, float), "y_min": (int, float), "x_max": (int, float), "y_max": (int, float),
    "object_id": (int,), "category": (int,), "ignore": (bool,),
}


def _mistyped(gt: dict) -> str:
    """What is wrong with the first value of `gt` of the wrong type."""
    key, kinds = next((k, t) for k, t in _OBJECT_TYPES.items() if k in gt and type(gt[k]) not in t)
    return f"{key} must be {kinds[-1].__name__}, got {json.dumps(gt[key])}"


def read_text(path: str | Path) -> str:
    """A UTF-8 text file with its line ends read as open() reads them: CRLF
    and CR become LF. A byte that is not UTF-8 raises AnnotationParseError
    naming path:line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        line = before.count("\n") + before.count("\r") - before.count("\r\n") + 1
        raise AnnotationParseError(
            f"{path}:{line}: not UTF-8 ({exc.reason}, byte 0x{data[exc.start]:02x})"
        ) from None
    # the test is a fast scan; replace scans even when it finds nothing
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def save_annotations(annotations: AnnotationSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(annotations.to_json_dict(), fh, sort_keys=True)
        fh.write("\n")


def load_annotations(path: str | Path) -> AnnotationSet:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise AnnotationParseError(f"{path}: {exc}") from exc
    except RecursionError:
        raise AnnotationParseError(f"{path}: JSON nested too deeply") from None
    return AnnotationSet.from_json_dict(data, str(path))


def _frame_tuples(by_frame: dict[int, list[GroundTruth]]) -> tuple[tuple[GroundTruth, ...], ...]:
    """Frames 0 to the highest index named; frames no row names share one
    empty tuple, so a far-off index costs a pointer per frame, not a list."""
    frames = [()] * (max(by_frame, default=-1) + 1)
    for index, objects in by_frame.items():
        frames[index] = tuple(objects)
    return tuple(frames)


def _row_box(x: float, y: float, w: float, h: float, where: str) -> BoundingBox:
    """The box of an x, y, w, h row; a NaN or infinite value names `where`."""
    try:
        return BoundingBox(x, y, x + w, y + h)
    except ValueError as exc:
        raise AnnotationParseError(f"{where}: {exc}") from None


def parse_visdrone(path: str | Path, dims: FrameDims) -> AnnotationSet:
    """Parse per-object MOT rows: frame,id,x,y,w,h,score,category,trunc,occl.

    Frame indices are 1-based in the file and shifted to 0-based here.
    Category 0 rows are ignore regions; they are kept but flagged so
    evaluation skips them. Boxes are clamped to the frame and may end up
    with zero area, in which case they never reach evaluation.
    """
    by_frame: dict[int, list[GroundTruth]] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise AnnotationParseError(
                f"{path}:{lineno}: expected 10 comma-separated fields, got {len(parts)}"
            )
        try:
            frame = int(parts[0])
            target_id = int(parts[1])
            x, y, w, h = (float(v) for v in parts[2:6])
            category = int(parts[7])
        except ValueError:
            raise AnnotationParseError(f"{path}:{lineno}: non-numeric field") from None
        if frame < 1:
            raise AnnotationParseError(f"{path}:{lineno}: frame index must be >= 1, got {frame}")
        if w < 0 or h < 0:
            raise AnnotationParseError(f"{path}:{lineno}: negative box size {w}x{h}")
        box = clamp_box(_row_box(x, y, w, h, f"{path}:{lineno}"), dims)
        by_frame.setdefault(frame - 1, []).append(
            GroundTruth(
                box=box,
                object_id=target_id,
                category=category,
                ignore=category == IGNORE_CATEGORY,
            )
        )
    return AnnotationSet(dims=dims, frames=_frame_tuples(by_frame))


def parse_darklabel(path: str | Path, dims: FrameDims) -> AnnotationSet:
    """Parse frame-aggregated CSV rows: frame,n,[id,x,y,w,h,label] * n.

    Frames are 0-based. Only person/pedestrian labels (case-insensitive)
    count as the pedestrian category; other labels are kept with a
    category of -1 so they stay visible in the set without affecting
    evaluation.
    """
    by_frame: dict[int, list[GroundTruth]] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 2:
            raise AnnotationParseError(f"{path}:{lineno}: expected at least frame and count")
        try:
            frame = int(parts[0])
            count = int(parts[1])
        except ValueError:
            raise AnnotationParseError(f"{path}:{lineno}: non-numeric frame or count") from None
        if frame < 0:
            raise AnnotationParseError(f"{path}:{lineno}: negative frame index {frame}")
        if count < 0:
            raise AnnotationParseError(f"{path}:{lineno}: negative object count {count}")
        if len(parts) != 2 + 6 * count:
            raise AnnotationParseError(
                f"{path}:{lineno}: declared {count} objects but row has "
                f"{len(parts)} fields (expected {2 + 6 * count})"
            )
        objects = by_frame.setdefault(frame, [])
        for j in range(count):
            base = 2 + 6 * j
            try:
                object_id = int(parts[base])
                x, y, w, h = (float(v) for v in parts[base + 1 : base + 5])
            except ValueError:
                raise AnnotationParseError(
                    f"{path}:{lineno}: non-numeric field in object {j}"
                ) from None
            if w < 0 or h < 0:
                raise AnnotationParseError(f"{path}:{lineno}: negative box size {w}x{h}")
            label = parts[base + 5]
            category = PEDESTRIAN_CATEGORY if label.lower() in _PERSON_LABELS else -1
            box = _row_box(x, y, w, h, f"{path}:{lineno}: object {j}")
            objects.append(
                GroundTruth(
                    box=clamp_box(box, dims),
                    object_id=object_id,
                    category=category,
                )
            )
    return AnnotationSet(dims=dims, frames=_frame_tuples(by_frame))


@dataclass(frozen=True)
class EvalReport:
    mean_ap: float
    pr_curve: list[tuple[float, float]]
    true_positives: int
    false_positives: int
    false_negatives: int
    n_ground_truth: int
    n_predictions: int
    iou_threshold: float
    interpolation: str
    mean_pixels_per_frame: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "mean_ap": self.mean_ap,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "n_ground_truth": self.n_ground_truth,
            "n_predictions": self.n_predictions,
            "iou_threshold": self.iou_threshold,
            "interpolation": self.interpolation,
            "mean_pixels_per_frame": self.mean_pixels_per_frame,
        }


def write_pr_csv(report: EvalReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("recall,precision\n")
        for recall, precision in report.pr_curve:
            fh.write(f"{recall!r},{precision!r}\n")


def _interpolated_ap(recalls: list[float], precisions: list[float], interpolation: str) -> float:
    if interpolation == "eleven_point":
        totals = []
        for tenth in range(11):
            threshold = tenth / 10.0
            totals.append(
                max((p for r, p in zip(recalls, precisions) if r >= threshold), default=0.0)
            )
        return math.fsum(totals) / 11.0

    mrec = [0.0] + recalls + [1.0]
    mpre = [0.0] + precisions + [0.0]
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    return math.fsum(
        (mrec[i] - mrec[i - 1]) * mpre[i] for i in range(1, len(mrec)) if mrec[i] != mrec[i - 1]
    )


def evaluate_map(
    predictions: Mapping[int, Sequence[Detection]],
    truth: AnnotationSet,
    iou_threshold: float = 0.5,
    interpolation: str = "all_point",
) -> EvalReport:
    """Average precision of per-frame predictions against ground truth.

    Within each frame, predictions are taken in descending confidence and
    matched greedily to the best still-unmatched ground-truth box; a match
    needs IoU >= iou_threshold. All frames' decisions are then pooled into
    one precision/recall curve (sweep order: confidence desc, then frame,
    then per-frame rank) and integrated with the chosen interpolation.

    Predictions map a frame index to its detections; frames without an
    entry contribute only their ground truth.
    """
    if interpolation not in ("all_point", "eleven_point"):
        raise ValueError(f"unknown interpolation {interpolation!r}")
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")

    per_frame = {int(frame): dets for frame, dets in predictions.items()}

    out_of_range = sorted(f for f in per_frame if not 0 <= f < truth.frame_count)
    if out_of_range:
        raise EvaluationError(
            f"predictions reference frames outside 0..{truth.frame_count - 1}: {out_of_range}"
        )

    n_gt = 0
    pooled: list[tuple[float, int, int, bool]] = []
    for frame in range(truth.frame_count):
        gts = truth.eval_boxes(frame)
        n_gt += len(gts)
        dets = per_frame.get(frame, ())
        if not dets:
            continue
        grid = BoxGrid([gt.box for gt in gts])
        matched = [False] * len(gts)
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
        for rank, i in enumerate(order):
            det = dets[i]
            best_iou = 0.0
            best_j = -1
            # the ground truths the grid leaves out have IoU 0, which never wins
            for j in grid.query(det.box):
                if matched[j]:
                    continue
                overlap = iou(det.box, gts[j].box)
                if overlap > best_iou:
                    best_iou = overlap
                    best_j = j
            is_tp = best_j >= 0 and best_iou >= iou_threshold
            if is_tp:
                matched[best_j] = True
            pooled.append((det.confidence, frame, rank, is_tp))

    pooled.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))

    recalls: list[float] = []
    precisions: list[float] = []
    tp_total = 0
    for k, (_, _, _, is_tp) in enumerate(pooled, start=1):
        tp_total += is_tp
        recalls.append(tp_total / n_gt if n_gt else 0.0)
        precisions.append(tp_total / k)

    if n_gt == 0:
        ap = 1.0 if not pooled else 0.0
    elif not pooled:
        ap = 0.0
    else:
        ap = _interpolated_ap(recalls, precisions, interpolation)

    return EvalReport(
        mean_ap=ap,
        pr_curve=list(zip(recalls, precisions)),
        true_positives=tp_total,
        false_positives=len(pooled) - tp_total,
        false_negatives=n_gt - tp_total,
        n_ground_truth=n_gt,
        n_predictions=len(pooled),
        iou_threshold=iou_threshold,
        interpolation=interpolation,
    )
