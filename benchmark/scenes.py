"""Seeded scenes for the benchmark workloads.

Both builders keep every walker inside the frame for the whole run, so the
number of objects to find stays constant and a long run measures a steady
state instead of a scene that empties as walkers drift out of frame.
"""

from __future__ import annotations

from random import Random

from cropdet.datasets_eval import PEDESTRIAN_CATEGORY, AnnotationSet, GroundTruth
from cropdet.geometry import BoundingBox
from cropdet.synthetic import SCENE_DIMS, low_resolution_scene

CROWD_WALKERS = 200
CROWD_FRAMES = 100
SPARSE_BASE_FRAMES = 50
SPARSE_FRAMES = 3000


def _bounce(start: float, velocity: float, frame: int, span: float) -> float:
    """Position on [0, span] of a point moving at constant speed and
    reflecting off both ends (a triangle wave)."""
    q = (start + velocity * frame) % (2.0 * span)
    return q if q <= span else 2.0 * span - q


def crowd_scene(seed: int, n_walkers: int = CROWD_WALKERS, n_frames: int = CROWD_FRAMES) -> AnnotationSet:
    """n_walkers pedestrians spread uniformly over a 1080p frame.

    Heights span 20 to 80 px, so some walkers are visible at the
    full-frame downscale and some only inside crops. Heights and starting
    positions are stratified (one walker per 1/n_walkers slice of the
    height range, at most one per cell of a grid over the frame), which
    halves how much mAP moves with the seed. Walkers bounce off the frame
    edges, which keeps the density constant.
    """
    rng = Random(seed)
    dims = SCENE_DIMS
    cols = round((n_walkers * dims.width / dims.height) ** 0.5)
    rows = -(-n_walkers // cols)
    cells = rng.sample(range(cols * rows), n_walkers)
    walkers = []
    for object_id, cell in enumerate(cells, start=1):
        height = 20.0 + 60.0 * (object_id - 1 + rng.random()) / n_walkers
        width = height * rng.uniform(0.35, 0.5)
        span_x = dims.width - width
        span_y = dims.height - height
        walkers.append((
            object_id, width, height, span_x, span_y,
            span_x * (cell % cols + rng.random()) / cols,
            span_y * (cell // cols + rng.random()) / rows,
            rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5),
        ))
    frames = []
    for frame in range(n_frames):
        row = []
        for object_id, width, height, span_x, span_y, x0, y0, vx, vy in walkers:
            x = _bounce(x0, vx, frame, span_x)
            y = _bounce(y0, vy, frame, span_y)
            row.append(GroundTruth(BoundingBox(x, y, x + width, y + height), object_id, PEDESTRIAN_CATEGORY))
        frames.append(tuple(row))
    scene = AnnotationSet(dims=dims, frames=tuple(frames))
    check_constant_walkers(scene, n_walkers)
    return scene


def sparse_scene(seed: int, n_frames: int = SPARSE_FRAMES) -> AnnotationSet:
    """The 50-frame low_resolution scene replayed forward then backward.

    The seed picks where in the forward/backward cycle frame 0 starts.
    """
    base = low_resolution_scene(SPARSE_BASE_FRAMES)
    period = 2 * (SPARSE_BASE_FRAMES - 1)
    frames = []
    for frame in range(n_frames):
        phase = (seed + frame) % period
        frames.append(base.frames[phase if phase < SPARSE_BASE_FRAMES else period - phase])
    scene = AnnotationSet(dims=base.dims, frames=tuple(frames))
    check_constant_walkers(scene, len(base.frames[0]))
    return scene


def check_constant_walkers(scene: AnnotationSet, expected: int) -> None:
    """Raise unless every frame holds the same `expected` objects, each
    counted by evaluation and lying wholly inside the frame."""
    frame_rect = scene.dims.rect
    ids = None
    for index in range(scene.frame_count):
        boxes = scene.eval_boxes(index)
        frame_ids = {gt.object_id for gt in boxes}
        if len(boxes) != expected or len(frame_ids) != expected:
            raise ValueError(f"frame {index}: {len(boxes)} walkers, expected {expected}")
        if ids is not None and frame_ids != ids:
            raise ValueError(f"frame {index}: walker ids changed")
        ids = frame_ids
        if not all(frame_rect.contains(gt.box) for gt in boxes):
            raise ValueError(f"frame {index}: a walker left the frame")
