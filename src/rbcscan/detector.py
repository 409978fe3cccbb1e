"""Stochastic detector oracle driven by empirical AP profiles.

When no real detection files are available, `sample_detections` stands in
for the camera-side detector: each receiver yields exactly one detection
whose box center lands in the receiver's true scan cell with probability
equal to the profile's AP at the chosen IoU threshold, and in a uniformly
chosen other cell otherwise. Correct detections score uniform [0.8, 1.0],
wrong ones uniform [0.5, 0.8]; both distributions are overridable.

The bundled profile under ``profiles/`` is an approximate reconstruction
(see its ``notes`` field); only its anchor points are backed by reported
measurements.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import DomainError, UsageError
from .geometry import CellGrid, bbox_center, cell_of_point
from .metrics import BBox, Detection, GroundTruthObject

#: Score ranges for synthesized detections, (low, high).
CORRECT_SCORE_RANGE = (0.8, 1.0)
WRONG_SCORE_RANGE = (0.5, 0.8)


@dataclass(frozen=True)
class DetectorProfile:
    """Empirical behavior of a detector: latency and AP curves.

    ``ap_vs_iou`` holds (iou_threshold, ap) knots with strictly increasing
    thresholds and non-increasing ap; ``ap_vs_distance`` holds
    (distance_cm, image_size_tag, ap) triples.
    """

    name: str
    per_image_latency_s: float
    ap_vs_iou: tuple[tuple[float, float], ...]
    ap_vs_distance: tuple[tuple[float, str, float], ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if self.per_image_latency_s < 0:
            raise DomainError(f"per_image_latency_s must be >= 0, got {self.per_image_latency_s}")
        if not self.ap_vs_iou:
            raise DomainError("ap_vs_iou must have at least one knot")
        prev_t, prev_ap = None, None
        for t, ap in self.ap_vs_iou:
            if not 0.0 <= ap <= 1.0:
                raise DomainError(f"ap value {ap} outside [0, 1] in ap_vs_iou")
            if prev_t is not None and t <= prev_t:
                raise DomainError(f"ap_vs_iou thresholds must be strictly increasing at {t}")
            if prev_ap is not None and ap > prev_ap:
                raise DomainError(f"ap_vs_iou must be non-increasing, rises to {ap} at {t}")
            prev_t, prev_ap = t, ap
        for dist, tag, ap in self.ap_vs_distance:
            if dist <= 0:
                raise DomainError(f"distance {dist} in ap_vs_distance must be > 0")
            if not tag:
                raise DomainError("image_size_tag in ap_vs_distance must be non-empty")
            if not 0.0 <= ap <= 1.0:
                raise DomainError(f"ap value {ap} outside [0, 1] in ap_vs_distance")


@dataclass(frozen=True)
class FrameworkBenchmark:
    """COCO-benchmark results for a detection framework."""

    name: str
    backbone: str
    coco_map: float
    coco_ap_small: float
    per_image_latency_s: float


#: Reference comparison of the four mainstream frameworks (COCO dataset,
#: Tesla M40): mean AP, small-object AP, per-image detection time.
FRAMEWORK_BENCHMARKS: tuple[FrameworkBenchmark, ...] = (
    FrameworkBenchmark("faster-rcnn", "ResNet-101-FPN", 0.362, 0.182, 0.175),
    FrameworkBenchmark("mask-rcnn", "ResNet-101-FPN", 0.382, 0.201, 0.195),
    FrameworkBenchmark("ssd513", "ResNet-101", 0.312, 0.102, 0.125),
    FrameworkBenchmark("yolov3", "Darknet-53", 0.330, 0.183, 0.051),
)


@dataclass(frozen=True)
class SyntheticScene:
    """A coverage grid plus receivers (ground truth box, distance in cm)."""

    grid: CellGrid
    receivers: tuple[tuple[GroundTruthObject, float], ...]

    def __post_init__(self) -> None:
        for gt, dist in self.receivers:
            b = gt.bbox
            if b.x < 0 or b.y < 0 or b.x + b.w > self.grid.image_width or b.y + b.h > self.grid.image_height:
                raise DomainError(
                    f"receiver box for image {gt.image_id!r} exceeds the "
                    f"{self.grid.image_width}x{self.grid.image_height} image"
                )
            if dist <= 0:
                raise DomainError(f"receiver distance must be > 0, got {dist}")


def ap_at(profile: DetectorProfile, iou_threshold: float) -> float:
    """AP at an IoU threshold, piecewise-linear between the profile's knots."""
    knots = profile.ap_vs_iou
    lo, hi = knots[0][0], knots[-1][0]
    if not lo <= iou_threshold <= hi:
        raise DomainError(
            f"iou_threshold {iou_threshold} outside profile range [{lo}, {hi}]"
        )
    xs = [t for t, _ in knots]
    i = bisect_left(xs, iou_threshold)
    if i < len(xs) and xs[i] == iou_threshold:
        return knots[i][1]
    x0, y0 = knots[i - 1]
    x1, y1 = knots[i]
    return y0 + (iou_threshold - x0) * (y1 - y0) / (x1 - x0)


def builtin_profile_names() -> tuple[str, ...]:
    """Names of the profiles bundled with the package."""
    root = resources.files(__package__).joinpath("profiles")
    return tuple(
        sorted(
            p.name[: -len(".json")].replace("_", "-")
            for p in root.iterdir()
            if p.name.endswith(".json")
        )
    )


def builtin_profile(name: str = "mask-rcnn-smartphone") -> DetectorProfile:
    """Load a bundled profile by name."""
    fname = name.replace("-", "_") + ".json"
    path = resources.files(__package__).joinpath("profiles").joinpath(fname)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(
            f"unknown builtin profile {name!r}; available: {', '.join(builtin_profile_names())}"
        ) from None
    return DetectorProfile(
        name=payload["name"],
        per_image_latency_s=payload["per_image_latency_s"],
        ap_vs_iou=tuple((float(t), float(ap)) for t, ap in payload["ap_vs_iou"]),
        ap_vs_distance=tuple(
            (float(d), str(tag), float(ap)) for d, tag, ap in payload.get("ap_vs_distance", [])
        ),
        notes=payload.get("notes", ""),
    )


def sample_detections(
    scene: SyntheticScene,
    profile: DetectorProfile,
    iou_threshold: float,
    rng_seed: int,
    correct_score_range: tuple[float, float] = CORRECT_SCORE_RANGE,
    wrong_score_range: tuple[float, float] = WRONG_SCORE_RANGE,
) -> list[Detection]:
    """Synthesize one detection per receiver, right or wrong per the profile.

    A right detection keeps the receiver's box object; a wrong one moves the
    box center to the center of a uniformly chosen other cell. Draw order is
    fixed (four arrays: correctness uniforms, wrong-cell picks, correct
    scores, wrong scores), so output is fully determined by
    (scene, profile, iou_threshold, rng_seed).

    The wrong detections' true cells, shifted cells and moved corners are
    computed as arrays over the wrong subset, with the float operations of
    `cell_of_point`, `cell_center` and `BBox(cx - w / 2, ...)` in the same
    order, so every value is bit-identical to mapping one receiver at a
    time. A wrong receiver whose center lies off the image (a zero-width
    box on the right edge) raises `cell_of_point`'s DomainError, after the
    detections of the receivers before it are built.
    """
    p = ap_at(profile, iou_threshold)
    grid = scene.grid
    n_cells = grid.n_cells
    if n_cells < 2 and p < 1.0:
        raise UsageError("a grid with a single cell cannot host a wrong detection")
    receivers = scene.receivers
    n = len(receivers)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    correct = rng.random(n) < p
    wrong_raw = rng.integers(0, max(1, n_cells - 1), size=n)
    correct_scores = rng.uniform(*correct_score_range, size=n)
    wrong_scores = rng.uniform(*wrong_score_range, size=n)

    wrong = np.flatnonzero(~correct)
    boxes = [receivers[i][0].bbox for i in wrong.tolist()]
    xywh = np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)
    w, h = xywh[:, 2], xywh[:, 3]
    cx = xywh[:, 0] + w / 2
    cy = xywh[:, 1] + h / 2
    width, height, cols, rows = grid.image_width, grid.image_height, grid.cols, grid.rows
    inside = (0 <= cx) & (cx < width) & (0 <= cy) & (cy < height)
    stop = n if inside.all() else int(wrong[inside.argmin()])
    # Off-image centers (NaN included) stand at 0 so the integer casts stay
    # defined; no detection is built from them.
    col = np.minimum(cols - 1, np.floor(np.where(inside, cx, 0) * cols / width)).astype(np.int64)
    row = np.minimum(rows - 1, np.floor(np.where(inside, cy, 0) * rows / height)).astype(np.int64)
    true_cell = row * cols + col
    wrong_cell = wrong_raw[wrong]
    wrong_cell += wrong_cell >= true_cell
    wrong_row, wrong_col = np.divmod(wrong_cell, cols)
    det_x = (wrong_col + 0.5) * width / cols - w / 2
    det_y = (wrong_row + 0.5) * height / rows - h / 2

    det_boxes = [gt.bbox for gt, _dist in receivers[:stop]]
    for i, b, x, y in zip(wrong.tolist(), boxes, det_x.tolist(), det_y.tolist()):
        if i >= stop:
            break
        det_boxes[i] = BBox(x, y, b.w, b.h)
    scores = np.where(correct, correct_scores, wrong_scores).tolist()
    # Positional arguments: keywords cost a sixth of the loop.
    out = [
        Detection(gt.image_id, box, score, gt.class_label)
        for (gt, _dist), box, score in zip(receivers, det_boxes, scores)
    ]
    if stop < n:
        cell_of_point(grid, *bbox_center(receivers[stop][0].bbox))
    return out


def _nearest_cell(grid: CellGrid, x: float, y: float) -> int:
    """The cell nearest to a point off the image: the point clamped into it.

    The far edges are clamped to the largest coordinates inside the image,
    which cell_of_point excludes from it. A NaN coordinate passes min() and
    max() unchanged, so cell_of_point rejects it.
    """
    x = min(max(x, 0.0), math.nextafter(grid.image_width, 0))
    y = min(max(y, 0.0), math.nextafter(grid.image_height, 0))
    return cell_of_point(grid, x, y)


def detections_to_candidates(dets: Sequence[Detection], grid: CellGrid) -> list[int]:
    """Candidate scan cells from detections on one image.

    Detection centers map to cell indices; duplicates collapse to the
    first occurrence after ordering by descending score (ties keep input
    order). A detection box may extend past the image, so a center off the
    image maps to the nearest edge cell; a NaN center raises DomainError.
    """
    if len({d.image_id for d in dets}) > 1:
        raise UsageError("detections_to_candidates expects detections from a single image")
    cols, rows = grid.cols, grid.rows
    width, height = grid.image_width, grid.image_height
    seen: set[int] = set()
    out: list[int] = []
    for d in sorted(dets, key=attrgetter("score"), reverse=True):
        b = d.bbox
        x = b.x + b.w / 2
        y = b.y + b.h / 2
        if 0 <= x < width and 0 <= y < height:
            # cell_of_point's arithmetic, inline because it runs per detection.
            col = math.floor(x * cols / width)
            row = math.floor(y * rows / height)
            cell = (row if row < rows else rows - 1) * cols + (col if col < cols else cols - 1)
        else:
            cell = _nearest_cell(grid, x, y)
        if cell not in seen:
            seen.add(cell)
            out.append(cell)
    return out
