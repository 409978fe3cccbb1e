"""Stochastic detector oracle driven by empirical AP profiles.

When no real detection files are available, `sample_detections` stands in
for the camera-side detector: each receiver yields exactly one detection
whose box center lands in the receiver's true scan cell with probability
equal to the profile's AP at the chosen IoU threshold, and in a uniformly
chosen other cell otherwise. Correct detections score uniform
`CORRECT_SCORE_RANGE` [0.8, 1.0], wrong ones uniform `WRONG_SCORE_RANGE`
[0.5, 0.8].

The bundled profile under ``profiles/`` is an approximate reconstruction
(see its ``notes`` field); only its anchor points are backed by reported
measurements.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter, itemgetter
from typing import Sequence

import numpy as np

from .errors import DomainError, UsageError, number
from .geometry import CellGrid, cell_of_point
from .metrics import BBox, Detection, GroundTruthObject, _box_array

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
        number(self.per_image_latency_s, "per_image_latency_s", DomainError, "finite and >= 0")
        if not self.ap_vs_iou:
            raise DomainError("ap_vs_iou must have at least one knot")
        prev_t, prev_ap = -math.inf, math.inf
        for i, (t, ap) in enumerate(self.ap_vs_iou):
            number(t, f"ap_vs_iou[{i}] threshold", DomainError, "finite")
            number(ap, f"ap_vs_iou[{i}] ap", DomainError, "within [0, 1]")
            if not t > prev_t:
                raise DomainError(f"ap_vs_iou thresholds must be strictly increasing at {t}")
            if ap > prev_ap:
                raise DomainError(f"ap_vs_iou must be non-increasing, rises to {ap} at {t}")
            prev_t, prev_ap = t, ap
        for i, (dist, tag, ap) in enumerate(self.ap_vs_distance):
            number(dist, f"ap_vs_distance[{i}] distance", DomainError, "finite and > 0")
            if not tag:
                raise DomainError("image_size_tag in ap_vs_distance must be non-empty")
            number(ap, f"ap_vs_distance[{i}] ap", DomainError, "within [0, 1]")


@dataclass(frozen=True)
class SyntheticScene:
    """A coverage grid plus receivers (ground truth box, distance in cm)."""

    grid: CellGrid
    receivers: tuple[tuple[GroundTruthObject, float], ...]

    def __post_init__(self) -> None:
        # One pass over all receivers, as float64 like sample_detections'
        # arithmetic; NaN fails every comparison. The first bad receiver is
        # reported, its box checked before its distance.
        receivers = self.receivers
        n = len(receivers)
        x, y, w, h = _box_array(map(attrgetter("bbox"), map(itemgetter(0), receivers)), n).T
        dist = np.fromiter(map(itemgetter(1), receivers), np.float64, n)
        width, height = self.grid.image_width, self.grid.image_height
        box_ok = (0 <= x) & (0 <= y) & (0 <= w) & (0 <= h)
        box_ok &= (x + w <= width) & (y + h <= height)
        bad = ~(box_ok & (dist > 0))
        if bad.any():
            i = int(bad.argmax())
            if not box_ok[i]:
                raise DomainError(
                    f"receiver box for image {receivers[i][0].image_id!r} exceeds the "
                    f"{width}x{height} image"
                )
            raise DomainError(f"receiver distance must be > 0, got {receivers[i][1]}")


def ap_at(profile: DetectorProfile, iou_threshold: float) -> float:
    """AP at an IoU threshold, piecewise-linear between the profile's knots."""
    number(iou_threshold, "iou_threshold", DomainError)
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
    """Load a bundled profile by name, through the profile file parser."""
    from .formats import parse_profile  # formats imports this module

    fname = name.replace("-", "_") + ".json"
    path = resources.files(__package__).joinpath("profiles").joinpath(fname)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(
            f"unknown builtin profile {name!r}; available: {', '.join(builtin_profile_names())}"
        ) from None
    return parse_profile(text)


def sample_detections(
    scene: SyntheticScene,
    profile: DetectorProfile,
    iou_threshold: float,
    rng_seed: int,
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
    box on the right edge) raises `cell_of_point`'s DomainError.
    """
    rng_seed = number(rng_seed, "seed", UsageError, ">= 0", integral=True)
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
    correct_scores = rng.uniform(*CORRECT_SCORE_RANGE, size=n)
    wrong_scores = rng.uniform(*WRONG_SCORE_RANGE, size=n)

    wrong = np.flatnonzero(~correct)
    wrong_ids = wrong.tolist()
    gts = list(map(itemgetter(0), receivers))
    det_boxes = list(map(attrgetter("bbox"), gts))
    boxes = [det_boxes[i] for i in wrong_ids]
    xywh = _box_array(boxes, len(boxes))
    w, h = xywh[:, 2], xywh[:, 3]
    cx = xywh[:, 0] + w / 2
    cy = xywh[:, 1] + h / 2
    width, height, cols, rows = grid.image_width, grid.image_height, grid.cols, grid.rows
    inside = (0 <= cx) & (cx < width) & (0 <= cy) & (cy < height)
    if not inside.all():
        k = inside.argmin()
        cell_of_point(grid, float(cx[k]), float(cy[k]))
    col = np.minimum(cols - 1, np.floor(cx * cols / width)).astype(np.int64)
    row = np.minimum(rows - 1, np.floor(cy * rows / height)).astype(np.int64)
    true_cell = row * cols + col
    wrong_cell = wrong_raw[wrong]
    wrong_cell += wrong_cell >= true_cell
    wrong_row, wrong_col = np.divmod(wrong_cell, cols)
    det_x = (wrong_col + 0.5) * width / cols - w / 2
    det_y = (wrong_row + 0.5) * height / rows - h / 2

    scores = np.where(correct, correct_scores, wrong_scores)
    ok = (0.0 <= scores) & (scores <= 1.0)
    if not ok.all():
        raise DomainError(f"detection score must be within [0, 1], got {scores[ok.argmin()]}")
    # The scene holds every box to w, h >= 0 and the scores are checked, so
    # the records are built without their constructors' checks. A moved box
    # keeps the receiver box's own w and h, which may be ints.
    new = tuple.__new__
    for i, (_, _, bw, bh), x, y in zip(wrong_ids, boxes, det_x.tolist(), det_y.tolist()):
        det_boxes[i] = new(BBox, (x, y, bw, bh))
    return [
        new(Detection, (gt.image_id, box, score, gt.class_label))
        for gt, box, score in zip(gts, det_boxes, scores.tolist())
    ]


def _center_cell(grid: CellGrid, box: BBox) -> int:
    """The cell holding a box's center, or the nearest cell to a center off the image.

    The box is read by unpacking, so a plain (x, y, w, h) tuple works too.
    The far edges are clamped to the largest coordinates inside the image,
    which cell_of_point excludes from it. A NaN coordinate passes min() and
    max() unchanged, so cell_of_point rejects it.
    """
    left, top, w, h = box
    x = left + w / 2
    y = top + h / 2
    width, height = grid.image_width, grid.image_height
    if 0 <= x < width and 0 <= y < height:
        # cell_of_point's arithmetic, inline because it runs per detection.
        cols, rows = grid.cols, grid.rows
        col = math.floor(x * cols / width)
        row = math.floor(y * rows / height)
        return (row if row < rows else rows - 1) * cols + (col if col < cols else cols - 1)
    x = min(max(x, 0.0), math.nextafter(width, 0))
    y = min(max(y, 0.0), math.nextafter(height, 0))
    return cell_of_point(grid, x, y)


def detections_to_candidates(dets: Sequence[Detection], grid: CellGrid) -> list[int]:
    """Candidate scan cells from detections on one image.

    Detection centers map to cell indices; duplicates collapse to the
    first occurrence after ordering by descending score (ties keep input
    order). A detection box may extend past the image, so a center off the
    image maps to the nearest edge cell; a NaN center raises DomainError.
    A single detection maps straight to its cell.
    """
    if len(dets) == 1:
        (d,) = dets
        return [_center_cell(grid, d.bbox)]
    if len({d.image_id for d in dets}) > 1:
        raise UsageError("detections_to_candidates expects detections from a single image")
    ranked = sorted(dets, key=attrgetter("score"), reverse=True)
    return list(dict.fromkeys(_center_cell(grid, d.bbox) for d in ranked))
