"""The detector -> candidate -> scan pipeline as it was before the array rewrite.

Object-at-a-time code kept verbatim as a test oracle: ``sample_detections``
maps each wrong detection through ``cell_of_point`` and ``cell_center``,
``detections_to_candidates`` sorts an index list by negated score, and
``guided_multi_trial`` builds one ``ScanTrialResult`` per episode.
``ScanTrialResult`` and ``Strategy`` are kept with it, because the package no
longer has them. The functions of the same name in ``rbcscan.detector`` and
``rbcscan.scanning.simulate_guided_multi`` must agree with these.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from rbcscan.detector import (
    CORRECT_SCORE_RANGE,
    WRONG_SCORE_RANGE,
    DetectorProfile,
    SyntheticScene,
    ap_at,
)
from rbcscan.errors import DomainError, UsageError
from rbcscan.geometry import CellGrid, bbox_center, cell_center, cell_of_point
from rbcscan.metrics import BBox, Detection
from rbcscan.scanning import ScanConfig


def sample_detections(
    scene: SyntheticScene,
    profile: DetectorProfile,
    iou_threshold: float,
    rng_seed: int,
    correct_score_range: tuple[float, float] = CORRECT_SCORE_RANGE,
    wrong_score_range: tuple[float, float] = WRONG_SCORE_RANGE,
) -> list[Detection]:
    """Synthesize one detection per receiver, right or wrong per the profile.

    A right detection keeps the receiver's box; a wrong one moves the box
    center to the center of a uniformly chosen other cell. Draw order is
    fixed (four arrays: correctness uniforms, wrong-cell picks, correct
    scores, wrong scores), so output is fully determined by
    (scene, profile, iou_threshold, rng_seed).
    """
    p = ap_at(profile, iou_threshold)
    n_cells = scene.grid.n_cells
    if n_cells < 2 and p < 1.0:
        raise UsageError("a grid with a single cell cannot host a wrong detection")
    n = len(scene.receivers)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    correct = rng.random(n) < p
    wrong_raw = rng.integers(0, max(1, n_cells - 1), size=n)
    correct_scores = rng.uniform(*correct_score_range, size=n)
    wrong_scores = rng.uniform(*wrong_score_range, size=n)

    out: list[Detection] = []
    for i, (gt, _dist) in enumerate(scene.receivers):
        b = gt.bbox
        if correct[i]:
            det_box = b
            score = float(correct_scores[i])
        else:
            true_cell = cell_of_point(scene.grid, *bbox_center(b))
            wrong_cell = int(wrong_raw[i])
            if wrong_cell >= true_cell:
                wrong_cell += 1
            cx, cy = cell_center(scene.grid, wrong_cell)
            det_box = BBox(cx - b.w / 2, cy - b.h / 2, b.w, b.h)
            score = float(wrong_scores[i])
        out.append(
            Detection(image_id=gt.image_id, bbox=det_box, score=score, class_label=gt.class_label)
        )
    return out


def detections_to_candidates(dets: Sequence[Detection], grid: CellGrid) -> list[int]:
    """Candidate scan cells from detections on one image.

    Detection centers map to cell indices; duplicates collapse to the
    first occurrence after ordering by descending score (ties keep input
    order).
    """
    if len({d.image_id for d in dets}) > 1:
        raise UsageError("detections_to_candidates expects detections from a single image")
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    seen: set[int] = set()
    out: list[int] = []
    for i in order:
        cell = cell_of_point(grid, *bbox_center(dets[i].bbox))
        if cell not in seen:
            seen.add(cell)
            out.append(cell)
    return out


class Strategy(str, Enum):
    TRADITIONAL = "traditional"
    GUIDED = "guided"


@dataclass(frozen=True)
class ScanTrialResult:
    """One simulated localization episode.

    ``elapsed_s`` equals cells_scanned * T_s, plus T_d for guided
    strategies; constructors uphold this, so it is only spot-checked
    here.
    """

    cells_scanned: int
    elapsed_s: float
    found: bool
    strategy: Strategy

    def __post_init__(self) -> None:
        if self.cells_scanned < 1:
            raise DomainError(f"cells_scanned must be >= 1, got {self.cells_scanned}")
        if self.elapsed_s < 0:
            raise DomainError(f"elapsed_s must be >= 0, got {self.elapsed_s}")


def _validate_multi(cfg: ScanConfig, candidate_cells: Sequence[int], true_cells: Iterable[int]) -> set[int]:
    if not candidate_cells:
        raise UsageError("candidate_cells must be non-empty")
    if len(set(candidate_cells)) != len(candidate_cells):
        raise UsageError(f"candidate_cells must be distinct, got {list(candidate_cells)}")
    for c in candidate_cells:
        if not 0 <= c < cfg.n_cells:
            raise UsageError(f"candidate cell {c} outside grid of {cfg.n_cells} cells")
    tset = set(true_cells)
    if not tset:
        raise UsageError("true_cells must be non-empty")
    for t in tset:
        if not 0 <= t < cfg.n_cells:
            raise UsageError(f"true cell {t} outside grid of {cfg.n_cells} cells")
    return tset


def guided_multi_trial(
    cfg: ScanConfig,
    candidate_cells: Sequence[int],
    true_cells: Iterable[int],
) -> ScanTrialResult:
    """One multi-candidate episode: candidates in list order, then the rest.

    Cells are 0-based row-major indices. After the candidates, the
    remaining cells are scanned in ascending index order; the episode ends
    at the first cell that holds a receiver. Detection time is charged
    once.
    """
    tset = _validate_multi(cfg, candidate_cells, true_cells)
    best = None
    for pos, c in enumerate(candidate_cells, start=1):
        if c in tset:
            best = pos
            break
    if best is None:
        # No candidate held a receiver, so every true cell sits in the
        # ascending remainder; cell t ranks t + 1 minus the number of
        # candidates below it.
        sorted_cands = sorted(candidate_cells)
        best = len(candidate_cells) + min(
            t + 1 - bisect_left(sorted_cands, t) for t in tset
        )
    return ScanTrialResult(
        cells_scanned=best,
        elapsed_s=cfg.t_detect_s + best * cfg.t_scan_s,
        found=True,
        strategy=Strategy.GUIDED,
    )
