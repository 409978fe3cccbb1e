"""Seeded input generation for the benchmark workloads.

Every workload runs the same three operations: ``rbcscan eval`` on a
generated annotation/detection pair, the detector -> candidate cell ->
scan pipeline on an array of true receiver cells, and ``rbcscan simulate``
on a generated scenario. The workloads differ in the shape of the eval
input, which is what decides where ``evaluate`` spends its time:

* ``eval-crowded``: many objects per image, one class. Per-image D x G
  matching dominates and ``iou`` is most of the profile.
* ``eval-sparse``: one or two objects per image, three classes, one
  background false positive per image. Per-image work is tiny; the time
  goes to regrouping per class and threshold, many small
  ``match_detections`` calls, ``average_precision`` on long flag lists
  and parsing.

The pipeline and simulate inputs depend on the seed only, so both
workloads run the same scan work for a given seed. This module uses
numpy and json only; the program under test receives nothing but the
files written here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

IMAGE_WIDTH = 1280
IMAGE_HEIGHT = 720
#: Ground-truth box sides are uniform on this range, so boxes fall on both
#: sides of the 32 px small-object cutoff.
BOX_SIDE_PX = (10.0, 150.0)

#: Grid and timing of the reference scenario (paper: N=64, T_s=2, T_d=0.2).
GRID_ROWS = 8
GRID_COLS = 8
T_SCAN_S = 2.0
T_DETECT_S = 0.2
SCENARIO_AP = 0.7
PROFILE = "mask-rcnn-smartphone"
PIPELINE_IOU = 0.5
#: Receiver box of the acceptance pipeline: a 14x7 cm phone at 120 cm.
RECEIVER_BOX_PX = (124.0, 62.0)

#: 2000 receivers per cell in all. A timed pipeline operation runs one
#: chunk; the warm-up runs every chunk, so the checks on the pooled mean
#: see all episodes and sit more than four standard errors from a false
#: failure.
PIPELINE_EPISODES = 128_000
PIPELINE_CHUNKS = 8
#: Trials per strategy; the 0.5% check on each mean is > 6 standard errors.
SIMULATE_TRIALS = 5_000_000

# Stream keys: each input is drawn from its own child of the run seed, so
# changing one workload's shape never changes another input.
_STREAM_EVAL = {"eval-crowded": 0, "eval-sparse": 1}
_STREAM_PLACEMENT = 2
_STREAM_DETECTOR = 3
_STREAM_SIMULATE = 4


@dataclass(frozen=True)
class EvalShape:
    """Shape of one generated eval input."""

    images: int
    gt_per_image: tuple[int, int]
    classes: tuple[str, ...]
    dets_per_gt: int
    background_fp_per_image: int


#: The two eval inputs, at a tenth of the image counts of the sizing
#: profile (250 x 20 and 10k x 1-2), so that each operation takes well under
#: a second and a run takes a median over dozens of them. Per-image density,
#: class mix and the ratio between the two inputs are unchanged.
WORKLOADS: dict[str, EvalShape] = {
    "eval-crowded": EvalShape(25, (20, 20), ("smartphone",), 2, 0),
    "eval-sparse": EvalShape(1000, (1, 2), ("smartphone", "tablet", "watch"), 2, 1),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def _random_box(rng: np.random.Generator) -> list[float]:
    w, h = (round(float(v), 2) for v in rng.uniform(*BOX_SIDE_PX, size=2))
    # The 1 px margin keeps x + w inside the image after rounding.
    x = round(float(rng.uniform(0.0, IMAGE_WIDTH - w - 1.0)), 2)
    y = round(float(rng.uniform(0.0, IMAGE_HEIGHT - h - 1.0)), 2)
    return [x, y, w, h]


def _jittered(rng: np.random.Generator, box: list[float]) -> list[float]:
    x, y, w, h = box
    dx, dy = rng.normal(0.0, 0.1, size=2)
    sw, sh = np.exp(rng.normal(0.0, 0.1, size=2))
    return [round(float(v), 2) for v in (x + dx * w, y + dy * h, w * sw, h * sh)]


def generate_eval(shape: EvalShape, rng: np.random.Generator, out_dir: Path) -> dict:
    """Write ``annotations.json`` and ``detections.json``; return their counts.

    ``pairs`` is the sum over (image, class) of detections x ground truth,
    the number of IoU evaluations one matching pass would need.
    """
    images, objects, detections = [], [], []
    pairs = 0
    for image_id in range(shape.images):
        images.append({"image_id": image_id, "width": IMAGE_WIDTH, "height": IMAGE_HEIGHT})
        per_class: dict[str, list[int]] = {}
        lo, hi = shape.gt_per_image
        for _ in range(int(rng.integers(lo, hi + 1))):
            label = shape.classes[int(rng.integers(len(shape.classes)))]
            box = _random_box(rng)
            objects.append({"image_id": image_id, "class_label": label, "bbox": box})
            counts = per_class.setdefault(label, [0, 0])
            counts[1] += 1
            for _ in range(shape.dets_per_gt):
                detections.append(
                    {
                        "image_id": image_id,
                        "class_label": label,
                        "bbox": _jittered(rng, box),
                        "score": round(float(rng.random()), 6),
                    }
                )
                counts[0] += 1
        for _ in range(shape.background_fp_per_image):
            label = shape.classes[int(rng.integers(len(shape.classes)))]
            detections.append(
                {
                    "image_id": image_id,
                    "class_label": label,
                    "bbox": _random_box(rng),
                    "score": round(float(rng.random()), 6),
                }
            )
            per_class.setdefault(label, [0, 0])[0] += 1
        pairs += sum(d * g for d, g in per_class.values())
    _write_json(out_dir / "annotations.json", {"images": images, "objects": objects})
    _write_json(out_dir / "detections.json", {"detections": detections})
    return {"objects": len(objects), "detections": len(detections), "pairs": pairs}


def generate(workload: str, seed: int, out_dir: Path, eval_shape: EvalShape | None = None) -> dict:
    """Write every input of one workload run into ``out_dir``.

    Returns the manifest: file paths, counts and the parameters that the
    operations need. The same (workload, seed, shape) always writes
    byte-identical files.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    shape = eval_shape or WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)

    eval_counts = generate_eval(shape, _rng(seed, _STREAM_EVAL[workload]), out_dir)

    n_cells = GRID_ROWS * GRID_COLS
    if PIPELINE_EPISODES % (n_cells * PIPELINE_CHUNKS):
        raise ValueError("PIPELINE_EPISODES must split evenly over cells and chunks")
    placement = _rng(seed, _STREAM_PLACEMENT).permutation(
        np.repeat(np.arange(n_cells, dtype=np.int64), PIPELINE_EPISODES // n_cells)
    )
    np.save(out_dir / "true_cells.npy", placement, allow_pickle=False)

    scenario = {
        "camera": {"focal_px": 1062.857142857143, "ref_width": IMAGE_WIDTH, "ref_height": IMAGE_HEIGHT},
        "grid": {"rows": GRID_ROWS, "cols": GRID_COLS, "image_width": IMAGE_WIDTH, "image_height": IMAGE_HEIGHT},
        "scan": {"n_cells": n_cells, "t_scan_s": T_SCAN_S, "t_detect_s": T_DETECT_S, "ap": SCENARIO_AP},
        "profile": PROFILE,
        "trials": SIMULATE_TRIALS,
        "seed": _derived_seed(seed, _STREAM_SIMULATE),
    }
    _write_json(out_dir / "scenario.json", scenario)

    return {
        "workload": workload,
        "seed": seed,
        "eval_shape": asdict(shape),
        "eval": eval_counts,
        "pipeline": {
            "episodes": PIPELINE_EPISODES,
            "grid": [GRID_ROWS, GRID_COLS, IMAGE_WIDTH, IMAGE_HEIGHT],
            "profile": PROFILE,
            "iou_threshold": PIPELINE_IOU,
            "chunks": PIPELINE_CHUNKS,
            "detector_seeds": [
                _derived_seed(seed, _STREAM_DETECTOR, chunk) for chunk in range(PIPELINE_CHUNKS)
            ],
        },
        "simulate": {"trials_per_strategy": SIMULATE_TRIALS, "seed": scenario["seed"]},
        "files": {
            "annotations": str(out_dir / "annotations.json"),
            "detections": str(out_dir / "detections.json"),
            "true_cells": str(out_dir / "true_cells.npy"),
            "scenario": str(out_dir / "scenario.json"),
        },
    }
