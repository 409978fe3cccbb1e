"""Acceptance suite: one test per headline requirement.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion. Tolerances are fixed here, not tuned elsewhere.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import test_scanning
from oracles import (
    ap_101point_oracle,
    expected_time_guided,
    expected_time_traditional,
    scan_count_law_guided,
    var_scans_guided,
)
from rbcscan.cli import main
from rbcscan.detector import _sample_cells, ap_at, builtin_profile
from rbcscan.formats import (
    emit_annotations,
    emit_detections,
    emit_profile,
    emit_scenario,
    parse_annotations,
    parse_detections,
    parse_profile,
    parse_scenario,
)
from rbcscan.geometry import (
    CellGrid,
    ReceiverSpec,
    project_size,
    reference_camera,
)
from rbcscan.metrics import (
    STANDARD_IOU_THRESHOLDS,
    BBox,
    Detection,
    GroundTruthObject,
    average_precision,
    evaluate,
    flip_augment,
    iou,
    match_detections,
)
from rbcscan.scanning import (
    ScanConfig,
    breakeven_ap,
    simulate_guided,
    simulate_traditional,
    t1_analytic,
    t2_analytic,
)

REFERENCE_CFG = ScanConfig(n_cells=64, t_scan_s=2.0, t_detect_s=0.2, ap=0.70)
SEED = 20240601


def _report(label: str) -> None:
    print(f"PASS: {label}")


def test_expected_time_formula_traditional():
    assert abs(t1_analytic(REFERENCE_CFG) - 65.0) <= 1e-12
    _report("traditional expected scan time is 65.0 s for N=64, T_s=2 (tol 1e-12)")


def test_expected_time_formula_guided_and_one_third():
    assert abs(t2_analytic(REFERENCE_CFG) - 21.4) <= 1e-12
    ratio = t2_analytic(REFERENCE_CFG) / t1_analytic(REFERENCE_CFG)
    assert ratio <= 1 / 3 + 0.01
    _report("guided expected scan time is 21.4 s and cuts the time to one third")


def test_monte_carlo_convergence_within_half_percent():
    start = time.perf_counter()
    traditional = simulate_traditional(REFERENCE_CFG, rng_seed=SEED, trials=1_000_000)
    guided = simulate_guided(REFERENCE_CFG, rng_seed=SEED, trials=1_000_000)
    elapsed = time.perf_counter() - start
    assert abs(traditional.mean_time_s - 65.0) / 65.0 <= 0.005
    assert abs(guided.mean_time_s - 21.4) / 21.4 <= 0.005
    assert elapsed < 10.0
    _report(
        "10^6-trial simulations land within 0.5% of 65.0 s and 21.4 s "
        f"in {elapsed:.2f} s"
    )


def test_small_grid_enumeration_matches_formulas_exactly():
    for n in (2, 3, 4, 5):
        for ts in (0.5, 1.0, 2.0):
            assert abs(t1_analytic(ScanConfig(n, ts)) - float(expected_time_traditional(n, ts))) <= 1e-12
            for td in (0.0, 0.2):
                for ap in (0.0, 0.25, 0.7, 1.0):
                    cfg = ScanConfig(n, ts, td, ap)
                    exact = float(expected_time_guided(n, ts, td, ap))
                    assert abs(t2_analytic(cfg) - exact) <= 1e-12
    _report("exhaustive small-N enumeration equals both formulas (tol 1e-12)")


def test_projected_sizes_match_reported_integers():
    cam = reference_camera()
    phone = ReceiverSpec(14.0, 7.0)
    full = project_size(cam, phone, 120, 1280, 720)
    assert abs(full.w_px - 124) <= 1
    assert abs(full.h_px - 62) <= 1
    half = project_size(cam, phone, 120, 640, 360)
    assert abs(half.w_px - 62) <= 1
    assert abs(half.h_px - 31) <= 1
    _report("calibrated camera reproduces 124x62 px (1280x720) and 62x31 px (640x360)")


def test_average_precision_matches_oracle_and_iou_axioms():
    # Every TP/FP pattern with <= 4 detections against <= 3 ground truths.
    for length in range(5):
        for flags in itertools.product([False, True], repeat=length):
            for total_gt in range(4):
                if sum(flags) > total_gt:
                    continue
                got = average_precision(list(flags), total_gt)
                want = ap_101point_oracle(list(flags), total_gt)
                assert abs(got - want) <= 1e-9

    # The same bound on box-level instances run through the matcher.
    rng = random.Random(SEED)
    for _ in range(200):
        n_gt, n_det = rng.randrange(0, 4), rng.randrange(0, 5)
        gts = [
            GroundTruthObject(image_id="img", bbox=BBox(rng.uniform(0, 60), rng.uniform(0, 60),
                                                        rng.uniform(5, 30), rng.uniform(5, 30)))
            for _ in range(n_gt)
        ]
        dets = [
            Detection(image_id="img", bbox=BBox(rng.uniform(0, 60), rng.uniform(0, 60),
                                                rng.uniform(5, 30), rng.uniform(5, 30)),
                      score=round(rng.random(), 3))
            for _ in range(n_det)
        ]
        result = match_detections(dets, gts, 0.5)
        order = sorted(range(n_det), key=lambda i: (-dets[i].score, i))
        flags = [result.tp_flags[i] for i in order]
        assert abs(average_precision(flags, n_gt) - ap_101point_oracle(flags, n_gt)) <= 1e-9

    for _ in range(10_000):
        a = BBox(rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(0, 60), rng.uniform(0, 60))
        b = BBox(rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(0, 60), rng.uniform(0, 60))
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)
        if a.area > 0:
            assert iou(a, a) == 1.0
    _report("AP equals the PR-enumeration oracle (tol 1e-9); IoU axioms on 10^4 pairs")


def test_default_thresholds_and_map_definition():
    assert STANDARD_IOU_THRESHOLDS == (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
    assert len(STANDARD_IOU_THRESHOLDS) == 10

    rng = random.Random(7)
    gts, dets = [], []
    for img in range(8):
        gts.append(GroundTruthObject(image_id=img, bbox=BBox(rng.uniform(0, 50), rng.uniform(0, 50), 25, 25)))
        dets.append(
            Detection(image_id=img,
                      bbox=BBox(gts[-1].bbox.x + rng.uniform(-6, 6), gts[-1].bbox.y + rng.uniform(-6, 6), 25, 25),
                      score=round(rng.random(), 3))
        )
    result = evaluate(dets, gts)
    assert tuple(result.ap_per_threshold) == STANDARD_IOU_THRESHOLDS
    mean = sum(result.ap_per_threshold.values()) / 10
    assert abs(result.map_value - mean) <= 1e-12
    _report("default IoU thresholds are exactly 0.50..0.95 step 0.05; mAP is their mean")


def _pipeline_scans(true_cells, candidates):
    """Scans to find each receiver: its candidate cell first, then the other
    cells in ascending order. A miss reaches the true cell t after t + 1
    scans, one fewer if the candidate lies below it, plus the candidate's."""
    return np.where(candidates == true_cells, 1, 2 + true_cells - (candidates < true_cells))


@pytest.mark.parametrize("ap", [0, Fraction(1, 3), 0.7, 1])
@pytest.mark.parametrize("n_cells", range(2, 9))
def test_pipeline_scan_count_follows_the_guided_law(n_cells, ap):
    # Every (true cell t, candidate c) pair against a literal scan order. t is
    # uniform; c is t with probability ap, else uniform over the other cells.
    p, q = Fraction(ap), (1 - Fraction(ap)) / (n_cells - 1)
    law = {}
    for t, c in itertools.product(range(n_cells), repeat=2):
        order = [c, *(k for k in range(n_cells) if k != c)]
        scans = int(_pipeline_scans(np.int64(t), np.int64(c)))
        assert scans == order.index(t) + 1
        law[scans] = law.get(scans, 0) + (p if c == t else q) / n_cells
    assert law == scan_count_law_guided(n_cells, ap)


def test_bundled_profile_and_end_to_end_pipeline():
    # The headline dataset-level scores cannot be recomputed without the
    # original images and model, so the bundled curve stands in: it must
    # average to 0.5766 over the standard thresholds and stay monotone.
    profile = builtin_profile()
    values = [ap for _, ap in profile.ap_vs_iou]
    assert tuple(t for t, _ in profile.ap_vs_iou) == STANDARD_IOU_THRESHOLDS
    assert abs(sum(values) / len(values) - 0.5766) <= 0.0001
    assert all(a >= b for a, b in zip(values, values[1:]))

    # End-to-end: the detector's candidate cells -> scan episodes, as
    # arrays, must reproduce the closed-form guided model within 1%.
    grid = CellGrid(8, 8, 1280, 720)
    episodes = 200_000
    placement = np.random.Generator(np.random.PCG64(SEED))
    true_cells = placement.integers(0, grid.n_cells, size=episodes)
    ap = ap_at(profile, 0.5)
    candidates, _ = _sample_cells(grid, true_cells, ap, SEED + 1)
    scans = _pipeline_scans(true_cells, candidates)
    t_scan_s = REFERENCE_CFG.t_scan_s
    pipeline_mean = REFERENCE_CFG.t_detect_s + t_scan_s * float(scans.mean())
    guided_mean = simulate_guided(REFERENCE_CFG, rng_seed=SEED + 2, trials=1_000_000).mean_time_s
    assert abs(pipeline_mean - guided_mean) / guided_mean <= 0.01
    # And within Z exact standard errors of T2 at the profile's AP.
    t2 = t2_analytic(REFERENCE_CFG._replace(ap=ap))
    stderr = t_scan_s * math.sqrt(var_scans_guided(grid.n_cells, ap) / episodes)
    z = test_scanning.TestExactSpread.Z
    assert abs(pipeline_mean - t2) <= z * stderr
    _report(
        "bundled curve averages 0.5766 and is monotone; detection pipeline mean "
        f"{pipeline_mean:.3f} s matches guided simulation {guided_mean:.3f} s within 1% "
        f"and T2 {t2:.3f} s within {z} standard errors"
    )


def test_breakeven_is_where_the_curves_cross():
    ap_star, in_range = breakeven_ap(REFERENCE_CFG)
    assert in_range
    # Verify by evaluating both formulas at the returned AP.
    crossing = ScanConfig(64, 2.0, 0.2, ap_star)
    assert abs(t2_analytic(crossing) - t1_analytic(crossing)) <= 1e-12
    # (T_d + T_s/2) / (N * T_s / 2) = 1.2 / 64.
    assert abs(ap_star - 0.01875) <= 1e-12
    _report("breakeven AP solves T2 = T1 (tol 1e-12): 0.01875 for the reference constants")


def test_formats_round_trip_and_augmentation(tmp_path, capsys):
    annotations = {
        "images": [
            {"image_id": "a", "width": 1280, "height": 720},
            {"image_id": "b", "width": 640, "height": 360},
        ],
        "objects": [
            {"image_id": "a", "class_label": "smartphone", "bbox": [100, 50, 124, 62]},
            {"image_id": "a", "class_label": "smartphone", "bbox": [700, 300, 118, 66]},
            {"image_id": "b", "class_label": "smartphone", "bbox": [10, 10, 62, 31]},
        ],
        "split": {"train": 1600, "dev": 800, "test": 800},
    }
    detections = {
        "detections": [
            {"image_id": "a", "class_label": "smartphone", "bbox": [99, 52, 125, 60], "score": 0.9}
        ]
    }
    scenario = {
        "camera": {"focal_px": 1062.857142857143, "ref_width": 1280, "ref_height": 720},
        "grid": {"rows": 8, "cols": 8, "image_width": 1280, "image_height": 720},
        "scan": {"n_cells": 64, "t_scan_s": 2.0, "t_detect_s": 0.2, "ap": 0.7},
        "profile": "mask-rcnn-smartphone",
        "trials": 1000,
        "seed": 1,
    }

    af = parse_annotations(json.dumps(annotations))
    assert parse_annotations(emit_annotations(af)) == af
    df = parse_detections(json.dumps(detections))
    assert parse_detections(emit_detections(df)) == df
    sc = parse_scenario(json.dumps(scenario))
    assert parse_scenario(emit_scenario(sc)) == sc
    profile = builtin_profile()
    assert parse_profile(emit_profile(profile)) == profile

    src = tmp_path / "annotations.json"
    src.write_text(json.dumps(annotations), encoding="utf-8")
    out = tmp_path / "doubled.json"
    assert main(["augment", "--annotations", str(src), "--output", str(out)]) == 0
    capsys.readouterr()
    doubled = parse_annotations(out.read_text(encoding="utf-8"))
    assert len(doubled.objects) == 2 * len(af.objects)
    assert len(doubled.images) == 2 * len(af.images)

    rng = random.Random(SEED)
    for _ in range(10_000):
        width = rng.randrange(50, 4000)
        w = rng.randrange(0, width + 1)
        x = rng.randrange(0, width - w + 1)
        gt = GroundTruthObject(image_id="r", bbox=BBox(x, rng.randrange(0, 999), w, rng.randrange(0, 500)))
        assert flip_augment(flip_augment(gt, width), width) == gt
    _report("all file formats round-trip; augmentation doubles counts; flip is an involution")
