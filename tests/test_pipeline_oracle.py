"""Property tests: the array-backed pipeline against the object-at-a-time oracle.

``legacy_pipeline`` holds ``sample_detections``, ``detections_to_candidates``
and ``guided_multi_trial`` as they were before the rewrite. Inputs are drawn
to hit the cases where array code could drift from the scalar code: grids
from 1 x 2 to 8 x 8 on odd image sizes, integer and float boxes on every
image edge (a zero-width box on the right edge has its center off the
image), profiles whose AP is 0, 1 or a knot of the bundled curve, tied
scores, and candidate lists that are empty, repeated or out of the grid.
A scene takes few draws: its grid, its receiver count (0 to 12) and a seed,
from which plain Python builds every box, so no drawn scene is rejected.
Single candidates and single detections, the pipeline's own shape, get
properties of their own, with NaN cells and centres on and off the image.
The array sampler under ``sample_detections``, ``_sample_cells``, is checked
draw for draw: its cells and scores are the legacy detections'.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import legacy_pipeline as legacy
from rbcscan.detector import (
    DetectorProfile,
    SyntheticScene,
    _sample_cells,
    ap_at,
    builtin_profile,
    detections_to_candidates,
    sample_detections,
)
from rbcscan.errors import RbcScanError, UsageError
from rbcscan.geometry import CellGrid, cell_of_point
from rbcscan.metrics import STANDARD_IOU_THRESHOLDS, BBox, Detection, GroundTruthObject
from rbcscan.scanning import ScanConfig, simulate_guided_multi


def _outcome(fn, *args, **kwargs):
    """The value a call returns, or the class and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except RbcScanError as e:
        return type(e), str(e)


def _constant_profile(ap):
    return DetectorProfile(name=f"ap-{ap}", per_image_latency_s=0.2, ap_vs_iou=((0.5, ap),))


# (profile, iou_threshold) pairs: AP 0, AP 1 and every knot of the bundled curve.
_profiles = st.one_of(
    st.tuples(st.sampled_from([_constant_profile(0.0), _constant_profile(1.0)]), st.just(0.5)),
    st.tuples(st.just(builtin_profile()), st.sampled_from(STANDARD_IOU_THRESHOLDS)),
)


@st.composite
def _grids(draw):
    rows = draw(st.integers(1, 8))
    return CellGrid(
        rows=rows,
        cols=draw(st.integers(2 if rows == 1 else 1, 8)),
        image_width=draw(st.sampled_from([1, 7, 200, 641, 1280])),
        image_height=draw(st.sampled_from([1, 5, 100, 359, 720])),
    )


def _span(rng, extent):
    """(start, length) of a box side inside [0, extent], often on an edge."""
    length = rng.choice((0, 0.0, extent, rng.randint(0, extent), rng.uniform(0, extent)))
    start = rng.choice((0, extent - length, rng.uniform(0, extent - length)))
    # Where the far end rounds past the edge, the box starts on the near one.
    return (start if start + length <= extent else 0), length


@st.composite
def _scenes(draw):
    grid, n, rng = draw(_grids()), draw(st.integers(0, 12)), random.Random(draw(st.integers()))
    receivers = []
    for i in range(n):
        (x, w), (y, h) = _span(rng, grid.image_width), _span(rng, grid.image_height)
        label = rng.choice(["smartphone", "tablet"])
        receivers.append((GroundTruthObject(image_id=i, bbox=BBox(x, y, w, h), class_label=label), 120.0))
    return SyntheticScene(grid=grid, receivers=tuple(receivers))


def _clamped(scene):
    """The scene with each box centre on the right or bottom image edge moved
    just inside it, box sizes kept; the scene's own check is skipped."""
    grid = scene.grid
    receivers = []
    for gt, dist in scene.receivers:
        b = gt.bbox
        x, y = b.x + b.w / 2, b.y + b.h / 2
        xc = min(x, math.nextafter(grid.image_width, 0))
        yc = min(y, math.nextafter(grid.image_height, 0))
        if (xc, yc) != (x, y):
            gt = gt._replace(bbox=BBox(xc - b.w / 2, yc - b.h / 2, b.w, b.h))
        receivers.append((gt, dist))
    return tuple.__new__(SyntheticScene, (grid, tuple(receivers)))


@settings(max_examples=200)
@given(_scenes(), _profiles, st.integers(0, 2**63))
def test_sample_detections_matches_legacy(scene, profile_at, seed):
    profile, iou_threshold = profile_at
    new = _outcome(sample_detections, scene, profile, iou_threshold, seed)
    old = _outcome(legacy.sample_detections, scene, profile, iou_threshold, seed)
    event("raises" if isinstance(old, tuple) else "returns")
    if isinstance(old, tuple) and "outside image" in old[1]:
        # The legacy code rejects a wrong receiver centred on the far edge;
        # the package maps it to the last column or row, which legacy finds
        # for the centre clamped into the image. A correct detection keeps
        # its own receiver's box.
        event("edge")
        clamped = _clamped(scene)
        old = [
            d._replace(bbox=gt.bbox) if d.bbox is moved.bbox else d
            for d, (gt, _), (moved, _) in zip(
                legacy.sample_detections(clamped, profile, iou_threshold, seed),
                scene.receivers,
                clamped.receivers,
            )
        ]
    assert new == old
    # repr tells 1 from 1.0 and prints every float digit.
    assert repr(new) == repr(old)


@settings(max_examples=15)
@given(_scenes(), _profiles, st.integers(0, 2**63))
def test_sample_cells_matches_legacy_draw_for_draw(scene, profile_at, seed):
    # Legacy takes a centre on the far edge only once it is clamped into the
    # image; the package's true cell for that centre is the clamped one's.
    profile, iou_threshold = profile_at
    grid, clamped = scene.grid, _clamped(scene)
    old = legacy.sample_detections(clamped, profile, iou_threshold, seed)
    true_cells = np.array(
        [cell_of_point(grid, *legacy._center(gt.bbox)) for gt, _ in clamped.receivers],
        dtype=np.int64,
    )
    cells, scores = _sample_cells(grid, true_cells, ap_at(profile, iou_threshold), seed)
    assert cells.tolist() == [cell_of_point(grid, *legacy._center(d.bbox)) for d in old]
    assert scores.tolist() == [d.score for d in old]
    # The records' own cells are the sampler's.
    dets = sample_detections(scene, profile, iou_threshold, seed)
    assert [detections_to_candidates([d], grid) for d in dets] == [[c] for c in cells.tolist()]


def test_sample_detections_single_cell_grid_matches_legacy():
    grid = CellGrid(1, 1, 200, 100)
    scene = SyntheticScene(grid, ((GroundTruthObject(0, BBox(50, 25, 100, 50)), 120.0),))
    for ap in (0.0, 0.5, 1.0):
        args = (scene, _constant_profile(ap), 0.5, 3)
        assert repr(_outcome(sample_detections, *args)) == repr(
            _outcome(legacy.sample_detections, *args)
        )


@given(_scenes(), _profiles, st.integers(0, 2**63))
def test_sample_detections_builds_valid_records(scene, profile_at, seed):
    profile, iou_threshold = profile_at
    try:
        dets = sample_detections(scene, profile, iou_threshold, seed)
    except RbcScanError:
        return
    for det in dets:
        assert type(det) is Detection and det == Detection(*det)
        assert type(det.bbox) is BBox and det.bbox == BBox(*det.bbox)


_cells = st.integers(-2, 20)


@given(
    st.integers(1, 16),
    st.lists(_cells, max_size=6),
    st.sets(_cells, max_size=4),
    st.sampled_from([0.0, 0.2, 0.25]),
    st.sampled_from([0.5, 1.0, 2.0, 0.1]),
)
def test_simulate_guided_multi_matches_legacy_episode(n_cells, candidates, true_cells, t_detect, t_scan):
    cfg = ScanConfig(n_cells, t_scan, t_detect)
    new = _outcome(simulate_guided_multi, cfg, candidates, true_cells, rng_seed=0, trials=3)
    old = _outcome(legacy.guided_multi_trial, cfg, candidates, true_cells)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert (new.mean_time_s, new.trials, new.stderr_s) == (old.elapsed_s, 3, 0.0)


@given(st.integers(1, 64), st.data())
def test_simulate_guided_multi_matches_legacy_on_valid_episodes(n_cells, data):
    candidates = data.draw(st.lists(st.integers(0, n_cells - 1), min_size=1, unique=True))
    true_cells = data.draw(st.sets(st.integers(0, n_cells - 1), min_size=1))
    cfg = ScanConfig(n_cells, 2.0, 0.2)
    summary = simulate_guided_multi(cfg, candidates, true_cells, rng_seed=0, trials=1)
    assert summary.mean_time_s == legacy.guided_multi_trial(cfg, candidates, true_cells).elapsed_s


# How a caller may pass true cells: a set, a list or a one-shot generator.
_containers = st.sampled_from([set, list, lambda cells: (c for c in cells)])


@given(
    st.integers(1, 16),
    st.data(),
    _containers,
    st.sampled_from([0.0, 0.2]),
    st.sampled_from([0.5, 2.0, 0.1]),
)
def test_simulate_guided_multi_one_candidate_matches_legacy(
    n_cells, data, container, t_detect, t_scan
):
    # Mostly cells in the grid, else just outside it, NaN or a float.
    odd = st.sampled_from([-1, n_cells, math.nan, 2.0, 2.5])
    cell = st.one_of(st.integers(0, n_cells - 1), odd)
    candidate = data.draw(cell)
    true_cells = data.draw(st.one_of(st.lists(cell, min_size=1, max_size=3), st.just([])))
    cfg = ScanConfig(n_cells, t_scan, t_detect)
    new = _outcome(simulate_guided_multi, cfg, [candidate], container(true_cells), 0, 1)
    old = _outcome(legacy.guided_multi_trial, cfg, [candidate], container(true_cells))
    if isinstance(old, tuple):
        event("raises")
        assert new == old
    else:
        event("hit" if candidate in true_cells else "miss")
        assert new == (1, old.elapsed_s, 0.0, None)
        assert repr(new.mean_time_s) == repr(old.elapsed_s)


@pytest.mark.parametrize("container", [set, list, iter])
@pytest.mark.parametrize("candidate", [3, 5])
def test_simulate_guided_multi_one_candidate_rejects_nan_true_cell(container, candidate):
    # min() and max() over {3, nan} can both return 3; only a test of each
    # cell sees the NaN.
    cfg = ScanConfig(64, 2.0, 0.2)
    expected = (UsageError, "true cell nan outside grid of 64 cells")
    new = _outcome(simulate_guided_multi, cfg, [candidate], container([3, math.nan]), 0, 1)
    assert new == _outcome(legacy.guided_multi_trial, cfg, [candidate], container([3, math.nan]))
    assert new == expected


@st.composite
def _single_detections(draw):
    """One detection whose center lies on an image edge, inside, outside or at NaN."""
    grid = draw(_grids())

    def coord(extent):
        edges = [0, -0.0, extent, math.nextafter(extent, 0), -1, extent + 1, math.inf, math.nan]
        return draw(st.one_of(st.sampled_from(edges), st.floats(-extent, 2 * extent)))

    cx, cy = coord(grid.image_width), coord(grid.image_height)
    w = draw(st.one_of(st.just(0), st.integers(0, 300), st.floats(0, 300)))
    h = draw(st.one_of(st.just(0), st.integers(0, 300), st.floats(0, 300)))
    return grid, Detection(image_id="img", bbox=BBox(cx - w / 2, cy - h / 2, w, h), score=0.9)


@given(_single_detections())
def test_detections_to_candidates_one_detection_matches_legacy(grid_det):
    grid, det = grid_det
    new = _outcome(detections_to_candidates, [det], grid)
    # The same detection twice takes the general path and collapses to one cell.
    assert new == _outcome(detections_to_candidates, [det, det], grid)
    b = det.bbox
    x, y = b.x + b.w / 2, b.y + b.h / 2
    if math.isnan(x) or math.isnan(y):
        event("nan")
        assert new[0] is _outcome(legacy.detections_to_candidates, [det], grid)[0]
        return
    # The legacy code rejects a center off the image; the package maps it to
    # the nearest cell, which legacy finds for the center clamped into the image.
    xc = min(max(x, 0.0), math.nextafter(grid.image_width, 0))
    yc = min(max(y, 0.0), math.nextafter(grid.image_height, 0))
    event("inside" if (x, y) == (xc, yc) else "outside")
    clamped = Detection(det.image_id, BBox(xc, yc, 0, 0), det.score)
    assert new == _outcome(legacy.detections_to_candidates, [clamped], grid)


@st.composite
def _in_image_detections(draw):
    grid = draw(_grids())
    dets = []
    for _ in range(draw(st.integers(0, 8))):
        cx = draw(st.one_of(st.just(0), st.floats(0, grid.image_width, exclude_max=True)))
        cy = draw(st.one_of(st.just(0), st.floats(0, grid.image_height, exclude_max=True)))
        w = draw(st.one_of(st.just(0), st.integers(0, 300), st.floats(0, 300)))
        h = draw(st.one_of(st.just(0), st.integers(0, 300), st.floats(0, 300)))
        box = BBox(cx - w / 2, cy - h / 2, w, h)
        x, y = box.x + box.w / 2, box.y + box.h / 2
        if 0 <= x < grid.image_width and 0 <= y < grid.image_height:
            score = draw(st.sampled_from([0.5, 0.9, 1, 1.0, 0.0]))
            dets.append(Detection(image_id="img", bbox=box, score=score))
    return grid, dets


@given(_in_image_detections())
def test_detections_to_candidates_matches_legacy(grid_dets):
    grid, dets = grid_dets
    assert detections_to_candidates(dets, grid) == legacy.detections_to_candidates(dets, grid)


def test_mixed_images_rejected_alike():
    dets = [Detection(image_id=i, bbox=BBox(1, 1, 2, 2), score=0.5) for i in ("a", "b")]
    grid = CellGrid(2, 2, 10, 10)
    assert _outcome(detections_to_candidates, dets, grid) == _outcome(
        legacy.detections_to_candidates, dets, grid
    )
