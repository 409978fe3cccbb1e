"""Property tests: the array-backed pipeline against the object-at-a-time oracle.

``legacy_pipeline`` holds ``sample_detections``, ``detections_to_candidates``
and ``guided_multi_trial`` as they were before the rewrite. Inputs are drawn
to hit the cases where array code could drift from the scalar code: grids
from 1 x 2 to 8 x 8 on odd image sizes, integer and float boxes on every
image edge (a zero-width box on the right edge has its center off the
image), profiles whose AP is 0, 1 or a knot of the bundled curve, score
ranges that can leave [0, 1], tied scores, and candidate lists that are
empty, repeated or out of the grid.
"""

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import legacy_pipeline as legacy
from rbcscan.detector import (
    CORRECT_SCORE_RANGE,
    WRONG_SCORE_RANGE,
    DetectorProfile,
    SyntheticScene,
    builtin_profile,
    detections_to_candidates,
    sample_detections,
)
from rbcscan.errors import RbcScanError
from rbcscan.geometry import CellGrid
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


@st.composite
def _spans(draw, extent):
    """(start, length) of a box side inside [0, extent], often on an edge."""
    length = draw(st.one_of(st.integers(0, extent), st.floats(0, extent), st.just(extent)))
    start = draw(st.one_of(st.just(0), st.just(extent - length), st.floats(0, extent - length)))
    assume(start + length <= extent)
    return start, length


@st.composite
def _scenes(draw):
    grid = draw(_grids())
    receivers = []
    for i in range(draw(st.integers(0, 12))):
        x, w = draw(_spans(grid.image_width))
        y, h = draw(_spans(grid.image_height))
        label = draw(st.sampled_from(["smartphone", "tablet"]))
        receivers.append((GroundTruthObject(image_id=i, bbox=BBox(x, y, w, h), class_label=label), 120.0))
    return SyntheticScene(grid=grid, receivers=tuple(receivers))


# Out-of-range scores make Detection raise, which must happen in receiver
# order, before or after an off-image receiver as in the oracle.
_score_ranges = st.one_of(
    st.just((CORRECT_SCORE_RANGE, WRONG_SCORE_RANGE)),
    st.sampled_from([((0.9, 1.2), WRONG_SCORE_RANGE), (CORRECT_SCORE_RANGE, (-0.2, 0.3))]),
)


@settings(max_examples=200)
@given(_scenes(), _profiles, st.integers(0, 2**63), _score_ranges)
def test_sample_detections_matches_legacy(scene, profile_at, seed, score_ranges):
    profile, iou_threshold = profile_at
    new = _outcome(sample_detections, scene, profile, iou_threshold, seed, *score_ranges)
    old = _outcome(legacy.sample_detections, scene, profile, iou_threshold, seed, *score_ranges)
    event("raises" if isinstance(old, tuple) else "returns")
    assert new == old
    # repr tells 1 from 1.0 and prints every float digit.
    assert repr(new) == repr(old)


def test_sample_detections_single_cell_grid_matches_legacy():
    grid = CellGrid(1, 1, 200, 100)
    scene = SyntheticScene(grid, ((GroundTruthObject(0, BBox(50, 25, 100, 50)), 120.0),))
    for ap in (0.0, 0.5, 1.0):
        args = (scene, _constant_profile(ap), 0.5, 3)
        assert repr(_outcome(sample_detections, *args)) == repr(
            _outcome(legacy.sample_detections, *args)
        )


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
