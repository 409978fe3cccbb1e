"""Property tests: the array-backed evaluator against the scalar oracle.

``legacy_metrics`` holds the evaluator as it was before matching moved to
precomputed IoU arrays. Inputs are drawn to hit the cases where a one-pass
rewrite could drift: several images and classes, classes with only
detections or only ground truth, images without ground truth, duplicate
scores, identical and nested boxes (IoU ties), boxes on both sides of the
small-object cutoff, and threshold lists that omit 0.5 or repeat a value.
Chain scenes put many overlapping boxes in a row, so that matching, which
runs in rounds per connected component of overlapping detections and
boxes, meets components of many pairs and IoUs exactly at a threshold.
The same scenes, written as files, check the parsers' columns end to end:
parsed by ``rbcscan.formats`` and scored from its columns, they must give
the result the legacy parsers' record objects give the legacy evaluator.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import legacy_formats
import legacy_metrics as legacy
from rbcscan import formats
from rbcscan.errors import DomainError
from rbcscan.metrics import (
    STANDARD_IOU_THRESHOLDS,
    BBox,
    Detection,
    GroundTruthObject,
    average_precision,
    evaluate,
    match_detections,
)

TOL = 1e-12

_coord = st.one_of(st.integers(0, 60), st.floats(0, 60, allow_nan=False))
# Sides up to 64 px put areas on both sides of the default 32 x 32 cutoff.
_side = st.one_of(st.integers(1, 64), st.floats(0.5, 64), st.just(0))
_boxes = st.builds(BBox, _coord, _coord, _side, _side)
_shift = st.integers(-4, 4)
_inset = st.integers(1, 4)
_scores = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), st.floats(0, 1))
_images = st.sampled_from([0, 1, "0", "b"])
_labels = st.sampled_from(["phone", "tablet", "watch"])
_threshold_lists = st.lists(
    st.one_of(st.sampled_from([0.3, 0.5, 0.75, 1.0]), st.floats(0.01, 1.0)),
    min_size=1,
    max_size=5,
)
_thresholds = st.one_of(
    st.just(STANDARD_IOU_THRESHOLDS),
    _threshold_lists,
    _threshold_lists.map(lambda ts: ts + ts[:1]),
)


def _moved(box):
    """The box as is, shifted, or shrunk inside itself."""
    return st.one_of(
        st.just(box),
        st.builds(lambda dx, dy: BBox(box.x + dx, box.y + dy, box.w, box.h), _shift, _shift),
        st.builds(
            lambda d: BBox(box.x + d, box.y + d, max(box.w - 2 * d, 0), max(box.h - 2 * d, 0)),
            _inset,
        ),
    )


@st.composite
def _scenes(draw, images=_images, labels=_labels):
    """Detections and ground truth on a few images and classes.

    Ground truth uses a prefix of the scene's images and a prefix of its
    classes, random detections a suffix of its classes, so images without
    ground truth and classes on one side only are common. The other
    detections sit on annotated boxes: exact copies, shifted, or nested
    inside, as a detector's hits would.
    """
    imgs = draw(st.lists(images, min_size=1, max_size=3, unique=True))
    labs = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    n_gt_imgs = draw(st.integers(1, len(imgs)))
    n_gt_labs = draw(st.integers(1, len(labs)))
    first_det_lab = draw(st.integers(0, len(labs) - 1))
    gt = st.builds(
        GroundTruthObject,
        st.sampled_from(imgs[:n_gt_imgs]),
        _boxes,
        st.sampled_from(labs[:n_gt_labs]),
    )
    gts = draw(st.lists(gt, max_size=10))
    # Repeating a few annotations gives a detection equal IoU with two boxes.
    gts += gts[: draw(st.integers(0, 2))]
    hits = [
        Detection(g.image_id, draw(_moved(g.bbox)), draw(_scores), g.class_label)
        for g in gts
        if draw(st.booleans())
    ]
    det = st.builds(
        Detection,
        st.sampled_from(imgs),
        _boxes,
        _scores,
        st.sampled_from(labs[first_det_lab:]),
    )
    return draw(st.permutations(hits + draw(st.lists(det, max_size=10)))), gts


def _assert_same(got, want):
    assert list(got.ap_per_threshold) == list(want.ap_per_threshold)
    for t, ap in want.ap_per_threshold.items():
        assert abs(got.ap_per_threshold[t] - ap) <= TOL, t
    assert abs(got.map_value - want.map_value) <= TOL
    assert abs(got.ap_small - want.ap_small) <= TOL


@given(_scenes(), _thresholds)
def test_evaluate_matches_legacy(scene, thresholds):
    dets, gts = scene
    # Drawing a scene costs more than scoring it, so each one is scored a
    # few ways: identical boxes have IoU exactly 1.0, and the two cutoffs
    # make most matched boxes large or most of them small.
    for ts in (thresholds, (0.5, 1.0)):
        for cutoff in (8.0, 40.5):
            _assert_same(
                evaluate(dets, gts, ts, small_cutoff_px=cutoff),
                legacy.evaluate(dets, gts, ts, small_cutoff_px=cutoff),
            )


def _documents(dets, gts):
    """The scene as annotation and detection file texts.

    Every image of the scene is annotated, at a size that holds any drawn
    ground-truth box; detections may name images without ground truth.
    """
    ids = dict.fromkeys([*(g.image_id for g in gts), *(d.image_id for d in dets)])
    annotations = {
        "images": [{"image_id": i, "width": 128, "height": 128} for i in ids],
        "objects": [
            {"image_id": g.image_id, "class_label": g.class_label, "bbox": _xywh(g.bbox)}
            for g in gts
        ],
    }
    detections = {
        "detections": [
            {
                "image_id": d.image_id,
                "class_label": d.class_label,
                "bbox": _xywh(d.bbox),
                "score": d.score,
            }
            for d in dets
        ]
    }
    return json.dumps(annotations), json.dumps(detections)


def _xywh(b):
    return [b.x, b.y, b.w, b.h]


@given(_scenes(), _thresholds)
def test_evaluate_on_parsed_columns_matches_legacy(scene, thresholds):
    annotations, detections = _documents(*scene)
    af, df = formats.parse_annotations(annotations), formats.parse_detections(detections)
    legacy_af = legacy_formats.parse_annotations(annotations)
    legacy_df = legacy_formats.parse_detections(detections)
    for cutoff in (8.0, 40.5):
        assert evaluate(df.columns, af.columns, thresholds, small_cutoff_px=cutoff) == (
            legacy.evaluate(legacy_df.detections, legacy_af.objects, thresholds, cutoff)
        )


@given(_scenes(images=st.just("img"), labels=st.just("phone")), st.floats(0.01, 1.0))
def test_match_detections_matches_legacy(scene, threshold):
    dets, gts = scene
    assert match_detections(dets, gts, threshold) == legacy.match_detections(dets, gts, threshold)


# IoUs of two equal s-px boxes d px apart are (s - d) / (s + d): 30 px at
# 10 px is 0.5, at 15 px 1/3; 40 px at 10 px is 0.6, at 8 px 2/3. Integer
# boxes give these values exactly, so these thresholds sit on ties.
_exact_thresholds = st.lists(
    st.sampled_from([0.25, 1 / 3, 0.5, 0.6, 2 / 3, 5 / 7, 0.75, 1.0]), min_size=1, max_size=4
)


@st.composite
def _chain_scenes(draw, images=(0, "b"), labels=("phone", "tablet")):
    """Boxes along horizontal lines, with detections on the same lines.

    Each line holds up to six ground-truth boxes of one integer side, fewer
    px apart than that side, so that neighbours overlap; detections sit on
    the line at integer offsets, most of them the boxes' size. One detection
    then overlaps several boxes and one box several detections, so matches
    hang together in chains longer than one pair, and the lines, 50 px
    apart, give one image and class several such components.
    """
    gts, dets = [], []
    for row in range(draw(st.integers(1, 4))):
        image, label = draw(st.sampled_from(images)), draw(st.sampled_from(labels))
        side, step = draw(
            st.sampled_from([(30, 10), (30, 15), (40, 8), (40, 10)])
            | st.integers(4, 40).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, s - 1)))
        )
        x0, y, k = draw(st.integers(0, 20)), 50 * row, draw(st.integers(1, 6))
        boxes = [BBox(x0 + j * step, y, side, side) for j in range(k)]
        gts += [GroundTruthObject(image, box, label) for box in boxes]
        for _ in range(draw(st.integers(0, k + 2))):
            x = x0 + draw(st.integers(-step, k * step))
            w = side + draw(st.sampled_from([0, 0, 0, -3, 4]))
            box = BBox(x, y + draw(st.sampled_from([0, 0, 1, -2])), w, side)
            score = draw(st.sampled_from([0.2, 0.5, 0.9]) | _scores)
            dets.append(Detection(image, box, score, label))
    return draw(st.permutations(dets)), draw(st.permutations(gts))


@given(_chain_scenes(), st.one_of(st.just(STANDARD_IOU_THRESHOLDS), _exact_thresholds))
def test_evaluate_on_chains_matches_legacy(scene, thresholds):
    dets, gts = scene
    _assert_same(evaluate(dets, gts, thresholds), legacy.evaluate(dets, gts, thresholds))


@given(_chain_scenes(images=("img",), labels=("phone",)), _exact_thresholds)
def test_match_detections_on_chains_matches_legacy(scene, thresholds):
    dets, gts = scene
    for t in thresholds:
        assert match_detections(dets, gts, t) == legacy.match_detections(dets, gts, t)


@given(st.lists(st.booleans(), max_size=40), st.integers(0, 45))
def test_average_precision_matches_legacy(flags, total_gt):
    if sum(flags) > total_gt:
        # More true positives than ground truth: the legacy code scored it.
        with pytest.raises(DomainError, match="true positives"):
            average_precision(flags, total_gt)
        return
    assert average_precision(flags, total_gt) == legacy.average_precision(flags, total_gt)

