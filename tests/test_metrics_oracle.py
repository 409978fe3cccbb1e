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
A scene takes few draws, its sizes and a seed; plain Python builds every
box and score from the seed.
"""

import json
import math
import random

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

def _box(rng):
    # Sides up to 64 px put areas on both sides of the default 32 x 32 cutoff.
    x, y = (rng.randint(0, 60) if rng.random() < 0.5 else rng.uniform(0, 60) for _ in "xy")
    w, h = (rng.choice((rng.randint(1, 64), rng.uniform(0.5, 64), 0)) for _ in "wh")
    return BBox(x, y, w, h)


def _score(rng):
    return rng.choice((0.0, 0.3, 0.5, 0.9, 1.0)) if rng.random() < 0.5 else rng.random()


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


def _moved(rng, box):
    """The box as is, shifted, or shrunk inside itself."""
    dx, dy, d = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)
    shifted = BBox(box.x + dx, box.y + dy, box.w, box.h)
    shrunk = BBox(box.x + d, box.y + d, max(box.w - 2 * d, 0), max(box.h - 2 * d, 0))
    return rng.choice((box, shifted, shrunk))


@st.composite
def _scenes(draw, images=(0, 1, "0", "b"), labels=("phone", "tablet", "watch")):
    """Detections and ground truth on a few images and classes.

    Hypothesis draws n annotations and m random detections (0 to 10 each)
    and a seed; plain Python builds the rest. Ground truth uses a prefix of
    the scene's images and a prefix of its classes, random detections a
    suffix of its classes, so images without ground truth and classes on one
    side only are common. The other detections sit on annotated boxes: exact
    copies, shifted, or nested inside, as a detector's hits would.
    """
    n, m = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    rng = random.Random(draw(st.integers()))
    imgs = rng.sample(images, rng.randint(1, min(3, len(images))))
    labs = rng.sample(labels, rng.randint(1, min(3, len(labels))))
    gt_imgs, gt_labs = imgs[: rng.randint(1, len(imgs))], labs[: rng.randint(1, len(labs))]
    det_labs = labs[rng.randrange(len(labs)) :]
    gts = [GroundTruthObject(rng.choice(gt_imgs), _box(rng), rng.choice(gt_labs)) for _ in range(n)]
    # Repeating a few annotations gives a detection equal IoU with two boxes.
    gts += gts[: rng.randint(0, 2)]
    hits = [Detection(g.image_id, _moved(rng, g.bbox), _score(rng), g.class_label) for g in gts]
    dets = rng.sample(hits, rng.randint(0, len(hits)))
    for _ in range(m):
        dets.append(Detection(rng.choice(imgs), _box(rng), _score(rng), rng.choice(det_labs)))
    rng.shuffle(dets)
    return dets, gts


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


@given(_scenes(images=("img",), labels=("phone",)), st.floats(0.01, 1.0))
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
    apart, give one image and class several such components. Hypothesis
    draws the number of lines and a seed.
    """
    rows, rng = draw(st.integers(1, 4)), random.Random(draw(st.integers()))
    gts, dets = [], []
    for row in range(rows):
        image, label = rng.choice(images), rng.choice(labels)
        side, step = rng.choice([(30, 10), (30, 15), (40, 8), (40, 10)])
        if rng.random() < 0.5:
            side = rng.randint(4, 40)
            step = rng.randint(1, side - 1)
        x0, y, k = rng.randint(0, 20), 50 * row, rng.randint(1, 6)
        boxes = [BBox(x0 + j * step, y, side, side) for j in range(k)]
        gts += [GroundTruthObject(image, box, label) for box in boxes]
        for _ in range(rng.randint(0, k + 2)):
            x = x0 + rng.randint(-step, k * step)
            w = side + rng.choice([0, 0, 0, -3, 4])
            box = BBox(x, y + rng.choice([0, 0, 1, -2]), w, side)
            score = rng.choice([0.2, 0.5, 0.9]) if rng.random() < 0.5 else _score(rng)
            dets.append(Detection(image, box, score, label))
    rng.shuffle(dets)
    rng.shuffle(gts)
    return dets, gts


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



# Matching pairs a detection only with the boxes of its image and class in
# the x bins, max(widest / 4, x span / (G + 1)) wide, that its window from
# x - widest to x + w touches. Bin scenes put boxes where a bin could drop
# a pair that overlaps: on bin edges, far from 0 where a float's step is
# 0.125 px, at zero width, and beside a box as wide as the image.
_BIN_KINDS = ("edges", "far", "thin", "wide")


def _bin_box(rng, kind, k, origin):
    if kind == "far":  # x near +-1e15, where edges about 1 px apart round
        step = math.ulp(origin)
        w = rng.choice((step * rng.randint(0, 12), rng.uniform(0, 1.5)))
        return BBox(origin + step * rng.randint(0, 8 * k), 0.0, w, 1.0)
    y, h = rng.randint(0, 3), rng.randint(1, 4)
    if kind == "edges":  # integers within k px: with a 4 px box, bins 1 px wide
        return BBox(rng.randint(0, k), y, rng.randint(0, 4), h)
    if kind == "thin":
        return BBox(rng.randint(0, k), y, rng.choice((0, 0, rng.randint(1, 6))), h)
    return BBox(rng.uniform(0, 3990), y, rng.uniform(0, 10), h)  # "wide", a 4000 px image


def _bin_moved(rng, kind, box):
    """The box shifted and resized a little, at its kind's scale."""
    if kind == "far":
        step = math.ulp(box.x)
        dx, dw = step * rng.randint(-12, 12), step * rng.randint(-4, 4)
    elif kind == "wide":
        dx, dw = rng.uniform(-3, 3), rng.uniform(-3, 3)
    else:
        dx, dw = rng.randint(-5, 5), rng.randint(-2, 2)
    return BBox(box.x + dx, box.y + rng.choice((0, 0, 1)), max(box.w + dw, 0), box.h)


@st.composite
def _bin_scenes(draw, images=(0, "b"), labels=("phone", "tablet")):
    """Ground truth and detections of one bin kind on a few images and classes.

    Hypothesis draws the kind and a seed. Detections sit on moved copies of
    the boxes or anywhere; a few boxes and detections are repeated, the
    detections with their scores, so IoUs and scores tie.
    """
    kind, rng = draw(st.sampled_from(_BIN_KINDS)), random.Random(draw(st.integers()))
    k, origin = rng.randint(1, 12), rng.choice((1e15, -1e15, 2.0**52, 3e12))
    boxes = [_bin_box(rng, kind, k, origin) for _ in range(k)]
    if kind == "edges":
        boxes[0] = boxes[0]._replace(w=4)
    elif kind == "thin" and rng.random() < 0.3:  # no box wider than 0
        boxes = [b._replace(w=0) for b in boxes]
    elif kind == "wide":
        boxes[0] = BBox(0, 0, 4000, 4)
    boxes += boxes[: rng.randint(0, 2)]
    gts = [GroundTruthObject(rng.choice(images), b, rng.choice(labels)) for b in boxes]
    dets = [
        Detection(g.image_id, _bin_moved(rng, kind, g.bbox), _score(rng), g.class_label)
        for g in gts
        if rng.random() < 0.8
    ]
    for _ in range(rng.randint(0, 4)):
        box = _bin_box(rng, kind, k, origin)
        dets.append(Detection(rng.choice(images), box, _score(rng), rng.choice(labels)))
    dets += dets[: rng.randint(0, 2)]
    rng.shuffle(dets)
    return dets, gts


# A pair 1 float step into a box 8 steps wide has IoU about 1/15.
_low_thresholds = st.lists(st.floats(0.01, 0.3), min_size=1, max_size=3)


@given(_bin_scenes(), st.one_of(st.just(STANDARD_IOU_THRESHOLDS), _low_thresholds))
def test_evaluate_on_bin_scenes_matches_legacy(scene, thresholds):
    dets, gts = scene
    _assert_same(evaluate(dets, gts, thresholds), legacy.evaluate(dets, gts, thresholds))


@given(_bin_scenes(images=("img",), labels=("phone",)), st.floats(0.01, 1.0))
def test_match_detections_on_bin_scenes_matches_legacy(scene, threshold):
    dets, gts = scene
    assert match_detections(dets, gts, threshold) == legacy.match_detections(dets, gts, threshold)


#: Box fields ``BBox`` takes that no record file holds: they, or the sums
#: they make, are past float range.
_UNBOUNDED = {
    "x": (math.nan, math.inf, -math.inf, 1.7e308, -1.7e308),
    "y": (math.nan, math.inf, -math.inf),
    "w": (math.inf, 1e308),
    "h": (math.inf, 1e308),
}


def _unbounded(rng, record):
    """The record, or a third of the time the record with one field of its
    box past float range."""
    if rng.random() < 2 / 3:
        return record
    field = rng.choice(list(_UNBOUNDED))
    box = record.bbox._replace(**{field: rng.choice(_UNBOUNDED[field])})
    return record._replace(bbox=box)


@given(_bin_scenes(images=("img",), labels=("phone",)), st.integers(), st.floats(0.01, 1.0))
def test_match_detections_with_unbounded_boxes_matches_legacy(scene, seed, threshold):
    rng = random.Random(seed)
    dets, gts = ([_unbounded(rng, r) for r in records] for records in scene)
    assert match_detections(dets, gts, threshold) == legacy.match_detections(dets, gts, threshold)
