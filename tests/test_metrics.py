import copy
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import ap_101point_oracle
from rbcscan.errors import DomainError, UsageError
from rbcscan.metrics import (
    STANDARD_IOU_THRESHOLDS,
    BBox,
    Columns,
    Detection,
    GroundTruthObject,
    _pair_ious,
    average_precision,
    evaluate,
    flip_augment,
    iou,
    match_detections,
)

# Hand-traced 101-point AP for flags [TP, FP, TP] with 2 ground truths:
# envelope precision is 1.0 up to recall 0.50 (51 samples) and 2/3 beyond
# (50 samples), so AP = (51 + 50 * 2/3) / 101 = 253/303.
AP_TP_FP_TP_TWO_GT = 253 / 303


def _det(x, y, w, h, score, image_id="img", label="smartphone"):
    return Detection(image_id=image_id, bbox=BBox(x, y, w, h), score=score, class_label=label)


def _gt(x, y, w, h, image_id="img", label="smartphone"):
    return GroundTruthObject(image_id=image_id, bbox=BBox(x, y, w, h), class_label=label)


def _random_box(rng, max_side=100):
    return BBox(
        rng.uniform(-200, 200),
        rng.uniform(-200, 200),
        rng.uniform(0, max_side),
        rng.uniform(0, max_side),
    )


class TestIoU:
    def test_identical_boxes(self):
        a = BBox(3, 4, 10, 20)
        assert iou(a, a) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 5, 5)) == 0.0

    def test_half_shifted_boxes(self):
        # Intersection 50, union 150.
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)

    def test_degenerate_union_is_zero(self):
        a = BBox(5, 5, 0, 0)
        assert iou(a, a) == 0.0

    def test_symmetry_and_range(self):
        rng = random.Random(101)
        for _ in range(10_000):
            a, b = _random_box(rng), _random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_identity_on_positive_area(self):
        rng = random.Random(102)
        for _ in range(1000):
            a = BBox(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(1, 40), rng.uniform(1, 40))
            assert iou(a, a) == 1.0

    def test_translation_invariance(self):
        rng = random.Random(103)
        for _ in range(1000):
            ax, ay, aw, ah = (rng.randrange(200) for _ in range(4))
            bx, by, bw, bh = (rng.randrange(200) for _ in range(4))
            dx, dy = rng.randrange(-500, 500), rng.randrange(-500, 500)
            a, b = BBox(ax, ay, aw, ah), BBox(bx, by, bw, bh)
            shifted = iou(BBox(ax + dx, ay + dy, aw, ah), BBox(bx + dx, by + dy, bw, bh))
            assert shifted == iou(a, b)  # integer coordinates keep this exact

    def test_scaling_invariance(self):
        rng = random.Random(104)
        for _ in range(1000):
            a, b = _random_box(rng), _random_box(rng)
            for k in (0.5, 2.0, 4.0):
                scaled = iou(
                    BBox(a.x * k, a.y * k, a.w * k, a.h * k),
                    BBox(b.x * k, b.y * k, b.w * k, b.h * k),
                )
                assert scaled == pytest.approx(iou(a, b), abs=1e-12)


_side = st.one_of(st.integers(0, 40), st.floats(0, 40), st.just(0.1))
_pair_boxes = st.builds(
    BBox, st.one_of(st.integers(-20, 20), st.floats(-20, 20)), st.floats(-20, 20), _side, _side
)


@st.composite
def _box_pairs(draw):
    """A box and a second one: identical, touching an edge, nested inside,
    flattened to zero area, or unrelated."""
    a = draw(_pair_boxes)
    b = draw(
        st.sampled_from(
            [
                a,
                BBox(a.x + a.w, a.y, a.w, a.h),
                BBox(a.x, a.y + a.h, 3, a.h),
                BBox(a.x + a.w / 4, a.y + a.h / 4, a.w / 2, a.h / 2),
                BBox(a.x, a.y, 0, a.h),
                BBox(a.x, a.y, a.w, 0),
            ]
        )
        | _pair_boxes
    )
    return draw(st.permutations([a, b]))


@given(st.lists(_box_pairs(), min_size=1, max_size=8))
def test_pair_ious_equal_iou(pairs):
    boxes = np.array([box for pair in pairs for box in pair], dtype=np.float64)
    first = np.arange(0, len(boxes), 2)
    got = _pair_ious(boxes, first, first + 1)
    assert got.tolist() == [iou(a, b) for a, b in pairs]
    # Either end of a pair may be any row.
    assert _pair_ious(boxes, first + 1, first).tolist() == [iou(b, a) for a, b in pairs]


class TestMatchDetections:
    def test_single_match_above_threshold(self):
        gts = [_gt(0, 0, 10, 10)]
        dets = [_det(0, 1, 10, 10, 0.9)]  # IoU = 90/110 ~ 0.82
        result = match_detections(dets, gts, 0.5)
        assert result.tp_flags == (True,)
        assert result.gt_matched == (True,)

    def test_greedy_prefers_higher_score(self):
        gts = [_gt(0, 0, 10, 10)]
        dets = [_det(0, 1, 10, 10, 0.7), _det(0, 1, 10, 10, 0.9)]
        result = match_detections(dets, gts, 0.5)
        assert result.matched_gt_index == (None, 0)

    def test_score_tie_broken_by_input_order(self):
        gts = [_gt(0, 0, 10, 10)]
        dets = [_det(0, 1, 10, 10, 0.8), _det(1, 0, 10, 10, 0.8)]
        result = match_detections(dets, gts, 0.5)
        assert result.matched_gt_index == (0, None)

    def test_no_ground_truth_means_false_positive(self):
        result = match_detections([_det(0, 0, 10, 10, 0.9)], [], 0.5)
        assert result.tp_flags == (False,)

    def test_below_threshold_is_false_positive(self):
        gts = [_gt(0, 0, 10, 10)]
        dets = [_det(8, 8, 10, 10, 0.9)]
        result = match_detections(dets, gts, 0.5)
        assert result.tp_flags == (False,)
        assert result.gt_matched == (False,)

    def test_each_gt_matches_at_most_once(self):
        gts = [_gt(0, 0, 10, 10), _gt(100, 100, 10, 10)]
        dets = [
            _det(0, 0, 10, 10, 0.9),
            _det(0, 1, 10, 10, 0.8),
            _det(100, 100, 10, 10, 0.7),
        ]
        result = match_detections(dets, gts, 0.5)
        assert result.matched_gt_index == (0, None, 1)

    def test_detection_takes_highest_iou_gt(self):
        gts = [_gt(0, 0, 10, 10), _gt(2, 0, 10, 10)]
        dets = [_det(2, 0, 10, 10, 0.9)]
        result = match_detections(dets, gts, 0.5)
        assert result.matched_gt_index == (1,)

    def test_mixed_image_ids_rejected(self):
        with pytest.raises(UsageError):
            match_detections([_det(0, 0, 1, 1, 0.5, image_id="a")], [_gt(0, 0, 1, 1, image_id="b")], 0.5)

    def test_mixed_classes_rejected(self):
        with pytest.raises(UsageError):
            match_detections([_det(0, 0, 1, 1, 0.5, label="a")], [_gt(0, 0, 1, 1, label="b")], 0.5)

    def test_bad_threshold_rejected(self):
        with pytest.raises(UsageError):
            match_detections([], [], 0.0)


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        assert average_precision([True], 1) == 1.0

    def test_total_miss(self):
        assert average_precision([], 1) == 0.0

    def test_hand_traced_example(self):
        assert average_precision([True, False, True], 2) == pytest.approx(
            AP_TP_FP_TP_TWO_GT, abs=1e-12
        )

    def test_no_gt_no_detections(self):
        assert average_precision([], 0) == 1.0

    def test_no_gt_with_detections(self):
        assert average_precision([False, False], 0) == 0.0

    def test_negative_gt_rejected(self):
        with pytest.raises(DomainError):
            average_precision([True], -1)

    @pytest.mark.parametrize(
        "flags, total_gt", [([True, True], 1), ([True], 0), ([False, True], 0)]
    )
    def test_more_true_positives_than_ground_truth_rejected(self, flags, total_gt):
        with pytest.raises(DomainError) as e:
            average_precision(flags, total_gt)
        assert str(e.value) == (
            f"total_gt must be >= the {sum(flags)} true positives, got {total_gt}"
        )

    def test_matches_oracle_on_all_small_instances(self):
        # Every TP/FP pattern of length <= 4 against every total_gt <= 3.
        for length in range(5):
            for flags in itertools.product([False, True], repeat=length):
                for total_gt in range(4):
                    if sum(flags) > total_gt:
                        continue
                    got = average_precision(list(flags), total_gt)
                    want = ap_101point_oracle(list(flags), total_gt)
                    assert abs(got - want) < 1e-9, (flags, total_gt)

    def test_matches_oracle_on_random_box_instances(self):
        rng = random.Random(105)
        for _ in range(300):
            n_gt = rng.randrange(0, 4)
            n_det = rng.randrange(0, 5)
            gts = [
                _gt(rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(4, 30), rng.uniform(4, 30))
                for _ in range(n_gt)
            ]
            dets = [
                _det(rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(4, 30), rng.uniform(4, 30),
                     round(rng.random(), 3))
                for _ in range(n_det)
            ]
            result = match_detections(dets, gts, 0.5)
            order = sorted(range(n_det), key=lambda i: (-dets[i].score, i))
            flags = [result.tp_flags[i] for i in order]
            got = average_precision(flags, n_gt)
            want = ap_101point_oracle(flags, n_gt)
            assert abs(got - want) < 1e-9

    def test_appending_worst_false_positive_never_helps(self):
        rng = random.Random(106)
        for _ in range(500):
            flags = [rng.random() < 0.5 for _ in range(rng.randrange(0, 8))]
            total_gt = max(sum(flags), rng.randrange(0, 8))
            base = average_precision(flags, total_gt)
            assert average_precision(flags + [False], total_gt) <= base + 1e-15

    def test_prepending_best_true_positive_never_hurts(self):
        rng = random.Random(107)
        for _ in range(500):
            flags = [rng.random() < 0.5 for _ in range(rng.randrange(0, 8))]
            total_gt = sum(flags) + 1 + rng.randrange(0, 3)  # at least one missed GT
            base = average_precision(flags, total_gt)
            assert average_precision([True] + flags, total_gt) >= base - 1e-15


class TestEvaluate:
    def test_perfect_detections(self):
        gts = [_gt(0, 0, 50, 50), _gt(100, 100, 60, 40, image_id="img2")]
        dets = [_det(0, 0, 50, 50, 0.9), _det(100, 100, 60, 40, 0.8, image_id="img2")]
        result = evaluate(dets, gts)
        assert all(ap == 1.0 for ap in result.ap_per_threshold.values())
        assert result.map_value == 1.0

    def test_default_thresholds(self):
        assert STANDARD_IOU_THRESHOLDS == (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
        result = evaluate([], [_gt(0, 0, 10, 10)])
        assert tuple(result.ap_per_threshold) == STANDARD_IOU_THRESHOLDS

    def test_map_is_mean_of_thresholds(self):
        rng = random.Random(108)
        gts = [_gt(rng.uniform(0, 80), rng.uniform(0, 80), 20, 20, image_id=i) for i in range(5)]
        dets = [
            _det(g.bbox.x + rng.uniform(-8, 8), g.bbox.y + rng.uniform(-8, 8), 20, 20,
                 round(rng.random(), 3), image_id=g.image_id)
            for g in gts
        ]
        result = evaluate(dets, gts)
        mean = sum(result.ap_per_threshold.values()) / len(result.ap_per_threshold)
        assert abs(result.map_value - mean) < 1e-12

    def test_small_object_ignore_rule(self):
        # One small and one large ground truth; the detection matched to the
        # large box must vanish from the small-object score instead of
        # counting as a false positive.
        gts = [_gt(0, 0, 10, 10), _gt(200, 200, 100, 100)]
        dets = [
            _det(300, 0, 10, 10, 0.95),      # unmatched: stays a false positive
            _det(200, 200, 100, 100, 0.9),   # matches the large box: ignored
            _det(0, 0, 10, 10, 0.8),         # matches the small box: true positive
        ]
        result = evaluate(dets, gts)
        # Flags for the small score: [FP(0.95), TP(0.8)] over 1 small GT -> 0.5.
        assert result.ap_small == pytest.approx(0.5, abs=1e-12)

    def test_per_class_average(self):
        gts = [_gt(0, 0, 50, 50, label="smartphone"), _gt(100, 100, 50, 50, label="laptop")]
        dets = [_det(0, 0, 50, 50, 0.9, label="smartphone")]  # laptop missed
        result = evaluate(dets, gts)
        assert result.ap_per_threshold[0.5] == pytest.approx(0.5, abs=1e-12)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(UsageError):
            evaluate([], [], thresholds=[])

    def test_out_of_range_threshold_rejected(self):
        with pytest.raises(UsageError):
            evaluate([], [], thresholds=[0.5, 1.5])

    @pytest.mark.parametrize(
        "make",
        [np.array, iter, lambda ts: (t for t in ts)],
        ids=["array", "iterator", "generator"],
    )
    def test_thresholds_taken_once(self, make):
        gts = [_gt(0, 0, 30, 30), _gt(100, 0, 30, 30), _gt(0, 100, 8, 8)]
        dets = [_det(10, 0, 30, 30, 0.9), _det(102, 0, 30, 30, 0.8), _det(0, 100, 8, 8, 0.7)]
        result = evaluate(dets, gts, make([0.5, 0.75]))
        assert result == evaluate(dets, gts, [0.5, 0.75])
        assert list(result.ap_per_threshold) == [0.5, 0.75]

    @pytest.mark.parametrize("make", [np.array, iter], ids=["array", "iterator"])
    def test_empty_threshold_input_rejected(self, make):
        with pytest.raises(UsageError, match="thresholds must be non-empty"):
            evaluate([], [_gt(0, 0, 10, 10)], make([]))

    def test_nothing_to_detect(self):
        result = evaluate([], [])
        assert result.map_value == 1.0

    def test_pooling_matches_per_image_matching(self):
        # Matching images independently and pooling by (score, input order)
        # must equal the evaluator's own result: partition-safe merging.
        rng = random.Random(109)
        gts, dets = [], []
        for img in range(6):
            for _ in range(rng.randrange(0, 3)):
                gts.append(_gt(rng.uniform(0, 80), rng.uniform(0, 80), 20, 20, image_id=img))
            for _ in range(rng.randrange(0, 4)):
                dets.append(
                    _det(rng.uniform(0, 80), rng.uniform(0, 80), 20, 20,
                         round(rng.random(), 2), image_id=img)
                )
        pooled = []
        for img in range(6):
            img_dets = [(i, d) for i, d in enumerate(dets) if d.image_id == img]
            img_gts = [g for g in gts if g.image_id == img]
            result = match_detections([d for _, d in img_dets], img_gts, 0.5)
            pooled.extend(
                (d.score, i, flag) for (i, d), flag in zip(img_dets, result.tp_flags)
            )
        pooled.sort(key=lambda t: (-t[0], t[1]))
        expected = average_precision([f for _, _, f in pooled], len(gts))
        got = evaluate(dets, gts, thresholds=[0.5]).ap_per_threshold[0.5]
        assert got == expected


class TestColumns:
    DETS = [_det(0, 0, 50, 50, 0.9), _det(3, 1, 40, 50, 0.4, image_id=2, label="laptop")]
    GTS = [_gt(0, 0, 50, 50), _gt(0, 0, 40, 50, image_id=2, label="laptop")]

    def test_of_records(self):
        assert Columns.of(self.DETS) == Columns(
            ("img", 2), ("smartphone", "laptop"), ([0, 0, 50, 50], [3, 1, 40, 50]), (0.9, 0.4)
        )
        assert Columns.of(self.GTS).scores == ()
        assert Columns.of([]) == Columns()

    def test_evaluate_reads_columns_as_records(self):
        cols = Columns(("img", 2), ("smartphone", "laptop"), ([0, 0, 50, 50], [3, 1, 40, 50]),
                       (0.9, 0.4))
        want = evaluate(self.DETS, self.GTS)
        assert evaluate(cols, Columns.of(self.GTS)) == want
        assert evaluate(cols, self.GTS) == evaluate(self.DETS, Columns.of(self.GTS)) == want

    @pytest.mark.parametrize("first", ["det", "gt"])
    def test_mixed_records_rejected(self, first):
        det, gt = self.DETS[0], self.GTS[0]
        records = [det, det, gt] if first == "det" else [gt, gt, det]
        other = "GroundTruthObject, not a Detection" if first == "det" else (
            "Detection, not a GroundTruthObject"
        )
        with pytest.raises(UsageError) as e:
            Columns.of(records)
        assert str(e.value) == f"record 2 is a {other}"
        with pytest.raises(UsageError) as e:
            evaluate(records, self.GTS) if first == "det" else evaluate(self.DETS, records)
        assert str(e.value) == f"record 2 is a {other}"

    def test_unequal_lengths_rejected(self):
        with pytest.raises(UsageError, match="one entry per record"):
            Columns(["img"], ["smartphone"], [])
        with pytest.raises(UsageError, match="one entry per record"):
            Columns(["img"], ["smartphone"], [(0, 0, 1, 1)], [0.5, 0.5])

    def test_detections_without_scores_rejected(self):
        with pytest.raises(UsageError, match="score"):
            evaluate(Columns.of(self.GTS), self.GTS)

    def test_five_and_three_number_boxes_rejected(self):
        # Read as 4n numbers, the pair would pass as two shifted boxes.
        dets = Columns(["img"] * 2, ["smartphone"] * 2, [[0, 0, 50, 50, 1], [0, 0, 50]], [0.9, 0.8])
        with pytest.raises(UsageError, match=r"^detection 0: box has 5 numbers"):
            evaluate(dets, self.GTS)

    def test_box_that_is_a_bare_number_rejected(self):
        dets = Columns(["img"], ["smartphone"], (5,), (0.9,))
        with pytest.raises(UsageError, match=r"^detection 0: box "):
            evaluate(dets, self.GTS)
        with pytest.raises(UsageError, match=r"^ground-truth object 0: box "):
            evaluate(Columns.of(self.DETS), Columns(["img"], ["smartphone"], (5,)))


#: Each fault a hand-built column can carry, with the error evaluate raises.
COLUMN_FAULTS = {
    "box length": UsageError,
    "non-finite box": DomainError,
    "negative extent": DomainError,
    "score": DomainError,
}


@st.composite
def _columns_with_fault(draw, fault):
    """Detections and ground truth on one image, one record of either side
    given the fault; returns them with the faulty record's side and index."""
    box = st.lists(st.floats(0, 100), min_size=4, max_size=4)

    def columns(scored):
        n = draw(st.integers(1, 5))
        scores = [draw(st.floats(0, 1)) for _ in range(n)] if scored else []
        return [draw(box) for _ in range(n)], scores

    dets, gts = columns(True), columns(False)
    side = "detection" if fault == "score" or draw(st.booleans()) else "ground-truth object"
    boxes, scores = dets if side == "detection" else gts
    i = draw(st.integers(0, len(boxes) - 1))
    if fault == "box length":
        k = draw(st.sampled_from([0, 1, 3, 5, 6]))
        boxes[i] = (boxes[i] + [1.0, 2.0])[:k]
    elif fault == "non-finite box":
        boxes[i][draw(st.integers(0, 3))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif fault == "negative extent":
        boxes[i][draw(st.integers(2, 3))] = -draw(st.floats(5e-324, 1e300))
    else:
        scores[i] = draw(
            st.one_of(
                st.floats(1, exclude_min=True),
                st.floats(max_value=0, exclude_max=True),
                st.just(math.nan),
            )
        )

    def as_columns(boxes, scores):
        return Columns(["img"] * len(boxes), ["smartphone"] * len(boxes), boxes, scores)

    return as_columns(*dets), as_columns(*gts), side, i


@pytest.mark.parametrize("fault", COLUMN_FAULTS)
@given(data=st.data())
def test_evaluate_rejects_faulty_columns(fault, data):
    dets, gts, side, i = data.draw(_columns_with_fault(fault))
    with pytest.raises(COLUMN_FAULTS[fault], match=rf"^{side} {i}: "):
        evaluate(dets, gts)


class TestFlipAugment:
    def test_arithmetic_example(self):
        flipped = flip_augment(_gt(100, 50, 200, 100), 1280)
        assert (flipped.bbox.x, flipped.bbox.y, flipped.bbox.w, flipped.bbox.h) == (980, 50, 200, 100)

    def test_centered_box_is_fixed_point(self):
        gt = _gt((1280 - 200) / 2, 50, 200, 100)
        assert flip_augment(gt, 1280).bbox.x == gt.bbox.x

    def test_involution(self):
        gt = _gt(37, 12, 410, 250)
        assert flip_augment(flip_augment(gt, 1280), 1280) == gt

    def test_involution_on_random_pixel_boxes(self):
        rng = random.Random(110)
        for _ in range(10_000):
            width = rng.randrange(100, 2000)
            w = rng.randrange(0, width + 1)
            x = rng.randrange(0, width - w + 1)
            gt = _gt(x, rng.randrange(0, 500), w, rng.randrange(1, 300))
            double = flip_augment(flip_augment(gt, width), width)
            assert double == gt
            assert flip_augment(gt, width).bbox.area == gt.bbox.area

    def test_preserves_class_and_image(self):
        gt = _gt(10, 10, 5, 5, image_id="img9", label="laptop")
        flipped = flip_augment(gt, 100)
        assert flipped.image_id == "img9"
        assert flipped.class_label == "laptop"

    def test_box_exceeding_image_rejected(self):
        with pytest.raises(DomainError):
            flip_augment(_gt(1200, 0, 200, 100), 1280)
        with pytest.raises(DomainError):
            flip_augment(_gt(-1, 0, 10, 10), 1280)


class TestTypeInvariants:
    def test_negative_box_rejected(self):
        with pytest.raises(DomainError):
            BBox(0, 0, -1, 5)

    @pytest.mark.parametrize("w, h", [(math.nan, 1), (1, math.nan), (math.nan, math.nan)])
    def test_nan_extent_rejected(self, w, h):
        with pytest.raises(DomainError, match="width/height must be >= 0"):
            BBox(0, 0, w, h)

    def test_score_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            _det(0, 0, 1, 1, 1.5)
        with pytest.raises(DomainError):
            _det(0, 0, 1, 1, -0.1)

    def test_eval_result_requires_consistent_map(self):
        from rbcscan.metrics import EvalResult

        EvalResult(ap_per_threshold={0.5: 0.8, 0.75: 0.6}, map_value=0.7, ap_small=0.5)
        with pytest.raises(DomainError):
            EvalResult(ap_per_threshold={0.5: 0.8, 0.75: 0.6}, map_value=0.9, ap_small=0.5)
        with pytest.raises(DomainError):
            EvalResult(ap_per_threshold={}, map_value=0.0, ap_small=0.0)
        with pytest.raises(DomainError):
            EvalResult(ap_per_threshold={0.5: 1.2}, map_value=1.2, ap_small=0.0)
        with pytest.raises(DomainError, match="ap_small"):
            EvalResult(ap_per_threshold={0.5: 0.8}, map_value=0.8, ap_small=1.5)


class TestRecords:
    """Records are validated NamedTuples: tuples of their fields, immutable,
    hashable, and checked by every constructor."""

    RECORDS = [BBox(0, 0.5, 1, 2), _det(1, 2, 3, 4, 0.5, image_id=7), _gt(1, 2, 3, 4, label="tablet")]

    def test_repr_is_the_dataclass_one(self):
        assert repr(Detection(1, BBox(1.0, 2.0, 3.0, 4.0), 0.5)) == (
            "Detection(image_id=1, bbox=BBox(x=1.0, y=2.0, w=3.0, h=4.0), score=0.5, "
            "class_label='smartphone')"
        )
        assert repr(GroundTruthObject("a", BBox(1, 2, 3, 4))) == (
            "GroundTruthObject(image_id='a', bbox=BBox(x=1, y=2, w=3, h=4), "
            "class_label='smartphone')"
        )

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_setting_a_field_raises(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 1)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_records_hash_equal(self):
        a, b = _det(1, 2, 3, 4, 0.5), _det(1.0, 2.0, 3.0, 4.0, 0.5)
        assert a == b and hash(a) == hash(b)
        assert len({_gt(0, 0, 1, 1), _gt(0, 0, 1, 1), _gt(0, 0, 1, 2)}) == 2
        # The one visible change from the dataclass records.
        assert BBox(1, 2, 3, 4) == (1, 2, 3, 4)

    def test_boxes_are_array_rows(self):
        boxes = [BBox(0, 1, 2, 3), BBox(4.5, 5, 6, 7), BBox(8, 9, 0, 0)]
        arr = np.asarray(boxes, dtype=np.float64)
        assert arr.shape == (3, 4)
        assert arr.tolist() == [[0, 1, 2, 3], [4.5, 5, 6, 7], [8, 9, 0, 0]]

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BBox(0, 0, 1, 1)._replace(w=-1), "box width/height must be >= 0, got (-1, 1)"),
            (lambda: BBox._make([0, 0, 1, math.nan]), "box width/height must be >= 0, got (1, nan)"),
            (
                lambda: Detection._make(["img", BBox(0, 0, 1, 1), 1.5, "smartphone"]),
                "detection score must be within [0, 1], got 1.5",
            ),
            (
                lambda: _det(0, 0, 1, 1, 0.5)._replace(score=-0.1),
                "detection score must be within [0, 1], got -0.1",
            ),
        ],
        ids=["bbox-replace", "bbox-make", "detection-make", "detection-replace"],
    )
    def test_alternative_constructors_check(self, build, message):
        with pytest.raises(DomainError) as e:
            build()
        assert str(e.value) == message

    def test_alternative_constructors_keep_type_and_arity(self):
        moved = BBox(0, 0, 1, 1)._replace(x=5)
        assert type(moved) is BBox and moved == BBox(5, 0, 1, 1)
        assert Detection._make(["img", moved, 0.5, "tablet"]) == _det(5, 0, 1, 1, 0.5, label="tablet")
        with pytest.raises(TypeError):
            BBox._make([0, 0, 1])
        with pytest.raises(ValueError):
            BBox(0, 0, 1, 1)._replace(z=1)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_pickle_and_copy_round_trip(self, record):
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert clone == record and repr(clone) == repr(record)
