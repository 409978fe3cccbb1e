import json
import math
import sys
from importlib import resources

import numpy as np
import pytest

from rbcscan.detector import (
    DetectorProfile,
    SyntheticScene,
    ap_at,
    builtin_profile,
    builtin_profile_names,
    detections_to_candidates,
    sample_detections,
)
from rbcscan import formats
from rbcscan.errors import DomainError, UsageError
from rbcscan.geometry import CellGrid, cell_center, cell_of_point
from rbcscan.metrics import BBox, Detection, GroundTruthObject
from rbcscan.scanning import ScanConfig, simulate_guided

GRID = CellGrid(rows=8, cols=8, image_width=1280, image_height=720)


def _profile(knots, latency=0.2):
    return DetectorProfile(name="test", per_image_latency_s=latency, ap_vs_iou=tuple(knots))


def _receiver_in_cell(grid, cell, image_id, w=124.0, h=62.0):
    cx, cy = cell_center(grid, cell)
    box = BBox(cx - w / 2, cy - h / 2, w, h)
    return GroundTruthObject(image_id=image_id, bbox=box)


def _detected_cell(det, grid):
    b = det.bbox
    return cell_of_point(grid, b.x + b.w / 2, b.y + b.h / 2)


class TestApAt:
    def test_exact_at_knots(self):
        profile = _profile([(0.5, 0.7), (0.75, 0.6), (0.95, 0.2)])
        assert ap_at(profile, 0.5) == 0.7
        assert ap_at(profile, 0.75) == 0.6
        assert ap_at(profile, 0.95) == 0.2

    def test_linear_between_knots(self):
        profile = _profile([(0.5, 0.8), (0.7, 0.4)])
        assert ap_at(profile, 0.6) == pytest.approx(0.6, abs=1e-12)
        assert ap_at(profile, 0.55) == pytest.approx(0.7, abs=1e-12)

    def test_out_of_range_rejected(self):
        profile = _profile([(0.5, 0.7), (0.95, 0.2)])
        with pytest.raises(DomainError):
            ap_at(profile, 0.4)
        with pytest.raises(DomainError):
            ap_at(profile, 0.96)

    def test_single_knot_profile_is_constant(self):
        profile = _profile([(0.5, 0.33)])
        assert ap_at(profile, 0.5) == 0.33
        with pytest.raises(DomainError):
            ap_at(profile, 0.51)


class TestProfileValidation:
    def test_rejects_rising_ap(self):
        with pytest.raises(DomainError):
            _profile([(0.5, 0.6), (0.6, 0.7)])

    def test_rejects_non_increasing_thresholds(self):
        with pytest.raises(DomainError):
            _profile([(0.6, 0.7), (0.5, 0.6)])

    def test_rejects_ap_outside_unit_interval(self):
        with pytest.raises(DomainError):
            _profile([(0.5, 1.2)])

    def test_rejects_negative_latency(self):
        with pytest.raises(DomainError):
            _profile([(0.5, 0.5)], latency=-1)

    def test_rejects_empty_curve(self):
        with pytest.raises(DomainError):
            _profile([])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(ap_vs_iou=((0.5,),)), "ap_vs_iou[0]: expected (iou_threshold, ap)"),
            (dict(ap_vs_iou=(0.5,)), "ap_vs_iou[0]: expected (iou_threshold, ap)"),
            (
                dict(ap_vs_iou=((0.5, 0.7), (0.6, 0.5, 0.1))),
                "ap_vs_iou[1]: expected (iou_threshold, ap)",
            ),
            (dict(ap_vs_iou=0.5), "ap_vs_iou must be a tuple of (iou_threshold, ap) rows"),
            (
                dict(ap_vs_distance=((120.0, 0.5),)),
                "ap_vs_distance[0]: expected (distance_cm, image_size_tag, ap)",
            ),
            (
                dict(ap_vs_distance=((120.0, "1280x720", 0.5), "abc")),
                "ap_vs_distance[1]: expected (distance_cm, image_size_tag, ap)",
            ),
            (
                dict(ap_vs_distance=((120.0, 720, 0.5),)),
                "ap_vs_distance[0] image_size_tag must be a non-empty str, got 720",
            ),
            (
                dict(ap_vs_distance=((120.0, "", 0.5),)),
                "ap_vs_distance[0] image_size_tag must be a non-empty str, got ''",
            ),
        ],
        ids=["short-knot", "bare-knot", "long-knot", "bare-curve", "short-row", "str-row",
             "int-tag", "empty-tag"],
    )
    def test_rejects_a_row_of_the_wrong_shape(self, kwargs, message):
        fields = dict(name="x", per_image_latency_s=0.2, ap_vs_iou=((0.5, 0.7),))
        with pytest.raises(DomainError) as e:
            DetectorProfile(**dict(fields, **kwargs))
        assert str(e.value) == message

    def test_accepts_lists_for_knots_and_rows(self):
        profile = DetectorProfile("x", 0.2, [[0.5, 0.7]], [[120.0, "1280x720", 0.5]])
        assert ap_at(profile, 0.5) == 0.7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(per_image_latency_s=math.nan),
            dict(ap_vs_distance=((math.nan, "1280x720", 0.5),)),
            dict(ap_vs_iou=((0.5, 0.5), (math.nan, 0.4))),
            dict(ap_vs_iou=((math.nan, 0.5),)),
        ],
    )
    def test_rejects_nan(self, kwargs):
        fields = dict(name="x", per_image_latency_s=0.1, ap_vs_iou=((0.5, 0.5),))
        with pytest.raises(DomainError):
            DetectorProfile(**dict(fields, **kwargs))

    def test_rejects_bad_distance_entry(self):
        with pytest.raises(DomainError):
            DetectorProfile(
                name="x", per_image_latency_s=0.1, ap_vs_iou=((0.5, 0.5),),
                ap_vs_distance=((0.0, "1280x720", 0.5),),
            )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(per_image_latency_s=math.inf), "per_image_latency_s must be finite and >= 0"),
            (
                dict(ap_vs_distance=((120.0, "1280x720", 0.5), (math.inf, "1280x720", 0.4))),
                "ap_vs_distance[1] distance must be finite and > 0",
            ),
            (
                dict(ap_vs_iou=((0.5, 0.5), (math.inf, 0.4))),
                "ap_vs_iou[1] threshold must be finite",
            ),
        ],
        ids=["latency", "distance", "knot"],
    )
    def test_rejects_values_no_profile_file_can_carry(self, kwargs, message):
        # A profile file cannot write infinity, so the constructor refuses it too.
        fields = dict(name="x", per_image_latency_s=0.1, ap_vs_iou=((0.5, 0.5),))
        with pytest.raises(DomainError) as e:
            DetectorProfile(**dict(fields, **kwargs))
        assert str(e.value) == f"{message}, got inf"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(name=5), "name must be a str, got 5"),
            (dict(name=None), "name must be a str, got None"),
            (dict(notes=5), "notes must be a str, got 5"),
            (dict(notes=b"n"), "notes must be a str, got b'n'"),
        ],
        ids=["int-name", "none-name", "int-notes", "bytes-notes"],
    )
    def test_rejects_a_name_or_notes_that_is_not_a_str(self, kwargs, message):
        # emit_profile would write such a profile to a file parse_profile refuses.
        fields = dict(name="x", per_image_latency_s=0.2, ap_vs_iou=((0.5, 0.7),))
        with pytest.raises(DomainError) as e:
            DetectorProfile(**dict(fields, **kwargs))
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "top", [int(sys.float_info.max), 1.7e308], ids=["int-knots", "float-knots"]
    )
    def test_rejects_knots_whose_span_is_not_a_finite_float(self, top):
        # ap_at interpolates over the span: from these ints it raised a bare
        # OverflowError, from these floats it returned 0.9 where 0.7 is right.
        with pytest.raises(DomainError) as e:
            _profile([(-top, 0.9), (top, 0.5)])
        assert str(e.value) == "ap_vs_iou[1] threshold minus the previous one is not a finite float"
        assert ap_at(_profile([(-top / 2, 0.9), (top / 2, 0.5)]), 0) == pytest.approx(0.7)


class TestBuiltinProfile:
    def test_listed_and_loadable(self):
        assert "mask-rcnn-smartphone" in builtin_profile_names()
        profile = builtin_profile("mask-rcnn-smartphone")
        assert profile.name == "mask-rcnn-smartphone"

    def test_anchor_values(self):
        profile = builtin_profile()
        assert profile.per_image_latency_s == 0.2
        assert ap_at(profile, 0.5) == 0.7
        assert (350, "1280x720", 0.315) in profile.ap_vs_distance

    def test_mean_over_standard_thresholds(self):
        profile = builtin_profile()
        values = [ap for _, ap in profile.ap_vs_iou]
        assert len(values) == 10
        assert abs(sum(values) / 10 - 0.5766) < 1e-4

    def test_monotone_non_increasing(self):
        profile = builtin_profile()
        values = [ap for _, ap in profile.ap_vs_iou]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_unknown_name_rejected(self):
        with pytest.raises(UsageError):
            builtin_profile("no-such-profile")

    def test_loaded_through_the_profile_parser(self, monkeypatch):
        calls = []
        parse = formats.parse_profile

        def spy(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(formats, "parse_profile", spy)
        profile = builtin_profile("mask-rcnn-smartphone")
        assert len(calls) == 1 and profile == parse(calls[0])

    def test_same_profile_as_a_direct_build_from_the_json(self):
        path = resources.files("rbcscan").joinpath("profiles", "mask_rcnn_smartphone.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        direct = DetectorProfile(
            name=payload["name"],
            per_image_latency_s=payload["per_image_latency_s"],
            ap_vs_iou=tuple((float(t), float(ap)) for t, ap in payload["ap_vs_iou"]),
            ap_vs_distance=tuple(
                (float(d), str(tag), float(ap)) for d, tag, ap in payload["ap_vs_distance"]
            ),
            notes=payload["notes"],
        )
        profile = builtin_profile()
        assert profile == direct
        for t, _ in direct.ap_vs_iou:
            assert ap_at(profile, t) == ap_at(direct, t)


class TestSyntheticScene:
    def test_rejects_box_outside_image(self):
        gt = GroundTruthObject(image_id=0, bbox=BBox(1200, 700, 124, 62))
        with pytest.raises(DomainError):
            SyntheticScene(grid=GRID, receivers=((gt, 120.0),))

    def test_rejects_non_positive_distance(self):
        gt = _receiver_in_cell(GRID, 0, image_id=0)
        with pytest.raises(DomainError):
            SyntheticScene(grid=GRID, receivers=((gt, 0.0),))

    @pytest.mark.parametrize(
        "box, distance",
        [
            (BBox(math.nan, 10, 5, 5), 120.0),
            (BBox(10, math.nan, 5, 5), 120.0),
            (BBox(10, 10, 5, 5), math.nan),
        ],
    )
    def test_rejects_nan(self, box, distance):
        gt = GroundTruthObject(image_id=0, bbox=box)
        with pytest.raises(DomainError):
            SyntheticScene(grid=GRID, receivers=((gt, distance),))

    @pytest.mark.parametrize(
        "receivers, message",
        [
            # Receiver 0's distance fails before receiver 1's box.
            (
                [(BBox(10, 10, 5, 5), 0.0), (BBox(1200, 700, 124, 62), 120.0)],
                "receiver distance must be > 0, got 0.0",
            ),
            # A receiver's box is checked before its own distance.
            (
                [(BBox(10, 10, 5, 5), 120.0), (BBox(1200, 700, 124, 62), -1.0)],
                "receiver box for image 1 exceeds the 1280x720 image",
            ),
            (
                [(BBox(10, 10, 5, 5), 120.0), (BBox(math.nan, 10, 5, 5), 120.0)],
                "receiver box for image 1 exceeds the 1280x720 image",
            ),
            (
                [(BBox(0, 0, 1280, 720), math.inf), (BBox(10, 10, 5, 5), math.nan)],
                "receiver distance must be > 0, got nan",
            ),
        ],
        ids=["distance-before-later-box", "box-before-own-distance", "nan-box", "nan-distance"],
    )
    def test_first_bad_receiver_is_reported(self, receivers, message):
        receivers = tuple(
            (GroundTruthObject(image_id=i, bbox=box), dist) for i, (box, dist) in enumerate(receivers)
        )
        with pytest.raises(DomainError) as e:
            SyntheticScene(grid=GRID, receivers=receivers)
        assert str(e.value) == message

    @pytest.mark.parametrize("box", [(100.0, 100.0, -50.0, 20.0), (100.0, 100.0, 50.0, -20.0)])
    def test_rejects_negative_box_side(self, box):
        # A plain tuple skips BBox's own check, so the scene must catch it.
        gt = GroundTruthObject(image_id=0, bbox=box)
        with pytest.raises(DomainError, match="receiver box for image 0 exceeds the 1280x720 image"):
            SyntheticScene(grid=GRID, receivers=((gt, 120.0),))

    def test_empty_scene(self):
        assert SyntheticScene(grid=GRID, receivers=()).receivers == ()

    @pytest.mark.parametrize(
        "grid, receivers, message",
        [
            (None, (), "grid must be a CellGrid, got NoneType"),
            ((8, 8, 1280, 720), (), "grid must be a CellGrid, got tuple"),
            (
                GRID,
                5,
                "receivers must be a tuple or list of (ground truth, distance_cm) pairs, got int",
            ),
            (
                GRID,
                iter(()),
                "receivers must be a tuple or list of (ground truth, distance_cm) pairs, "
                "got tuple_iterator",
            ),
        ],
        ids=["none-grid", "tuple-grid", "int-receivers", "iterator-receivers"],
    )
    def test_rejects_a_grid_or_receivers_of_the_wrong_type(self, grid, receivers, message):
        with pytest.raises(DomainError) as e:
            SyntheticScene(grid, receivers)
        assert str(e.value) == message

    def test_accepts_a_list_of_receivers(self):
        receivers = [(_receiver_in_cell(GRID, 0, image_id=0), 120.0)]
        assert SyntheticScene(GRID, receivers).receivers == receivers


class TestSampleDetections:
    def _scene(self, cells, distance=120.0):
        receivers = tuple(
            (_receiver_in_cell(GRID, cell, image_id=i), distance) for i, cell in enumerate(cells)
        )
        return SyntheticScene(grid=GRID, receivers=receivers)

    def test_always_correct_profile(self):
        scene = self._scene([0, 17, 36, 63])
        dets = sample_detections(scene, _profile([(0.5, 1.0)]), 0.5, rng_seed=1)
        for det, (gt, _) in zip(dets, scene.receivers):
            assert _detected_cell(det, GRID) == _detected_cell_of_gt(gt)
            assert 0.8 <= det.score <= 1.0

    def test_never_correct_profile(self):
        scene = self._scene([0, 17, 36, 63] * 25)
        dets = sample_detections(scene, _profile([(0.5, 0.0)]), 0.5, rng_seed=2)
        for det, (gt, _) in zip(dets, scene.receivers):
            assert _detected_cell(det, GRID) != _detected_cell_of_gt(gt)
            assert 0.5 <= det.score <= 0.8

    def test_one_detection_per_receiver(self):
        scene = self._scene([1, 2, 3])
        dets = sample_detections(scene, builtin_profile(), 0.5, rng_seed=3)
        assert [d.image_id for d in dets] == [0, 1, 2]

    def test_deterministic_given_seed(self):
        scene = self._scene([5, 6, 7, 8])
        a = sample_detections(scene, builtin_profile(), 0.5, rng_seed=11)
        b = sample_detections(scene, builtin_profile(), 0.5, rng_seed=11)
        assert a == b
        c = sample_detections(scene, builtin_profile(), 0.5, rng_seed=12)
        assert a != c

    def test_correct_fraction_converges_to_profile_ap(self):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(99))
        cells = rng.integers(0, GRID.n_cells, size=100_000)
        scene = self._scene(cells.tolist())
        dets = sample_detections(scene, builtin_profile(), 0.5, rng_seed=4)
        hits = sum(
            _detected_cell(det, GRID) == int(cell) for det, cell in zip(dets, cells)
        )
        fraction = hits / len(cells)
        assert abs(fraction - 0.70) <= 0.01 * 0.70

    def test_single_cell_grid_needs_certain_profile(self):
        grid = CellGrid(1, 1, 200, 100)
        gt = GroundTruthObject(image_id=0, bbox=BBox(50, 25, 100, 50))
        scene = SyntheticScene(grid=grid, receivers=((gt, 120.0),))
        with pytest.raises(UsageError):
            sample_detections(scene, _profile([(0.5, 0.5)]), 0.5, rng_seed=1)
        dets = sample_detections(scene, _profile([(0.5, 1.0)]), 0.5, rng_seed=1)
        assert len(dets) == 1

    def test_correct_detection_keeps_the_receiver_box(self):
        scene = self._scene([3, 4])
        dets = sample_detections(scene, _profile([(0.5, 1.0)]), 0.5, rng_seed=1)
        assert all(det.bbox is gt.bbox for det, (gt, _) in zip(dets, scene.receivers))

    @pytest.mark.parametrize("seed", range(6))
    def test_plain_tuple_box_on_either_draw(self, seed):
        # Seeds 0-3 draw a correct detection here, 4-5 a wrong one.
        box = (100.0, 100.0, 50.0, 20.0)
        scene = SyntheticScene(grid=GRID, receivers=((GroundTruthObject(0, box), 120.0),))
        (det,) = sample_detections(scene, builtin_profile(), 0.5, rng_seed=seed)
        if seed < 4:
            assert det.bbox is box
        else:
            assert type(det.bbox) is BBox and det.bbox[2:] == (50.0, 20.0)
            assert _detected_cell(det, GRID) != cell_of_point(GRID, 125.0, 110.0)

    def test_negative_seed_rejected_before_drawing(self):
        scene = self._scene([1])
        with pytest.raises(UsageError) as e:
            sample_detections(scene, builtin_profile(), 0.5, rng_seed=-1)
        assert str(e.value) == "seed must be >= 0, got -1"

    @pytest.mark.parametrize("seed", [2.5, 3.0, "3"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(UsageError) as e:
            sample_detections(self._scene([1]), builtin_profile(), 0.5, rng_seed=seed)
        assert str(e.value) == f"seed must be an integer, got {seed!r}"

    def test_numpy_integer_seed_accepted(self):
        scene = self._scene([1, 5, 9])
        expected = sample_detections(scene, builtin_profile(), 0.5, rng_seed=3)
        assert sample_detections(scene, builtin_profile(), 0.5, rng_seed=np.int64(3)) == expected

    def test_grid_of_2_pow_63_cells_refused_as_simulate_refuses_it(self):
        grid = CellGrid(2**32, 2**32, 2**33, 2**33)
        scene = SyntheticScene(grid, ((GroundTruthObject(0, BBox(10, 10, 4, 2)), 120.0),))
        with pytest.raises(UsageError) as e:
            sample_detections(scene, builtin_profile(), 0.5, rng_seed=1)
        with pytest.raises(UsageError) as simulated:
            simulate_guided(ScanConfig(grid.n_cells, 2.0, 0.2, 0.7), rng_seed=1, trials=1)
        assert str(e.value) == str(simulated.value)
        assert str(e.value) == f"simulation needs n_cells < 2**63, got {2**64}"

    def test_receiver_centred_on_far_edge_maps_to_last_column(self):
        # A zero-width box on the right edge has its center on the excluded
        # edge; its true cell is the last column of its row on every draw.
        grid = CellGrid(2, 2, 100, 100)
        gt = GroundTruthObject(0, BBox(100.0, 10.0, 0.0, 5.0))
        scene = SyntheticScene(grid, ((gt, 50.0),))
        outcomes = set()
        for seed in range(64):
            (det,) = sample_detections(scene, builtin_profile(), 0.5, rng_seed=seed)
            correct = det.bbox is gt.bbox
            outcomes.add(correct)
            assert (detections_to_candidates([det], grid) == [grid.cols - 1]) == correct, seed
        assert outcomes == {True, False}


def _detected_cell_of_gt(gt):
    return _detected_cell(gt, GRID)


class TestDetectionsToCandidates:
    def _det(self, cell, score, image_id="img"):
        cx, cy = cell_center(GRID, cell)
        return Detection(image_id=image_id, bbox=BBox(cx - 10, cy - 5, 20, 10), score=score)

    def test_single_detection(self):
        assert detections_to_candidates([self._det(12, 0.9)], GRID) == [12]

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_plain_tuple_box_maps_on_both_paths(self, seed):
        # Seeds 0-3 draw a correct detection, which keeps the receiver's tuple box.
        box = (100.0, 100.0, 50.0, 20.0)
        scene = SyntheticScene(grid=GRID, receivers=((GroundTruthObject(0, box), 120.0),))
        (det,) = sample_detections(scene, builtin_profile(), 0.5, rng_seed=seed)
        assert det.bbox is box
        assert detections_to_candidates([det], GRID) == [8]
        assert detections_to_candidates([det, det], GRID) == [8]

    def test_ordered_by_descending_score(self):
        dets = [self._det(3, 0.9), self._det(7, 0.95)]
        assert detections_to_candidates(dets, GRID) == [7, 3]

    def test_same_cell_deduplicated(self):
        dets = [self._det(5, 0.9), self._det(5, 0.8)]
        assert detections_to_candidates(dets, GRID) == [5]

    def test_score_tie_keeps_input_order(self):
        dets = [self._det(2, 0.9), self._det(9, 0.9)]
        assert detections_to_candidates(dets, GRID) == [2, 9]

    def test_empty_input(self):
        assert detections_to_candidates([], GRID) == []

    @pytest.mark.parametrize(
        "box,cell",
        [
            (BBox(-100, 10, 124, 62), 0),  # center (-38, 41), left of the image
            (BBox(1270, 300, 124, 62), 31),  # right of row 3
            (BBox(600, -80, 124, 62), 4),  # above column 4
            (BBox(600, 700, 124, 62), 60),  # below column 4
            (BBox(-500, 900, 10, 10), 56),  # past the bottom-left corner
            (BBox(1280, 720, 0, 0), 63),  # on the excluded far corner
            (BBox(float("inf"), 0, 0, 0), 7),
        ],
    )
    def test_center_off_image_maps_to_nearest_edge_cell(self, box, cell):
        assert detections_to_candidates([Detection(image_id=1, bbox=box, score=0.9)], GRID) == [cell]

    def test_nan_center_rejected(self):
        det = Detection(image_id=1, bbox=BBox(float("nan"), 10, 124, 62), score=0.9)
        with pytest.raises(DomainError):
            detections_to_candidates([det], GRID)

    def test_mixed_images_rejected(self):
        dets = [self._det(1, 0.9, image_id="a"), self._det(2, 0.8, image_id="b")]
        with pytest.raises(UsageError):
            detections_to_candidates(dets, GRID)
