import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rbcscan
from rbcscan import scanning
from rbcscan.cli import MAX_AP_ROWS, _ap_grid, build_parser, main
from rbcscan.detector import builtin_profile
from rbcscan.errors import UsageError
from rbcscan.formats import emit_profile, emit_scenario, parse_annotations, parse_scenario
from rbcscan.scanning import MAX_TRIALS

SCENARIO = {
    "camera": {"focal_px": 1062.857142857143, "ref_width": 1280, "ref_height": 720},
    "grid": {"rows": 8, "cols": 8, "image_width": 1280, "image_height": 720},
    "scan": {"n_cells": 64, "t_scan_s": 2.0, "t_detect_s": 0.2, "ap": 0.70},
    "profile": "mask-rcnn-smartphone",
    "trials": 50000,
    "seed": 7,
}

ANNOTATIONS = {
    "images": [
        {"image_id": "img1", "width": 1280, "height": 720},
        {"image_id": "img2", "width": 1280, "height": 720},
    ],
    "objects": [
        {"image_id": "img1", "class_label": "smartphone", "bbox": [100, 50, 124, 62]},
        {"image_id": "img1", "class_label": "smartphone", "bbox": [600, 300, 124, 62]},
        {"image_id": "img2", "class_label": "smartphone", "bbox": [10, 10, 124, 62]},
    ],
}

DETECTIONS = {
    "detections": [
        {"image_id": "img1", "class_label": "smartphone", "bbox": [100, 50, 124, 62], "score": 0.95},
        {"image_id": "img1", "class_label": "smartphone", "bbox": [600, 300, 124, 62], "score": 0.9},
        {"image_id": "img2", "class_label": "smartphone", "bbox": [10, 10, 124, 62], "score": 0.85},
    ]
}


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr()


def _error_line(captured):
    """The single ``error:`` line a failed run prints, after checking that
    it printed nothing else."""
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


def _eval_argv(tmp_path):
    gt = tmp_path / "gt.json"
    det = tmp_path / "det.json"
    gt.write_text(json.dumps(ANNOTATIONS), encoding="utf-8")
    det.write_text(json.dumps(DETECTIONS), encoding="utf-8")
    return ["eval", "--ground-truth", str(gt), "--detections", str(det)]


class TestAnalyticCommand:
    def test_reference_row_present(self, capsys):
        rc, captured = _run(capsys, ["analytic"])
        assert rc == 0
        rows = _rows(captured.out)
        assert rows[0] == ["kind", "ap", "t1_s", "t2_s"]
        by_ap = {row[1]: row for row in rows[1:] if row[0] == "curve"}
        assert by_ap["0.7"][2] == "65"
        assert float(by_ap["0.7"][3]) == pytest.approx(21.4, abs=1e-9)
        assert float(by_ap["1"][3]) == pytest.approx(2.2, abs=1e-9)

    def test_breakeven_footer(self, capsys):
        rc, captured = _run(capsys, ["analytic"])
        rows = _rows(captured.out)
        footer = rows[-1]
        assert footer[0] == "breakeven"
        assert float(footer[1]) == pytest.approx(0.01875, abs=1e-12)
        assert float(footer[2]) == pytest.approx(float(footer[3]), abs=1e-9)

    def test_single_point_grid(self, capsys):
        rc, captured = _run(capsys, ["analytic", "--ap-start", "0.7", "--ap-stop", "0.7"])
        assert rc == 0
        rows = _rows(captured.out)
        kinds = [row[0] for row in rows[1:]]
        assert kinds == ["curve", "breakeven"]

    @pytest.mark.parametrize("flag", ["--t-scan", "--t-detect"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_timing_is_invariant_error(self, capsys, flag, value):
        rc, captured = _run(capsys, ["analytic", "--n-cells", "64", flag, value])
        assert rc == 2
        assert captured.out == ""

    def test_bad_sweep_rejected(self, capsys):
        rc, captured = _run(capsys, ["analytic", "--ap-start", "0.9", "--ap-stop", "0.1"])
        assert rc == 3

    def test_sweep_bound_outside_unit_interval(self, capsys):
        rc, captured = _run(capsys, ["analytic", "--ap-start", "2"])
        assert rc == 3
        assert "AP sweep bounds" in _error_line(captured)

    @pytest.mark.parametrize("flag", ["--ap-start", "--ap-stop"])
    @pytest.mark.parametrize("value", ["2", "-0.5", "nan"])
    def test_sweep_bound_error_names_its_flag(self, capsys, flag, value):
        rc, captured = _run(capsys, ["analytic", flag, value])
        assert rc == 3
        assert f"got {flag} {float(value)}\n" in _error_line(captured)

    @pytest.mark.parametrize("step", ["nan", "-0.1", "0", "1e-12", "1e-320"])
    def test_bad_step_is_usage_error(self, capsys, step):
        rc, captured = _run(capsys, ["analytic", f"--ap-step={step}"])
        assert rc == 3
        assert "--ap-step" in captured.err
        assert captured.out == ""

    def test_row_cap_is_exact(self):
        # Counted by _ap_grid before any row of the sweep is computed.
        assert len(_ap_grid(0.0, 1.0, 1 / (MAX_AP_ROWS - 1))) == MAX_AP_ROWS
        with pytest.raises(UsageError, match="rows"):
            _ap_grid(0.0, 1.0, 1 / MAX_AP_ROWS)

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc, captured = _run(capsys, ["analytic", "--output", str(out)])
        assert rc == 0
        assert captured.out == ""
        assert out.read_text(encoding="utf-8").startswith("kind,ap,t1_s,t2_s")


class TestSimulateCommand:
    def test_runs_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
        rc, captured = _run(capsys, ["simulate", "--scenario", str(scenario)])
        assert rc == 0
        rows = _rows(captured.out)
        assert rows[0] == ["strategy", "trials", "mean_s", "stderr_s", "analytic_s", "relative_error"]
        assert [row[0] for row in rows[1:]] == ["traditional", "guided"]
        for row in rows[1:]:
            assert row[1] == "50000"
            assert float(row[5]) < 0.05

    def test_trials_and_seed_override(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
        rc, first = _run(capsys, ["simulate", "--scenario", str(scenario), "--trials", "1000"])
        rc2, second = _run(capsys, ["simulate", "--scenario", str(scenario), "--trials", "1000"])
        assert rc == rc2 == 0
        assert first.out == second.out  # same seed, bit-identical
        rc3, third = _run(
            capsys, ["simulate", "--scenario", str(scenario), "--trials", "1000", "--seed", "8"]
        )
        assert rc3 == 0
        assert third.out != first.out

    def test_negative_seed(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
        rc, captured = _run(capsys, ["simulate", "--scenario", str(scenario), "--seed", "-1"])
        assert (rc, captured.out) == (3, "")
        assert captured.err == "error: seed must be >= 0, got -1\n"
        scenario.write_text(json.dumps(dict(SCENARIO, seed=-5)), encoding="utf-8")
        rc, captured = _run(capsys, ["simulate", "--scenario", str(scenario)])
        assert (rc, captured.out) == (2, "")
        assert captured.err == "error: $.seed: must be >= 0, got -5\n"

    @pytest.mark.parametrize(
        "option, scenario_trials, code, message",
        [
            (MAX_TRIALS + 1, 10, 3, f"trials must be <= {MAX_TRIALS} per strategy, got {MAX_TRIALS + 1}"),
            (10**12, 10, 3, f"trials must be <= {MAX_TRIALS} per strategy, got {10**12}"),
            (None, MAX_TRIALS + 1, 2, f"$.trials: must be <= {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
            (10, MAX_TRIALS + 1, 2, f"$.trials: must be <= {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
        ],
        ids=["option-just-above", "option-1e12", "scenario", "scenario-despite-option"],
    )
    def test_trial_count_is_bounded(
        self, tmp_path, capsys, monkeypatch, option, scenario_trials, code, message
    ):
        assert MAX_TRIALS == 10**9

        def must_not_run(*args):  # an unbounded run would take hours, not fail
            raise AssertionError("simulated past the trial bound")

        monkeypatch.setattr(scanning, "_batch_rng", must_not_run)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(SCENARIO, trials=scenario_trials)), encoding="utf-8")
        argv = ["simulate", "--scenario", str(scenario)]
        if option is not None:
            argv += ["--trials", str(option)]
        start = time.perf_counter()
        rc, captured = _run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (rc, captured.out) == (code, "")
        assert captured.err == f"error: {message}\n"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc, captured = _run(capsys, ["simulate", "--scenario", str(tmp_path / "none.json")])
        assert rc == 1
        assert "error" in captured.err

    def test_schema_error_exit_code(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{not json", encoding="utf-8")
        rc, captured = _run(capsys, ["simulate", "--scenario", str(scenario)])
        assert rc == 1

    def test_unresolvable_profile_is_schema_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(SCENARIO, profile="mask-rcnn-smartpone")), "utf-8")
        rc, captured = _run(capsys, ["simulate", "--scenario", str(scenario)])
        assert rc == 1
        assert "'mask-rcnn-smartpone'" in captured.err
        assert captured.out == ""

    def test_profile_path_is_relative_to_the_scenario(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "custom.json").write_text(emit_profile(builtin_profile()), "utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(SCENARIO, profile="custom.json")), "utf-8")
        monkeypatch.chdir(tmp_path.parent)
        rc, captured = _run(capsys, ["simulate", "--scenario", str(scenario), "--trials", "10"])
        assert rc == 0, captured.err

    def test_bad_profile_file_is_named_in_the_error(self, tmp_path, capsys):
        (tmp_path / "custom.json").write_text(json.dumps({"name": "x"}), "utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(SCENARIO, profile="custom.json")), "utf-8")
        rc, captured = _run(capsys, ["simulate", "--scenario", str(scenario)])
        assert rc == 1
        assert captured.err == (
            f"error: profile 'custom.json' ({tmp_path / 'custom.json'}): "
            "$.per_image_latency_s: required field is missing\n"
        )
        assert captured.out == ""

    def test_invalid_profile_values_keep_their_exit_code(self, tmp_path, capsys):
        profile = json.loads(emit_profile(builtin_profile()))
        (tmp_path / "custom.json").write_text(json.dumps(dict(profile, per_image_latency_s=-1)), "utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(SCENARIO, profile="custom.json")), "utf-8")
        rc, captured = _run(capsys, ["simulate", "--scenario", str(scenario)])
        assert rc == 2
        assert captured.err.startswith(f"error: profile 'custom.json' ({tmp_path / 'custom.json'}): $: ")

    @pytest.mark.parametrize(
        "argv, scenario, code, message",
        [
            (["analytic", "--t-scan", "1e308"], None, 2, "scan times overflow"),
            (["analytic", "--n-cells", str(10**400)], None, 2, "scan times overflow"),
            (["simulate"], {"scan": {"t_scan_s": 1e308}}, 2, "$.scan: scan times overflow"),
            (["simulate"], {"scan": {"t_scan_s": 1e200}}, 2, "simulated times overflow"),
            (
                ["simulate"],
                {"grid": {"rows": 2**40, "cols": 2**30}, "scan": {"n_cells": 2**70}},
                3,
                "simulation needs n_cells < 2**63",
            ),
            (
                ["simulate"],
                {
                    "grid": {"rows": 1, "cols": 10**400},
                    "scan": {"n_cells": 10**400, "t_scan_s": 2, "t_detect_s": 0},
                },
                2,
                "$.scan: scan times overflow",
            ),
        ],
        ids=[
            "analytic-t-scan",
            "analytic-n-cells",
            "t-scan-1e308",
            "t-scan-1e200",
            "huge-grid",
            "integer-scan-times",
        ],
    )
    def test_overflow_is_an_error_not_a_row(self, tmp_path, capsys, argv, scenario, code, message):
        if scenario is not None:
            payload = {
                **SCENARIO,
                "trials": 10,
                **{k: dict(SCENARIO[k], **v) for k, v in scenario.items()},
            }
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            argv = [*argv, "--scenario", str(path)]
        rc, captured = _run(capsys, argv)
        assert (rc, captured.out) == (code, "")
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    def test_invariant_error_exit_code(self, tmp_path, capsys):
        payload = dict(SCENARIO, scan=dict(SCENARIO["scan"], n_cells=63))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(payload), encoding="utf-8")
        rc, captured = _run(capsys, ["simulate", "--scenario", str(scenario)])
        assert rc == 2


class TestGeometryCommand:
    def test_default_table(self, capsys):
        rc, captured = _run(capsys, ["geometry"])
        assert rc == 0
        rows = _rows(captured.out)
        assert rows[0] == ["distance_cm", "resolution", "width_px", "height_px", "detectable"]
        assert len(rows) == 1 + 4 * 2  # four distances, two resolutions
        table = {(row[0], row[1]): row for row in rows[1:]}
        assert table[("120", "1280x720")][2:] == ["124", "62", "true"]
        assert table[("120", "640x360")][2:] == ["62", "31", "true"]
        assert table[("350", "640x360")][4] == "false"

    def test_calibrate_flag_matches_default(self, capsys):
        rc, defaults = _run(capsys, ["geometry"])
        rc2, calibrated = _run(capsys, ["geometry", "--calibrate", "14", "120", "124"])
        assert rc == rc2 == 0
        assert defaults.out == calibrated.out

    def test_focal_and_calibrate_conflict(self, capsys):
        rc, captured = _run(
            capsys, ["geometry", "--focal-px", "1000", "--calibrate", "14", "120", "124"]
        )
        assert rc == 3

    def test_focal_and_calibrate_conflict_names_both_flags(self, capsys):
        rc, captured = _run(
            capsys, ["geometry", "--focal-px", "1000", "--calibrate", "14", "120", "124"]
        )
        assert (rc, captured.out) == (3, "")
        assert captured.err == (
            "error: argument --calibrate: not allowed with argument --focal-px\n"
        )

    def test_custom_resolution_list(self, capsys):
        rc, captured = _run(capsys, ["geometry", "--resolutions", "1280x720"])
        assert rc == 0
        assert len(_rows(captured.out)) == 1 + 4

    def test_bad_resolution_spec(self, capsys):
        rc, _ = _run(capsys, ["geometry", "--resolutions", "1280by720"])
        assert rc == 3

    def test_aspect_mismatch_is_invariant_error(self, capsys):
        rc, _ = _run(capsys, ["geometry", "--resolutions", "640x480"])
        assert rc == 2

    def test_empty_resolution_is_invariant_error(self, capsys):
        rc, captured = _run(capsys, ["geometry", "--resolutions", "0x0"])
        assert rc == 2
        assert "0x0" in _error_line(captured)

    def test_empty_list_entries_are_skipped(self, capsys):
        rc, plain = _run(capsys, ["geometry", "--resolutions", "1280x720"])
        rc2, trailing = _run(capsys, ["geometry", "--resolutions", "1280x720,"])
        assert rc == rc2 == 0
        assert trailing.out == plain.out

    @pytest.mark.parametrize(
        "option",
        [
            ["--focal-px", "nan"],
            ["--focal-px", "inf"],
            ["--distances", "nan"],
            ["--distances", "120,inf"],
            ["--distances", "1e-320"],  # finite, but the projected size overflows
            ["--calibrate", "14", "120", "nan"],
            ["--calibrate", "inf", "120", "124"],
            ["--calibrate", "1", "1e200", "1e200"],  # finite, but the focal length overflows
            ["--receiver-width-cm", "nan"],
            ["--receiver-height-cm", "inf"],
            ["--min-width-px", "nan"],
            ["--min-height-px", "inf"],
        ],
    )
    def test_non_finite_option_is_invariant_error(self, capsys, option):
        rc, captured = _run(capsys, ["geometry", *option])
        assert rc == 2
        assert "finite" in captured.err
        assert captured.out == ""


class TestEvalCommand:
    def test_perfect_detections(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        det = tmp_path / "det.json"
        gt.write_text(json.dumps(ANNOTATIONS), encoding="utf-8")
        det.write_text(json.dumps(DETECTIONS), encoding="utf-8")
        rc, captured = _run(capsys, ["eval", "--ground-truth", str(gt), "--detections", str(det)])
        assert rc == 0
        rows = _rows(captured.out)
        assert rows[0] == ["metric", "iou_threshold", "value"]
        ap_rows = [row for row in rows[1:] if row[0] == "ap"]
        assert len(ap_rows) == 10
        assert all(row[2] == "1" for row in ap_rows)
        assert [row[2] for row in rows[1:] if row[0] == "map"] == ["1"]

    def test_custom_thresholds(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        det = tmp_path / "det.json"
        gt.write_text(json.dumps(ANNOTATIONS), encoding="utf-8")
        det.write_text(json.dumps(DETECTIONS), encoding="utf-8")
        rc, captured = _run(
            capsys,
            ["eval", "--ground-truth", str(gt), "--detections", str(det), "--thresholds", "0.5,0.75"],
        )
        assert rc == 0
        ap_rows = [row for row in _rows(captured.out)[1:] if row[0] == "ap"]
        assert [row[1] for row in ap_rows] == ["0.5", "0.75"]

    def test_bad_detection_file_exit_code(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        det = tmp_path / "det.json"
        gt.write_text(json.dumps(ANNOTATIONS), encoding="utf-8")
        bad = {"detections": [dict(DETECTIONS["detections"][0], score=2.0)]}
        det.write_text(json.dumps(bad), encoding="utf-8")
        rc, captured = _run(capsys, ["eval", "--ground-truth", str(gt), "--detections", str(det)])
        assert rc == 2
        assert "score" in captured.err

    @pytest.mark.parametrize("cutoff", ["-32", "0", "nan", "inf"])
    def test_bad_small_cutoff_is_usage_error(self, tmp_path, capsys, cutoff):
        gt = tmp_path / "gt.json"
        det = tmp_path / "det.json"
        gt.write_text(json.dumps(ANNOTATIONS), encoding="utf-8")
        det.write_text(json.dumps(DETECTIONS), encoding="utf-8")
        argv = ["eval", "--ground-truth", str(gt), "--detections", str(det)]
        rc, captured = _run(capsys, argv + [f"--small-cutoff={cutoff}"])
        assert rc == 3
        assert "small_cutoff" in captured.err

    def test_non_finite_number_is_schema_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        det = tmp_path / "det.json"
        objects = [dict(ANNOTATIONS["objects"][0], bbox=[float("nan"), 50, 124, 62])]
        gt.write_text(json.dumps(dict(ANNOTATIONS, objects=objects)), encoding="utf-8")
        det.write_text(json.dumps(DETECTIONS), encoding="utf-8")
        rc, captured = _run(capsys, ["eval", "--ground-truth", str(gt), "--detections", str(det)])
        assert rc == 1
        assert "NaN" in captured.err

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            (
                "--detections",
                json.dumps(
                    {"detections": [dict(DETECTIONS["detections"][0], bbox=[10**400, 0, 1, 1])]}
                ),
                "detections[0].bbox[0]: expected a finite number, got an integer too large",
            ),
            (
                "--ground-truth",
                json.dumps(ANNOTATIONS).replace('"width": 1280', '"width": ' + "1" * 5000, 1),
                "digits",
            ),
            (
                "--detections",
                '{"detections": ' + "[" * 100_000 + "]" * 100_000 + "}",
                "nested too deeply",
            ),
        ],
        ids=["too-large-for-a-float", "past-the-digit-limit", "nested-too-deeply"],
    )
    def test_json_past_python_limits_is_schema_error(self, tmp_path, capsys, flag, text, message):
        files = {"--ground-truth": json.dumps(ANNOTATIONS), "--detections": json.dumps(DETECTIONS)}
        argv = ["eval"]
        for name, content in {**files, flag: text}.items():
            path = tmp_path / f"{name[2:]}.json"
            path.write_text(content, encoding="utf-8")
            argv += [name, str(path)]
        rc, captured = _run(capsys, argv)
        assert rc == 1
        assert message in captured.err


class TestAugmentCommand:
    def test_doubles_and_quadruples(self, tmp_path, capsys):
        src = tmp_path / "ann.json"
        src.write_text(json.dumps(ANNOTATIONS), encoding="utf-8")
        once = tmp_path / "doubled.json"
        rc, _ = _run(capsys, ["augment", "--annotations", str(src), "--output", str(once)])
        assert rc == 0
        doubled = parse_annotations(once.read_text(encoding="utf-8"))
        assert len(doubled.images) == 4
        assert len(doubled.objects) == 6

        rc2, captured = _run(capsys, ["augment", "--annotations", str(once)])
        assert rc2 == 0
        quadrupled = parse_annotations(captured.out)
        assert len(quadrupled.objects) == 12

    def test_flip_geometry(self, tmp_path, capsys):
        src = tmp_path / "ann.json"
        src.write_text(json.dumps(ANNOTATIONS), encoding="utf-8")
        rc, captured = _run(capsys, ["augment", "--annotations", str(src)])
        doubled = parse_annotations(captured.out)
        flipped_xs = sorted(
            gt.bbox.x for gt in doubled.objects if gt.image_id == "img1_flip"
        )
        expected = sorted(1280 - x - w for x, _, w, _ in
                          (obj["bbox"] for obj in ANNOTATIONS["objects"][:2]))
        assert flipped_xs == expected


class TestListFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("eval", "--thresholds", "a,b"),
            ("eval", "--thresholds", ","),
            ("eval", "--thresholds", ""),
            ("geometry", "--resolutions", ","),
            ("geometry", "--resolutions", ""),
            ("geometry", "--distances", ""),
        ],
        ids=["not-numbers", "only-commas", "thresholds-empty", "resolutions-only-commas",
             "resolutions-empty", "distances-empty"],
    )
    def test_bad_or_empty_list_is_usage_error(self, tmp_path, capsys, command, flag, value):
        # An explicitly empty list is refused, not read as the default.
        argv = _eval_argv(tmp_path) if command == "eval" else [command]
        rc, captured = _run(capsys, [*argv, flag, value])
        assert rc == 3
        assert flag in _error_line(captured)

    def test_defaults_are_the_documented_lists(self, capsys):
        rc, default = _run(capsys, ["geometry"])
        rc2, explicit = _run(
            capsys,
            ["geometry", "--distances", "120,200,250,350", "--resolutions", "1280x720,640x360"],
        )
        assert rc == rc2 == 0
        assert default.out == explicit.out


class TestFileInputs:
    @pytest.mark.parametrize(
        "bad, command",
        [
            ("ground-truth", "eval"),
            ("detections", "eval"),
            ("scenario", "simulate"),
            ("profile", "simulate"),
            ("annotations", "augment"),
        ],
    )
    def test_non_utf8_input_is_schema_error(self, tmp_path, capsys, bad, command):
        texts = {
            "ground-truth": json.dumps(ANNOTATIONS),
            "detections": json.dumps(DETECTIONS),
            "scenario": json.dumps(dict(SCENARIO, profile="profile.json")),
            "profile": emit_profile(builtin_profile()),
            "annotations": json.dumps(ANNOTATIONS),
        }
        paths = {name: str(tmp_path / f"{name}.json") for name in texts}
        for name, text in texts.items():
            Path(paths[name]).write_text(text, encoding="utf-8")
        Path(paths[bad]).write_bytes(b"\xff{}")
        argv = {
            "eval": ["--ground-truth", paths["ground-truth"], "--detections", paths["detections"]],
            "simulate": ["--scenario", paths["scenario"]],
            "augment": ["--annotations", paths["annotations"]],
        }[command]
        rc, captured = _run(capsys, [command, *argv])
        assert rc == 1
        assert paths[bad] in _error_line(captured)

    @pytest.mark.parametrize(
        "ap_vs_distance", [[[120, "", 0.5]], [[120, "1280x720", 1.5]]], ids=["no-tag", "ap-1.5"]
    )
    def test_profile_file_invariant_is_domain_error(self, tmp_path, capsys, ap_vs_distance):
        profile = dict(json.loads(emit_profile(builtin_profile())), ap_vs_distance=ap_vs_distance)
        (tmp_path / "custom.json").write_text(json.dumps(profile), "utf-8")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(SCENARIO, profile="custom.json")), "utf-8")
        rc, captured = _run(capsys, ["simulate", "--scenario", str(scenario)])
        assert rc == 2
        assert "ap_vs_distance" in _error_line(captured)

    def test_negative_split_is_domain_error(self, tmp_path, capsys):
        src = tmp_path / "ann.json"
        src.write_text(json.dumps(dict(ANNOTATIONS, split={"train": -1})), encoding="utf-8")
        rc, captured = _run(capsys, ["augment", "--annotations", str(src)])
        assert rc == 2
        assert "split" in _error_line(captured)


def test_module_entry_point():
    """``python -m rbcscan.cli`` runs the installed script's ``run``."""
    src = str(Path(rbcscan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "rbcscan.cli", *argv], capture_output=True, env=env, timeout=60
        )

    ok = cli("analytic")
    assert ok.returncode == 0, ok.stderr
    assert hashlib.sha256(ok.stdout).hexdigest() == (
        "d60cf69a8c4d09bec3b4fa13c2b1c40f370347238fc4cff9bfe4f3cc57a19726"
    )
    bad = cli("analytic", "--n-cells", "1")
    assert (bad.returncode, bad.stdout) == (3, b"")
    assert bad.stderr.startswith(b"error: ") and bad.stderr.count(b"\n") == 1


_IMPORT_GRAPH = """
import contextlib, io, sys

def main_exit(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return main(argv)
        except SystemExit as e:  # --help
            return e.code

import rbcscan
assert "numpy" not in sys.modules, "import rbcscan"
from rbcscan.cli import main
assert "numpy" not in sys.modules, "import rbcscan.cli"
for argv, code in [
    (["--help"], 0),
    (["analytic"], 0),
    (["geometry"], 0),
    (["augment", "--annotations", "data/sample_annotations.json"], 0),
    (["analytic", "--n-cells", "0"], 2),
    (["analytic", "--n-cells", "1"], 3),
]:
    assert main_exit(argv) == code, argv
    assert "numpy" not in sys.modules, argv

eval_argv = ["eval", "--ground-truth", "data/sample_annotations.json",
             "--detections", "data/sample_detections.json"]
assert main_exit(eval_argv) == 0
assert "numpy" in sys.modules, "eval ran without numpy"
# number() must see numpy's scalar types once numpy is loaded.
import numpy as np
from rbcscan import CellGrid, cell_center
grid = CellGrid(np.int64(8), 8, 1280, 720)
assert cell_center(grid, np.int64(3)) == cell_center(grid, 3)
"""


def test_numpy_is_loaded_only_by_the_commands_that_compute_with_arrays():
    """``import rbcscan``, ``--help``, ``analytic``, ``geometry``, ``augment``
    and rejected arguments run without numpy; ``eval`` loads it, and numpy
    scalars are accepted once it is loaded."""
    root = Path(__file__).resolve().parent.parent
    src = str(Path(rbcscan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH], cwd=root, capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()


_NO_RECORD_MACHINERY = """
import contextlib, io, sys

def main_exit(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return main(argv)
        except SystemExit as e:  # --help
            return e.code

def check(step, numpy_free=True):
    assert "dataclasses" not in sys.modules, step
    if numpy_free:
        assert "numpy" not in sys.modules and "inspect" not in sys.modules, step

import rbcscan
check("import rbcscan")
from rbcscan.cli import main
check("import rbcscan.cli")
for argv in (
    ["--help"],
    ["analytic"],
    ["geometry"],
    ["augment", "--annotations", "data/sample_annotations.json"],
):
    assert main_exit(argv) == 0, argv
    check(argv)
# numpy imports inspect itself, but not dataclasses.
for argv in (
    ["eval", "--ground-truth", "data/sample_annotations.json",
     "--detections", "data/sample_detections.json"],
    ["simulate", "--scenario", "scenarios/default.json", "--trials", "1000"],
):
    assert main_exit(argv) == 0, argv
    check(argv, numpy_free=False)
"""


def test_records_load_neither_dataclasses_nor_inspect():
    """Records are NamedTuples, so no command loads ``dataclasses``, and
    the numpy-free ones do not load ``inspect`` either."""
    root = Path(__file__).resolve().parent.parent
    src = str(Path(rbcscan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_RECORD_MACHINERY],
        cwd=root, capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()


class TestParser:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 3

    def test_missing_subcommand_lists_the_declared_ones(self, capsys):
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert main([]) == 3
        listed = _error_line(capsys.readouterr()).rstrip("\n").rsplit("{", 1)[1].rstrip("}")
        assert listed.split(",") == list(sub.choices)

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["analytic", "--fricassee"]) == 3

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_parser_declares_all_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["analytic", "--n-cells", "16"])
        assert args.n_cells == 16
        args = parser.parse_args(["geometry", "--distances", "100,200"])
        assert args.distances == "100,200"


class TestScenarioFixture:
    def test_repo_scenario_parses(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scenarios" / "default.json"
        sc = parse_scenario(path.read_text(encoding="utf-8"))
        assert sc.scan.n_cells == 64
        assert sc.scan.t_scan_s == 2.0
        assert sc.scan.t_detect_s == 0.2
        assert sc.scan.ap == 0.70

    def test_repo_scenario_converges_within_half_percent(self, capsys):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scenarios" / "default.json"
        rc, captured = _run(capsys, ["simulate", "--scenario", str(path)])
        assert rc == 0
        for row in _rows(captured.out)[1:]:
            assert row[1] == "1000000"
            assert float(row[5]) < 0.005

    def test_emit_matches_repo_fixture_after_round_trip(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scenarios" / "default.json"
        text = path.read_text(encoding="utf-8")
        sc = parse_scenario(text)
        assert parse_scenario(emit_scenario(sc)) == sc
