import csv
import io
import json

import pytest

from rbcscan.cli import MAX_AP_ROWS, _ap_grid, build_parser, main
from rbcscan.detector import builtin_profile
from rbcscan.errors import UsageError
from rbcscan.formats import emit_profile, emit_scenario, parse_annotations, parse_scenario

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


class TestParser:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 3

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
