import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rbcscan
from rbcscan import cli, scanning
from rbcscan.cli import MAX_AP_ROWS, _ap_grid, build_parser, main
from rbcscan.detector import builtin_profile
from rbcscan.errors import RbcScanError, UsageError
from rbcscan.formats import emit_profile, emit_scenario, parse_annotations, parse_scenario
from rbcscan.metrics import MAX_MATCH_PAIRS, BBox, GroundTruthObject, flip_augment
from rbcscan.scanning import MAX_TRIALS
from test_formats_oracle import _docs

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SCENARIO = ROOT / "scenarios" / "default.json"

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

PROFILE = json.loads(emit_profile(builtin_profile()))

# Calls on the fixture files; "{tmp}" is the directory _write_fixtures fills.
GT = "{tmp}/gt.json"
EVAL = ("eval", "--ground-truth", GT, "--detections", "{tmp}/det.json")
SIMULATE = ("simulate", "--scenario", "{tmp}/scenario.json")
AUGMENT = ("augment", "--annotations", GT)
CUSTOM = {"profile": "custom.json"}  # a scenario patch naming the profile file


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


def _write_fixtures(tmp_path, scenario={}, files={}):
    """Write gt.json, det.json, scenario.json and custom.json (a profile)
    into tmp_path. ``scenario`` is merged into SCENARIO one level deep;
    ``files`` maps a file name to the text or bytes written instead."""
    merged = {k: dict(SCENARIO[k], **v) if isinstance(v, dict) else v for k, v in scenario.items()}
    texts = {
        "gt.json": json.dumps(ANNOTATIONS),
        "det.json": json.dumps(DETECTIONS),
        "scenario.json": json.dumps({**SCENARIO, **merged}),
        "custom.json": json.dumps(PROFILE),
        **files,
    }
    for name, content in texts.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())


def _at(tmp_path, argv):
    return [arg.replace("{tmp}", str(tmp_path)) for arg in argv]


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

    def test_tiny_steps_print_each_ap(self, capsys):
        argv = ["analytic", "--ap-start", "0", "--ap-stop", "1e-6", "--ap-step", "1e-7"]
        rc, captured = _run(capsys, argv)
        assert rc == 0
        aps = [float(row[1]) for row in _rows(captured.out)[1:] if row[0] == "curve"]
        assert aps == pytest.approx([i * 1e-7 for i in range(11)], rel=0, abs=1e-10)

    def test_sweep_bound_outside_unit_interval(self, capsys):
        rc, captured = _run(capsys, ["analytic", "--ap-start", "2"])
        assert rc == 3
        assert "AP sweep bounds" in _error_line(captured)

    @pytest.mark.parametrize("flag", ["--ap-start", "--ap-stop"])
    @pytest.mark.parametrize("value", ["2", "-0.5", "nan"])
    def test_sweep_bound_error_names_its_flag(self, capsys, flag, value):
        rc, captured = _run(capsys, ["analytic", flag, value])
        assert rc == 3
        assert (
            f"AP sweep bounds must lie within [0, 1], got {flag} {float(value)}\n"
            in _error_line(captured)
        )

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
        _write_fixtures(tmp_path)
        rc, captured = _run(capsys, _at(tmp_path, SIMULATE))
        assert rc == 0
        rows = _rows(captured.out)
        assert rows[0] == ["strategy", "trials", "mean_s", "stderr_s", "analytic_s", "relative_error"]
        assert [row[0] for row in rows[1:]] == ["traditional", "guided"]
        for row in rows[1:]:
            assert row[1] == "50000"
            assert float(row[5]) < 0.05

    def test_trials_and_seed_override(self, tmp_path, capsys):
        _write_fixtures(tmp_path)
        argv = _at(tmp_path, [*SIMULATE, "--trials", "1000"])
        rc, first = _run(capsys, argv)
        rc2, second = _run(capsys, argv)
        assert rc == rc2 == 0
        assert first.out == second.out  # same seed, bit-identical
        rc3, third = _run(capsys, [*argv, "--seed", "8"])
        assert rc3 == 0
        assert third.out != first.out

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
        _write_fixtures(tmp_path, {"trials": scenario_trials})
        argv = _at(tmp_path, SIMULATE)
        if option is not None:
            argv += ["--trials", str(option)]
        start = time.perf_counter()
        rc, captured = _run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (rc, captured.out) == (code, "")
        assert captured.err == f"error: {message}\n"

    def test_profile_path_is_relative_to_the_scenario(self, tmp_path, capsys, monkeypatch):
        _write_fixtures(tmp_path, CUSTOM)
        monkeypatch.chdir(tmp_path.parent)
        rc, captured = _run(capsys, _at(tmp_path, [*SIMULATE, "--trials", "10"]))
        assert rc == 0, captured.err


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

    def test_row_cap_is_exact(self, capsys, monkeypatch):
        # Counted before any row is projected.
        monkeypatch.setattr("rbcscan.cli.MAX_GEOMETRY_ROWS", 6)
        argv = ["geometry", "--resolutions", "1280x720,640x360"]
        rc, captured = _run(capsys, [*argv, "--distances", "120,200,250"])
        assert rc == 0
        assert len(_rows(captured.out)) == 1 + 6
        rc, captured = _run(capsys, [*argv, "--distances", "120,200,250,350"])
        assert rc == 3
        assert _error_line(captured) == (
            "error: 4 --distances times 2 --resolutions asks for more than 6 rows\n"
        )

    def test_table_is_the_pinhole_projection(self, capsys):
        """Every default row, against the pinhole model worked by hand: 124 px
        at 120 cm in a 1280x720 frame, scaled by distance and resolution, and
        rounded half to even (59.52 px at 250 cm prints 60). A 640x360
        reference frame changes no row: it sets only the aspect ratio."""
        expected = []
        for distance in (120, 200, 250, 350):
            for width, height in ((1280, 720), (640, 360)):
                w_px = 124 * 120 / distance * width / 1280
                h_px = w_px * 7 / 14
                ok = max(w_px, h_px) >= 30 and min(w_px, h_px) >= 15
                row = [str(distance), f"{width}x{height}", str(round(w_px)), str(round(h_px))]
                expected.append(row + [str(ok).lower()])
        assert expected[4][:3] == ["250", "1280x720", "60"]
        for argv in (["geometry"], ["geometry", "--ref-width", "640", "--ref-height", "360"]):
            rc, captured = _run(capsys, argv)
            assert rc == 0
            assert _rows(captured.out)[1:] == expected

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

    def test_empty_list_entries_are_skipped(self, capsys):
        rc, plain = _run(capsys, ["geometry", "--resolutions", "1280x720"])
        rc2, trailing = _run(capsys, ["geometry", "--resolutions", "1280x720,"])
        assert rc == rc2 == 0
        assert trailing.out == plain.out


class TestListFlags:
    def test_defaults_are_the_documented_lists(self, capsys):
        rc, default = _run(capsys, ["geometry"])
        rc2, explicit = _run(
            capsys,
            ["geometry", "--distances", "120,200,250,350", "--resolutions", "1280x720,640x360"],
        )
        assert rc == rc2 == 0
        assert default.out == explicit.out


def _csv_writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


#: The fixed words the table commands write: headers, row kinds, strategies, booleans.
_TABLE_WORDS = [
    "metric", "iou_threshold", "value", "ap", "map", "ap_small",
    "kind", "t1_s", "t2_s", "curve", "breakeven", "breakeven_clamped",
    "strategy", "trials", "mean_s", "stderr_s", "analytic_s", "relative_error",
    "traditional", "guided",
    "distance_cm", "resolution", "width_px", "height_px", "detectable", "true", "false",
]
_TABLE_FIELDS = st.one_of(
    st.floats().map(cli._fmt),
    st.sampled_from(_TABLE_WORDS),
    st.integers().map(str),
    st.builds(lambda w, h: f"{w}x{h}", st.integers(min_value=1), st.integers(min_value=1)),
)
_TABLE_ROWS = st.one_of(
    st.lists(_TABLE_FIELDS, min_size=1, max_size=6),
    st.builds(lambda row, i: row[:i] + [""] + row[i + 1:],
              st.lists(_TABLE_FIELDS, min_size=3, max_size=3), st.integers(0, 2)),
)


@given(header=st.lists(_TABLE_FIELDS, min_size=1, max_size=6), rows=st.lists(_TABLE_ROWS))
def test_table_text_is_what_csv_writer_writes(header, rows):
    """Every field kind the commands write needs no quoting, so joining with
    commas gives ``csv.writer``'s text."""
    assert cli._csv_text(header, rows) == _csv_writer_text(header, rows)


class TestEvalCommand:
    def test_perfect_detections(self, tmp_path, capsys):
        _write_fixtures(tmp_path)
        rc, captured = _run(capsys, _at(tmp_path, EVAL))
        assert rc == 0
        rows = _rows(captured.out)
        assert rows[0] == ["metric", "iou_threshold", "value"]
        ap_rows = [row for row in rows[1:] if row[0] == "ap"]
        assert len(ap_rows) == 10
        assert all(row[2] == "1" for row in ap_rows)
        assert [row[2] for row in rows[1:] if row[0] == "map"] == ["1"]

    def test_custom_thresholds(self, tmp_path, capsys):
        _write_fixtures(tmp_path)
        rc, captured = _run(capsys, _at(tmp_path, [*EVAL, "--thresholds", "0.5,0.75"]))
        assert rc == 0
        ap_rows = [row for row in _rows(captured.out)[1:] if row[0] == "ap"]
        assert [row[1] for row in ap_rows] == ["0.5", "0.75"]


class TestAugmentCommand:
    def test_doubles_and_quadruples(self, tmp_path, capsys):
        _write_fixtures(tmp_path)
        once = tmp_path / "doubled.json"
        rc, _ = _run(capsys, _at(tmp_path, [*AUGMENT, "--output", str(once)]))
        assert rc == 0
        doubled = parse_annotations(once.read_text(encoding="utf-8"))
        assert len(doubled.images) == 4
        assert len(doubled.objects) == 6

        rc2, captured = _run(capsys, ["augment", "--annotations", str(once)])
        assert rc2 == 0
        quadrupled = parse_annotations(captured.out)
        assert len(quadrupled.objects) == 12

    def test_flip_geometry(self, tmp_path, capsys):
        _write_fixtures(tmp_path)
        rc, captured = _run(capsys, _at(tmp_path, AUGMENT))
        doubled = parse_annotations(captured.out)
        flipped_xs = sorted(
            gt.bbox.x for gt in doubled.objects if gt.image_id == "img1_flip"
        )
        expected = sorted(1280 - x - w for x, _, w, _ in
                          (obj["bbox"] for obj in ANNOTATIONS["objects"][:2]))
        assert flipped_xs == expected

    def test_chained_ids_take_near_linear_time(self, tmp_path):
        """Ids that form a _flip chain (a, a_flip, a_flip_flip, ...) are not
        re-walked for each image: a walk of one suffix at a time took ~6 s
        for these 1,500 ids on a 2-core host, and this takes ~0.2 s."""
        images = [{"image_id": "a" + "_flip" * k, "width": 100, "height": 80} for k in range(1500)]
        gt = tmp_path / "chain.json"
        gt.write_text(json.dumps({"images": images, "objects": []}), encoding="utf-8")
        start = time.perf_counter()
        rc = main(["augment", "--annotations", str(gt), "--output", str(tmp_path / "out.json")])
        assert rc == 0 and time.perf_counter() - start < 2.0
        out = parse_annotations((tmp_path / "out.json").read_text(encoding="utf-8"))
        assert [im.image_id for im in out.images[1500:]] == [
            "a" + "_flip" * k for k in range(1500, 3000)
        ]


def _walked_ids(ids):
    """The oracle for ``augment``'s ids: ``augment``'s loop before it kept
    ``ends``, walking each id's _flip suffixes one at a time."""
    used = set(ids)
    derived = []
    for image_id in ids:
        candidate = f"{image_id}_flip"
        while candidate in used:
            candidate += "_flip"
        used.add(candidate)
        derived.append(candidate)
    return derived


_FLIP_IDS = st.lists(
    st.builds(lambda base, k: base + "_flip" * k, st.sampled_from(["a", "b", "a_flip_b"]),
              st.integers(0, 5)),
    min_size=1, max_size=12, unique=True,
)


@given(ids=_FLIP_IDS)
def test_augment_ids_are_the_one_step_walks(tmp_path_factory, ids):
    """With colliding _flip suffixes, ``augment`` derives the same ids, in
    the same order, as walking each id's suffixes one at a time."""
    tmp = tmp_path_factory.mktemp("ids")
    images = [{"image_id": image_id, "width": 100, "height": 80} for image_id in ids]
    (tmp / "gt.json").write_text(json.dumps({"images": images, "objects": []}), encoding="utf-8")
    argv = ["augment", "--annotations", str(tmp / "gt.json"), "--output", str(tmp / "out.json")]
    assert main(argv) == 0
    out = parse_annotations((tmp / "out.json").read_text(encoding="utf-8"))
    assert [im.image_id for im in out.images] == ids + _walked_ids(ids)


@given(doc=_docs("annotations"))
def test_augment_mirrors_each_box(tmp_path_factory, doc):
    """On a valid file, ``augment`` writes the images and objects, then
    each mirrored: the box ``flip_augment`` gives, ``[width - x - w, y, w, h]``
    with int or float kept, which mirrors back to the original to float
    rounding."""
    text = json.dumps(doc)
    try:
        af = parse_annotations(text)
    except RbcScanError:  # a float sum rounded past the image edge
        return
    tmp = tmp_path_factory.mktemp("augment")
    (tmp / "gt.json").write_text(text, encoding="utf-8")
    argv = ["augment", "--annotations", str(tmp / "gt.json"), "--output", str(tmp / "out.json")]
    assert main(argv) == 0
    doubled = parse_annotations((tmp / "out.json").read_text(encoding="utf-8"))
    n = len(af.columns.boxes)
    assert len(doubled.images) == 2 * len(af.images) and len(doubled.columns.boxes) == 2 * n
    assert doubled.images[: len(af.images)] == af.images
    assert repr(doubled.columns.boxes[:n]) == repr(af.columns.boxes)
    assert doubled.columns.labels == af.columns.labels * 2
    widths = {im.image_id: im.width for im in af.images}
    for gt, box in zip(af.objects, doubled.columns.boxes[n:]):
        width = widths[gt.image_id]
        x, y, w, h = gt.bbox
        mirrored = [width - x - w, y, w, h]
        assert repr(box) == repr(list(flip_augment(gt, width).bbox)) == repr(mirrored)
        back = flip_augment(GroundTruthObject(gt.image_id, BBox(*box), gt.class_label), width).bbox
        assert back[1:] == gt.bbox[1:]
        assert math.isclose(back.x, gt.bbox.x, abs_tol=4 * math.ulp(width))


class Case(NamedTuple):
    """One rejected call. ``message`` is the whole error line or a part of
    it; in it and in ``argv``, "{tmp}" is the fixture directory.
    ``scenario`` and ``files`` are passed to ``_write_fixtures``."""

    argv: tuple
    code: int
    message: str
    scenario: dict = {}
    files: dict = {}


#: The error line of a call given an empty path.
NO_FILE = "error: [Errno 2] No such file or directory: ''\n"


def _profile(**fields):
    return {"custom.json": json.dumps(dict(PROFILE, **fields))}

#: Each rejection that one call shows: its exit code and its message.
CASES = {
    **{
        f"analytic {flag} {value}": Case(("analytic", "--n-cells", "64", flag, value), 2, "finite")
        for flag in ("--t-scan", "--t-detect")
        for value in ("nan", "inf")
    },
    "analytic reversed sweep": Case(
        ("analytic", "--ap-start", "0.9", "--ap-stop", "0.1"),
        3,
        "error: --ap-stop (0.1) must be >= --ap-start (0.9)\n",
    ),
    **{
        f"analytic --ap-step={step}": Case(("analytic", f"--ap-step={step}"), 3, "--ap-step")
        for step in ("nan", "-0.1", "0", "1e-12", "1e-320")
    },
    "analytic --t-scan 1e308": Case(("analytic", "--t-scan", "1e308"), 2, "error: scan times overflow"),
    "analytic --n-cells 1e400": Case(
        ("analytic", "--n-cells", str(10**400)), 2, "error: scan times overflow"
    ),
    # An empty path names no file, not the working directory.
    "analytic --output empty": Case(("analytic", "--output", ""), 1, NO_FILE),
    "eval --ground-truth empty": Case(
        ("eval", "--ground-truth", "", "--detections", "{tmp}/det.json"), 1, NO_FILE
    ),
    "eval --detections empty": Case(("eval", "--ground-truth", GT, "--detections", ""), 1, NO_FILE),
    "simulate --scenario empty": Case(("simulate", "--scenario", ""), 1, NO_FILE),
    "augment --annotations empty": Case(("augment", "--annotations", ""), 1, NO_FILE),
    "simulate profile empty": Case(
        SIMULATE,
        1,
        "error: profile '' is neither a bundled profile (mask-rcnn-smartphone) "
        "nor a readable file: No such file or directory ()\n",
        {"profile": ""},
    ),
    "simulate --seed -1": Case((*SIMULATE, "--seed", "-1"), 3, "error: seed must be >= 0, got -1\n"),
    "simulate seed -5": Case(SIMULATE, 2, "error: $.seed: must be >= 0, got -5\n", {"seed": -5}),
    "simulate missing file": Case(
        ("simulate", "--scenario", "{tmp}/none.json"), 1, "No such file or directory: '{tmp}/none.json'"
    ),
    "simulate not JSON": Case(SIMULATE, 1, "error: not valid JSON: ", files={"scenario.json": "{not json"}),
    "simulate n_cells 63": Case(
        SIMULATE, 2, "$.scan.n_cells: 63 does not match", {"scan": {"n_cells": 63}}
    ),
    "simulate t_scan_s 1e308": Case(
        SIMULATE, 2, "error: $.scan: scan times overflow", {"trials": 10, "scan": {"t_scan_s": 1e308}}
    ),
    "simulate t_scan_s 1e200": Case(
        SIMULATE, 2, "error: simulated times overflow", {"trials": 10, "scan": {"t_scan_s": 1e200}}
    ),
    "simulate huge grid": Case(
        SIMULATE,
        3,
        "error: simulation needs n_cells < 2**63",
        {"trials": 10, "grid": {"rows": 2**40, "cols": 2**30}, "scan": {"n_cells": 2**70}},
    ),
    "simulate integer scan times": Case(
        SIMULATE,
        2,
        "error: $.scan: scan times overflow",
        {
            "trials": 10,
            "grid": {"rows": 1, "cols": 10**400},
            "scan": {"n_cells": 10**400, "t_scan_s": 2, "t_detect_s": 0},
        },
    ),
    "simulate unknown profile": Case(
        SIMULATE, 1, "'mask-rcnn-smartpone'", {"profile": "mask-rcnn-smartpone"}
    ),
    "simulate profile missing a field": Case(
        SIMULATE,
        1,
        "error: profile 'custom.json' ({tmp}/custom.json): "
        "$.per_image_latency_s: required field is missing\n",
        CUSTOM,
        {"custom.json": json.dumps({"name": "x"})},
    ),
    "simulate profile latency -1": Case(
        SIMULATE,
        2,
        "error: profile 'custom.json' ({tmp}/custom.json): $: ",
        CUSTOM,
        _profile(per_image_latency_s=-1),
    ),
    "simulate profile knot without a tag": Case(
        SIMULATE, 2, "ap_vs_distance", CUSTOM, _profile(ap_vs_distance=[[120, "", 0.5]])
    ),
    "simulate profile knot ap 1.5": Case(
        SIMULATE, 2, "ap_vs_distance", CUSTOM, _profile(ap_vs_distance=[[120, "1280x720", 1.5]])
    ),
    "geometry --resolutions 1280by720": Case(
        ("geometry", "--resolutions", "1280by720"), 3, "--resolutions"
    ),
    "geometry --resolutions 640x480": Case(
        ("geometry", "--resolutions", "640x480"), 2, "640x480 does not match"
    ),
    "geometry --resolutions 0x0": Case(("geometry", "--resolutions", "0x0"), 2, "0x0"),
    "geometry past MAX_GEOMETRY_ROWS": Case(
        ("geometry", "--distances", "100," * 1001, "--resolutions", "1280x720," * 100),
        3,
        "error: 1001 --distances times 100 --resolutions asks for more than 100000 rows\n",
    ),
    # The reference focal length is scaled by the width, which must fit a float.
    "geometry --ref-width 400 digits": Case(
        ("geometry", "--ref-width", "1" * 400), 2, "error: ref_width must be finite and > 0, got 1"
    ),
    **{
        " ".join(("geometry", *option)): Case(("geometry", *option), 2, "finite")
        for option in [
            ("--focal-px", "nan"),
            ("--focal-px", "inf"),
            ("--distances", "nan"),
            ("--distances", "120,inf"),
            ("--distances", "1e-320"),  # finite, but the projected size overflows
            ("--calibrate", "14", "120", "nan"),
            ("--calibrate", "inf", "120", "124"),
            ("--calibrate", "1", "1e200", "1e200"),  # finite, but the focal length overflows
            ("--receiver-width-cm", "nan"),
            ("--receiver-height-cm", "inf"),
            ("--min-width-px", "nan"),
            ("--min-height-px", "inf"),
        ]
    },
    # An explicitly empty list is refused, not read as the default.
    **{
        f"{argv[0]} {flag} {value!r}": Case((*argv, flag, value), 3, flag)
        for argv, flag, value in [
            (EVAL, "--thresholds", "a,b"),
            (EVAL, "--thresholds", ","),
            (EVAL, "--thresholds", ""),
            (("geometry",), "--resolutions", ","),
            (("geometry",), "--resolutions", ""),
            (("geometry",), "--distances", ""),
        ]
    },
    **{
        f"eval --small-cutoff={cutoff}": Case((*EVAL, f"--small-cutoff={cutoff}"), 3, "small_cutoff")
        for cutoff in ("-32", "0", "nan", "inf")
    },
    "eval score 2": Case(
        EVAL,
        2,
        "score",
        files={"det.json": json.dumps({"detections": [dict(DETECTIONS["detections"][0], score=2.0)]})},
    ),
    "eval NaN bbox": Case(
        EVAL,
        1,
        "NaN",
        files={"gt.json": json.dumps(
            dict(ANNOTATIONS, objects=[dict(ANNOTATIONS["objects"][0], bbox=[math.nan, 50, 124, 62])])
        )},
    ),
    "eval integer too large for a float": Case(
        EVAL,
        1,
        "detections[0].bbox[0]: expected a finite number, got an integer too large",
        files={"det.json": json.dumps(
            {"detections": [dict(DETECTIONS["detections"][0], bbox=[10**400, 0, 1, 1])]}
        )},
    ),
    "eval past the digit limit": Case(
        EVAL,
        1,
        "digits",
        files={"gt.json": json.dumps(ANNOTATIONS).replace('"width": 1280', '"width": ' + "1" * 5000, 1)},
    ),
    # 3,200 equal boxes and detections: every one of their pairs overlaps.
    "eval past MAX_MATCH_PAIRS": Case(
        EVAL,
        2,
        f"error: matching needs 10240000 candidate pairs, more than MAX_MATCH_PAIRS = "
        f"{MAX_MATCH_PAIRS}; image 'img1', class 'smartphone' alone needs 10240000\n",
        files={
            "gt.json": json.dumps(dict(ANNOTATIONS, objects=ANNOTATIONS["objects"][:1] * 3200)),
            "det.json": json.dumps({"detections": DETECTIONS["detections"][:1] * 3200}),
        },
    ),
    "eval nested too deeply": Case(
        EVAL,
        1,
        "nested too deeply",
        files={"det.json": '{"detections": ' + "[" * 100_000 + "]" * 100_000 + "}"},
    ),
    **{
        f"{argv[0]} {name} not UTF-8": Case(argv, 1, f"{{tmp}}/{name}", scenario, {name: b"\xff{}"})
        for argv, name, scenario in [
            (EVAL, "gt.json", {}),
            (EVAL, "det.json", {}),
            (SIMULATE, "scenario.json", {}),
            (SIMULATE, "custom.json", CUSTOM),
            (AUGMENT, "gt.json", {}),
        ]
    },
    "augment image width past float range": Case(
        AUGMENT,
        2,
        "error: image_width must be finite, got 1797",
        files={"gt.json": json.dumps(ANNOTATIONS).replace("1280", str(2**1024), 1)},
    ),
    "augment negative split": Case(
        AUGMENT, 2, "split", files={"gt.json": json.dumps(dict(ANNOTATIONS, split={"train": -1}))}
    ),
    "unknown subcommand": Case(("frobnicate",), 3, "invalid choice: 'frobnicate'"),
    "missing subcommand": Case((), 3, "the following arguments are required"),
    "unknown flag": Case(("analytic", "--fricassee"), 3, "unrecognized arguments: --fricassee\n"),
}


@pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
def test_rejected_call(tmp_path, capsys, case):
    _write_fixtures(tmp_path, case.scenario, case.files)
    rc, captured = _run(capsys, _at(tmp_path, case.argv))
    assert rc == case.code, captured.err
    assert case.message.replace("{tmp}", str(tmp_path)) in _error_line(captured)


#: Given to every option in turn: non-finite, huge, tiny, negative, empty,
#: non-numeric and malformed list or resolution values.
HOSTILE = [
    "nan", "inf", "-inf", "1e400", "0", "-1", "-0", "1e-320", "1e308", "2.5", "1" * 5000,
    "", "abc", "1,,2", "1x1", "0x0", "1e308x1",
]


def _reads_non_finite(field):
    try:
        return not math.isfinite(float(field))
    except ValueError:
        return False


def test_every_option_fails_cleanly_or_gives_a_finite_table(tmp_path, capsys, monkeypatch):
    """Each option of each subcommand, as ``build_parser`` declares it,
    given each HOSTILE value in turn (a required option's value replaced,
    an ``nargs=3`` option's repeated): no exception escapes ``main``, the
    exit code is 0-3, a failure prints one ``error:`` line and no output,
    and a success writes no non-finite number."""
    monkeypatch.chdir(tmp_path)  # --output values name files here
    scenario = dict(json.loads(DEFAULT_SCENARIO.read_text(encoding="utf-8")), trials=10)
    _write_fixtures(tmp_path, files={"scenario.json": json.dumps(scenario)})
    base = {
        "eval": EVAL[1:],
        "analytic": (),
        "simulate": SIMULATE[1:],
        "geometry": (),
        "augment": AUGMENT[1:],
    }
    parser = build_parser()
    # Building the parser is ~2 ms, most of a call; parsing leaves it unchanged.
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # Every subcommand is swept from a call that works and sets every
    # required option, so each call differs from a working one in one option.
    assert list(base) == list(sub.choices)
    failures = []
    for command, subparser in sub.choices.items():
        base_argv = [command, *_at(tmp_path, base[command])]
        rc, captured = _run(capsys, base_argv)
        assert rc == 0, captured.err
        options = [a for a in subparser._actions if not isinstance(a, argparse._HelpAction)]
        assert {a.option_strings[-1] for a in options if a.required} <= set(base_argv)
        for action, value in ((a, v) for a in options for v in HOSTILE):
            flag = action.option_strings[-1]
            values = [value] * (action.nargs if isinstance(action.nargs, int) else 1)
            if flag in base_argv:
                at = base_argv.index(flag)
                argv = [*base_argv[: at + 1], *values, *base_argv[at + 2 :]]
            else:
                argv = [*base_argv, flag, *values]
            try:
                rc, captured = _run(capsys, argv)
                assert rc in (0, 1, 2, 3), rc
                if rc:
                    _error_line(captured)
                else:
                    text = Path(value).read_text("utf-8") if flag == "--output" else captured.out
                    assert not any(_reads_non_finite(f) for row in _rows(text) for f in row), text
            except (Exception, SystemExit) as e:
                failures.append((argv, repr(e)))
                capsys.readouterr()
    assert failures == []


def test_module_entry_point():
    """``python -m rbcscan.cli`` runs the installed script's ``run``."""
    ok = _python("-m", "rbcscan.cli", "analytic")
    assert ok.returncode == 0, ok.stderr
    assert hashlib.sha256(ok.stdout).hexdigest() == (
        "d60cf69a8c4d09bec3b4fa13c2b1c40f370347238fc4cff9bfe4f3cc57a19726"
    )
    bad = _python("-m", "rbcscan.cli", "analytic", "--n-cells", "1")
    assert (bad.returncode, bad.stdout) == (3, b"")
    assert bad.stderr.startswith(b"error: ") and bad.stderr.count(b"\n") == 1


def _python(*args):
    """Run a fresh interpreter from the repository root with this package importable."""
    src = str(Path(rbcscan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, env=env, timeout=60)


_IMPORT_GRAPH = """
import contextlib, io, sys

def main_exit(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return main(argv)
        except SystemExit as e:  # --help
            return e.code

WATCHED = set(sys.argv[1:])  # the modules whose loading this run checks
CLI = {"rbcscan.cli", "rbcscan.errors", "rbcscan.geometry", "rbcscan.metrics", "rbcscan.scanning"}
FILES = CLI | {"rbcscan.formats", "rbcscan.detector"}
ARRAYS = FILES | {"numpy", "inspect"}  # numpy imports inspect itself, but not dataclasses

def check(step, loaded=frozenset()):  # only the watched modules in `loaded` may be loaded
    assert not (WATCHED - loaded) & set(sys.modules), step

import rbcscan
check("import rbcscan")
from rbcscan.cli import main
check("import rbcscan.cli", CLI)
for argv, code, loaded in [
    (["--help"], 0, CLI),
    (["analytic"], 0, CLI),
    (["geometry"], 0, CLI),
    (["analytic", "--n-cells", "0"], 2, CLI),
    (["analytic", "--n-cells", "1"], 3, CLI),
    (["augment", "--annotations", "data/sample_annotations.json"], 0, FILES),
    (["eval", "--ground-truth", "data/sample_annotations.json",
      "--detections", "data/sample_detections.json"], 0, ARRAYS),
    (["simulate", "--scenario", "scenarios/default.json", "--trials", "1000"], 0, ARRAYS),
]:
    assert main_exit(argv) == code, argv
    assert loaded is not ARRAYS or "numpy" in sys.modules, argv
    check(argv, loaded)
# number() must see numpy's scalar types once numpy is loaded.
import numpy as np
from rbcscan import CellGrid, cell_center
grid = CellGrid(np.int64(8), 8, 1280, 720)
assert cell_center(grid, np.int64(3)) == cell_center(grid, 3)
"""


def test_numpy_is_loaded_only_by_the_commands_that_compute_with_arrays():
    """``import rbcscan``, ``--help``, ``analytic``, ``geometry``, ``augment``
    and rejected arguments run without numpy; ``eval`` and ``simulate`` load
    it, and numpy scalars are accepted once it is loaded."""
    proc = _python("-c", _IMPORT_GRAPH, "numpy")
    assert proc.returncode == 0, proc.stderr.decode()


def test_records_load_neither_dataclasses_nor_inspect():
    """Records are NamedTuples, so no command loads ``dataclasses``, and
    the numpy-free ones do not load ``inspect`` either."""
    proc = _python("-c", _IMPORT_GRAPH, "dataclasses", "inspect")
    assert proc.returncode == 0, proc.stderr.decode()


def test_no_command_loads_csv():
    """Tables are written as comma joins, so no command loads ``csv``."""
    proc = _python("-c", _IMPORT_GRAPH, "csv")
    assert proc.returncode == 0, proc.stderr.decode()


def test_submodules_are_loaded_by_the_commands_that_use_them():
    """``import rbcscan`` loads no submodule; the CLI loads its parser's
    modules, and only ``eval``, ``simulate`` and ``augment`` load
    ``formats`` and ``detector``."""
    package = Path(rbcscan.__file__).parent
    submodules = sorted(f"rbcscan.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    proc = _python("-c", _IMPORT_GRAPH, *submodules)
    assert proc.returncode == 0, proc.stderr.decode()


_EXPORTS = """
import sys
import rbcscan
assert set(rbcscan.__all__) <= set(dir(rbcscan)), dir(rbcscan)
assert not hasattr(rbcscan, "no_such_name")
resolved = {name: getattr(rbcscan, name) for name in rbcscan.__all__}
assert set(rbcscan.__all__) <= set(vars(rbcscan))  # bound, so read once through __getattr__
bound = {}
exec("from rbcscan import *", bound)
modules = [sys.modules[f"rbcscan.{m}"] for m in ("detector", "errors", "geometry", "metrics", "scanning")]
for name, value in resolved.items():
    assert bound[name] is value is getattr(rbcscan, name), name
    assert any(value is m or vars(m).get(name) is value for m in modules), name
"""


def test_every_export_resolves_on_first_read():
    """In a fresh process, each name in ``__all__`` (the exports and the
    submodules ``import rbcscan`` binds) is listed by ``dir``, resolves to
    its submodule's object, is then bound in the package, and is bound by
    ``from rbcscan import *``."""
    proc = _python("-c", _EXPORTS)
    assert proc.returncode == 0, proc.stderr.decode()


class TestParser:
    def test_missing_subcommand_lists_the_declared_ones(self, capsys):
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert main([]) == 3
        listed = _error_line(capsys.readouterr()).rstrip("\n").rsplit("{", 1)[1].rstrip("}")
        assert listed.split(",") == list(sub.choices)

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
        sc = parse_scenario(DEFAULT_SCENARIO.read_text(encoding="utf-8"))
        assert sc.scan.n_cells == 64
        assert sc.scan.t_scan_s == 2.0
        assert sc.scan.t_detect_s == 0.2
        assert sc.scan.ap == 0.70

    def test_repo_scenario_converges_within_half_percent(self, capsys):
        rc, captured = _run(capsys, ["simulate", "--scenario", str(DEFAULT_SCENARIO)])
        assert rc == 0
        for row in _rows(captured.out)[1:]:
            assert row[1] == "1000000"
            assert float(row[5]) < 0.005

    def test_emit_matches_repo_fixture_after_round_trip(self):
        sc = parse_scenario(DEFAULT_SCENARIO.read_text(encoding="utf-8"))
        assert parse_scenario(emit_scenario(sc)) == sc
