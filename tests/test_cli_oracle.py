"""Value properties of the ``analytic``, ``geometry``, ``simulate`` and
``eval`` tables.

Each runs ``cli.main`` in-process on valid inputs drawn at random and
compares every CSV cell with an oracle: the closed forms and the AP grid
for ``analytic``; the pinhole projection rounded half to even, and the two
detectability thresholds, for ``geometry``; the exact expectations and
variances of the scan times for ``simulate``; the scalar evaluator of
``legacy_metrics`` for ``eval``, which must also give the same bytes on
shuffled and renamed files. A number printed to 12 significant digits must
lie within half a unit of its twelfth digit of the exact value; the slack
left over covers the float arithmetic.
"""

import contextlib
import csv
import io
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_metrics
import oracles
import test_scanning
from rbcscan.cli import main
from rbcscan.metrics import Detection, GroundTruthObject
from test_metrics_oracle import _documents, _scenes, _thresholds


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _table(argv):
    return list(csv.reader(io.StringIO(_stdout(argv))))


def _value(cell):
    return Fraction(Decimal(cell))


def _unit12(exact):
    """A unit of the twelfth significant digit of ``exact`` (nonzero)."""
    with localcontext() as ctx:
        ctx.prec = 40
        digit = (Decimal(exact.numerator) / Decimal(exact.denominator)).adjusted()
    return Fraction(10) ** (digit - 11)


def _near12(cell, exact):
    """Whether ``cell`` is ``exact`` to the CSV's 12 significant digits."""
    if exact == 0:
        return _value(cell) == 0
    return abs(_value(cell) - exact) <= Fraction(51, 100) * _unit12(exact)


def test_closed_forms_are_the_enumerated_expectations():
    for n in (2, 3, 17):
        for ts, td, ap in ((2.0, 0.2, 0.7), (0.1, 0.0, 0.3), (1e3, 5e2, 1.0)):
            assert oracles.scan_times(n, ts, td, ap) == (
                oracles.expected_time_traditional(n, ts),
                oracles.expected_time_guided(n, ts, td, ap),
            )
            t1, t2 = oracles.scan_times(n, ts, td, oracles.breakeven(n, ts, td))
            assert t1 == t2


@st.composite
def _sweeps(draw):
    """Valid ``analytic`` options: steps down to 1e-7, a stop that falls
    between two grid points, and detection times on both sides of the
    breakeven's clamp."""
    n = draw(st.integers(2, 10**6))
    ts = draw(st.floats(1e-3, 1e3))
    td = ts * n * draw(st.floats(0, 1))
    step = draw(st.floats(1, 10)) * 10.0 ** draw(st.integers(-7, -1))
    rows = min(draw(st.integers(0, 30)), math.floor(1 / step) - 1)
    start = draw(st.floats(0, 1)) * (1 - (rows + 1) * step)
    stop = start + (rows + draw(st.floats(0.1, 0.9))) * step
    return n, ts, td, start, stop, step


@settings(max_examples=30)  # each example builds the argument parser afresh
@given(sweep=_sweeps())
def test_analytic_rows_are_the_closed_forms(sweep):
    n, ts, td, start, stop, step = sweep
    argv = ["analytic", "--n-cells", str(n), "--t-scan", repr(ts), "--t-detect", repr(td),
            "--ap-start", repr(start), "--ap-stop", repr(stop), "--ap-step", repr(step)]
    header, *curve, last = _table(argv)
    assert header == ["kind", "ap", "t1_s", "t2_s"]
    grid = oracles.ap_grid(start, stop, step)
    assert [row[0] for row in curve] == ["curve"] * len(grid)
    t1 = oracles.scan_times(n, ts, td, 0)[0]
    for row, ap in zip(curve, grid):
        assert abs(_value(row[1]) - ap) <= Fraction(1, 10**10), (row, ap)
        assert _near12(row[2], t1), (row, t1)
        # T2 at the AP the row prints, the float the table computed with.
        assert _near12(row[3], oracles.scan_times(n, ts, td, float(row[1]))[1]), row
    raw = oracles.breakeven(n, ts, td)
    if abs(raw - 1) > Fraction(1, 10**9):
        assert last[0] == ("breakeven" if raw < 1 else "breakeven_clamped"), (last, raw)
    assert _near12(last[2], t1), last
    if last[0] == "breakeven":
        # The table takes the AP from a difference of two times near N T_s / 2.
        rounding = (Fraction(td) + (1 + n) * Fraction(ts)) / (n * Fraction(ts) / 2) / 10**15
        assert _near12(last[1], raw) or abs(_value(last[1]) - raw) <= rounding, (last, raw)
        assert _near12(last[3], t1), last
    else:
        assert last[0] == "breakeven_clamped" and last[1] == "1", last
        assert _near12(last[3], oracles.scan_times(n, ts, td, 1)[1]), last


@st.composite
def _geometry_options(draw):
    """Valid ``geometry`` options, and the exact focal length they give.

    Either every projection is exactly k + 1/2 (odd focal length and sizes,
    distance 2, the reference resolution), which pins the tie rule, or the
    focal length, sizes and distances are arbitrary floats, so projections
    are not integers. Thresholds are multiples of the first row's sizes,
    exactly those sizes included."""
    aspect = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    m = draw(st.integers(1, 100))
    ref = aspect[0] * m, aspect[1] * m
    exact = draw(st.booleans())
    if exact:
        focal = float(2 * draw(st.integers(0, 2000)) + 1)
        sizes = [float(2 * draw(st.integers(0, 50)) + 1) for _ in "wh"]
        distances, scales = [2.0], [m]
        focal_args, focal_exact = ["--focal-px", repr(focal)], Fraction(focal)
    else:
        sizes = [draw(st.floats(0.5, 100)) for _ in "wh"]
        distances = draw(st.lists(st.floats(1, 1e4), min_size=1, max_size=4))
        scales = draw(st.lists(st.integers(1, 200), min_size=1, max_size=4))
        mode = draw(st.sampled_from(["focal", "calibrate", "reference"]))
        if mode == "focal":
            focal = draw(st.floats(1, 1e5))
            focal_args, focal_exact = ["--focal-px", repr(focal)], Fraction(focal)
        elif mode == "calibrate":
            observed = [draw(st.floats(1, 100)), draw(st.floats(10, 1e4)), draw(st.floats(1, 1e4))]
            focal_args = ["--calibrate", *map(repr, observed)]
            obj, dist, px = map(Fraction, observed)
            focal_exact = px * dist / obj
        else:  # 124 px for 14 cm at 120 cm in a 1280 px wide frame, scaled to ref
            focal_args, focal_exact = [], Fraction(124 * 120, 14) * Fraction(ref[0], 1280)
    first = [oracles.pinhole_px(focal_exact, ref[0], aspect[0] * scales[0], s, distances[0])
             for s in sizes]
    factor = st.just(1.0) | st.floats(0.25, 4)
    minimums = [float(size * Fraction(draw(factor))) for size in first]
    argv = [
        "geometry", *focal_args,
        "--ref-width", str(ref[0]), "--ref-height", str(ref[1]),
        "--receiver-width-cm", repr(sizes[0]), "--receiver-height-cm", repr(sizes[1]),
        "--distances", ",".join(map(repr, distances)),
        "--resolutions", ",".join(f"{aspect[0] * j}x{aspect[1] * j}" for j in scales),
        "--min-width-px", repr(minimums[0]), "--min-height-px", repr(minimums[1]),
    ]
    resolutions = [(aspect[0] * j, aspect[1] * j) for j in scales]
    return argv, exact, focal_exact, ref[0], sizes, distances, resolutions, minimums


def _roundings(px, exact):
    """The pixel counts a size may print as: half to even, and either
    neighbour when float rounding could move it across a half."""
    below = math.floor(px)
    if not exact and abs(px - below - Fraction(1, 2)) <= px / 10**9:
        return {below, below + 1}
    return {oracles.round_half_even(px)}


@settings(max_examples=30)
@given(options=_geometry_options())
def test_geometry_rows_are_the_rounded_projection(options):
    argv, exact, focal, ref_width, sizes, distances, resolutions, minimums = options
    header, *rows = _table(argv)
    assert header == ["distance_cm", "resolution", "width_px", "height_px", "detectable"]
    cases = [(d, r) for d in distances for r in resolutions]
    assert len(rows) == len(cases)
    min_w, min_h = map(Fraction, minimums)
    for row, (distance, (w, h)) in zip(rows, cases):
        px = [oracles.pinhole_px(focal, ref_width, w, s, distance) for s in sizes]
        assert _near12(row[0], Fraction(distance)) and row[1] == f"{w}x{h}", row
        assert int(row[2]) in _roundings(px[0], exact), (row, px)
        assert int(row[3]) in _roundings(px[1], exact), (row, px)
        # Float rounding decides a size within it of a threshold.
        if exact or all(abs(p - t) > t / 10**9 for p in px for t in (min_w, min_h)):
            detectable = oracles.detectable(*px, min_w, min_h)
            assert row[4] == str(detectable).lower(), (row, px, minimums)


@st.composite
def _scenarios(draw):
    """A valid scenario of 2 to 64 cells and 10**4 trials: detection times
    from none to ten blind scans' worth, and APs that are exactly 0, 1/2 or
    1, or lie in [0.001, 0.999]. Nearer 1, a guided run of 10**4 trials
    expects too few misses for its mean to be near normal."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if rows * cols < 2:
        cols = 2
    ts = draw(st.floats(1e-3, 1e3))
    td = draw(st.just(0.0) | st.floats(0, 10 * rows * cols * ts))
    ap = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.001, 0.999))
    return {
        "camera": {"focal_px": 1000.0, "ref_width": 1280, "ref_height": 720},
        "grid": {"rows": rows, "cols": cols, "image_width": 1280, "image_height": 720},
        "scan": {"n_cells": rows * cols, "t_scan_s": ts, "t_detect_s": td, "ap": ap},
        "profile": "mask-rcnn-smartphone",
        "trials": 10**4,
        "seed": draw(st.integers(0, 2**63)),
    }


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    """One directory for the files that each example writes afresh."""
    return tmp_path_factory.mktemp("cli_oracle")


@settings(max_examples=20)  # each example parses a file and simulates 2 * 10**4 trials
@given(scenario=_scenarios())
def test_simulate_rows_are_near_the_closed_forms(tmp, scenario):
    """Each row's mean lies within ``TestExactSpread.Z`` exact standard
    errors of the exact expectation, its ``analytic_s`` is that expectation,
    and its ``relative_error`` is |mean - analytic| / analytic, each to the
    printed precision."""
    path = tmp / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    header, *rows = _table(["simulate", "--scenario", str(path)])
    assert header == ["strategy", "trials", "mean_s", "stderr_s", "analytic_s", "relative_error"]
    n, ts, td, ap = scenario["scan"].values()
    trials = scenario["trials"]
    laws = {
        "traditional": (oracles.expected_time_traditional(n, ts), oracles.var_scans_traditional(n)),
        "guided": (oracles.expected_time_guided(n, ts, td, ap), oracles.var_scans_guided(n, ap)),
    }
    assert [row[:2] for row in rows] == [[name, str(trials)] for name in laws]
    for row, (expected, var_scans) in zip(rows, laws.values()):
        mean, analytic, rel = map(_value, (row[2], row[4], row[5]))
        # Z exact standard errors; the slack covers the print and the float sums.
        spread = test_scanning.TestExactSpread.Z * ts * math.sqrt(var_scans / trials)
        assert abs(mean - expected) <= Fraction(spread) + expected / 10**11, (row, expected)
        assert _near12(row[4], expected), (row, expected)
        # mean_s and analytic_s are each printed to half a unit of their 12th digit.
        printed = (_unit12(mean) + _unit12(analytic)) / 2 / analytic
        exact = abs(mean - analytic) / analytic
        slack = printed * Fraction(101, 100) + (_unit12(rel) / 2 if rel else 0) + exact / 10**13
        assert abs(rel - exact) <= slack, (row, float(exact))


def _fmt12(x):
    return format(x, ".12g")


def _eval_csv(dets, gts, thresholds, cutoff):
    """``eval``'s CSV for the scene, from ``legacy_metrics``."""
    result = legacy_metrics.evaluate(dets, gts, thresholds, cutoff)
    rows = [f"ap,{_fmt12(t)},{_fmt12(ap)}" for t, ap in result.ap_per_threshold.items()]
    rows += [f"map,,{_fmt12(result.map_value)}", f"ap_small,0.5,{_fmt12(result.ap_small)}"]
    return "".join(f"{line}\n" for line in ["metric,iou_threshold,value", *rows])


def _run_eval(tmp, scene, thresholds, cutoff, images=None):
    """``eval``'s stdout on the scene written as files; ``images``, if
    given, reorders the annotation file's image list."""
    annotations, detections = _documents(*scene)
    if images is not None:
        doc = json.loads(annotations)
        doc["images"] = [doc["images"][i] for i in images]
        annotations = json.dumps(doc)
    (tmp / "gt.json").write_text(annotations, encoding="utf-8")
    (tmp / "dets.json").write_text(detections, encoding="utf-8")
    return _stdout([
        "eval", "--ground-truth", str(tmp / "gt.json"), "--detections", str(tmp / "dets.json"),
        "--thresholds", ",".join(map(repr, thresholds)), "--small-cutoff", repr(cutoff),
    ])


def _riffled(rng, gts):
    """``gts`` shuffled, except that the boxes of one image and class keep
    their order: a detection with equal IoU on two boxes takes the first."""
    groups = {}
    for g in gts:
        groups.setdefault((g.image_id, g.class_label), []).append(g)
    keys = [(g.image_id, g.class_label) for g in gts]
    rng.shuffle(keys)
    queues = {key: iter(group) for key, group in groups.items()}
    return [next(queues[key]) for key in keys]


@settings(max_examples=20)  # each example runs eval four times
@given(scene=_scenes(), thresholds=_thresholds, cutoff=st.sampled_from([8.0, 32.0, 40.5]),
       seed=st.integers(0, 2**32))
def test_eval_table_is_the_legacy_evaluation(tmp, scene, thresholds, cutoff, seed):
    """On a scene written as files, ``eval`` prints ``legacy_metrics``'
    evaluation to 12 significant digits. With distinct scores, the same
    bytes come back when the images, detections and annotations are
    shuffled, and when the image ids are renamed one to one."""
    dets, gts = scene
    table = _run_eval(tmp, scene, thresholds, cutoff)
    assert table == _eval_csv(dets, gts, thresholds, cutoff)

    rng = random.Random(seed)
    scores = rng.sample(range(1, len(dets) + 1), len(dets))
    dets = [d._replace(score=s / (len(dets) + 1)) for d, s in zip(dets, scores)]
    table = _run_eval(tmp, (dets, gts), thresholds, cutoff)
    ids = list(dict.fromkeys([*(g.image_id for g in gts), *(d.image_id for d in dets)]))
    shuffled = rng.sample(dets, len(dets)), _riffled(rng, gts)
    images = rng.sample(range(len(ids)), len(ids))
    assert _run_eval(tmp, shuffled, thresholds, cutoff, images) == table
    names = dict(zip(ids, rng.sample([*range(len(ids)), "0", "b", "img", "x y"], len(ids))))
    renamed = (
        [Detection(names[d.image_id], d.bbox, d.score, d.class_label) for d in dets],
        [GroundTruthObject(names[g.image_id], g.bbox, g.class_label) for g in gts],
    )
    assert _run_eval(tmp, renamed, thresholds, cutoff) == table
