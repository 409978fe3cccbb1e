"""One input rule for the Python API, checked on every exported callable.

``API`` names each callable that ``rbcscan`` exports. An entry that takes
numbers gives its numeric parameters as (name, valid value) pairs, and a
call that takes those values in order; the name is the one its error
messages use. The valid value's type is the parameter's kind: an int marks
an integer parameter, a float a real one. Any other entry says why it has
no numeric parameter to check.

The property replaces one parameter at a time with a hostile value. A
string, None, a bool or a container is refused everywhere, and so is a
float or NaN for an integer; a numpy scalar of the valid value is accepted
and gives the same result. An integer too long for ``str`` is shown in
a message by its size. Whatever else happens, only an RbcScanError
that names the parameter may escape, never a bare TypeError.
"""

from __future__ import annotations

import json
import math
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rbcscan
from rbcscan import (
    BBox,
    CameraModel,
    CellGrid,
    Detection,
    DetectorProfile,
    GroundTruthObject,
    PixelSize,
    ReceiverSpec,
    RbcScanError,
    ScanConfig,
    SyntheticScene,
    ap_at,
    average_precision,
    builtin_profile,
    calibrate_focal,
    cell_center,
    cell_of_point,
    evaluate,
    flip_augment,
    is_detectable,
    match_detections,
    project_size,
    reference_camera,
    sample_detections,
    simulate_guided,
    simulate_guided_multi,
    simulate_traditional,
)
from rbcscan.errors import DomainError, SchemaError, finite, shown
from rbcscan.formats import parse_scenario
from rbcscan.scanning import MAX_TRIALS


class Numeric(NamedTuple):
    call: Callable
    params: tuple[tuple[str, int | float], ...]


GRID = CellGrid(8, 8, 1280, 720)
BOX = BBox(10.0, 20.0, 30.0, 40.0)
GT = GroundTruthObject(0, BOX)
DET = Detection(0, BOX, 0.9)
CFG = ScanConfig(8, 2.0, 0.2, 0.7)
PROFILE = builtin_profile()
SCENE = SyntheticScene(GRID, ((GT, 120.0),))
CHECKED_CONFIG = "takes a ScanConfig, which checks its numbers"
EXCEPTION = "an exception, built from a message"

API: dict[str, Numeric | str] = {
    # geometry
    "CameraModel": Numeric(
        CameraModel, (("focal_px", 1000.0), ("ref_width", 1280), ("ref_height", 720))
    ),
    "ReceiverSpec": Numeric(ReceiverSpec, (("width_cm", 14.0), ("height_cm", 7.0))),
    "CellGrid": Numeric(
        CellGrid, (("rows", 8), ("cols", 8), ("image_width", 1280), ("image_height", 720))
    ),
    "PixelSize": Numeric(PixelSize, (("w_px", 40.0), ("h_px", 20.0))),
    "calibrate_focal": Numeric(
        calibrate_focal, (("object_cm", 14.0), ("distance_cm", 120.0), ("observed_px", 124.0))
    ),
    "project_size": Numeric(
        partial(project_size, reference_camera(), ReceiverSpec(14.0, 7.0)),
        (("distance_cm", 120.0), ("output resolution", 1280), ("output resolution", 720)),
    ),
    "is_detectable": Numeric(
        partial(is_detectable, PixelSize(40.0, 20.0)), (("min_w", 30.0), ("min_h", 15.0))
    ),
    "cell_of_point": Numeric(partial(cell_of_point, GRID), (("point", 100.0), ("point", 50.0))),
    "cell_center": Numeric(partial(cell_center, GRID), (("cell index", 3),)),
    "reference_camera": "takes no arguments",
    # scanning
    "ScanConfig": Numeric(
        ScanConfig, (("n_cells", 8), ("t_scan_s", 2.0), ("t_detect_s", 0.2), ("ap", 0.7))
    ),
    "simulate_traditional": Numeric(
        partial(simulate_traditional, CFG), (("seed", 0), ("trials", 10))
    ),
    "simulate_guided": Numeric(partial(simulate_guided, CFG), (("seed", 0), ("trials", 10))),
    "simulate_guided_multi": Numeric(
        partial(simulate_guided_multi, CFG, [1], {2}), (("seed", 0), ("trials", 1))
    ),
    "t1_analytic": CHECKED_CONFIG,
    "t2_analytic": CHECKED_CONFIG,
    "breakeven_ap": CHECKED_CONFIG,
    "SimulationSummary": "a result record the simulators build; its fields are not checked",
    # detector
    "DetectorProfile": Numeric(
        lambda latency, t, ap, dist, dist_ap: DetectorProfile(
            "x", latency, ((t, ap),), ((dist, "1280x720", dist_ap),)
        ),
        (
            ("per_image_latency_s", 0.2),
            ("ap_vs_iou[0] threshold", 0.5),
            ("ap_vs_iou[0] ap", 0.7),
            ("ap_vs_distance[0] distance", 120.0),
            ("ap_vs_distance[0] ap", 0.7),
        ),
    ),
    "ap_at": Numeric(partial(ap_at, PROFILE), (("iou_threshold", 0.5),)),
    "sample_detections": Numeric(
        partial(sample_detections, SCENE, PROFILE), (("iou_threshold", 0.5), ("seed", 0))
    ),
    "SyntheticScene": "takes a grid and receivers, whose elements are trusted",
    "builtin_profile": "takes a profile name",
    "builtin_profile_names": "takes no arguments",
    "detections_to_candidates": "takes detections and a grid, both checked when built",
    # metrics
    "BBox": Numeric(
        BBox,
        (
            ("box x", 10.0),
            ("box y", 20.0),
            ("box width/height", 30.0),
            ("box width/height", 40.0),
        ),
    ),
    "Detection": Numeric(partial(Detection, 0, BOX), (("detection score", 0.9),)),
    "GroundTruthObject": "takes an image id, a box and a label",
    "Columns": "holds columns, whose elements are trusted",
    "EvalResult": "a result record of APs, built by evaluate",
    "MatchResult": "a result record of matched indices",
    "iou": "takes two boxes",
    "match_detections": Numeric(partial(match_detections, [DET], [GT]), (("iou_threshold", 0.5),)),
    "average_precision": Numeric(partial(average_precision, [True, False]), (("total_gt", 1),)),
    "evaluate": Numeric(
        lambda t, cutoff: evaluate([DET], [GT], [t], cutoff),
        (("thresholds", 0.5), ("small_cutoff_px", 32.0)),
    ),
    "flip_augment": Numeric(partial(flip_augment, GT), (("image_width", 1280),)),
    # errors
    "RbcScanError": EXCEPTION,
    "SchemaError": EXCEPTION,
    "DomainError": EXCEPTION,
    "InvariantError": EXCEPTION,
    "UsageError": EXCEPTION,
}

#: The hostile values: a few stand for one built from the valid value.
HOSTILE = (
    "str", "None", "bool", "container",
    2.5, 2.0, math.nan, math.inf, -math.inf, 10**400, 10**5000,
    "numpy", "numpy nan",
)  # fmt: skip
REFUSED_EVERYWHERE = ("str", "None", "bool", "container")
#: What an integer parameter refuses besides.
REFUSED_FOR_INTEGERS = (2.5, 2.0, math.nan, math.inf, -math.inf, "numpy nan")


def _hostile(kind, valid):
    built = {
        "str": lambda: str(valid),
        "None": lambda: None,
        "bool": lambda: True,
        "container": lambda: [valid],
        "numpy": lambda: (np.int64 if type(valid) is int else np.float64)(valid),
        "numpy nan": lambda: np.float64("nan"),
    }
    return built[kind]() if isinstance(kind, str) else kind


def test_table_lists_every_exported_callable():
    # Names bind on first read, so the exports are read through __all__.
    exported = {name for name in rbcscan.__all__ if callable(getattr(rbcscan, name))}
    assert set(API) == exported
    # The 43 names the package has always exported (41 callables and two
    # constants) and the five submodules `import rbcscan` has always bound.
    constants = {"SMALL_OBJECT_CUTOFF_PX", "STANDARD_IOU_THRESHOLDS"}
    submodules = {"detector", "errors", "geometry", "metrics", "scanning"}
    assert len(API) == 41
    assert sorted(rbcscan.__all__) == sorted(set(API) | constants | submodules)


@given(st.sampled_from(HOSTILE))
def test_numeric_parameters_take_numbers_only(kind):
    for name, entry in API.items():
        if isinstance(entry, str):
            continue
        values = [valid for _, valid in entry.params]
        baseline = entry.call(*values)
        for i, (param, valid) in enumerate(entry.params):
            args = list(values)
            args[i] = value = _hostile(kind, valid)
            call = f"{name} with {param} = {shown(value)}"
            try:
                result = entry.call(*args)
            except RbcScanError as e:
                assert param in str(e), f"{call}: message does not name it: {e}"
                assert kind != "numpy", f"{call}: a valid numpy scalar was refused: {e}"
                continue
            refused = kind in REFUSED_EVERYWHERE or (
                type(valid) is int and kind in REFUSED_FOR_INTEGERS
            )
            assert not refused, f"{call} was accepted"
            if kind == "numpy":
                assert result == baseline, call


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda big: CellGrid(-big, 8, 8, 8), "rows must be >= 1, got an integer of 16610 bits"),
        (
            lambda big: simulate_traditional(ScanConfig(64, 2.0), 0, big),
            f"trials must be <= {MAX_TRIALS} per strategy, got an integer of 16610 bits",
        ),
        (
            lambda big: cell_center(GRID, big),
            "cell index an integer of 16610 bits outside grid of 64 cells",
        ),
        (
            lambda big: cell_of_point(GRID, big, 50.0),
            "point (an integer of 16610 bits, 50.0) outside image 1280x720",
        ),
        (
            lambda big: simulate_guided_multi(CFG, [big, big], {2}, 0, 1),
            "candidate_cells must be distinct, got "
            "[an integer of 16610 bits, an integer of 16610 bits]",
        ),
    ],
    ids=["CellGrid", "simulate_traditional", "cell_center", "cell_of_point", "candidates"],
)
def test_message_shows_an_integer_too_long_for_str_by_its_size(call, message):
    with pytest.raises(RbcScanError) as e:
        call(10**5000)
    assert str(e.value) == message


#: The least int that float() refuses; every smaller one rounds to a float.
INT_FLOAT_END = 2**1024 - 2**970


@pytest.mark.parametrize(
    "value",
    [
        sys.float_info.max,
        int(sys.float_info.max) + 1,
        INT_FLOAT_END - 1,
        INT_FLOAT_END,
        -INT_FLOAT_END,
        10**400,
        math.inf,
        math.nan,
        np.float64(sys.float_info.max),
        np.float64("inf"),
    ],
    ids=[
        "float max",
        "int past float max",
        "largest int float takes",
        "least int float refuses",
        "its negative",
        "10**400",
        "inf",
        "nan",
        "numpy float max",
        "numpy inf",
    ],
)
def test_finite_takes_exactly_what_float_makes_finite(value):
    try:
        expected = math.isfinite(float(value))
    except OverflowError:
        expected = False
    assert finite(value) is expected
    # A "finite and > 0" parameter takes the magnitude exactly when float() does.
    try:
        spec = ReceiverSpec(abs(value), 7.0)
    except DomainError as e:
        assert not expected and str(e).startswith("width_cm must be finite and > 0, got ")
    else:
        assert expected and spec.width_cm == abs(value)


def test_scenario_integer_past_the_largest_float_is_finite():
    big = int(sys.float_info.max) + 1
    doc = {
        "camera": {"focal_px": big, "ref_width": 1280, "ref_height": 720},
        "grid": {"rows": 8, "cols": 8, "image_width": 1280, "image_height": 720},
        "scan": {"n_cells": 64, "t_scan_s": 2.0, "t_detect_s": 0.2, "ap": 0.7},
        "profile": "mask-rcnn-smartphone",
        "trials": 1000,
        "seed": 0,
    }
    assert parse_scenario(json.dumps(doc)).camera.focal_px == big
    doc["camera"]["focal_px"] = INT_FLOAT_END
    with pytest.raises(SchemaError) as e:
        parse_scenario(json.dumps(doc))
    assert str(e.value) == (
        "$.camera.focal_px: expected a finite number, got an integer too large for a float"
    )
