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
and gives the same result. Whatever else happens, only an RbcScanError
that names the parameter may escape, never a bare TypeError.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import rbcscan
from rbcscan import (
    BBox,
    CameraModel,
    CellGrid,
    Detection,
    DetectorProfile,
    EvalResult,
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
    "EvalResult": Numeric(
        lambda ap, map_value, ap_small: EvalResult({0.5: ap}, map_value, ap_small),
        (("AP at threshold 0.5", 0.7), ("map_value", 0.7), ("ap_small", 0.5)),
    ),
    "MatchResult": "a result record of indices and flags",
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
    2.5, 2.0, math.nan, math.inf, -math.inf, 10**400,
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
    exported = {name for name, value in vars(rbcscan).items() if callable(value)}
    exported -= {name for name in exported if name.startswith("_")}
    assert set(API) == exported


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
            call = f"{name} with {param} = {value!r}"
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
