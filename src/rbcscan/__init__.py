"""Detection-guided resonant beam charging: scan-time models and evaluation tools.

The package covers four concerns: pinhole camera geometry for projected
receiver sizes (`geometry`), from-scratch detection metrics (`metrics`),
analytic and Monte Carlo scan-time models (`scanning`), and a stochastic
detector oracle with empirical AP profiles (`detector`). File formats and
the CLI live in `formats` and `cli`.

`import rbcscan` loads no submodule. Each exported name, and each of the
submodules above but `formats` and `cli`, is imported on first use
(PEP 562), so a caller compiles only the modules it reads from.
"""

import importlib

__version__ = "0.1.0"

#: The submodule that defines each exported name.
_EXPORTS = {
    "detector": (
        "DetectorProfile",
        "SyntheticScene",
        "ap_at",
        "builtin_profile",
        "builtin_profile_names",
        "detections_to_candidates",
        "sample_detections",
    ),
    "errors": ("DomainError", "InvariantError", "RbcScanError", "SchemaError", "UsageError"),
    "geometry": (
        "CameraModel",
        "CellGrid",
        "PixelSize",
        "ReceiverSpec",
        "calibrate_focal",
        "cell_center",
        "cell_of_point",
        "is_detectable",
        "project_size",
        "reference_camera",
    ),
    "metrics": (
        "SMALL_OBJECT_CUTOFF_PX",
        "STANDARD_IOU_THRESHOLDS",
        "BBox",
        "Columns",
        "Detection",
        "EvalResult",
        "GroundTruthObject",
        "MatchResult",
        "average_precision",
        "evaluate",
        "flip_augment",
        "iou",
        "match_detections",
    ),
    "scanning": (
        "ScanConfig",
        "SimulationSummary",
        "breakeven_ap",
        "simulate_guided",
        "simulate_guided_multi",
        "simulate_traditional",
        "t1_analytic",
        "t2_analytic",
    ),
}
#: Each lazily bound name, a submodule standing for itself.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (*names, module)}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
