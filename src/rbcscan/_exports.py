"""The package's lazy exports: which submodule defines each exported name.

``rbcscan/__init__.py`` hands its module ``__getattr__`` and ``__dir__``
to this module, so ``import rbcscan`` does not compile the table below:
it is compiled on the first read of an export, ``__all__`` or ``dir()``.

No ``from . import <submodule>`` inside the package: it would load this
table. ``from . import x`` asks the package for ``x`` before importing
it, which reaches the package ``__getattr__``; import a sibling as
``import rbcscan.x as x`` or ``from .x import name``.
"""

import importlib
import sys

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

_package = sys.modules[__package__]


def resolve(name: str):
    """The package attribute ``name``, bound in the package so it is read here once."""
    if name == "__all__":
        value = list(_SOURCE)
    else:
        module = _SOURCE.get(name)
        if module is None:
            raise AttributeError(f"module {__package__!r} has no attribute {name!r}")
        value = importlib.import_module(f"{__package__}.{module}")
        if name != module:
            value = getattr(value, name)
    setattr(_package, name, value)
    return value


def names() -> list[str]:
    """What ``dir(rbcscan)`` lists: the package's bound names, ``__all__`` and every export."""
    return sorted({*vars(_package), "__all__", *_SOURCE})
