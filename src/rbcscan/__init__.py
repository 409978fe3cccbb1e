"""Detection-guided resonant beam charging: scan-time models and evaluation tools.

The package covers four concerns: pinhole camera geometry for projected
receiver sizes (`geometry`), from-scratch detection metrics (`metrics`),
analytic and Monte Carlo scan-time models (`scanning`), and a stochastic
detector oracle with empirical AP profiles (`detector`). File formats and
the CLI live in `formats` and `cli`.
"""

from .detector import (
    DetectorProfile,
    SyntheticScene,
    ap_at,
    builtin_profile,
    builtin_profile_names,
    detections_to_candidates,
    sample_detections,
)
from .errors import (
    DomainError,
    InvariantError,
    RbcScanError,
    SchemaError,
    UsageError,
)
from .geometry import (
    CameraModel,
    CellGrid,
    PixelSize,
    ReceiverSpec,
    bbox_center,
    calibrate_focal,
    cell_center,
    cell_of_point,
    is_detectable,
    project_size,
    reference_camera,
)
from .metrics import (
    SMALL_OBJECT_CUTOFF_PX,
    STANDARD_IOU_THRESHOLDS,
    BBox,
    Columns,
    Detection,
    EvalResult,
    GroundTruthObject,
    MatchResult,
    average_precision,
    evaluate,
    flip_augment,
    iou,
    match_detections,
)
from .scanning import (
    ScanConfig,
    SimulationSummary,
    breakeven_ap,
    simulate_guided,
    simulate_guided_multi,
    simulate_traditional,
    t1_analytic,
    t2_analytic,
)

__version__ = "0.1.0"
