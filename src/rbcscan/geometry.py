"""Pinhole projection and scan-cell geometry.

A single-parameter pinhole model maps physical receiver dimensions to
on-image pixel sizes: px = focal_px * size_cm / distance_cm at the
camera's reference resolution, scaled linearly for other resolutions of
the same aspect ratio. The transmitter's coverage image is partitioned
into a uniform row-major grid of scan cells; `cell_of_point` assigns
every in-image point to exactly one cell.

The model assumes the receiver faces the lens; oblique orientations
shrink the apparent size, so far-range measurements can fall below the
prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, integer


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics: focal length in pixels at a reference resolution."""

    focal_px: float
    ref_width: int
    ref_height: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.focal_px) and self.focal_px > 0):
            raise DomainError(f"focal_px must be finite and > 0, got {self.focal_px}")
        if self.ref_width <= 0 or self.ref_height <= 0:
            raise DomainError(
                f"reference resolution must be positive, got {self.ref_width}x{self.ref_height}"
            )


@dataclass(frozen=True)
class ReceiverSpec:
    """Physical dimensions of a chargeable receiver, in centimeters."""

    width_cm: float
    height_cm: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0 for v in (self.width_cm, self.height_cm)):
            raise DomainError(
                "receiver dimensions must be finite and > 0, got "
                f"{self.width_cm}x{self.height_cm} cm"
            )


@dataclass(frozen=True)
class CellGrid:
    """Uniform partition of the coverage image into rows x cols scan cells."""

    rows: int
    cols: int
    image_width: int
    image_height: int

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "image_width", "image_height"):
            integer(getattr(self, name), name, DomainError)
        if self.rows < 1 or self.cols < 1:
            raise DomainError(f"grid must have rows, cols >= 1, got {self.rows}x{self.cols}")
        if self.image_width < 1 or self.image_height < 1:
            raise DomainError(
                f"image dimensions must be >= 1, got {self.image_width}x{self.image_height}"
            )

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class PixelSize:
    """Projected on-image size of an object, in (possibly fractional) pixels."""

    w_px: float
    h_px: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v >= 0 for v in (self.w_px, self.h_px)):
            raise DomainError(f"pixel size must be finite and >= 0, got ({self.w_px}, {self.h_px})")


#: Below this on-image size (long side x short side) the detector is treated
#: as blind; the boundary itself counts as detectable.
MIN_DETECTABLE_W_PX = 30.0
MIN_DETECTABLE_H_PX = 15.0


def calibrate_focal(object_cm: float, distance_cm: float, observed_px: float) -> float:
    """Focal length in pixels from one observation of a known object.

    Inverts the pinhole relation: focal_px = observed_px * distance_cm / object_cm.
    """
    if not all(math.isfinite(v) and v > 0 for v in (object_cm, distance_cm, observed_px)):
        raise DomainError(
            "calibrate_focal requires finite positive inputs, got "
            f"({object_cm}, {distance_cm}, {observed_px})"
        )
    return observed_px * distance_cm / object_cm


def reference_camera() -> CameraModel:
    """Camera calibrated from the bundled worked example.

    A 14 cm wide receiver observed 124 px wide at 120 cm distance in a
    1280x720 frame.
    """
    return CameraModel(calibrate_focal(14.0, 120.0, 124.0), 1280, 720)


def _check_aspect(cam: CameraModel, out_width: int, out_height: int) -> None:
    if out_width <= 0 or out_height <= 0:
        raise DomainError(f"output resolution must be positive, got {out_width}x{out_height}")
    # Integer cross-multiplication keeps the comparison exact.
    if out_width * cam.ref_height != out_height * cam.ref_width:
        raise DomainError(
            f"output resolution {out_width}x{out_height} does not match the camera's "
            f"{cam.ref_width}x{cam.ref_height} aspect ratio"
        )


def project_size(
    cam: CameraModel,
    spec: ReceiverSpec,
    distance_cm: float,
    out_width: int,
    out_height: int,
) -> PixelSize:
    """Projected receiver size at a distance, rendered at an output resolution.

    Returns continuous pixel values; callers round for display. The output
    resolution must share the camera's reference aspect ratio.
    """
    if not (math.isfinite(distance_cm) and distance_cm > 0):
        raise DomainError(f"distance_cm must be finite and > 0, got {distance_cm}")
    _check_aspect(cam, out_width, out_height)
    scale = out_width / cam.ref_width
    return PixelSize(
        cam.focal_px * scale * spec.width_cm / distance_cm,
        cam.focal_px * scale * spec.height_cm / distance_cm,
    )


def is_detectable(
    p: PixelSize,
    min_w: float = MIN_DETECTABLE_W_PX,
    min_h: float = MIN_DETECTABLE_H_PX,
) -> bool:
    """Whether a projected size clears the detectability floor.

    The longer projected side is compared against the longer threshold and
    the shorter against the shorter, so orientation does not matter; the
    comparison is inclusive at the boundary.
    """
    if not all(math.isfinite(v) and v > 0 for v in (min_w, min_h)):
        raise DomainError(
            f"detectability thresholds must be finite and > 0, got ({min_w}, {min_h})"
        )
    long_side, short_side = max(p.w_px, p.h_px), min(p.w_px, p.h_px)
    long_min, short_min = max(min_w, min_h), min(min_w, min_h)
    return long_side >= long_min and short_side >= short_min


def cell_of_point(grid: CellGrid, x: float, y: float) -> int:
    """Row-major index of the scan cell containing an image point.

    Valid for 0 <= x < image_width and 0 <= y < image_height; every
    in-range point maps to exactly one cell.
    """
    if not (0 <= x < grid.image_width and 0 <= y < grid.image_height):
        raise DomainError(
            f"point ({x}, {y}) outside image {grid.image_width}x{grid.image_height}"
        )
    # min() guards the pathological rounding where x*cols/width lands on cols.
    col = min(grid.cols - 1, math.floor(x * grid.cols / grid.image_width))
    row = min(grid.rows - 1, math.floor(y * grid.rows / grid.image_height))
    return row * grid.cols + col


def cell_center(grid: CellGrid, cell: int) -> tuple[float, float]:
    """Center point of a cell; always maps back to the same cell index.

    ``cell`` is an integer (numpy integers included); a float is rejected
    even when it is integral.
    """
    if type(cell) is not int:
        cell = integer(cell, "cell index", DomainError)
    rows, cols = grid.rows, grid.cols
    if not 0 <= cell < rows * cols:
        raise DomainError(f"cell index {cell} outside grid of {rows * cols} cells")
    row, col = divmod(cell, cols)
    return (
        (col + 0.5) * grid.image_width / cols,
        (row + 0.5) * grid.image_height / rows,
    )
