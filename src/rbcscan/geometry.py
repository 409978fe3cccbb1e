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

from .errors import DomainError, number


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics: focal length in pixels at a reference resolution."""

    focal_px: float
    ref_width: int
    ref_height: int

    def __post_init__(self) -> None:
        number(self.focal_px, "focal_px", DomainError, "finite and > 0")
        for name in ("ref_width", "ref_height"):  # stored as ints, as CellGrid's sizes
            value = number(getattr(self, name), name, DomainError, "> 0", integral=True)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ReceiverSpec:
    """Physical dimensions of a chargeable receiver, in centimeters."""

    width_cm: float
    height_cm: float

    def __post_init__(self) -> None:
        number(self.width_cm, "width_cm", DomainError, "finite and > 0")
        number(self.height_cm, "height_cm", DomainError, "finite and > 0")


@dataclass(frozen=True)
class CellGrid:
    """Uniform partition of the coverage image into rows x cols scan cells."""

    rows: int
    cols: int
    image_width: int
    image_height: int

    def __post_init__(self) -> None:
        # Stored as ints: numpy integer arithmetic would wrap past 2**63.
        for name in ("rows", "cols", "image_width", "image_height"):
            value = number(getattr(self, name), name, DomainError, ">= 1", integral=True)
            object.__setattr__(self, name, value)

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class PixelSize:
    """Projected on-image size of an object, in (possibly fractional) pixels."""

    w_px: float
    h_px: float

    def __post_init__(self) -> None:
        number(self.w_px, "w_px", DomainError, "finite and >= 0")
        number(self.h_px, "h_px", DomainError, "finite and >= 0")


#: Below this on-image size (long side x short side) the detector is treated
#: as blind; the boundary itself counts as detectable.
MIN_DETECTABLE_W_PX = 30.0
MIN_DETECTABLE_H_PX = 15.0


def calibrate_focal(object_cm: float, distance_cm: float, observed_px: float) -> float:
    """Focal length in pixels from one observation of a known object.

    Inverts the pinhole relation: focal_px = observed_px * distance_cm / object_cm.
    """
    number(object_cm, "object_cm", DomainError, "finite and > 0")
    number(distance_cm, "distance_cm", DomainError, "finite and > 0")
    number(observed_px, "observed_px", DomainError, "finite and > 0")
    return observed_px * distance_cm / object_cm


def reference_camera() -> CameraModel:
    """Camera calibrated from the bundled worked example.

    A 14 cm wide receiver observed 124 px wide at 120 cm distance in a
    1280x720 frame.
    """
    return CameraModel(calibrate_focal(14.0, 120.0, 124.0), 1280, 720)


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
    number(distance_cm, "distance_cm", DomainError, "finite and > 0")
    size = f"output resolution {out_width}x{out_height}"
    out_width, out_height = number((out_width, out_height), size, DomainError, "> 0", integral=True)
    # Integer cross-multiplication keeps the comparison exact.
    if out_width * cam.ref_height != out_height * cam.ref_width:
        raise DomainError(
            f"{size} does not match the camera's {cam.ref_width}x{cam.ref_height} aspect ratio"
        )
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
    number(min_w, "min_w", DomainError, "finite and > 0")
    number(min_h, "min_h", DomainError, "finite and > 0")
    long_side, short_side = max(p.w_px, p.h_px), min(p.w_px, p.h_px)
    long_min, short_min = max(min_w, min_h), min(min_w, min_h)
    return long_side >= long_min and short_side >= short_min


def cell_of_point(grid: CellGrid, x: float, y: float) -> int:
    """Row-major index of the scan cell containing an image point.

    Valid for 0 <= x < image_width and 0 <= y < image_height; every
    in-range point maps to exactly one cell.
    """
    number(x, "point x", DomainError)
    number(y, "point y", DomainError)
    if not (0 <= x < grid.image_width and 0 <= y < grid.image_height):
        raise DomainError(
            f"point ({x}, {y}) outside image {grid.image_width}x{grid.image_height}"
        )
    # min() guards the pathological rounding where x*cols/width lands on cols.
    col = min(grid.cols - 1, math.floor(x * grid.cols / grid.image_width))
    row = min(grid.rows - 1, math.floor(y * grid.rows / grid.image_height))
    return row * grid.cols + col


def cell_center(grid: CellGrid, cell: int) -> tuple[float, float]:
    """Center point of a cell; always maps back to the same cell index."""
    if type(cell) is not int:
        cell = number(cell, "cell index", DomainError, integral=True)
    rows, cols = grid.rows, grid.cols
    if not 0 <= cell < rows * cols:
        raise DomainError(f"cell index {cell} outside grid of {rows * cols} cells")
    row, col = divmod(cell, cols)
    return (
        (col + 0.5) * grid.image_width / cols,
        (row + 0.5) * grid.image_height / rows,
    )
