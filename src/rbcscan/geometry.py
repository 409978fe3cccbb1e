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
from typing import NamedTuple

from .errors import DomainError, checked, number, shown


@checked
class CameraModel(NamedTuple):
    """Pinhole intrinsics: focal length in pixels at a reference resolution."""

    focal_px: float
    ref_width: int
    ref_height: int

    def _new(cls, focal_px, ref_width, ref_height):
        number(focal_px, "focal_px", DomainError, "finite and > 0")
        # Stored as ints, as CellGrid's sizes.
        ref_width = number(ref_width, "ref_width", DomainError, "> 0", integral=True)
        ref_height = number(ref_height, "ref_height", DomainError, "> 0", integral=True)
        return tuple.__new__(cls, (focal_px, ref_width, ref_height))


@checked
class ReceiverSpec(NamedTuple):
    """Physical dimensions of a chargeable receiver, in centimeters."""

    width_cm: float
    height_cm: float

    def _new(cls, width_cm, height_cm):
        number(width_cm, "width_cm", DomainError, "finite and > 0")
        number(height_cm, "height_cm", DomainError, "finite and > 0")
        return tuple.__new__(cls, (width_cm, height_cm))


@checked
class CellGrid(NamedTuple):
    """Uniform partition of the coverage image into rows x cols scan cells."""

    rows: int
    cols: int
    image_width: int
    image_height: int

    def _new(cls, rows, cols, image_width, image_height):
        # Stored as ints: numpy integer arithmetic would wrap past 2**63.
        rows = number(rows, "rows", DomainError, ">= 1", integral=True)
        cols = number(cols, "cols", DomainError, ">= 1", integral=True)
        image_width = number(image_width, "image_width", DomainError, ">= 1", integral=True)
        image_height = number(image_height, "image_height", DomainError, ">= 1", integral=True)
        return tuple.__new__(cls, (rows, cols, image_width, image_height))

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols


@checked
class PixelSize(NamedTuple):
    """Projected on-image size of an object, in (possibly fractional) pixels."""

    w_px: float
    h_px: float

    def _new(cls, w_px, h_px):
        number(w_px, "w_px", DomainError, "finite and >= 0")
        number(h_px, "h_px", DomainError, "finite and >= 0")
        return tuple.__new__(cls, (w_px, h_px))


#: Below this on-image size (long side x short side) the detector is treated
#: as blind; the boundary itself counts as detectable.
MIN_DETECTABLE_W_PX = 30.0
MIN_DETECTABLE_H_PX = 15.0


def calibrate_focal(object_cm: float, distance_cm: float, observed_px: float) -> float:
    """Focal length in pixels from one observation of a known object.

    Inverts the pinhole relation: focal_px = observed_px * distance_cm / object_cm,
    in float arithmetic, so an exact int product cannot overflow the division;
    a result that overflows or underflows to 0 is refused.
    """
    number(object_cm, "object_cm", DomainError, "finite and > 0")
    number(distance_cm, "distance_cm", DomainError, "finite and > 0")
    number(observed_px, "observed_px", DomainError, "finite and > 0")
    focal = float(observed_px) * distance_cm / object_cm
    return number(focal, "observed_px * distance_cm / object_cm", DomainError, "finite and > 0")


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
    size = f"output resolution {shown(out_width, str)}x{shown(out_height, str)}"
    # Finite, so the scale below is a float.
    out_width, out_height = number(
        (out_width, out_height), size, DomainError, "finite and > 0", integral=True
    )
    # Integer cross-multiplication keeps the comparison exact.
    if out_width * cam.ref_height != out_height * cam.ref_width:
        raise DomainError(
            f"{size} does not match the camera's "
            f"{shown(cam.ref_width)}x{shown(cam.ref_height)} aspect ratio"
        )
    scale = out_width / cam.ref_width
    w_px = cam.focal_px * scale * spec.width_cm / distance_cm
    h_px = cam.focal_px * scale * spec.height_cm / distance_cm
    if not (math.isfinite(w_px) and math.isfinite(h_px)):
        raise DomainError(f"projected size at distance {distance_cm} cm, {size}, is not finite")
    return tuple.__new__(PixelSize, (w_px, h_px))  # PixelSize's check, done just above


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
            f"point ({shown(x, str)}, {shown(y, str)}) outside image "
            f"{grid.image_width}x{grid.image_height}"
        )
    # min() guards the pathological rounding where x*cols/width lands on cols.
    col = min(grid.cols - 1, math.floor(x * grid.cols / grid.image_width))
    row = min(grid.rows - 1, math.floor(y * grid.rows / grid.image_height))
    return row * grid.cols + col


def cell_center(grid: CellGrid, cell: int) -> tuple[float, float]:
    """Center point of a cell; always maps back to the same cell index."""
    # Inline test kept: this runs once per pipeline episode, until that loop is array code.
    if type(cell) is not int:
        cell = number(cell, "cell index", DomainError, integral=True)
    rows, cols = grid.rows, grid.cols
    if not 0 <= cell < rows * cols:
        raise DomainError(f"cell index {shown(cell)} outside grid of {rows * cols} cells")
    row, col = divmod(cell, cols)
    return (
        (col + 0.5) * grid.image_width / cols,
        (row + 0.5) * grid.image_height / rows,
    )
