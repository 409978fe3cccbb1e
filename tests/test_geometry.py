import math
import random

import numpy as np
import pytest

from rbcscan.errors import DomainError
from rbcscan.geometry import (
    CameraModel,
    CellGrid,
    PixelSize,
    ReceiverSpec,
    calibrate_focal,
    cell_center,
    cell_of_point,
    is_detectable,
    project_size,
    reference_camera,
)

# Frozen from the pinhole relation f = p * Z / X: 124 px * 120 cm / 14 cm.
CALIBRATED_FOCAL_PX = 14880 / 14
#: The message of a resolution whose aspect ratio differs from the camera's.
ASPECT_MISMATCH = r"does not match the camera's \d+x\d+ aspect ratio"


class TestCalibrateFocal:
    def test_worked_example(self):
        assert calibrate_focal(14, 120, 124) == pytest.approx(CALIBRATED_FOCAL_PX, rel=1e-12)

    def test_identity_case(self):
        assert calibrate_focal(1, 1, 1) == 1.0

    def test_short_side_agrees(self):
        # Both sides of the same observation imply the same focal length.
        long_side = calibrate_focal(14, 120, 124)
        short_side = calibrate_focal(7, 120, 62)
        assert abs(long_side - short_side) / long_side < 1e-9

    @pytest.mark.parametrize("args", [(0, 120, 124), (14, 0, 124), (14, 120, 0), (-1, 1, 1)])
    def test_rejects_non_positive(self, args):
        with pytest.raises(DomainError):
            calibrate_focal(*args)


class TestProjectSize:
    def setup_method(self):
        self.cam = reference_camera()
        self.phone = ReceiverSpec(14.0, 7.0)

    def test_reference_case_full_resolution(self):
        size = project_size(self.cam, self.phone, 120, 1280, 720)
        assert round(size.w_px) == 124
        assert round(size.h_px) == 62

    def test_reference_case_half_resolution(self):
        size = project_size(self.cam, self.phone, 120, 640, 360)
        assert round(size.w_px) == 62
        assert round(size.h_px) == 31

    def test_double_distance_halves_size(self):
        near = project_size(self.cam, self.phone, 120, 1280, 720)
        far = project_size(self.cam, self.phone, 240, 1280, 720)
        assert far.w_px == near.w_px / 2
        assert far.h_px == near.h_px / 2

    def test_scale_invariance_power_of_two(self):
        base = project_size(self.cam, self.phone, 100, 1280, 720)
        for k in (0.5, 2.0, 4.0, 8.0):
            scaled = project_size(self.cam, self.phone, 100 * k, 1280, 720)
            assert scaled.w_px == base.w_px / k
            assert scaled.h_px == base.h_px / k

    def test_scale_invariance_general(self):
        rng = random.Random(7)
        base = project_size(self.cam, self.phone, 100, 1280, 720)
        for _ in range(200):
            k = rng.uniform(0.1, 10)
            scaled = project_size(self.cam, self.phone, 100 * k, 1280, 720)
            assert scaled.w_px == pytest.approx(base.w_px / k, rel=1e-12)

    def test_halving_resolution_halves_size_exactly(self):
        full = project_size(self.cam, self.phone, 137.5, 1280, 720)
        half = project_size(self.cam, self.phone, 137.5, 640, 360)
        assert half.w_px == full.w_px / 2
        assert half.h_px == full.h_px / 2

    def test_calibration_round_trip(self):
        rng = random.Random(11)
        for _ in range(200):
            obj_cm = rng.uniform(1, 50)
            dist_cm = rng.uniform(20, 500)
            observed = rng.uniform(5, 800)
            cam = CameraModel(calibrate_focal(obj_cm, dist_cm, observed), 1280, 720)
            size = project_size(cam, ReceiverSpec(obj_cm, obj_cm), dist_cm, 1280, 720)
            assert abs(size.w_px - observed) / observed < 1e-9

    def test_aspect_mismatch_rejected(self):
        with pytest.raises(DomainError, match=ASPECT_MISMATCH):
            project_size(self.cam, self.phone, 120, 1280, 721)
        with pytest.raises(DomainError, match=ASPECT_MISMATCH):
            project_size(self.cam, self.phone, 120, 640, 480)

    def test_bad_distance_rejected(self):
        with pytest.raises(DomainError):
            project_size(self.cam, self.phone, 0, 1280, 720)
        with pytest.raises(DomainError):
            project_size(self.cam, self.phone, -5, 1280, 720)


class TestIsDetectable:
    def test_large_phone(self):
        assert is_detectable(PixelSize(124, 62)) is True

    def test_too_small(self):
        assert is_detectable(PixelSize(28, 14)) is False

    def test_boundary_inclusive(self):
        assert is_detectable(PixelSize(30, 15)) is True

    def test_orientation_independent(self):
        # A portrait phone is as detectable as a landscape one.
        assert is_detectable(PixelSize(62, 124)) is True
        assert is_detectable(PixelSize(15, 30)) is True
        assert is_detectable(PixelSize(14, 28)) is False

    def test_one_side_below(self):
        assert is_detectable(PixelSize(124, 14)) is False

    def test_rejects_bad_thresholds(self):
        with pytest.raises(DomainError):
            is_detectable(PixelSize(124, 62), min_w=0)


class TestCellGrid:
    def setup_method(self):
        self.grid = CellGrid(rows=8, cols=8, image_width=1280, image_height=720)

    def test_origin_corner(self):
        assert cell_of_point(self.grid, 10, 10) == 0

    def test_far_corner(self):
        assert cell_of_point(self.grid, 1279, 719) == 63

    def test_center_point(self):
        assert cell_of_point(self.grid, 640, 360) == 36  # row 4, col 4

    @pytest.mark.parametrize("point", [(-1, 0), (0, -0.5), (1280, 0), (0, 720), (2000, 2000)])
    def test_out_of_range_rejected(self, point):
        with pytest.raises(DomainError):
            cell_of_point(self.grid, *point)

    @pytest.mark.parametrize(
        "rows,cols,width,height",
        [(8, 8, 64, 48), (3, 5, 64, 48), (7, 3, 100, 40), (1, 1, 17, 9), (5, 4, 33, 27)],
    )
    def test_integer_pixels_partition_image(self, rows, cols, width, height):
        grid = CellGrid(rows, cols, width, height)
        counts = [0] * grid.n_cells
        for y in range(height):
            for x in range(width):
                counts[cell_of_point(grid, x, y)] += 1
        assert sum(counts) == width * height
        # Per-cell counts must match the rectangles the floor mapping implies.
        col_counts = [
            math.ceil((c + 1) * width / cols) - math.ceil(c * width / cols) for c in range(cols)
        ]
        row_counts = [
            math.ceil((r + 1) * height / rows) - math.ceil(r * height / rows) for r in range(rows)
        ]
        for r in range(rows):
            for c in range(cols):
                assert counts[r * cols + c] == row_counts[r] * col_counts[c]

    def test_total_on_random_real_points(self):
        rng = random.Random(3)
        for _ in range(2000):
            x = rng.uniform(0, 1280 - 1e-9)
            y = rng.uniform(0, 720 - 1e-9)
            cell = cell_of_point(self.grid, x, y)
            assert 0 <= cell < 64

    def test_cell_center_round_trips(self):
        for grid in (self.grid, CellGrid(3, 5, 64, 48), CellGrid(7, 3, 101, 43)):
            for cell in range(grid.n_cells):
                assert cell_of_point(grid, *cell_center(grid, cell)) == cell

    def test_cell_center_bounds_checked(self):
        with pytest.raises(DomainError):
            cell_center(self.grid, 64)
        with pytest.raises(DomainError):
            cell_center(self.grid, -1)

    @pytest.mark.parametrize("cell", [2.5, 3.0])
    def test_cell_center_rejects_non_integral_cell(self, cell):
        with pytest.raises(DomainError, match=f"cell index must be an integer, got {cell}"):
            cell_center(self.grid, cell)

    @pytest.mark.parametrize("cell", ["3", None, 64.5])
    def test_cell_center_checks_the_type_first(self, cell):
        with pytest.raises(DomainError) as e:
            cell_center(self.grid, cell)
        assert str(e.value) == f"cell index must be an integer, got {cell!r}"

    def test_cell_center_takes_numpy_integers(self):
        assert cell_center(self.grid, np.int64(3)) == cell_center(self.grid, 3) == (560.0, 45.0)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value", ["8", 8.5, 8.0, None])
    def test_grid_sizes_must_be_integers(self, field, value):
        args = [8, 8, 1280, 720]
        args[field] = value
        name = ("rows", "cols", "image_width", "image_height")[field]
        with pytest.raises(DomainError) as e:
            CellGrid(*args)
        assert str(e.value) == f"{name} must be an integer, got {value!r}"

    def test_grid_takes_numpy_integers(self):
        grid = CellGrid(np.int64(8), np.int32(8), np.int64(1280), 720)
        assert grid.n_cells == 64 and cell_center(grid, 3) == (560.0, 45.0)

    def test_numpy_integer_sizes_are_stored_as_ints(self):
        # numpy int64 arithmetic would wrap 2**32 * 2**32 to 0.
        grid = CellGrid(np.int64(2**32), np.int64(2**32), np.int64(1280), 720)
        assert all(type(v) is int for v in (grid.rows, grid.cols, grid.image_width))
        assert grid.n_cells == 2**64
        cam = CameraModel(1000.0, np.int64(1280), np.int32(720))
        assert (type(cam.ref_width), type(cam.ref_height)) == (int, int)

    def test_invalid_grid_rejected(self):
        with pytest.raises(DomainError):
            CellGrid(0, 8, 1280, 720)
        with pytest.raises(DomainError):
            CellGrid(8, 8, 0, 720)


class TestModelValidation:
    def test_camera_rejects_bad_focal(self):
        with pytest.raises(DomainError):
            CameraModel(0, 1280, 720)

    def test_camera_rejects_bad_resolution(self):
        with pytest.raises(DomainError):
            CameraModel(1000, -1280, 720)

    def test_receiver_rejects_bad_size(self):
        with pytest.raises(DomainError):
            ReceiverSpec(0, 7)

    def test_pixel_size_rejects_negative(self):
        with pytest.raises(DomainError):
            PixelSize(-1, 5)
