"""Safety-map export: CSV table and raster orientation contracts."""

import re

import pytest

from safemap.geo.grid import GridSpec
from safemap.geo.manifest import DANGEROUS, SAFE
from safemap.geo.ppm import read_ppm
from safemap.report import (
    DANGEROUS_RGB,
    SAFE_RGB,
    CellPrediction,
    ExportError,
    safety_map_export,
)


def grid_2x2():
    return GridSpec(origin_lat=37.0, origin_lon=-122.0, cell_size_m=100.0,
                    columns=2, rows=2, ref_lat=37.0)


def full_predictions(grid, label=SAFE, prob=0.25):
    return {(c, r): CellPrediction(label=label, prob_dangerous=prob)
            for r in range(grid.rows) for c in range(grid.columns)}


class TestRaster:
    def test_all_safe_gives_green_pixels(self, tmp_path):
        grid = grid_2x2()
        safety_map_export(grid, full_predictions(grid),
                          tmp_path / "m.csv", tmp_path / "m.ppm")
        img = read_ppm(tmp_path / "m.ppm")
        assert img.shape == (2, 2, 3)
        assert (img == SAFE_RGB).all()

    def test_row_zero_rendered_at_bottom(self, tmp_path):
        grid = GridSpec(origin_lat=37.0, origin_lon=-122.0, cell_size_m=100.0,
                        columns=1, rows=2, ref_lat=37.0)
        preds = {(0, 0): CellPrediction(SAFE, 0.0),
                 (0, 1): CellPrediction(DANGEROUS, 1.0)}
        safety_map_export(grid, preds, tmp_path / "m.csv", tmp_path / "m.ppm")
        img = read_ppm(tmp_path / "m.ppm")
        # grid row 1 is the northern cell, so it lands on image row 0
        assert tuple(img[0, 0]) == DANGEROUS_RGB
        assert tuple(img[1, 0]) == SAFE_RGB


class TestCsv:
    def test_row_count_and_header(self, tmp_path):
        grid = grid_2x2()
        safety_map_export(grid, full_predictions(grid),
                          tmp_path / "m.csv", tmp_path / "m.ppm")
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == "col,row,center_lat,center_lon,label,prob_dangerous"
        assert len(lines) == 1 + grid.columns * grid.rows

    def test_centers_match_grid(self, tmp_path):
        grid = grid_2x2()
        safety_map_export(grid, full_predictions(grid),
                          tmp_path / "m.csv", tmp_path / "m.ppm")
        lines = (tmp_path / "m.csv").read_text().splitlines()[1:]
        for line in lines:
            col, row, lat, lon, label, prob = line.split(",")
            want_lat, want_lon = grid.cell_center(int(col), int(row))
            assert float(lat) == want_lat and float(lon) == want_lon
            assert int(label) == SAFE and float(prob) == 0.25

    def test_rerun_byte_identical(self, tmp_path):
        grid = grid_2x2()
        preds = full_predictions(grid, label=DANGEROUS, prob=0.875)
        safety_map_export(grid, preds, tmp_path / "a.csv", tmp_path / "a.ppm")
        safety_map_export(grid, preds, tmp_path / "b.csv", tmp_path / "b.ppm")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


class TestValidation:
    def test_missing_cell_rejected(self, tmp_path):
        grid = grid_2x2()
        preds = full_predictions(grid)
        del preds[(1, 0)]
        with pytest.raises(ExportError, match="lack predictions"):
            safety_map_export(grid, preds, tmp_path / "m.csv", tmp_path / "m.ppm")

    def test_bad_prediction_values_rejected(self):
        with pytest.raises(ExportError):
            CellPrediction(label=2, prob_dangerous=0.5)
        with pytest.raises(ExportError):
            CellPrediction(label=SAFE, prob_dangerous=1.5)

    @pytest.mark.parametrize("cell", [(5, 0), (-1, 0)])
    def test_cell_outside_grid_rejected(self, tmp_path, cell):
        grid = GridSpec(origin_lat=37.0, origin_lon=-122.0, cell_size_m=100.0,
                        columns=2, rows=1, ref_lat=37.0)
        preds = full_predictions(grid)
        preds[cell] = CellPrediction(DANGEROUS, 0.9)
        with pytest.raises(ExportError, match=re.escape(f"cell {cell} outside the 2x1 grid")):
            safety_map_export(grid, preds, tmp_path / "m.csv", tmp_path / "m.ppm")
        assert not (tmp_path / "m.csv").exists() and not (tmp_path / "m.ppm").exists()
