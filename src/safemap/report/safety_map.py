"""Safety-map export: per-cell CSV table plus a one-pixel-per-cell raster."""

import csv
from dataclasses import dataclass

import numpy as np

from ..fileio import atomic_open
from ..geo.grid import GridSpec
from ..geo.manifest import DANGEROUS, SAFE
from ..geo.ppm import write_ppm

DANGEROUS_RGB = (220, 50, 47)
SAFE_RGB = (60, 160, 70)


class ExportError(ValueError):
    """Raised when predictions do not match the grid cell for cell."""


@dataclass(frozen=True)
class CellPrediction:
    label: int
    prob_dangerous: float

    def __post_init__(self):
        if self.label not in (SAFE, DANGEROUS):
            raise ExportError(f"label must be 0 or 1, got {self.label}")
        if not 0.0 <= self.prob_dangerous <= 1.0:
            raise ExportError(f"prob_dangerous outside [0, 1]: {self.prob_dangerous}")


def safety_map_export(grid: GridSpec, predictions: dict, csv_path, ppm_path) -> None:
    """Write the per-cell table and the raster.

    predictions maps (col, row) to CellPrediction and must cover every
    cell and no cell outside the grid. The raster puts grid row 0 (the southern edge, nearest the
    origin) at the bottom, so image row 0 is the northern edge.
    """
    missing = [(c, r) for r in range(grid.rows) for c in range(grid.columns)
               if (c, r) not in predictions]
    if missing:
        raise ExportError(f"{len(missing)} cells lack predictions, first {missing[0]}")
    for col, row in predictions:
        if not (0 <= col < grid.columns and 0 <= row < grid.rows):
            raise ExportError(f"prediction for cell {(col, row)} outside the "
                              f"{grid.columns}x{grid.rows} grid")
    with atomic_open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["col", "row", "center_lat", "center_lon",
                         "label", "prob_dangerous"])
        for row in range(grid.rows):
            for col in range(grid.columns):
                pred = predictions[(col, row)]
                lat, lon = grid.cell_center(col, row)
                writer.writerow([col, row, repr(lat), repr(lon),
                                 pred.label, repr(pred.prob_dangerous)])
    raster = np.zeros((grid.rows, grid.columns, 3), dtype=np.uint8)
    for (col, row), pred in predictions.items():
        rgb = DANGEROUS_RGB if pred.label == DANGEROUS else SAFE_RGB
        raster[grid.rows - 1 - row, col] = rgb
    write_ppm(ppm_path, raster)
