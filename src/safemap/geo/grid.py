"""Study-area gridding and per-cell accident scoring.

A local equirectangular projection about the record bounding-box centroid
maps degrees to meters: x = R*radians(lon - lon0)*cos(radians(lat0)),
y = R*radians(lat - lat0).  At city scale the distortion is negligible and
every step is hand-checkable.  Cells are half-open s x s meter squares
indexed (col, row) from the south-west corner; boundary points belong to
the higher cell by the floor convention.

``build_grid`` maps the records' latitude and longitude columns to int64
cell column and row arrays: ``floor((lon - origin_lon) * meters_per_deg_lon
/ cell_size_m)`` and the same for rows, in that operation order, so every
cell matches a scalar projection of its record bit for bit.
``score_cells`` counts them into a ``[rows, columns]`` array with one
``np.bincount`` over flat cell indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..jsoncodec import JsonError, from_json, to_json

EARTH_RADIUS_M = 6_371_000.0

# Guard against accidental continent-scale grids eating all memory.
MAX_CELLS = 50_000_000


class GridError(ValueError):
    """Invalid grid construction or scoring input."""


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry: south-west corner, cell size, extents, projection constants."""

    origin_lat: float
    origin_lon: float
    cell_size_m: float
    columns: int
    rows: int
    ref_lat: float
    earth_radius_m: float = EARTH_RADIUS_M

    def __post_init__(self):
        for name in ("cell_size_m", "earth_radius_m"):
            if not getattr(self, name) > 0:
                raise GridError(f"{name} must be positive, got {getattr(self, name)}")
        if self.columns < 1 or self.rows < 1:
            raise GridError(f"grid extents must be positive, got {self.columns}x{self.rows}")
        if self.columns * self.rows > MAX_CELLS:
            raise GridError(
                f"grid of {self.columns}x{self.rows} cells exceeds the {MAX_CELLS} cell "
                f"guard; increase cell_size_m or split the study area")

    @property
    def _meters_per_deg_lat(self) -> float:
        return self.earth_radius_m * math.pi / 180.0

    @property
    def _meters_per_deg_lon(self) -> float:
        return self.earth_radius_m * math.pi / 180.0 * math.cos(math.radians(self.ref_lat))

    def cell_center(self, col: int, row: int) -> tuple[float, float]:
        lat = self.origin_lat + (row + 0.5) * self.cell_size_m / self._meters_per_deg_lat
        lon = self.origin_lon + (col + 0.5) * self.cell_size_m / self._meters_per_deg_lon
        return lat, lon

    def to_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, d) -> "GridSpec":
        """Parse a ``to_dict`` object; anything malformed raises GridError."""
        try:
            return from_json(cls, d)
        except JsonError as e:
            raise GridError(f"malformed grid spec: {e}") from e


def build_grid(lats, lons, cell_size_m: float = 30.0) -> tuple[GridSpec, np.ndarray, np.ndarray]:
    """Fit a grid over the bounding box of the float64 ``lats`` and ``lons``.

    Returns the spec and int64 ``cols`` and ``rows`` arrays, one cell per
    record in input order.  A single-point extent yields a 1x1 grid.
    """
    if not lats.size:
        raise GridError("build_grid needs at least one record")
    lat0 = (float(lats.min()) + float(lats.max())) / 2.0
    lon0 = (float(lons.min()) + float(lons.max())) / 2.0
    m_per_deg_lat = EARTH_RADIUS_M * math.pi / 180.0
    m_per_deg_lon = m_per_deg_lat * math.cos(math.radians(lat0))
    min_x = float(((lons - lon0) * m_per_deg_lon).min())
    min_y = float(((lats - lat0) * m_per_deg_lat).min())
    # Grid origin = inverse projection of the bounding-box minimum corner.
    origin_lon = lon0 + min_x / m_per_deg_lon if m_per_deg_lon != 0 else lon0
    origin_lat = lat0 + min_y / m_per_deg_lat
    probe = GridSpec(origin_lat=origin_lat, origin_lon=origin_lon,
                     cell_size_m=cell_size_m, columns=1, rows=1, ref_lat=lat0)
    # the scalar projection and floor on every record at once, in its operation order
    cols = np.floor((lons - origin_lon) * probe._meters_per_deg_lon / cell_size_m)
    rows = np.floor((lats - origin_lat) * probe._meters_per_deg_lat / cell_size_m)
    # Records at the minimum corner can land in cell -1 by one ulp of
    # round-trip error; clamp at zero, which the floor convention permits
    # only for the true boundary point.
    np.maximum(cols, 0.0, out=cols)
    np.maximum(rows, 0.0, out=rows)
    last_col, last_row = float(cols.max()), float(rows.max())
    if not (math.isfinite(last_col) and math.isfinite(last_row)):
        raise GridError(f"cell_size_m {cell_size_m} is too small: cell indices overflow")
    # the spec checks the cell guard before the indices are narrowed to int64
    spec = GridSpec(origin_lat=origin_lat, origin_lon=origin_lon, cell_size_m=cell_size_m,
                    columns=int(last_col) + 1, rows=int(last_row) + 1, ref_lat=lat0)
    return spec, cols.astype(np.int64), rows.astype(np.int64)


def score_cells(spec: GridSpec, cols, rows) -> np.ndarray:
    """Records per cell of the int64 ``cols`` and ``rows``, as an int64
    ``[rows, columns]`` array that sums to the record count exactly."""
    outside = (cols < 0) | (cols >= spec.columns) | (rows < 0) | (rows >= spec.rows)
    if outside.any():
        i = int(outside.argmax())
        raise GridError(f"cell ({cols[i]},{rows[i]}) outside {spec.columns}x{spec.rows} grid")
    counts = np.bincount(rows * spec.columns + cols, minlength=spec.rows * spec.columns)
    return counts.astype(np.int64, copy=False).reshape(spec.rows, spec.columns)
