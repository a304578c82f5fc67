"""Study-area gridding and per-cell accident scoring.

A local equirectangular projection about the record bounding-box centroid
maps degrees to meters: x = R*radians(lon - lon0)*cos(radians(lat0)),
y = R*radians(lat - lat0).  At city scale the distortion is negligible and
every step is hand-checkable.  Cells are half-open s x s meter squares
indexed (col, row) from the south-west corner; boundary points belong to
the higher cell by the floor convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..jsoncodec import JsonError, from_json, to_json
from .records import AccidentRecord

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

    def project(self, lat: float, lon: float) -> tuple[float, float]:
        """Meters east/north of the grid origin."""
        x = (lon - self.origin_lon) * self._meters_per_deg_lon
        y = (lat - self.origin_lat) * self._meters_per_deg_lat
        return x, y

    def cell_of(self, lat: float, lon: float) -> tuple[int, int]:
        x, y = self.project(lat, lon)
        return int(math.floor(x / self.cell_size_m)), int(math.floor(y / self.cell_size_m))

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


def build_grid(records: Sequence[AccidentRecord],
               cell_size_m: float = 30.0) -> tuple[GridSpec, list[tuple[int, int]]]:
    """Fit a grid over the record bounding box; map each record to its cell.

    Returns the spec and one (col, row) per record in input order.  A
    degenerate single-point extent yields a 1x1 grid.
    """
    if not records:
        raise GridError("build_grid needs at least one record")
    lats = [r.latitude for r in records]
    lons = [r.longitude for r in records]
    lat0 = (min(lats) + max(lats)) / 2.0
    lon0 = (min(lons) + max(lons)) / 2.0
    m_per_deg_lat = EARTH_RADIUS_M * math.pi / 180.0
    m_per_deg_lon = m_per_deg_lat * math.cos(math.radians(lat0))
    xs = [(lon - lon0) * m_per_deg_lon for lon in lons]
    ys = [(lat - lat0) * m_per_deg_lat for lat in lats]
    # Grid origin = inverse projection of the bounding-box minimum corner.
    origin_lon = lon0 + min(xs) / m_per_deg_lon if m_per_deg_lon != 0 else lon0
    origin_lat = lat0 + min(ys) / m_per_deg_lat
    probe = GridSpec(origin_lat=origin_lat, origin_lon=origin_lon,
                     cell_size_m=cell_size_m, columns=1, rows=1, ref_lat=lat0)
    cells = [probe.cell_of(r.latitude, r.longitude) for r in records]
    # Records at the minimum corner can land in cell -1 by one ulp of
    # round-trip error; clamp at zero, which the floor convention permits
    # only for the true boundary point.
    cells = [(max(c, 0), max(r, 0)) for c, r in cells]
    spec = GridSpec(origin_lat=origin_lat, origin_lon=origin_lon, cell_size_m=cell_size_m,
                    columns=max(c for c, _ in cells) + 1, rows=max(r for _, r in cells) + 1,
                    ref_lat=lat0)
    return spec, cells


class ScoredGrid:
    """Per-cell accident counts over a GridSpec, zero cells included."""

    def __init__(self, spec: GridSpec, counts: np.ndarray):
        if counts.shape != (spec.rows, spec.columns):
            raise GridError(f"counts shape {counts.shape} does not match "
                            f"{spec.rows}x{spec.columns} grid")
        self.spec = spec
        self.counts = counts

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def score(self, col: int, row: int) -> int:
        return int(self.counts[row, col])


def score_cells(spec: GridSpec, record_cells: Sequence[tuple[int, int]]) -> ScoredGrid:
    """Count records per cell; the counts sum to the record count exactly."""
    counts = np.zeros((spec.rows, spec.columns), dtype=np.int64)
    for col, row in record_cells:
        if not (0 <= col < spec.columns and 0 <= row < spec.rows):
            raise GridError(f"cell ({col},{row}) outside {spec.columns}x{spec.rows} grid")
        counts[row, col] += 1
    return ScoredGrid(spec, counts)
