"""Brute-force reference implementations used to cross-check the fast paths.

Everything here favors obviousness over speed: plain nested loops, no
vectorization, no shared code with the package under test.  The accident
oracle builds one ``NaiveRecord`` per row; the grid oracle builds the
package's spec type, so that specs compare equal, but projects and counts
on its own.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np


def conv2d_naive(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                 stride: int, pad: int) -> np.ndarray:
    B, Cin, H, W = x.shape
    Cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho = (H + 2 * pad - kh) // stride + 1
    Wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((B, Cout, Ho, Wo))
    for n in range(B):
        for co in range(Cout):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0
                    for ci in range(Cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    out[n, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def conv2d_backward_naive(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                          stride: int, pad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (gx, gw, gb) of sum(g * conv2d(x, w, b)), one tap at a time."""
    B, Cin, H, W = x.shape
    Cout, _, kh, kw = w.shape
    _, _, Ho, Wo = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    gb = np.zeros(Cout)
    for n in range(B):
        for co in range(Cout):
            for i in range(Ho):
                for j in range(Wo):
                    gout = g[n, co, i, j]
                    gb[co] += gout
                    for ci in range(Cin):
                        for u in range(kh):
                            for v in range(kw):
                                r, c = i * stride + u, j * stride + v
                                gw[co, ci, u, v] += gout * xp[n, ci, r, c]
                                gxp[n, ci, r, c] += gout * w[co, ci, u, v]
    return gxp[:, :, pad:pad + H, pad:pad + W], gw, gb


def pool_bins(length: int, out: int) -> list[tuple[int, int]]:
    return [(math.floor(i * length / out), math.floor((i + 1) * length / out))
            for i in range(out)]


def adaptive_avg_pool_naive(x: np.ndarray, oh: int, ow: int) -> np.ndarray:
    B, C, H, W = x.shape
    rows = pool_bins(H, oh)
    cols = pool_bins(W, ow)
    out = np.zeros((B, C, oh, ow))
    for n in range(B):
        for c in range(C):
            for i, (r0, r1) in enumerate(rows):
                for j, (c0, c1) in enumerate(cols):
                    vals = [x[n, c, r, s] for r in range(r0, r1) for s in range(c0, c1)]
                    out[n, c, i, j] = sum(vals) / len(vals)
    return out


def roi_avg_pool_naive(x: np.ndarray, top: int, bottom: int, left: int, right: int,
                       oh: int, ow: int) -> np.ndarray:
    return adaptive_avg_pool_naive(x[:, :, top:bottom, left:right], oh, ow)


def roi_avg_pool_backward_naive(x_shape: tuple, g: np.ndarray, top: int, bottom: int,
                                left: int, right: int) -> np.ndarray:
    """Gradient of sum(g * roi_avg_pool(x)) with respect to x, one pixel at a time."""
    B, C, _, _ = x_shape
    _, _, oh, ow = g.shape
    rows = pool_bins(bottom - top, oh)
    cols = pool_bins(right - left, ow)
    gx = np.zeros(x_shape)
    for n in range(B):
        for c in range(C):
            for i, (r0, r1) in enumerate(rows):
                for j, (c0, c1) in enumerate(cols):
                    count = (r1 - r0) * (c1 - c0)
                    for r in range(r0, r1):
                        for s in range(c0, c1):
                            gx[n, c, top + r, left + s] += g[n, c, i, j] / count
    return gx


def cross_entropy_naive(logits: np.ndarray, labels: np.ndarray) -> float:
    B, K = logits.shape
    total = 0.0
    for n in range(B):
        exps = [math.exp(v) for v in logits[n]]
        z = sum(exps)
        total += -math.log(exps[labels[n]] / z)
    return total / B


def kmeans2_best_split(scores: list[int]) -> tuple[float, set[int]]:
    """Optimal 2-cluster 1-D k-means by exhaustive threshold search.

    Returns (best SSE, set of score values assigned to the upper cluster).
    Splits are only considered between distinct sorted values, which is
    sufficient: an optimal 1-D 2-means partition is always an interval split.
    """
    xs = sorted(scores)
    distinct = sorted(set(xs))
    if len(distinct) < 2:
        return 0.0, set()

    def sse(vals):
        if not vals:
            return 0.0
        m = sum(vals) / len(vals)
        return sum((v - m) ** 2 for v in vals)

    best = (math.inf, set())
    for t_idx in range(1, len(distinct)):
        thr = distinct[t_idx]
        lower = [v for v in xs if v < thr]
        upper = [v for v in xs if v >= thr]
        total = sse(lower) + sse(upper)
        if total < best[0] - 1e-12:
            best = (total, set(v for v in distinct if v >= thr))
    return best


def detect_motif(rgb: np.ndarray) -> str:
    """Classify a synthetic image by strip orientation profiles.

    Strips span the full image extent, so a strip row/column is almost
    entirely made of the brightest pixels; clutter rectangles never cover
    more than a small fraction of any line.
    """
    gray = rgb.astype(np.float64).mean(axis=2)
    med = float(np.median(gray))
    mx = float(gray.max())
    if mx - med < 30.0:
        return "none"
    bright = gray > med + 0.6 * (mx - med)
    has_h = bool((bright.mean(axis=1) > 0.85).any())
    has_v = bool((bright.mean(axis=0) > 0.85).any())
    if has_h and has_v:
        return "crossing"
    if has_h:
        return "hstrip"
    if has_v:
        return "vstrip"
    return "none"


def detect_label(rgb: np.ndarray) -> int:
    """1 (dangerous) iff both strip orientations are present."""
    return 1 if detect_motif(rgb) == "crossing" else 0


def cov_within_naive(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Ordered-pair double sum of outer products of within-class differences.

    O(n^2 d^2); classes with fewer than 2 samples contribute nothing because
    the i != j sum is empty.
    """
    d = (xs if len(xs) else ys).shape[1]
    out = np.zeros((d, d))
    for a in (xs, ys):
        for i in range(len(a)):
            for j in range(len(a)):
                if i != j:
                    diff = a[i] - a[j]
                    out += np.outer(diff, diff)
    return out


def cov_between_naive(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """All-pairs sum of outer products of cross-class differences."""
    d = (xs if len(xs) else ys).shape[1]
    out = np.zeros((d, d))
    for x in xs:
        for y in ys:
            diff = x - y
            out += np.outer(diff, diff)
    return out


def coral_cov_naive(feats: np.ndarray) -> np.ndarray:
    """Centered feature covariance with the n-1 denominator."""
    centered = feats - feats.mean(axis=0)
    return centered.T @ centered / (len(feats) - 1)


@dataclass(frozen=True)
class NaiveRecord:
    """One accident report; construction enforces the five record invariants."""

    id: str
    date: dt.date
    time: dt.time
    day_of_week: int
    latitude: float
    longitude: float
    vehicles: int
    casualties: int

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} outside [-180, 180]")
        if not 1 <= self.day_of_week <= 7:
            raise ValueError(f"day_of_week {self.day_of_week} outside 1..7")
        if self.vehicles < 0:
            raise ValueError(f"negative vehicle count {self.vehicles}")
        if self.casualties < 0:
            raise ValueError(f"negative casualty count {self.casualties}")


def ingest_accidents_naive(text: str):
    """Accident CSV through ``csv.DictReader``, one dict per row.

    Returns ``(records, skipped)`` with one ``NaiveRecord`` per kept row, or
    raises ``IngestError`` with the package's messages.  ``OverflowError``
    (a year or hour too large for ``dt.date`` / ``dt.time``) counts as a
    malformed row.
    """
    import csv
    import io

    from safemap.geo.records import REQUIRED_COLUMNS, IngestError

    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        raise IngestError("empty file: no header row")
    missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise IngestError(f"missing mandatory columns: {missing}")
    records, skipped = [], 0
    for row in reader:
        try:
            day, month, year = row["date"].strip().split("/")
            hh, mm = row["time"].strip().split(":")[:2]
            records.append(NaiveRecord(
                id=row["id"].strip(),
                date=dt.date(int(year), int(month), int(day)),
                time=dt.time(int(hh), int(mm)),
                day_of_week=int(row["day_of_week"]),
                latitude=float(row["latitude"]),
                longitude=float(row["longitude"]),
                vehicles=int(row["vehicles"]),
                casualties=int(row["casualties"])))
        except (ValueError, KeyError, AttributeError, TypeError, OverflowError):
            skipped += 1
    if not records:
        raise IngestError("no records")
    return records, skipped


def records_jsonl_naive(records) -> str:
    """``records.jsonl`` as one ``json.dumps`` of a dict per record."""
    import json

    return "".join(
        json.dumps({"id": r.id, "date": r.date.isoformat(),
                    "time": r.time.strftime("%H:%M"), "day_of_week": r.day_of_week,
                    "latitude": r.latitude, "longitude": r.longitude,
                    "vehicles": r.vehicles, "casualties": r.casualties},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for r in records)


def build_grid_naive(lats, lons, cell_size_m: float):
    """Bounding-box grid with one scalar projection and floor per record.

    ``lats`` and ``lons`` are sequences of Python floats.  Returns
    ``(spec, cells)``, one (col, row) tuple per record, with the package's
    ``GridSpec``, whose checks raise ``GridError`` for a bad cell size or
    too many cells.
    """
    from safemap.geo.grid import EARTH_RADIUS_M, GridSpec

    lat0 = (min(lats) + max(lats)) / 2.0
    lon0 = (min(lons) + max(lons)) / 2.0
    m_per_deg_lat = EARTH_RADIUS_M * math.pi / 180.0
    m_per_deg_lon = m_per_deg_lat * math.cos(math.radians(lat0))
    origin_lon = lon0 + min((lon - lon0) * m_per_deg_lon for lon in lons) / m_per_deg_lon
    origin_lat = lat0 + min((lat - lat0) * m_per_deg_lat for lat in lats) / m_per_deg_lat
    GridSpec(origin_lat=origin_lat, origin_lon=origin_lon, cell_size_m=cell_size_m,
             columns=1, rows=1, ref_lat=lat0)  # rejects a bad cell size first
    cells = []
    for lat, lon in zip(lats, lons):
        x = (lon - origin_lon) * m_per_deg_lon
        y = (lat - origin_lat) * m_per_deg_lat
        cells.append((max(math.floor(x / cell_size_m), 0),
                      max(math.floor(y / cell_size_m), 0)))
    spec = GridSpec(origin_lat=origin_lat, origin_lon=origin_lon, cell_size_m=cell_size_m,
                    columns=max(c for c, _ in cells) + 1, rows=max(r for _, r in cells) + 1,
                    ref_lat=lat0)
    return spec, cells


def project_naive(spec, lat: float, lon: float) -> tuple[float, float]:
    """Meters east and north of ``spec``'s origin, one record at a time."""
    x = (lon - spec.origin_lon) * spec._meters_per_deg_lon
    y = (lat - spec.origin_lat) * spec._meters_per_deg_lat
    return x, y


def cell_of_naive(spec, lat: float, lon: float) -> tuple[int, int]:
    """The (col, row) holding one record, by the floor convention."""
    x, y = project_naive(spec, lat, lon)
    return int(math.floor(x / spec.cell_size_m)), int(math.floor(y / spec.cell_size_m))


def score_cells_naive(spec, cells) -> np.ndarray:
    """[rows, columns] counts, one ``+= 1`` per cell; the first cell outside
    the grid raises ``GridError``."""
    from safemap.geo.grid import GridError

    counts = np.zeros((spec.rows, spec.columns), dtype=np.int64)
    for col, row in cells:
        if not (0 <= col < spec.columns and 0 <= row < spec.rows):
            raise GridError(f"cell ({col},{row}) outside {spec.columns}x{spec.rows} grid")
        counts[row, col] += 1
    return counts
