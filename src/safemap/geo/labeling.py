"""Two-cluster 1-D k-means over cell safety scores, solved exactly.

Every optimal 1-D 2-means partition is an interval split of the sorted
scores (Fisher 1958, "On Grouping for Maximum Homogeneity"), so one scan of
the SSE of every split between distinct values finds the global optimum.
The cluster whose centroid is higher is the dangerous one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class LabelingError(Exception):
    """Invalid clustering input."""


@dataclass
class BinResult:
    """assignments[i] = 1 if scores[i] belongs to the dangerous cluster."""

    assignments: np.ndarray
    centroids: tuple[float, float]  # (safe, dangerous)
    degenerate: bool = False


def kmeans_bin(scores) -> BinResult:
    """Bin scores into safe/dangerous clusters by the SSE-minimal split.

    One scan scores every split of the sorted scores between distinct
    values, which is exact because an optimal 1-D 2-means partition is an
    interval split (Fisher 1958).  Among splits of equal SSE, up to float64
    rounding, the highest threshold wins, so ties go to the lower centroid.
    All-identical scores are a degenerate distribution: everything is
    labeled safe and a warning is emitted.  NaN or infinite scores, and
    scores whose means, sums or squares leave float64's finite range, raise
    ``LabelingError``.
    """
    try:
        s = np.asarray(scores, dtype=np.float64)
    except OverflowError as e:  # an int past float64's range
        raise LabelingError(f"scores must fit in a float64: {e}") from e
    if s.ndim != 1 or s.size == 0:
        raise LabelingError("scores must be a non-empty 1-D collection")
    if not np.isfinite(s).all():
        raise LabelingError("scores must be finite")
    lo, hi = float(s.min()), float(s.max())
    if lo == hi:
        warnings.warn("all safety scores identical; labeling every cell safe",
                      stacklevel=2)
        return BinResult(assignments=np.zeros(s.size, dtype=np.int64),
                         centroids=(lo, hi), degenerate=True)
    try:
        with np.errstate(over="raise"):
            xs = np.sort(s)
            # SSE is shift-invariant; centering keeps the prefix sums small
            c = xs - xs.mean()
            csum = np.cumsum(c)
            total_sq = (c * c).sum()
            # k = size of the lower cluster, for each split between distinct values
            k = np.flatnonzero(xs[1:] != xs[:-1]) + 1
            low = csum[k - 1]
            sse = total_sq - low ** 2 / k - (csum[-1] - low) ** 2 / (xs.size - k)
            # exactly tied splits can round an ulp apart, so SSEs within 1e-12
            # of the total sum of squares tie; the highest tied threshold wins
            split = k[np.flatnonzero(sse <= sse.min() + 1e-12 * total_sq)[-1]]
            assign = (s >= xs[split]).astype(np.int64)
            centroids = (float(s[assign == 0].mean()), float(s[assign == 1].mean()))
    except FloatingPointError as e:  # a mean, sum or square past float64's range
        raise LabelingError(f"scores too large to cluster: {e}") from e
    return BinResult(assignments=assign, centroids=centroids)
