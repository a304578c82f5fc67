"""Two-cluster 1-D k-means over cell safety scores.

Lloyd iterations with centroids initialized at the score minimum and
maximum, followed by an exhaustive interval-split polish that guarantees
the returned partition is the global 2-means optimum (Lloyd alone can
stall in a local optimum on heavy-tailed distributions).  The cluster
whose centroid is higher is the dangerous one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Lloyd iterations before the exhaustive polish takes over
MAX_ITERATIONS = 100


class LabelingError(Exception):
    """Invalid clustering input."""


@dataclass
class BinResult:
    """assignments[i] = 1 if scores[i] belongs to the dangerous cluster."""

    assignments: np.ndarray
    centroids: tuple[float, float]  # (safe, dangerous)
    degenerate: bool = False


def kmeans_bin(scores) -> BinResult:
    """Bin scores into safe/dangerous clusters.

    Ties in point assignment go to the lower centroid.  All-identical
    scores are a degenerate distribution: everything is labeled safe and a
    warning is emitted.  Scores whose means, sums or squares leave float64's
    finite range raise ``LabelingError``.
    """
    try:
        s = np.asarray(scores, dtype=np.float64)
    except OverflowError as e:  # an int past float64's range
        raise LabelingError(f"scores must fit in a float64: {e}") from e
    if s.ndim != 1 or s.size == 0:
        raise LabelingError("scores must be a non-empty 1-D collection")
    lo, hi = float(s.min()), float(s.max())
    if lo == hi:
        warnings.warn("all safety scores identical; labeling every cell safe",
                      stacklevel=2)
        return BinResult(assignments=np.zeros(s.size, dtype=np.int64),
                         centroids=(lo, hi), degenerate=True)
    try:
        with np.errstate(over="raise"):
            assign, centroids = _two_means(s, lo, hi)
    except FloatingPointError as e:  # a mean, sum or square past float64's range
        raise LabelingError(f"scores too large to cluster: {e}") from e
    return BinResult(assignments=assign, centroids=centroids)


def _two_means(s: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, tuple[float, float]]:
    """Lloyd from the (lo, hi) init, then the interval-split polish."""
    c_low, c_high = lo, hi
    assign: np.ndarray | None = None
    for _ in range(MAX_ITERATIONS):
        # tie (equidistant point) goes to the lower centroid
        new_assign = (np.abs(s - c_high) < np.abs(s - c_low)).astype(np.int64)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        # min/max init keeps both clusters non-empty: the extreme points
        # never cross the centroid midpoint
        c_low = float(s[assign == 0].mean())
        c_high = float(s[assign == 1].mean())

    # Lloyd from the extreme-point init always converges to an interval
    # split, but on heavy-tailed score distributions that split can be a
    # local optimum. The binning contract requires the global 2-means
    # optimum, so polish with an exhaustive threshold scan (every optimal
    # 1-D 2-means partition is an interval split).
    xs = np.sort(s)
    csum = np.cumsum(xs)
    csq = np.cumsum(xs * xs)
    n = xs.size
    lloyd_sse = _sse(s, assign)
    best_sse, best_thr = lloyd_sse, None
    for k in range(1, n):
        if xs[k - 1] == xs[k]:
            continue
        sse_low = csq[k - 1] - csum[k - 1] ** 2 / k
        sse_high = (csq[-1] - csq[k - 1]) - (csum[-1] - csum[k - 1]) ** 2 / (n - k)
        sse = sse_low + sse_high
        if sse < best_sse - 1e-9 * max(1.0, abs(best_sse)):
            best_sse, best_thr = sse, float(xs[k])
    if best_thr is not None:
        assign = (s >= best_thr).astype(np.int64)
        c_low = float(s[assign == 0].mean())
        c_high = float(s[assign == 1].mean())
    return assign, (c_low, c_high)


def _sse(s: np.ndarray, assign: np.ndarray) -> float:
    total = 0.0
    for k in (0, 1):
        vals = s[assign == k]
        if vals.size:
            total += float(((vals - vals.mean()) ** 2).sum())
    return total
