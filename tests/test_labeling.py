"""k-means binning against the exhaustive optimal-split oracle."""

import numpy as np
import pytest

from safemap.geo import BinResult, LabelingError, kmeans_bin
from oracles import kmeans2_best_split


def sse_of_partition(scores, assignments):
    s = np.asarray(scores, dtype=float)
    total = 0.0
    for k in (0, 1):
        vals = s[assignments == k]
        if vals.size:
            total += float(((vals - vals.mean()) ** 2).sum())
    return total


def test_spec_example_multiset():
    scores = [0, 0, 1, 9, 10]
    result = kmeans_bin(scores)
    np.testing.assert_array_equal(result.assignments, [0, 0, 0, 1, 1])
    assert result.centroids[0] == pytest.approx(1 / 3)
    assert result.centroids[1] == pytest.approx(9.5)


def test_two_points_each_own_cluster():
    result = kmeans_bin([0, 100])
    np.testing.assert_array_equal(result.assignments, [0, 1])
    assert result.centroids == (0.0, 100.0)


def test_degenerate_all_equal_everything_safe_with_warning():
    with pytest.warns(UserWarning, match="identical"):
        result = kmeans_bin([5, 5, 5, 5])
    assert result.degenerate
    assert not result.assignments.any()


def test_dangerous_is_higher_centroid_cluster():
    result = kmeans_bin([100, 0, 100, 0])
    np.testing.assert_array_equal(result.assignments, [1, 0, 1, 0])
    assert result.centroids[1] > result.centroids[0]


def test_skewed_distribution_keeps_safe_majority():
    # mimics the real-data shape: most cells have few accidents
    rng = np.random.default_rng(0)
    scores = np.concatenate([rng.poisson(0.3, size=880), rng.poisson(9, size=120)])
    result = kmeans_bin(scores.tolist())
    safe_frac = float((result.assignments == 0).mean())
    assert safe_frac > 0.8


def test_matches_exhaustive_split_oracle_on_100_multisets():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 51))
        # safety-score-like integer multisets: mostly small with a heavy tail
        scores = np.concatenate([
            rng.poisson(rng.uniform(0.2, 2.0), size=n - n // 4),
            rng.poisson(rng.uniform(5.0, 20.0), size=n // 4),
        ]).astype(int).tolist()
        if len(set(scores)) < 2:
            continue
        checked += 1
        result = kmeans_bin(scores)
        got_sse = sse_of_partition(scores, result.assignments)
        best_sse, upper = kmeans2_best_split(scores)
        # any SSE-optimal partition is accepted (ties can differ in membership)
        assert got_sse == pytest.approx(best_sse, rel=1e-9, abs=1e-9), (
            f"suboptimal partition on {scores}: sse {got_sse} vs optimal {best_sse} "
            f"(oracle upper cluster {sorted(upper)})")


def test_empty_scores_rejected():
    with pytest.raises(LabelingError, match="non-empty"):
        kmeans_bin([])


def test_assignment_order_follows_input_order():
    result = kmeans_bin([9, 0, 10, 1, 0])
    np.testing.assert_array_equal(result.assignments, [1, 0, 1, 0, 0])


@pytest.mark.parametrize("scores", [
    [0, 10**308, 10**308, 5],  # the cluster mean overflows
    [-1e308, 1e308],           # the distance to a centroid overflows
    [0.0, 1e160, 2e160],       # the polish's sum of squares overflows
])
def test_sums_past_float_range_rejected(scores):
    with pytest.raises(LabelingError, match="scores too large to cluster"):
        kmeans_bin(scores)
