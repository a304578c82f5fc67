"""Class-conditional covariance matrices and the alignment losses built on them.

The within and between matrices are pairwise double sums of outer products
of feature differences. They are computed here through moment identities,
which cost O(n d^2) instead of the O(n^2 d^2) literal sums they equal:

    sum_{i,j} (a_i - a_j)(a_i - a_j)^T = 2n sum_i a_i a_i^T - 2 (sum a)(sum a)^T
    sum_{i,j} (x_i - y_j)(x_i - y_j)^T
        = n_y sum_i x_i x_i^T + n_x sum_j y_j y_j^T
          - (sum x)(sum y)^T - (sum y)(sum x)^T

Everything is expressed in taped tensor ops, so gradients flow back into
the feature rows. Float32 features are first cast to float64 with the taped
``astype``: the moment identities subtract large, nearly equal terms, which
float32 would leave with relative errors near 1e-3. The double sums are
intentionally unnormalized. Outputs are symmetrized explicitly; float
matmul does not guarantee exact symmetry.
"""

from dataclasses import dataclass

import numpy as np

from ..autodiff import (
    ShapeError,
    Tensor,
    astype,
    gather_rows,
    matmul,
    tensor_sum,
    transpose,
)
from ..geo.manifest import DANGEROUS, SAFE


class AdaptError(ValueError):
    """Raised for malformed feature batches or loss preconditions."""


def _as_features(f, d_hint=None):
    # Accepts a Tensor, an array, or a list of d-vectors; returns a (n, d)
    # float64 Tensor. Empty lists need d_hint to fix the feature dimension.
    if not isinstance(f, Tensor):
        arr = np.asarray(f, dtype=np.float64)
        if arr.size == 0:
            if d_hint is None:
                raise AdaptError("empty feature list with no feature dimension to infer")
            arr = arr.reshape(0, d_hint)
        f = Tensor(arr)
    if f.data.ndim != 2:
        raise ShapeError(f"features must be (n, d), got shape {f.shape}")
    if f.data.dtype != np.float64:
        f = astype(f, np.float64)
    return f


def _feature_dim(x, y):
    if x.shape[1] != y.shape[1]:
        raise AdaptError(f"feature dimensions differ: {x.shape[1]} vs {y.shape[1]}")
    return x.shape[1]


@dataclass
class FeatureBatch:
    """Per-class feature rows for one domain.

    x holds rows for dangerous-classified samples, y for safe-classified
    ones. Either may be empty (degenerate batch).
    """

    x: Tensor
    y: Tensor
    domain: str = ""

    def __post_init__(self):
        self.x = _as_features(self.x)
        self.y = _as_features(self.y)
        _feature_dim(self.x, self.y)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def degenerate(self) -> bool:
        """True when a class is entirely missing from the batch."""
        return self.x.shape[0] == 0 or self.y.shape[0] == 0

    @classmethod
    def from_labels(cls, features: Tensor, labels, domain: str = "") -> "FeatureBatch":
        """Partition feature rows by their class labels."""
        features = _as_features(features)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (features.shape[0],):
            raise AdaptError(
                f"labels shape {labels.shape} does not match {features.shape[0]} rows")
        bad = set(labels.tolist()) - {SAFE, DANGEROUS}
        if bad:
            raise AdaptError(f"labels must be 0 or 1, got {sorted(bad)}")
        return cls(
            x=gather_rows(features, np.flatnonzero(labels == DANGEROUS)),
            y=gather_rows(features, np.flatnonzero(labels == SAFE)),
            domain=domain,
        )


@dataclass
class CovMatrices:
    within: Tensor
    between: Tensor


def _zero_matrix(d: int) -> Tensor:
    return Tensor(np.zeros((d, d)))


def _symmetrize(m: Tensor) -> Tensor:
    # a+b == b+a exactly in IEEE floats, so this is exact symmetry
    return (m + transpose(m)) * 0.5


def _pair_diff_sum(f: Tensor) -> Tensor:
    # 2n * F^T F - 2 (col sums)^T (col sums)
    n = f.shape[0]
    s = tensor_sum(f, axis=0, keepdims=True)
    return matmul(transpose(f), f) * float(2 * n) - matmul(transpose(s), s) * 2.0


def _normalize_pair(a, b):
    # Coerce both feature collections; an empty list borrows d from the other.
    d = None
    for f in (a, b):
        if isinstance(f, Tensor) and f.data.ndim == 2:
            d = f.shape[1]
        elif not isinstance(f, Tensor):
            arr = np.asarray(f, dtype=np.float64)
            if arr.size:
                d = arr.shape[-1]
    x = _as_features(a, d_hint=d)
    y = _as_features(b, d_hint=x.shape[1])
    return x, y


def cov_within(features_x, features_y) -> Tensor:
    """Within-class covariance: pairwise differences summed inside each class.

    A class with fewer than 2 samples has no pairs and contributes the zero
    matrix (degenerate-batch rule).
    """
    x, y = _normalize_pair(features_x, features_y)
    d = _feature_dim(x, y)
    total = None
    for f in (x, y):
        if f.shape[0] < 2:
            continue
        term = _pair_diff_sum(f)
        total = term if total is None else total + term
    if total is None:
        return _zero_matrix(d)
    return _symmetrize(total)


def cov_between(features_x, features_y) -> Tensor:
    """Between-class covariance: differences across the two classes, all pairs.

    Either class empty yields the zero matrix (degenerate-batch rule).
    """
    x, y = _normalize_pair(features_x, features_y)
    d = _feature_dim(x, y)
    nx, ny = x.shape[0], y.shape[0]
    if nx == 0 or ny == 0:
        return _zero_matrix(d)
    sx = tensor_sum(x, axis=0, keepdims=True)
    sy = tensor_sum(y, axis=0, keepdims=True)
    total = (matmul(transpose(x), x) * float(ny)
             + matmul(transpose(y), y) * float(nx)
             - matmul(transpose(sx), sy)
             - matmul(transpose(sy), sx))
    return _symmetrize(total)


def cov_matrices(batch: FeatureBatch) -> CovMatrices:
    return CovMatrices(within=cov_within(batch.x, batch.y),
                       between=cov_between(batch.x, batch.y))


def _frob_sq(a: Tensor, b: Tensor) -> Tensor:
    diff = a - b
    return tensor_sum(diff * diff)


def loss_da(source: FeatureBatch, target: FeatureBatch) -> Tensor:
    """Squared Frobenius distance between the domains' within matrices plus
    the same for their between matrices."""
    if source.d != target.d:
        raise AdaptError(f"feature dimensions differ: {source.d} vs {target.d}")
    s, t = cov_matrices(source), cov_matrices(target)
    return _frob_sq(s.within, t.within) + _frob_sq(s.between, t.between)


def loss_coral(source_features, target_features) -> Tensor:
    """Class-agnostic baseline: (1/d) * ||C_S - C_T||_F^2 with centered
    feature covariances (n-1 denominator)."""
    fs = _as_features(source_features)
    ft = _as_features(target_features)
    d = _feature_dim(fs, ft)
    for f, name in ((fs, "source"), (ft, "target")):
        if f.shape[0] < 2:
            raise AdaptError(f"{name} needs at least 2 samples, got {f.shape[0]}")

    def centered_cov(f):
        n = f.shape[0]
        s = tensor_sum(f, axis=0, keepdims=True)
        raw = matmul(transpose(f), f) - matmul(transpose(s), s) * (1.0 / n)
        return raw * (1.0 / (n - 1))

    return _frob_sq(centered_cov(fs), centered_cov(ft)) * (1.0 / d)
