"""Class-conditional covariance matrices and the alignment losses built on them.

The within and between matrices are pairwise double sums of outer products
of feature differences. They are computed here through moment identities,
which cost O(n d^2) instead of the O(n^2 d^2) literal sums they equal:

    sum_{i,j} (a_i - a_j)(a_i - a_j)^T = 2n sum_i a_i a_i^T - 2 (sum a)(sum a)^T
    sum_{i,j} (x_i - y_j)(x_i - y_j)^T
        = n_y sum_i x_i x_i^T + n_x sum_j y_j y_j^T
          - (sum x)(sum y)^T - (sum y)(sum x)^T

The first identity, ``_pair_diff_sum``, also gives the Deep CORAL baseline's
centered covariance: the pair sum divided by 2n(n-1).

Degenerate batches need no special case. An empty class makes every moment
an empty sum, so its terms are exactly zero and a between matrix with an
empty class is the zero matrix, still recorded on the tape. A class with one
sample has no pairs; its two within terms cancel to exactly zero in value
but not in gradient (about 1 ulp of noise), so ``cov_within`` skips classes
with fewer than 2 samples to keep gradients bit-identical to the pair sums.

Everything is expressed in taped tensor ops, so gradients flow back into
the feature rows. Float32 features are first cast to float64 with the taped
``astype``: the moment identities subtract large, nearly equal terms, which
float32 would leave with relative errors near 1e-3. ``cov_within`` and
``cov_between`` return the unnormalized double sums; ``loss_da`` divides
each by its pair count, so that the alignment term does not grow with the
batch size. Outputs are symmetrized explicitly; float matmul does not
guarantee exact symmetry.
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


def _as_features(f) -> Tensor:
    # an (n, d) Tensor or array as an (n, d) float64 Tensor
    if not isinstance(f, Tensor):
        f = Tensor(np.asarray(f, dtype=np.float64))
    if f.data.ndim != 2:
        raise ShapeError(f"features must be (n, d), got shape {f.shape}")
    if f.data.dtype != np.float64:
        f = astype(f, np.float64)
    return f


def _pair(a, b) -> tuple[Tensor, Tensor]:
    a, b = _as_features(a), _as_features(b)
    if a.shape[1] != b.shape[1]:
        raise AdaptError(f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return a, b


@dataclass
class FeatureBatch:
    """Per-class feature rows for one domain.

    x holds rows for dangerous-classified samples, y for safe-classified
    ones. Either may be empty (degenerate batch).
    """

    x: Tensor
    y: Tensor

    def __post_init__(self):
        self.x, self.y = _pair(self.x, self.y)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def degenerate(self) -> bool:
        """True when a class is entirely missing from the batch."""
        return self.x.shape[0] == 0 or self.y.shape[0] == 0

    @classmethod
    def from_labels(cls, features: Tensor, labels) -> "FeatureBatch":
        """Partition feature rows by their class labels."""
        features = _as_features(features)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (features.shape[0],):
            raise AdaptError(
                f"labels shape {labels.shape} does not match {features.shape[0]} rows")
        bad = set(labels.tolist()) - {SAFE, DANGEROUS}
        if bad:
            raise AdaptError(f"labels must be 0 or 1, got {sorted(bad)}")
        return cls(x=gather_rows(features, np.flatnonzero(labels == DANGEROUS)),
                   y=gather_rows(features, np.flatnonzero(labels == SAFE)))


def _symmetrize(m: Tensor) -> Tensor:
    # a+b == b+a exactly in IEEE floats, so this is exact symmetry
    return (m + transpose(m)) * 0.5


def _pair_diff_sum(f: Tensor) -> Tensor:
    # 2n * F^T F - 2 (col sums)^T (col sums)
    n = f.shape[0]
    s = tensor_sum(f, axis=0, keepdims=True)
    return matmul(transpose(f), f) * float(2 * n) - matmul(transpose(s), s) * 2.0


def cov_within(features_x, features_y) -> Tensor:
    """Within-class covariance: pairwise differences summed inside each class.

    A class with fewer than 2 samples has no pairs and contributes the zero
    matrix (degenerate-batch rule).
    """
    x, y = _pair(features_x, features_y)
    # lone samples are skipped for gradient bit-identity (module docstring)
    terms = [_pair_diff_sum(f) for f in (x, y) if f.shape[0] >= 2]
    if not terms:
        return Tensor(np.zeros((x.shape[1], x.shape[1])))
    return _symmetrize(sum(terms[1:], terms[0]))


def cov_between(features_x, features_y) -> Tensor:
    """Between-class covariance: differences across the two classes, all pairs.

    Either class empty yields the zero matrix (degenerate-batch rule).
    """
    x, y = _pair(features_x, features_y)
    sx = tensor_sum(x, axis=0, keepdims=True)
    sy = tensor_sum(y, axis=0, keepdims=True)
    total = (matmul(transpose(x), x) * float(y.shape[0])
             + matmul(transpose(y), y) * float(x.shape[0])
             - matmul(transpose(sx), sy)
             - matmul(transpose(sy), sx))
    return _symmetrize(total)


def _frob_sq(a: Tensor, b: Tensor) -> Tensor:
    diff = a - b
    return tensor_sum(diff * diff)


def _per_pair(b: FeatureBatch) -> tuple[Tensor, Tensor]:
    # within over its n_x^2 + n_y^2 ordered pairs, between over its n_x n_y;
    # at least 1, so an empty class divides its zero matrix by 1
    nx, ny = b.x.shape[0], b.y.shape[0]
    return (cov_within(b.x, b.y) / float(max(nx * nx + ny * ny, 1)),
            cov_between(b.x, b.y) / float(max(nx * ny, 1)))


def loss_da(source: FeatureBatch, target: FeatureBatch) -> Tensor:
    """Squared Frobenius distance between the domains' per-pair within
    matrices plus the same for their per-pair between matrices."""
    if source.d != target.d:
        raise AdaptError(f"feature dimensions differ: {source.d} vs {target.d}")
    (sw, sb), (tw, tb) = _per_pair(source), _per_pair(target)
    return _frob_sq(sw, tw) + _frob_sq(sb, tb)


def loss_coral(source_features, target_features) -> Tensor:
    """Class-agnostic baseline: (1/d) * ||C_S - C_T||_F^2 with centered
    feature covariances (n-1 denominator)."""
    fs, ft = _pair(source_features, target_features)
    for f, name in ((fs, "source"), (ft, "target")):
        if f.shape[0] < 2:
            raise AdaptError(f"{name} needs at least 2 samples, got {f.shape[0]}")
    cs, ct = (_pair_diff_sum(f) / float(2 * f.shape[0] * (f.shape[0] - 1)) for f in (fs, ft))
    return _frob_sq(cs, ct) * (1.0 / fs.shape[1])
