"""Classification metrics with safe as the positive class.

WARNING: positive class = SAFE (label 0), inverting the common convention.
This makes the false positive rate read as "dangerous ground truth
predicted safe", the costly mistake for a road-safety map: fpr = fp /
(fp + tn) = (dangerous predicted safe) / (all dangerous).
"""

from dataclasses import dataclass, field

import numpy as np

from ..geo.manifest import DANGEROUS, SAFE


class MetricsError(ValueError):
    """Raised for empty or mismatched prediction/label inputs."""


@dataclass(frozen=True)
class Confusion:
    """Counts with positive class = safe."""

    tp: int  # safe predicted safe
    fp: int  # dangerous predicted safe
    tn: int  # dangerous predicted dangerous
    fn: int  # safe predicted dangerous

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise MetricsError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    fpr: float
    precision: float
    recall: float
    f1: float
    confusion: Confusion
    # names of metrics whose denominator was zero (value reported as 0)
    zero_division: frozenset = field(default_factory=frozenset)


def _validate(predictions, labels):
    preds = np.asarray(predictions, dtype=np.int64)
    labs = np.asarray(labels, dtype=np.int64)
    if preds.ndim != 1 or labs.ndim != 1:
        raise MetricsError("predictions and labels must be 1-D")
    if preds.size != labs.size:
        raise MetricsError(f"length mismatch: {preds.size} vs {labs.size}")
    if preds.size == 0:
        raise MetricsError("no samples")
    for name, arr in (("predictions", preds), ("labels", labs)):
        bad = set(np.unique(arr).tolist()) - {SAFE, DANGEROUS}
        if bad:
            raise MetricsError(f"{name} contain values other than 0/1: {sorted(bad)}")
    return preds, labs


def confusion(predictions, labels) -> Confusion:
    preds, labs = _validate(predictions, labels)
    return Confusion(
        tp=int(((preds == SAFE) & (labs == SAFE)).sum()),
        fp=int(((preds == SAFE) & (labs == DANGEROUS)).sum()),
        tn=int(((preds == DANGEROUS) & (labs == DANGEROUS)).sum()),
        fn=int(((preds == DANGEROUS) & (labs == SAFE)).sum()),
    )


def metrics_from_confusion(c: Confusion) -> MetricsReport:
    """Scalar metrics from counts; zero denominators yield 0 plus a flag."""
    if c.total == 0:
        raise MetricsError("no samples")
    flags = set()

    def ratio(name, num, den):
        if den == 0:
            flags.add(name)
            return 0.0
        return num / den

    accuracy = (c.tp + c.tn) / c.total
    fpr = ratio("fpr", c.fp, c.fp + c.tn)
    precision = ratio("precision", c.tp, c.tp + c.fp)
    recall = ratio("recall", c.tp, c.tp + c.fn)
    if precision + recall == 0.0:
        flags.add("f1")
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return MetricsReport(accuracy=accuracy, fpr=fpr, precision=precision,
                         recall=recall, f1=f1, confusion=c,
                         zero_division=frozenset(flags))
