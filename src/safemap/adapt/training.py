"""Joint source/target training with the covariance alignment loss.

Each batch is half source, half target. Classification cross-entropy uses
source labels and target pseudo-labels; the alignment term compares the
domains' class-conditional covariance matrices (or plain feature
covariances when the class-agnostic baseline is selected). With lam = 0 the
alignment graph is never built, so the per-batch loss is bit-equal to plain
classification training on the combined batch.

``train_dam_da`` supplies the half/half batch source and ``da_batch_loss``
to the shared epoch loop, ``model.training.train_loop``.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..autodiff import gather_rows, softmax_cross_entropy
from ..model.config import DamConfig
from ..model.network import DamParams
from ..model.training import (
    Dataset,
    TrainConfig,
    TrainError,
    TrainResult,
    train_loop,
)
from .covariance import FeatureBatch, loss_coral, loss_da

# Not called in this module, but the traced benchmark (bench/layers.py
# TARGETS) wraps these names here and fails if they are missing.
from ..autodiff import backward, sgd_step  # noqa: F401
from ..model.network import forward  # noqa: F401
from ..model.training import evaluate  # noqa: F401


@dataclass(frozen=True)
class DaTrainConfig(TrainConfig):
    """Adaptation trainer settings; lam weights the alignment loss."""

    batch_size: int = 16  # split evenly between the domains
    lam: float = 1.0
    baseline_loss: bool = False      # class-agnostic covariance baseline
    target_in_classifier_loss: bool = True  # include pseudo-labels in L_C

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.lam < math.inf:
            raise TrainError(f"lam must be non-negative and finite, got {self.lam}")
        if self.batch_size % 2:
            raise TrainError(f"batch_size must be even and >= 2, got {self.batch_size}")


@dataclass
class DaBatchLoss:
    total: object            # scalar Tensor to backpropagate
    classifier: float
    alignment: float         # 0.0 when lam = 0 (term never built)
    degenerate: bool         # some domain was missing a class this batch


def da_batch_loss(trace, y_source: np.ndarray, y_target: np.ndarray,
                  da_cfg: DaTrainConfig) -> DaBatchLoss:
    """Total loss for one half/half batch given its forward trace.

    Rows [0, half) of the trace are the source samples, [half, 2*half) the
    target samples, matching how train_dam_da assembles batches.
    """
    half = y_source.size
    if y_target.size != half:
        raise TrainError("source and target halves differ in size")
    if da_cfg.target_in_classifier_loss:
        lc = softmax_cross_entropy(trace.logits,
                                   np.concatenate([y_source, y_target]))
    else:
        lc = softmax_cross_entropy(gather_rows(trace.logits, np.arange(half)),
                                   y_source)
    if da_cfg.lam == 0.0:
        return DaBatchLoss(total=lc, classifier=lc.item(), alignment=0.0,
                           degenerate=False)
    src_feat = gather_rows(trace.feature, np.arange(half))
    tgt_feat = gather_rows(trace.feature, np.arange(half, 2 * half))
    if da_cfg.baseline_loss:
        lda = loss_coral(src_feat, tgt_feat)
        degenerate = False
    else:
        src_fb = FeatureBatch.from_labels(src_feat, y_source)
        tgt_fb = FeatureBatch.from_labels(tgt_feat, y_target)
        degenerate = src_fb.degenerate() or tgt_fb.degenerate()
        lda = loss_da(src_fb, tgt_fb)
    total = lc + lda * da_cfg.lam
    return DaBatchLoss(total=total, classifier=lc.item(),
                       alignment=lda.item(), degenerate=degenerate)


def train_dam_da(source_set: Dataset, target_set: Dataset,
                 val_set: Optional[Dataset], config: DamConfig,
                 da_cfg: DaTrainConfig = DaTrainConfig(),
                 params: Optional[DamParams] = None,
                 log: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Adapt to the target domain; returns params plus per-epoch metrics.

    Target entries must already carry pseudo-labels (generated once, up
    front). Batches where a domain is missing a class contribute zero for
    the affected covariance terms and are counted in the log line.
    """
    if not config.da_mode:
        raise TrainError("adaptation training needs a da_mode model config")
    if len(source_set) == 0 or len(target_set) == 0:
        raise TrainError("both domains need training data")
    not_pseudo = sum(1 for e in target_set.entries if not e.pseudo)
    if not_pseudo:
        raise TrainError(
            f"{not_pseudo} target entries lack pseudo-labels; run pseudo_label first")
    half = da_cfg.batch_size // 2
    steps = min(len(source_set) // half, len(target_set) // half)
    if steps == 0:
        raise TrainError(
            f"need at least {half} samples per domain, have "
            f"{len(source_set)} source and {len(target_set)} target")

    def batches(rng):
        src_order = rng.permutation(len(source_set))
        tgt_order = rng.permutation(len(target_set))
        for step in range(steps):
            si = src_order[step * half:(step + 1) * half]
            ti = tgt_order[step * half:(step + 1) * half]
            yield (np.concatenate([source_set.images[si], target_set.images[ti]]),
                   np.concatenate([source_set.labels[si], target_set.labels[ti]]))

    def batch_loss(trace, y):
        batch = da_batch_loss(trace, y[:half], y[half:], da_cfg)
        return batch.total, batch.degenerate

    return train_loop(batches, batch_loss, val_set, config, da_cfg, params, log)
