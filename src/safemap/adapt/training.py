"""Joint source/target training with the covariance alignment loss.

Each batch is half source, half target. Classification cross-entropy uses
source labels and target pseudo-labels; the alignment term compares the
domains' class-conditional covariance matrices (or plain feature
covariances when the class-agnostic baseline is selected). With lam = 0 the
alignment graph is never built, so the per-batch loss is bit-equal to plain
classification training on the combined batch.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..autodiff import (
    Tape,
    backward,
    gather_rows,
    sgd_step,
    softmax_cross_entropy,
    step_decay_lr,
)
from ..model.config import DamConfig
from ..model.network import DamParams, forward, init_params
from ..model.training import (
    Dataset,
    MetricsRow,
    TrainError,
    TrainResult,
    batch_tensor,
    check_lr_schedule,
    evaluate,
)
from .covariance import FeatureBatch, loss_coral, loss_da


@dataclass(frozen=True)
class DaTrainConfig:
    """Adaptation trainer settings; lam weights the alignment loss."""

    lam: float = 1.0
    batch_size: int = 16  # split evenly between the domains
    epochs: int = 50
    lr0: float = 1e-4
    lr_decay: float = 0.5
    lr_decay_every: int = 10
    seed: int = 0
    baseline_loss: bool = False      # class-agnostic covariance baseline
    target_in_classifier_loss: bool = True  # include pseudo-labels in L_C
    eval_batch_size: int = 64
    early_stop_val_acc: Optional[float] = None

    def __post_init__(self):
        if self.lam < 0:
            raise TrainError(f"lam must be >= 0, got {self.lam}")
        if self.batch_size < 2 or self.batch_size % 2:
            raise TrainError(f"batch_size must be even and >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise TrainError("epochs must be positive")
        check_lr_schedule(self.lr0, self.lr_decay, self.lr_decay_every)

    def lr_at(self, epoch: int) -> float:
        return step_decay_lr(self.lr0, epoch, self.lr_decay, self.lr_decay_every)


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
        src_fb = FeatureBatch.from_labels(src_feat, y_source, domain="source")
        tgt_fb = FeatureBatch.from_labels(tgt_feat, y_target, domain="target")
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
    if params is None:
        params = init_params(config, seed=da_cfg.seed)
    frozen = params.expected_gradless(config)
    all_params = params.all()
    shuffle_rng = np.random.default_rng([da_cfg.seed, 1])
    metrics: list[MetricsRow] = []
    final_val_acc = 0.0
    epochs_run = 0
    stopped = False
    for epoch in range(da_cfg.epochs):
        lr = da_cfg.lr_at(epoch)
        src_order = shuffle_rng.permutation(len(source_set))
        tgt_order = shuffle_rng.permutation(len(target_set))
        epoch_loss = 0.0
        epoch_correct = 0
        epoch_n = 0
        degenerate_batches = 0
        for step in range(steps):
            si = src_order[step * half:(step + 1) * half]
            ti = tgt_order[step * half:(step + 1) * half]
            x = batch_tensor(np.concatenate([source_set.images[si],
                                             target_set.images[ti]]))
            ys, yt = source_set.labels[si], target_set.labels[ti]
            with Tape():
                trace = forward(x, params, config)
                batch = da_batch_loss(trace, ys, yt, da_cfg)
                backward(batch.total)
            sgd_step(all_params, lr, allow_gradless=frozen)
            if batch.degenerate:
                degenerate_batches += 1
            epoch_loss += batch.total.item() * 2 * half
            epoch_correct += int((trace.logits.data.argmax(axis=1)
                                  == np.concatenate([ys, yt])).sum())
            epoch_n += 2 * half
        epochs_run = epoch + 1
        train_loss = epoch_loss / epoch_n
        train_acc = epoch_correct / epoch_n
        metrics.append(MetricsRow(epoch, "train", train_loss, train_acc))
        if val_set is not None and len(val_set):
            val_loss, val_acc, _ = evaluate(val_set, params, config,
                                            da_cfg.eval_batch_size)
            metrics.append(MetricsRow(epoch, "val", val_loss, val_acc))
            final_val_acc = val_acc
        if log:
            msg = (f"epoch {epoch}: lr {lr:.2e} train loss {train_loss:.4f} "
                   f"acc {train_acc:.3f}")
            if val_set is not None:
                msg += f" val acc {final_val_acc:.3f}"
            if degenerate_batches:
                msg += f" ({degenerate_batches} degenerate batches)"
            log(msg)
        if (da_cfg.early_stop_val_acc is not None and val_set is not None
                and final_val_acc >= da_cfg.early_stop_val_acc):
            stopped = True
            break
    return TrainResult(params=params, metrics=metrics,
                       final_val_accuracy=final_val_acc,
                       epochs_run=epochs_run, stopped_early=stopped)
