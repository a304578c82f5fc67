"""The epoch loop every trainer runs, and cross-entropy training on it.

``train_loop`` is the one place where batches are stepped through: plain
SGD with a step-decayed learning rate, per-epoch train/val metrics, the
progress line and early stopping. A trainer supplies a batch source (one
seeded shuffle per epoch) and a batch loss. ``train_dam`` is plain
cross-entropy on one shuffled set; ``adapt.training.train_dam_da`` is the
half source, half target adaptation trainer. Identical seeds give
bit-identical parameters, metrics, and checkpoints.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from ..autodiff import (
    Tape,
    Tensor,
    backward,
    sgd_step,
    softmax_cross_entropy,
    step_decay_lr,
)
from ..fileio import atomic_open
from ..geo.manifest import DatasetManifest, ManifestEntry, warn_if_unbalanced
from ..geo.ppm import read_ppm
from .config import DamConfig
from .network import DamParams, ForwardTrace, forward, init_params


class TrainError(ValueError):
    """Unusable training inputs."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 4
    lr0: float = 1e-4
    lr_decay: float = 0.5
    lr_decay_every: int = 10
    seed: int = 0
    # stop once validation accuracy reaches this level (None = run all epochs)
    early_stop_val_acc: Optional[float] = None
    eval_batch_size: int = 64

    def __post_init__(self):
        # reject values that would only fail epochs into a run
        for name in ("epochs", "batch_size", "lr_decay_every", "eval_batch_size"):
            if getattr(self, name) < 1:
                raise TrainError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("lr0", "lr_decay"):
            if not 0 < getattr(self, name) < math.inf:
                raise TrainError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")

    def lr_at(self, epoch: int) -> float:
        return step_decay_lr(self.lr0, epoch, self.lr_decay, self.lr_decay_every)


@dataclass
class MetricsRow:
    epoch: int
    split: str
    loss: float
    accuracy: float


@dataclass
class Dataset:
    """In-memory image set; pixels stay uint8 until batches are cut."""

    images: np.ndarray  # [N, C, H, W] uint8
    labels: np.ndarray  # [N] int64
    entries: list[ManifestEntry]

    def __len__(self) -> int:
        return self.labels.size


def load_split(manifest: DatasetManifest, image_root, split: Optional[str] = None,
               domain: Optional[str] = None) -> Dataset:
    """Load the manifest subset's referenced images into memory."""
    entries = manifest.subset(split=split, domain=domain)
    if not entries:
        raise TrainError(f"manifest has no entries for split={split!r} domain={domain!r}")
    root = Path(image_root)
    imgs = []
    labels = []
    for e in entries:
        rgb = read_ppm(root / e.image)  # [H, W, 3]
        imgs.append(rgb.transpose(2, 0, 1))
        labels.append(e.label)
    return Dataset(images=np.stack(imgs), labels=np.asarray(labels, dtype=np.int64),
                   entries=entries)


def batch_tensor(images_u8: np.ndarray) -> Tensor:
    """uint8 [B,C,H,W] to a centered float32 tensor in [-1, 1].

    This is where training, evaluation, prediction and CAMs get their
    compute dtype: every op downstream follows its input's dtype, so the
    forward and backward passes run in float32 while the parameters, their
    gradients and the SGD update stay float64.
    """
    # centering first is exact, so each value is rounded once
    half = np.float32(127.5)
    return Tensor((images_u8.astype(np.float32) - half) / half)


def evaluate(dataset: Dataset, params: DamParams, config: DamConfig,
             batch_size: int = 64) -> tuple[float, float, np.ndarray]:
    """Mean loss, accuracy, and hard predictions over a dataset."""
    losses = []
    preds = np.empty(len(dataset), dtype=np.int64)
    for start in range(0, len(dataset), batch_size):
        sl = slice(start, min(start + batch_size, len(dataset)))
        x = batch_tensor(dataset.images[sl])
        trace = forward(x, params, config)
        loss = softmax_cross_entropy(trace.logits, dataset.labels[sl])
        losses.append(loss.item() * (sl.stop - sl.start))
        preds[sl] = trace.logits.data.argmax(axis=1)
    accuracy = float((preds == dataset.labels).mean())
    return sum(losses) / len(dataset), accuracy, preds


@dataclass
class TrainResult:
    params: DamParams
    metrics: list[MetricsRow]
    final_val_accuracy: float
    epochs_run: int
    stopped_early: bool = False


# one epoch's (uint8 images [B,C,H,W], labels [B]) batches, drawn with the shuffle rng
BatchSource = Callable[[np.random.Generator], Iterable[tuple[np.ndarray, np.ndarray]]]
# (forward trace, labels) -> (scalar loss tensor, batch missing a class in some domain)
BatchLoss = Callable[[ForwardTrace, np.ndarray], tuple[Tensor, bool]]


def train_loop(batches: BatchSource, batch_loss: BatchLoss, val_set: Optional[Dataset],
               config: DamConfig, train_cfg: TrainConfig, params: Optional[DamParams],
               log: Optional[Callable[[str], None]]) -> TrainResult:
    """Minimize batch_loss by SGD over train_cfg.epochs; params plus per-epoch metrics."""
    if params is None:
        params = init_params(config, seed=train_cfg.seed)
    frozen = params.expected_gradless(config)
    all_params = params.all()
    shuffle_rng = np.random.default_rng([train_cfg.seed, 1])
    metrics: list[MetricsRow] = []
    final_val_acc = 0.0
    epochs_run = 0
    stopped = False
    for epoch in range(train_cfg.epochs):
        lr = train_cfg.lr_at(epoch)
        epoch_loss = 0.0
        epoch_correct = 0
        epoch_n = 0
        degenerate_batches = 0
        for images, y in batches(shuffle_rng):
            x = batch_tensor(images)
            with Tape():
                trace = forward(x, params, config)
                loss, degenerate = batch_loss(trace, y)
                backward(loss)
            # selection starves exactly the local fc head; anything else
            # missing a gradient is a wiring bug sgd_step will flag
            sgd_step(all_params, lr, allow_gradless=frozen)
            degenerate_batches += degenerate
            epoch_loss += loss.item() * y.size
            epoch_correct += int((trace.logits.data.argmax(axis=1) == y).sum())
            epoch_n += y.size
        epochs_run = epoch + 1
        train_loss = epoch_loss / epoch_n
        train_acc = epoch_correct / epoch_n
        metrics.append(MetricsRow(epoch, "train", train_loss, train_acc))
        if val_set is not None and len(val_set):
            val_loss, val_acc, _ = evaluate(val_set, params, config,
                                            train_cfg.eval_batch_size)
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
        if (train_cfg.early_stop_val_acc is not None and val_set is not None
                and final_val_acc >= train_cfg.early_stop_val_acc):
            stopped = True
            break
    return TrainResult(params=params, metrics=metrics,
                       final_val_accuracy=final_val_acc,
                       epochs_run=epochs_run, stopped_early=stopped)


def train_dam(train_set: Dataset, val_set: Optional[Dataset], config: DamConfig,
              train_cfg: TrainConfig = TrainConfig(),
              params: Optional[DamParams] = None,
              log: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Minimize classification cross-entropy; returns params plus per-epoch metrics."""
    if len(train_set) == 0:
        raise TrainError("empty training set")
    warn_if_unbalanced(train_set.entries, "training set")

    def batches(rng):
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            yield train_set.images[idx], train_set.labels[idx]

    def batch_loss(trace, y):
        return softmax_cross_entropy(trace.logits, y), False

    return train_loop(batches, batch_loss, val_set, config, train_cfg, params, log)


def save_metrics_csv(path, metrics: list[MetricsRow]) -> None:
    """CSV with header epoch,split,loss,accuracy; repr-exact floats; atomic."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["epoch", "split", "loss", "accuracy"])
        for row in metrics:
            writer.writerow([row.epoch, row.split, repr(row.loss), repr(row.accuracy)])


def load_metrics_csv(path) -> list[MetricsRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        for r in reader:
            rows.append(MetricsRow(int(r["epoch"]), r["split"],
                                   float(r["loss"]), float(r["accuracy"])))
    return rows
