"""Domain adaptation: pseudo-labels plus covariance alignment training."""

from .covariance import (
    AdaptError,
    FeatureBatch,
    cov_between,
    cov_within,
    loss_coral,
    loss_da,
)
from .pseudolabel import PseudoLabelReport, pseudo_label
from .training import DaBatchLoss, DaTrainConfig, da_batch_loss, train_dam_da

__all__ = [
    "AdaptError",
    "DaBatchLoss",
    "DaTrainConfig",
    "FeatureBatch",
    "cov_between",
    "cov_within",
    "da_batch_loss",
    "loss_coral",
    "loss_da",
    "pseudo_label",
    "train_dam_da",
]
