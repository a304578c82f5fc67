"""Attention classifier: configuration, network, training."""

from .config import ConfigError, DamConfig, SubregionScheme, default_schemes
from .network import (
    DamParams,
    ForwardTrace,
    forward,
    init_params,
    local_forward,
    partition_regions,
    select_region,
)
from .training import (
    Dataset,
    MetricsRow,
    TrainConfig,
    TrainError,
    TrainResult,
    batch_tensor,
    evaluate,
    load_split,
    save_metrics_csv,
    train_dam,
)

__all__ = [
    "ConfigError",
    "DamConfig",
    "DamParams",
    "Dataset",
    "ForwardTrace",
    "MetricsRow",
    "SubregionScheme",
    "TrainConfig",
    "TrainError",
    "TrainResult",
    "batch_tensor",
    "default_schemes",
    "evaluate",
    "forward",
    "init_params",
    "load_split",
    "local_forward",
    "partition_regions",
    "save_metrics_csv",
    "select_region",
    "train_dam",
]
