"""Metrics, class activation maps, and safety-map export."""

from .cam import CamError, CamMap, bilinear_upsample, cam, effective_class_weights
from .metrics import (
    Confusion,
    MetricsError,
    MetricsReport,
    confusion,
    metrics_from_confusion,
)
from .safety_map import (
    DANGEROUS_RGB,
    SAFE_RGB,
    CellPrediction,
    ExportError,
    safety_map_export,
)

__all__ = [
    "CamError",
    "CamMap",
    "CellPrediction",
    "Confusion",
    "DANGEROUS_RGB",
    "ExportError",
    "MetricsError",
    "MetricsReport",
    "SAFE_RGB",
    "bilinear_upsample",
    "cam",
    "confusion",
    "effective_class_weights",
    "metrics_from_confusion",
    "safety_map_export",
]
