"""Architecture configuration for the attention classifier.

The backbone is a four-stage toy residual network standing in for a full
pretrained backbone: each stage is a downsampling conv followed by one
identity-skip residual block.  Defaults are sized so CPU training stays in
the minutes range while preserving the topology the attention mechanism
needs: every subregion of the stage-2 map is ROI-pooled to the stage-4
map's spatial size, so the local branch's output concatenates onto the
stage-4 map, and each subregion must therefore be at least that size.

The stage geometry is fixed rather than configured: the downsampling
convs use ``STAGE_STRIDES`` = (2, 1, 2, 2) and ``STAGE_PADS`` =
(0, 1, 0, 0), so with 64x64 inputs the stage spatial sizes run
64 -> 31 -> 31 -> 15 -> 7. So are the input and output widths:
``IN_CHANNELS`` = 3 because every tile is an RGB PPM, and ``NUM_CLASSES``
= 2 because cells are labeled safe (0) or dangerous (1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..jsoncodec import JsonError, from_json, to_json

SCHEME_KINDS = ("HS", "VS", "SQ")
IN_CHANNELS = 3
NUM_CLASSES = 2
STAGE_STRIDES = (2, 1, 2, 2)
STAGE_PADS = (0, 1, 0, 0)


class ConfigError(ValueError):
    """Inconsistent model configuration."""


@dataclass(frozen=True)
class SubregionScheme:
    """One partition rule for the shared feature map.

    HS: N full-width horizontal strips; VS: N full-height vertical strips;
    SQ: an r x r grid of blocks with r*r = N.  Every region is ROI-pooled
    to the stage-4 map's spatial size before entering the local network, so
    it must be at least that size.
    """

    kind: str
    count: int = 4

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigError(f"scheme kind must be one of {SCHEME_KINDS}, got {self.kind!r}")
        if self.count < 1:
            raise ConfigError(f"scheme count must be at least 1, got {self.count}")
        if self.kind == "SQ":
            r = math.isqrt(self.count)
            if r * r != self.count:
                raise ConfigError(f"SQ scheme count must be a perfect square, got {self.count}")


def default_schemes() -> tuple[SubregionScheme, ...]:
    return (SubregionScheme("SQ", 4),)


@dataclass(frozen=True)
class DamConfig:
    """Hyperparameters fixing every parameter shape of the model."""

    input_hw: tuple[int, int] = (64, 64)
    stage_widths: tuple[int, int, int, int] = (8, 16, 32, 64)
    local_widths: tuple[int, int] = (16, 16)
    schemes: tuple[SubregionScheme, ...] = field(default_factory=default_schemes)
    d: int = 32
    use_local: bool = True
    da_mode: bool = False
    # 1x1 dimension-reduction convs appended after fusion in da_mode
    da_reduce_widths: tuple[int, int] = (32, 16)
    # local widths used instead of local_widths when da_mode is on
    da_local_widths: tuple[int, int] = (8, 8)

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError(f"feature dimension d must be at least 2, got {self.d}")
        for name, widths in (("stage_widths", self.stage_widths),
                             ("local_widths", self.local_widths),
                             ("da_reduce_widths", self.da_reduce_widths),
                             ("da_local_widths", self.da_local_widths)):
            if any(w < 1 for w in widths):
                raise ConfigError(f"{name} must all be at least 1, got {widths}")
        if len(self.stage_widths) != 4:
            raise ConfigError("backbone is fixed at 4 stages")
        if self.use_local and not self.schemes:
            raise ConfigError("at least one subregion scheme is required")
        kinds = [s.kind for s in self.schemes]
        dup = next((k for i, k in enumerate(kinds) if k in kinds[:i]), None)
        if dup is not None:
            raise ConfigError(f"duplicate scheme kind {dup}")

    @property
    def active_local_widths(self) -> tuple[int, int]:
        return self.da_local_widths if self.da_mode else self.local_widths

    @property
    def fused_channels(self) -> int:
        base = self.stage_widths[3]
        return base + (self.active_local_widths[1] if self.use_local else 0)

    @property
    def head_in_channels(self) -> int:
        """Channels of the final pre-pool conv map feeding GAP and CAM."""
        return self.da_reduce_widths[1] if self.da_mode else self.fused_channels

    def to_dict(self) -> dict:
        """This config as JSON; the name stays because the checkpoint writers
        (the CLI's and the benchmark's) store it as metadata through it."""
        return to_json(self)

    @classmethod
    def from_dict(cls, d) -> "DamConfig":
        """Parse a ``to_dict`` object or raise ConfigError; the name stays
        because the benchmark's step probe builds its model through it."""
        try:
            return from_json(cls, d)
        except JsonError as e:
            raise ConfigError(str(e)) from e
