"""The attention classifier: global backbone, local subregion branch, fusion.

Forward pass (use_local=True):
  image -> stage1 -> stage2 (shared map) -> stage3 -> stage4
  shared map -> partition into subregions -> per-region: ROI pool to the
    stage-4 spatial size -> local conv1 -> relu -> local conv2 -> relu -> GAP
    -> local fc -> softmax
  the subregion with the highest class probability wins (hard argmax, one
  winner per sample); its local conv2 map, already at the stage-4 size, is
  channel-concatenated onto the stage-4 output
  [da_mode: two 1x1 reduction convs follow the fusion]
  -> GAP -> fc (d-dim feature) -> classifier (K logits)

There is deliberately no relu between fc and classifier: both stay linear
so their composition gives exact class activation maps over the final conv
map, and the fc output doubles as the feature the adaptation losses align.

The argmax selection is non-differentiable; gradients flow only through
the winning branch, so the local fc never receives a gradient from the
classification loss and stays at its initialization (expected_gradless
names it for the optimizer).

``forward`` runs one batch; ``model.training.evaluate`` is the loop that
runs it over a dataset for labels and class probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..autodiff import (
    Rect,
    Tensor,
    channel_concat,
    conv2d,
    global_avg_pool,
    linear,
    parameter,
    relu,
    roi_avg_pool,
    select_stack,
    softmax,
)
from ..autodiff.nn_ops import _bin_edges
from .config import IN_CHANNELS, NUM_CLASSES, SCHEME_KINDS, STAGE_PADS, STAGE_STRIDES
from .config import ConfigError, DamConfig, SubregionScheme


class DamParams:
    """Named parameter set; iteration order is fixed by construction order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, t: Tensor) -> Tensor:
        """Add a named trainable leaf, such as ``parameter(data, name=...)``."""
        if t.name in self._params:
            raise ConfigError(f"duplicate parameter {t.name!r}")
        self._params[t.name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def all(self) -> list[Tensor]:
        return list(self._params.values())

    def expected_gradless(self, config: DamConfig) -> list[Tensor]:
        """Parameters the hard selection legitimately starves of gradient."""
        if not config.use_local:
            return []
        return [self._params["local.fc.weight"], self._params["local.fc.bias"]]


def param_layout(config: DamConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan-in) of every parameter, in construction order.

    A fan-in of 0 marks a bias, which starts at zero; every other parameter
    is drawn He-normal with standard deviation sqrt(2 / fan-in).
    """
    layout = []

    def conv(name, cout, cin, k):
        layout.append((f"{name}.weight", (cout, cin, k, k), cin * k * k))
        layout.append((f"{name}.bias", (cout,), 0))

    def fc(name, fout, fin):
        layout.append((f"{name}.weight", (fout, fin), fin))
        layout.append((f"{name}.bias", (fout,), 0))

    cin = IN_CHANNELS
    for i, width in enumerate(config.stage_widths, start=1):
        conv(f"stage{i}.down", width, cin, 3)
        conv(f"stage{i}.res1", width, width, 3)
        conv(f"stage{i}.res2", width, width, 3)
        cin = width
    if config.use_local:
        l1, l2 = config.active_local_widths
        conv("local.conv1", l1, config.stage_widths[1], 3)
        conv("local.conv2", l2, l1, 3)
        fc("local.fc", NUM_CLASSES, l2)
    if config.da_mode:
        r1, r2 = config.da_reduce_widths
        conv("da.reduce1", r1, config.fused_channels, 1)
        conv("da.reduce2", r2, r1, 1)
    fc("head.fc", config.d, config.head_in_channels)
    fc("head.classifier", NUM_CLASSES, config.d)
    return layout


def init_params(config: DamConfig, seed: int = 0) -> DamParams:
    """He-normal weights, zero biases, in a fixed deterministic order."""
    rng = np.random.default_rng([seed, 0])
    p = DamParams()
    for name, shape, fan_in in param_layout(config):
        p.add(parameter(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape) if fan_in
                        else np.zeros(shape), name=name))
    return p


def _stage(x: Tensor, params: DamParams, i: int, stride: int, pad: int) -> Tensor:
    h = relu(conv2d(x, params[f"stage{i}.down.weight"], params[f"stage{i}.down.bias"],
                    stride=stride, pad=pad))
    r = relu(conv2d(h, params[f"stage{i}.res1.weight"], params[f"stage{i}.res1.bias"],
                    stride=1, pad=1))
    r = conv2d(r, params[f"stage{i}.res2.weight"], params[f"stage{i}.res2.bias"],
               stride=1, pad=1)
    return relu(h + r)


def partition_regions(map_hw: tuple[int, int],
                      schemes: Sequence[SubregionScheme]) -> list[tuple[Rect, str]]:
    """Cut the shared map into tagged subregion rectangles.

    Output order is canonical: all HS bands top to bottom, then VS bands
    left to right, then SQ blocks row-major, regardless of scheme order in
    the config.  Each scheme is a grid of rows x cols bands (HS N x 1, VS
    1 x N, SQ r x r) cut with proportional rounding, so it tiles the map
    exactly.
    """
    h, w = map_hw
    out: list[tuple[Rect, str]] = []
    for s in sorted(schemes, key=lambda s: SCHEME_KINDS.index(s.kind)):
        r = math.isqrt(s.count)
        rows, cols = {"HS": (s.count, 1), "VS": (1, s.count), "SQ": (r, r)}[s.kind]
        if h < rows or w < cols:
            raise ConfigError(f"{s.kind} with N={s.count} needs map height >= {rows} "
                              f"and width >= {cols}, got {h}x{w}")
        row_edges, col_edges = _bin_edges(h, rows), _bin_edges(w, cols)
        for i in range(rows):
            for j in range(cols):
                rect = Rect(int(row_edges[i]), int(row_edges[i + 1]),
                            int(col_edges[j]), int(col_edges[j + 1]))
                # one of i, j is 0 for a band, so i + j is its index
                out.append((rect, f"SQ{i}_{j}" if s.kind == "SQ" else f"{s.kind}{i + j}"))
    if not out:
        raise ConfigError("no subregion schemes given")
    return out


def local_forward(shared_map: Tensor, rect: Rect, out_hw: tuple[int, int],
                  params: DamParams) -> tuple[np.ndarray, Tensor]:
    """Run one subregion, ROI-pooled to ``out_hw``, through the local network.

    Returns (class probabilities [B,K] as a plain array, local conv2 map
    [B,C,*out_hw] as a tensor retained for fusion).
    """
    x = roi_avg_pool(shared_map, rect, out_hw)
    h = relu(conv2d(x, params["local.conv1.weight"], params["local.conv1.bias"],
                    stride=1, pad=1))
    m = relu(conv2d(h, params["local.conv2.weight"], params["local.conv2.bias"],
                    stride=1, pad=1))
    pooled_vec = global_avg_pool(m)
    logits = linear(pooled_vec, params["local.fc.weight"], params["local.fc.bias"])
    return softmax(logits.data, axis=1), m


def select_region(region_probs: np.ndarray) -> np.ndarray:
    """Winning subregion per sample: argmax over regions of the max class
    probability; ties go to the lowest region index."""
    probs = np.asarray(region_probs)
    if probs.ndim != 3 or probs.shape[1] == 0:
        raise ConfigError(f"expected probabilities [B, R, K] with R >= 1, got {probs.shape}")
    scores = probs.max(axis=2)
    return scores.argmax(axis=1)


@dataclass
class ForwardTrace:
    """Everything downstream consumers need from one forward pass."""

    logits: Tensor                      # [B, K]
    feature: Tensor                     # [B, d], the fc output
    cam_map: Tensor                     # [B, C, h, w] final pre-pool conv map
    region_probs: Optional[np.ndarray]  # [B, R, K]
    selected: Optional[np.ndarray]      # [B]
    region_tags: Optional[list[str]]


def forward(images: Tensor, params: DamParams, config: DamConfig) -> ForwardTrace:
    if images.shape[1:] != (IN_CHANNELS, *config.input_hw):
        raise ConfigError(f"input shape {images.shape[1:]} does not match config "
                          f"{(IN_CHANNELS, *config.input_hw)}")
    h = images
    for i in range(1, 5):
        h = _stage(h, params, i, STAGE_STRIDES[i - 1], STAGE_PADS[i - 1])
        if i == 2:
            shared = h  # the subregions are cut from the stage-2 map
    conv4 = h

    region_probs = None
    selected = None
    tags = None
    if config.use_local:
        regions = partition_regions(shared.shape[2:], config.schemes)
        tags = [t for _, t in regions]
        local = [local_forward(shared, rect, conv4.shape[2:], params) for rect, _ in regions]
        region_probs = np.stack([p for p, _ in local], axis=1)  # [B, R, K]
        selected = select_region(region_probs)
        fused = channel_concat([conv4, select_stack([m for _, m in local], selected)])
    else:
        fused = conv4

    if config.da_mode:
        fused = relu(conv2d(fused, params["da.reduce1.weight"], params["da.reduce1.bias"]))
        fused = relu(conv2d(fused, params["da.reduce2.weight"], params["da.reduce2.bias"]))

    pooled_vec = global_avg_pool(fused)
    feature = linear(pooled_vec, params["head.fc.weight"], params["head.fc.bias"])
    logits = linear(feature, params["head.classifier.weight"], params["head.classifier.bias"])
    return ForwardTrace(logits=logits, feature=feature, cam_map=fused,
                        region_probs=region_probs, selected=selected, region_tags=tags)
