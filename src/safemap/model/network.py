"""The attention classifier: global backbone, local subregion branch, fusion.

Forward pass (use_local=True):
  image -> stage1 -> stage2 (shared map) -> stage3 -> stage4
  shared map -> partition into subregions -> per-region: ROI pool to 7x7 ->
    local conv1 -> relu -> local conv2 -> relu -> GAP -> local fc -> softmax
  the subregion with the highest class probability wins (hard argmax, one
  winner per sample); its local conv2 map is pooled to the stage-4 spatial
  size and channel-concatenated onto the stage-4 output
  [da_mode: two 1x1 reduction convs follow the fusion]
  -> GAP -> fc (d-dim feature) -> classifier (K logits)

There is deliberately no relu between fc and classifier: both stay linear
so their composition gives exact class activation maps over the final conv
map, and the fc output doubles as the feature the adaptation losses align.

The argmax selection is non-differentiable; gradients flow only through
the winning branch, so the local fc never receives a gradient from the
classification loss and stays at its initialization (expected_gradless
names it for the optimizer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..autodiff import (
    Rect,
    Tensor,
    adaptive_avg_pool,
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
from .config import IN_CHANNELS, NUM_CLASSES, ConfigError, DamConfig, SubregionScheme


class DamParams:
    """Named parameter set; iteration order is fixed by construction order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter {name!r}")
        t = parameter(data, name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def all(self) -> list[Tensor]:
        return list(self._params.values())

    def expected_gradless(self, config: DamConfig) -> list[Tensor]:
        """Parameters the hard selection legitimately starves of gradient."""
        if not config.use_local:
            return []
        return [self._params["local.fc.weight"], self._params["local.fc.bias"]]


def _he_conv(rng: np.random.Generator, cout: int, cin: int, k: int) -> np.ndarray:
    std = np.sqrt(2.0 / (cin * k * k))
    return rng.normal(0.0, std, size=(cout, cin, k, k))


def _he_linear(rng: np.random.Generator, fout: int, fin: int) -> np.ndarray:
    std = np.sqrt(2.0 / fin)
    return rng.normal(0.0, std, size=(fout, fin))


def init_params(config: DamConfig, seed: int = 0) -> DamParams:
    """He-normal weights, zero biases, in a fixed deterministic order."""
    rng = np.random.default_rng([seed, 0])
    p = DamParams()
    cin = IN_CHANNELS
    for i, width in enumerate(config.stage_widths, start=1):
        p.add(f"stage{i}.down.weight", _he_conv(rng, width, cin, 3))
        p.add(f"stage{i}.down.bias", np.zeros(width))
        p.add(f"stage{i}.res1.weight", _he_conv(rng, width, width, 3))
        p.add(f"stage{i}.res1.bias", np.zeros(width))
        p.add(f"stage{i}.res2.weight", _he_conv(rng, width, width, 3))
        p.add(f"stage{i}.res2.bias", np.zeros(width))
        cin = width
    if config.use_local:
        l1, l2 = config.active_local_widths
        p.add("local.conv1.weight", _he_conv(rng, l1, config.stage_widths[1], 3))
        p.add("local.conv1.bias", np.zeros(l1))
        p.add("local.conv2.weight", _he_conv(rng, l2, l1, 3))
        p.add("local.conv2.bias", np.zeros(l2))
        p.add("local.fc.weight", _he_linear(rng, NUM_CLASSES, l2))
        p.add("local.fc.bias", np.zeros(NUM_CLASSES))
    if config.da_mode:
        r1, r2 = config.da_reduce_widths
        p.add("da.reduce1.weight", _he_conv(rng, r1, config.fused_channels, 1))
        p.add("da.reduce1.bias", np.zeros(r1))
        p.add("da.reduce2.weight", _he_conv(rng, r2, r1, 1))
        p.add("da.reduce2.bias", np.zeros(r2))
    p.add("head.fc.weight", _he_linear(rng, config.d, config.head_in_channels))
    p.add("head.fc.bias", np.zeros(config.d))
    p.add("head.classifier.weight", _he_linear(rng, NUM_CLASSES, config.d))
    p.add("head.classifier.bias", np.zeros(NUM_CLASSES))
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
    the config.  Bands use proportional rounding, so each scheme tiles the
    map exactly.
    """
    h, w = map_hw
    by_kind: dict[str, SubregionScheme] = {}
    for s in schemes:
        if s.kind in by_kind:
            raise ConfigError(f"duplicate scheme kind {s.kind}")
        by_kind[s.kind] = s
    out: list[tuple[Rect, str]] = []
    if "HS" in by_kind:
        s = by_kind["HS"]
        if h < s.count:
            raise ConfigError(f"HS with N={s.count} needs map height >= {s.count}, got {h}")
        edges = _bin_edges(h, s.count)
        for i in range(s.count):
            out.append((Rect(int(edges[i]), int(edges[i + 1]), 0, w), f"HS{i}"))
    if "VS" in by_kind:
        s = by_kind["VS"]
        if w < s.count:
            raise ConfigError(f"VS with N={s.count} needs map width >= {s.count}, got {w}")
        edges = _bin_edges(w, s.count)
        for i in range(s.count):
            out.append((Rect(0, h, int(edges[i]), int(edges[i + 1])), f"VS{i}"))
    if "SQ" in by_kind:
        s = by_kind["SQ"]
        r = int(np.sqrt(s.count))
        if h < r or w < r:
            raise ConfigError(f"SQ with N={s.count} needs map extents >= {r}, got {h}x{w}")
        re_ = _bin_edges(h, r)
        ce = _bin_edges(w, r)
        for i in range(r):
            for j in range(r):
                out.append((Rect(int(re_[i]), int(re_[i + 1]), int(ce[j]), int(ce[j + 1])),
                            f"SQ{i}_{j}"))
    if not out:
        raise ConfigError("no subregion schemes given")
    return out


def local_forward(shared_map: Tensor, rect: Rect, pooled: tuple[int, int],
                  params: DamParams) -> tuple[np.ndarray, Tensor]:
    """Run one subregion through the local network.

    Returns (class probabilities [B,K] as a plain array, local conv2 map
    [B,C,ph,pw] as a tensor retained for fusion).
    """
    x = roi_avg_pool(shared_map, rect, pooled)
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
        h = _stage(h, params, i, config.stage_strides[i - 1], config.stage_pads[i - 1])
        if i == 2:
            shared = h  # the subregions are cut from the stage-2 map
    conv4 = h

    region_probs = None
    selected = None
    tags = None
    if config.use_local:
        regions = partition_regions(shared.shape[2:], config.schemes)
        tags = [t for _, t in regions]
        pooled = config.schemes[0].pooled
        probs_list = []
        maps_list = []
        for rect, _ in regions:
            p, m = local_forward(shared, rect, pooled, params)
            probs_list.append(p)
            maps_list.append(m)
        region_probs = np.stack(probs_list, axis=1)  # [B, R, K]
        selected = select_region(region_probs)
        chosen = select_stack(maps_list, selected)
        chosen = adaptive_avg_pool(chosen, conv4.shape[2:])
        fused = channel_concat([conv4, chosen])
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


def predict(images: Tensor, params: DamParams, config: DamConfig
            ) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels and class probabilities, no gradient tracking."""
    trace = forward(images, params, config)
    probs = softmax(trace.logits.data, axis=1)
    return probs.argmax(axis=1), probs
