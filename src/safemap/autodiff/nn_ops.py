"""Neural-network ops on top of the tensor engine.

Layout convention is NCHW throughout: batched image tensors have shape
``[B, C, H, W]``, dense activations ``[B, F]``.

conv2d is im2col plus GEMM (Chellapilla et al. 2006).  The input is read
channel-major, ``[Cin, B, H, W]``; when padded it is first copied into a
zero-bordered ``[Cin, B, Hp, Wp]`` buffer.  kh*kw strided slice copies then
fill one contiguous column matrix ``cols`` of shape ``[K, N]``, with
K = Cin*kh*kw and N = B*Ho*Wo, which is kept for the backward pass.

* forward: one 2-D GEMM ``w2 @ cols`` (``w2`` is the weight as
  ``[Cout, K]``), then one transposed copy back to contiguous NCHW;
* backward: the upstream gradient as ``g2 = [Cout, N]`` gives
  ``gw = g2 @ cols.T`` and ``gcol = w2.T @ g2``, two 2-D GEMMs; col2im is
  kh*kw strided adds of ``gcol`` into a ``[Cin, B, Hp, Wp]`` buffer,
  followed by the crop of the padding.

So the numpy call count stays O(kh*kw) whatever the image size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    _accumulate,
    _as_tensor,
    _make_op,
)


@dataclass(frozen=True)
class Rect:
    """Half-open spatial window [top, bottom) x [left, right) on a feature map."""

    top: int
    bottom: int
    left: int
    right: int

    def __post_init__(self):
        if not (0 <= self.top < self.bottom and 0 <= self.left < self.right):
            raise ShapeError(f"degenerate rect {self}")

    @property
    def height(self) -> int:
        return self.bottom - self.top

    @property
    def width(self) -> int:
        return self.right - self.left


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ShapeError(f"conv output collapses: size={size} kernel={kernel} stride={stride} pad={pad}")
    return out


def conv2d(x, weight, bias=None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation. x: [B,Cin,H,W], weight: [Cout,Cin,kh,kw], bias: [Cout]."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D x and weight, got {x.shape} and {weight.shape}")
    b_t = _as_tensor(bias) if bias is not None else None
    B, Cin, H, W = x.shape
    Cout, Cin_w, kh, kw = weight.shape
    if Cin != Cin_w:
        raise ShapeError(f"conv2d channel mismatch: input {Cin}, weight {Cin_w}")
    if b_t is not None and b_t.shape != (Cout,):
        raise ShapeError(f"conv2d bias must be [{Cout}], got {b_t.shape}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"conv2d invalid stride={stride} pad={pad}")
    Ho = conv_out_size(H, kh, stride, pad)
    Wo = conv_out_size(W, kw, stride, pad)
    Hp, Wp = H + 2 * pad, W + 2 * pad
    K, N = Cin * kh * kw, B * Ho * Wo

    # channel-major input [Cin, B, Hp, Wp]; padding is a zero border
    xt = x.data.transpose(1, 0, 2, 3)
    if pad:
        xp = np.zeros((Cin, B, Hp, Wp))
        xp[:, :, pad:pad + H, pad:pad + W] = xt
    else:
        xp = xt
    # im2col: cols[(ci, i, j), (b, oy, ox)] = xp[ci, b, i + stride*oy, j + stride*ox]
    cols6 = np.empty((Cin, kh, kw, B, Ho, Wo))
    for i in range(kh):
        for j in range(kw):
            cols6[:, i, j] = xp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride]
    cols = cols6.reshape(K, N)
    w2 = weight.data.reshape(Cout, K)
    out2 = w2 @ cols  # [Cout, N]
    if b_t is not None:
        out2 += b_t.data[:, None]
    out_data = np.ascontiguousarray(out2.reshape(Cout, B, Ho, Wo).transpose(1, 0, 2, 3))

    def bwd(g):
        # g: [B, Cout, Ho, Wo] -> g2: [Cout, N], matching the column order of cols
        g2 = g.transpose(1, 0, 2, 3).reshape(Cout, N)
        if weight.requires_grad:
            _accumulate(weight, (g2 @ cols.T).reshape(weight.shape))
        if b_t is not None and b_t.requires_grad:
            _accumulate(b_t, g2.sum(axis=1))
        if x.requires_grad:
            # col2im: scatter-add each kernel tap's patch gradients back
            gcol = (w2.T @ g2).reshape(Cin, kh, kw, B, Ho, Wo)
            gxp = np.zeros((Cin, B, Hp, Wp))
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride] += gcol[:, i, j]
            _accumulate(x, gxp[:, :, pad:pad + H, pad:pad + W].transpose(1, 0, 2, 3))

    parents = (x, weight) if b_t is None else (x, weight, b_t)
    return _make_op(out_data, parents, bwd, "conv2d")


def linear(x, weight, bias=None) -> Tensor:
    """Affine map y = x @ weight.T + bias. x: [B,Fin], weight: [Fout,Fin]."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear expects 2-D x and weight, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear feature mismatch: input {x.shape[1]}, weight {weight.shape[1]}")
    b_t = _as_tensor(bias) if bias is not None else None
    if b_t is not None and b_t.shape != (weight.shape[0],):
        raise ShapeError(f"linear bias must be [{weight.shape[0]}], got {b_t.shape}")
    out_data = x.data @ weight.data.T
    if b_t is not None:
        out_data = out_data + b_t.data

    def bwd(g):
        _accumulate(x, g @ weight.data)
        _accumulate(weight, g.T @ x.data)
        if b_t is not None:
            _accumulate(b_t, g.sum(axis=0))

    parents = (x, weight) if b_t is None else (x, weight, b_t)
    return _make_op(out_data, parents, bwd, "linear")


def _bin_edges(length: int, out: int) -> np.ndarray:
    """Proportional-rounding bin edges; bin i spans [floor(i*L/out), floor((i+1)*L/out))."""
    edges = (np.arange(out + 1) * length) // out
    return edges.astype(np.int64)


def _check_bins(length: int, out: int, what: str) -> np.ndarray:
    if out < 1:
        raise ShapeError(f"{what}: output size must be positive, got {out}")
    if length < out:
        raise ShapeError(f"{what}: cannot pool extent {length} down to {out} bins without empty bins")
    return _bin_edges(length, out)


def adaptive_avg_pool(x, out_hw: tuple) -> Tensor:
    """Average-pool [B,C,H,W] to [B,C,oh,ow] with proportional-rounding bins."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool expects 4-D input, got {x.shape}")
    return roi_avg_pool(x, Rect(0, x.shape[2], 0, x.shape[3]), out_hw)


def roi_avg_pool(x, rect: Rect, out_hw: tuple) -> Tensor:
    """Adaptive average pooling restricted to a rectangular window of the map."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"roi_avg_pool expects 4-D input, got {x.shape}")
    B, C, H, W = x.shape
    if rect.bottom > H or rect.right > W:
        raise ShapeError(f"rect {rect} exceeds feature map {H}x{W}")
    oh, ow = out_hw
    he = _check_bins(rect.height, oh, "roi_avg_pool rows") + rect.top
    we = _check_bins(rect.width, ow, "roi_avg_pool cols") + rect.left
    out_data = np.empty((B, C, oh, ow), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            out_data[:, :, i, j] = x.data[:, :, he[i]:he[i + 1], we[j]:we[j + 1]].mean(axis=(2, 3))

    def bwd(g):
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        for i in range(oh):
            for j in range(ow):
                n = (he[i + 1] - he[i]) * (we[j + 1] - we[j])
                gx[:, :, he[i]:he[i + 1], we[j]:we[j + 1]] += (g[:, :, i, j] / n)[:, :, None, None]
        _accumulate(x, gx)

    return _make_op(out_data, (x,), bwd, "roi_avg_pool")


def global_avg_pool(x) -> Tensor:
    """Collapse [B,C,H,W] to [B,C] by spatial mean."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-D input, got {x.shape}")
    B, C, H, W = x.shape
    out_data = x.data.mean(axis=(2, 3))

    def bwd(g):
        _accumulate(x, np.broadcast_to((g / (H * W))[:, :, None, None], x.shape).copy())

    return _make_op(out_data, (x,), bwd, "global_avg_pool")


def channel_concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate [B,C_i,H,W] tensors along the channel axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("channel_concat needs at least one tensor")
    for t in ts:
        if t.data.ndim != 4:
            raise ShapeError(f"channel_concat expects 4-D tensors, got {t.shape}")
        if t.shape[0] != ts[0].shape[0] or t.shape[2:] != ts[0].shape[2:]:
            raise ShapeError(f"channel_concat mismatch: {t.shape} vs {ts[0].shape}")
    out_data = np.concatenate([t.data for t in ts], axis=1)
    splits = np.cumsum([t.shape[1] for t in ts])[:-1]

    def bwd(g):
        for t, gpart in zip(ts, np.split(g, splits, axis=1)):
            _accumulate(t, gpart)

    return _make_op(out_data, tuple(ts), bwd, "channel_concat")


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on a plain array (no gradient tracking)."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels.

    logits: [B,K]; labels: [B] ints in [0,K).  Uses the log-sum-exp form so
    extreme logits stay finite; gradient is (softmax - onehot) / B.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects 2-D logits, got {logits.shape}")
    y = np.asarray(labels, dtype=np.int64)
    B, K = logits.shape
    if y.shape != (B,):
        raise ShapeError(f"labels must be [{B}], got {y.shape}")
    if B == 0:
        raise ShapeError("softmax_cross_entropy on an empty batch")
    if y.min() < 0 or y.max() >= K:
        raise ShapeError(f"labels out of range for {K} classes")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    out_data = np.asarray((lse - z[np.arange(B), y]).mean())
    probs = softmax(logits.data, axis=1)

    def bwd(g):
        grad = probs.copy()
        grad[np.arange(B), y] -= 1.0
        _accumulate(logits, grad * (float(g) / B))

    return _make_op(out_data, (logits,), bwd, "softmax_cross_entropy")
