"""Neural-network ops on top of the tensor engine.

Layout convention is NCHW throughout: batched image tensors have shape
``[B, C, H, W]``, dense activations ``[B, F]``.

conv2d lowers a convolution to GEMMs in one of three ways.

* A recorded conv (see ``_records``) is im2col plus one GEMM over the whole
  batch (Chellapilla et al. 2006), whose ``cols`` its backward reuses.
  ``_im2col`` reads the input channel-major, zero-borders it when padded,
  and fills ``cols`` ``[K, N]`` (K = Cin*kh*kw, N = B*Ho*Wo) with one copy
  from a strided view of the bordered input; ``w2 @ cols`` (``w2``: the
  weight as ``[Cout, K]``) is then copied, transposed, into NCHW.
* A tape-free stride-1 conv of more than one sample with ``pad < kh`` and
  ``pad < kw`` lowers as in MEC (Cho & Brand 2017), in ``_conv_flat``: each
  sample block is copied once into a flat buffer of row pitch ``P = W + pad``
  whose rows and images share their zero padding; kw shifted copies of it,
  about a third of ``cols`` for a 3x3 kernel, go through one GEMM by the kh
  kernel rows stacked, and the kh row blocks of the product are added at
  column offsets ``i*P``.  (One GEMM per kernel row measured slower.)
* Any other tape-free conv (strided, or a single sample, whose pad columns
  cost more than the copies save) runs im2col and one GEMM per block.

Tape-free blocks hold as many samples as fit ``cols``, or the shifted
copies, in ``CHUNK_BYTES`` (the L2 cache; Goto & van de Geijn 2008).  The
flat path adds each dot product as kh partial sums, so it agrees with the
recorded path to float32 rounding, not bit for bit; so do blocks of another
size, as BLAS rounding follows the GEMM's shape.  Inference (``evaluate``,
which serves evaluation, validation, pseudo-labels and the safety map, and
CAMs) runs tape-free.

The backward, on the recorded path only:

* weight and bias gradients: the upstream gradient as ``g2 = [Cout, N]``
  gives ``gw = (cols @ g2.T).T``, the orientation BLAS runs faster for
  these shapes than ``g2 @ cols.T``, and ``gb`` as its row sums;
* input gradient: by the transposed-convolution identity (Dumoulin &
  Visin 2016), a conv2d of ``g``, zero-dilated by the stride and bordered
  by ``kernel - 1 - pad`` (cropped where that is negative), with the
  flipped, channel-transposed kernel.  Its inputs need no gradient, so it
  runs tape-free: in blocks, by the flat lowering when the batch holds
  more than one sample.  Nothing is scatter-added.

So the numpy call count stays O(kh*kw) whatever the image size.

ROI pooling (and adaptive pooling, its full-map case) sums bins and
spreads gradients with products by 0/1 bin matrices; see ``roi_avg_pool``.

The compute dtype follows ``x``: conv2d and linear cast their weight and
bias to ``x``'s dtype before the GEMMs, and every buffer (padding, the flat
buffers, ``cols``, the dilated gradient, pooled output) is allocated in it.
A float32 batch thus runs float32 GEMMs against float64 parameters, whose
gradients still accumulate into float64 buffers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import (
    ShapeError,
    Tensor,
    _accumulate,
    _as_tensor,
    _leaf,
    _make_op,
    _records,
)

CHUNK_BYTES = 4 << 20  # bytes of cols, or of the shifted copies, per tape-free block


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


def _im2col(xt: np.ndarray, kh: int, kw: int, stride: int, pad: int,
            Ho: int, Wo: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Column matrix ``[C*kh*kw, B*Ho*Wo]`` of a channel-major ``[C, B, H, W]`` array.

    The input is zero-padded by ``pad`` on each side;
    cols[(c, i, j), (b, oy, ox)] = xp[c, b, i + stride*oy, j + stride*ox],
    one copy from a read-only strided view of ``xp``.  ``out``: a flat
    buffer of exactly that size, so its reshape is a view.
    """
    C, B, H, W = xt.shape
    if pad:
        xp = np.zeros((C, B, H + 2 * pad, W + 2 * pad), dtype=xt.dtype)
        xp[:, :, pad:pad + H, pad:pad + W] = xt
    else:
        xp = xt
    cols6 = (np.empty(C * kh * kw * B * Ho * Wo, dtype=xt.dtype) if out is None
             else out).reshape(C, kh, kw, B, Ho, Wo)
    sc, sb, sy, sx = xp.strides
    np.copyto(cols6, as_strided(xp, cols6.shape, (sc, sy, sx, sb, stride * sy, stride * sx),
                                writeable=False))
    return cols6.reshape(C * kh * kw, B * Ho * Wo)


def _conv_flat(xt: np.ndarray, wi: np.ndarray, p: int, flat: np.ndarray,
               buf: np.ndarray) -> np.ndarray:
    """Stride-1 conv of a channel-major block ``xt`` [C, B, H, W], pad ``p`` < kh, kw.

    ``wi`` [kh, Cout, C*kw] holds the kernel rows.  With ``P = W + p`` and
    ``S = (H + p) * P``, output (b, oy, ox) is entry ``q = b*S + oy*P + ox``
    of the returned ``[Cout, B*S]`` view and reads ``flat[:, q + i*P + j]``;
    ``buf`` takes the kw shifted copies.  Only pixels are written into
    ``flat``, so its padding stays zero, and what a longer previous block
    left past this one is read only by outputs that are cropped away.
    """
    C, B, H, W = xt.shape
    kh, _, CK = wi.shape
    P, L = W + p, B * (H + p) * (W + p)
    M = L + (kh - 1) * P
    flat[:, :L].reshape(C, B, H + p, P)[:, :, p:, p:] = xt
    sh = buf[:CK * M].reshape(C, CK // C, M)
    for j in range(CK // C):
        sh[:, j] = flat[:, j:j + M]
    sh = sh.reshape(CK, M)
    y = (wi.reshape(-1, CK) @ sh).reshape(kh, -1, M)  # one GEMM for all kernel rows
    acc = y[0, :, :L]
    for i in range(1, kh):
        acc += y[i, :, i * P:i * P + L]
    return acc


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
    K, N = Cin * kh * kw, B * Ho * Wo
    dt = x.data.dtype

    parents = (x, weight) if b_t is None else (x, weight, b_t)
    records = _records(parents)
    # a recorded conv keeps ``cols`` for its backward; one sample's pad columns
    # and extra rows cost the flat path more than its copies save
    flat = stride == 1 and pad < kh and pad < kw and not records and B > 1
    w_dt = weight.data.astype(dt, copy=False)
    w2 = w_dt.reshape(Cout, K)
    P, S = W + pad, (H + pad) * (W + pad)  # the flat layout's row and image pitch
    per_sample = Cin * kw * S if flat else K * Ho * Wo  # values of buf per sample
    step = B if records else max(1, CHUNK_BYTES // (per_sample * dt.itemsize))
    nb = min(step, B)
    if flat:
        wi = np.ascontiguousarray(w_dt.transpose(2, 0, 1, 3)).reshape(kh, Cout, Cin * kw)
        xflat = np.zeros((Cin, nb * S + (kh - 1) * P + kw - 1), dtype=dt)
        buf = np.empty(Cin * kw * (nb * S + (kh - 1) * P), dtype=dt)
    else:
        buf = np.empty(K * nb * Ho * Wo, dtype=dt)
    pitch = P if flat else Wo  # row pitch of a block's GEMM output
    out_data = np.empty((B, Cout, Ho, Wo), dtype=dt)
    for b0 in range(0, B, step):
        nb = min(step, B - b0)
        xt = x.data[b0:b0 + nb].transpose(1, 0, 2, 3)
        if flat:
            out2 = _conv_flat(xt, wi, pad, xflat, buf)  # [Cout, nb*S]
        else:
            cols = _im2col(xt, kh, kw, stride, pad, Ho, Wo, out=buf[:K * nb * Ho * Wo])
            out2 = w2 @ cols  # [Cout, nb*Ho*Wo]
        if b_t is not None:
            out2 += b_t.data.astype(dt, copy=False)[:, None]
        out4 = out2.reshape(Cout, nb, -1, pitch)[:, :, :Ho, :Wo]
        out_data[b0:b0 + nb] = out4.transpose(1, 0, 2, 3)

    def bwd(g):
        # g: [B, Cout, Ho, Wo] -> g2: [Cout, N], matching the column order of cols
        g2 = g.transpose(1, 0, 2, 3).reshape(Cout, N)
        if weight.requires_grad:
            _accumulate(weight, (cols @ g2.T).T.reshape(weight.shape))
        if b_t is not None and b_t.requires_grad:
            _accumulate(b_t, g2.sum(axis=1))
        if not x.requires_grad:
            return
        # a tape-free conv of g by the flipped, channel-transposed kernel
        wf = _leaf(w_dt.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], False, None)
        qh, qw = kh - 1 - pad, kw - 1 - pad
        if stride == 1 and qh == qw >= 0:  # the border is conv2d's own padding
            gx = conv2d(_leaf(g, False, None), wf, pad=qh)
        else:  # g zero-dilated and bordered, cropped by ch, cw where the border is negative
            ch, cw = max(-qh, 0), max(-qw, 0)
            gd = np.zeros((B, Cout, H + kh - 1 + 2 * ch, W + kw - 1 + 2 * cw), dtype=g.dtype)
            gd[:, :, ch + qh::stride, cw + qw::stride][:, :, :Ho, :Wo] = g
            gx = conv2d(_leaf(gd[:, :, ch:ch + H + kh - 1, cw:cw + W + kw - 1], False, None), wf)
        _accumulate(x, gx.data)

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
    dt = x.data.dtype
    w = weight.data.astype(dt, copy=False)
    out_data = x.data @ w.T
    if b_t is not None:
        out_data = out_data + b_t.data.astype(dt, copy=False)

    def bwd(g):
        _accumulate(x, g @ w)
        _accumulate(weight, g.T @ x.data)
        if b_t is not None:
            _accumulate(b_t, g.sum(axis=0))

    parents = (x, weight) if b_t is None else (x, weight, b_t)
    return _make_op(out_data, parents, bwd, "linear")


def _bin_edges(length: int, out: int) -> np.ndarray:
    """Proportional-rounding bin edges; bin i spans [floor(i*L/out), floor((i+1)*L/out))."""
    edges = (np.arange(out + 1) * length) // out
    return edges.astype(np.int64)


def _check_bins(length: int, out: int, what: str) -> None:
    if out < 1:
        raise ShapeError(f"{what}: output size must be positive, got {out}")
    if length < out:
        raise ShapeError(f"{what}: cannot pool extent {length} down to {out} bins without empty bins")


def adaptive_avg_pool(x, out_hw: tuple) -> Tensor:
    """Average-pool [B,C,H,W] to [B,C,oh,ow] with proportional-rounding bins."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool expects 4-D input, got {x.shape}")
    return roi_avg_pool(x, Rect(0, x.shape[2], 0, x.shape[3]), out_hw)


def _bin_matrix(edges: np.ndarray, dtype) -> np.ndarray:
    """[bins, length] 0/1 matrix; row i is 1 on bin i's span [edges[i], edges[i+1])."""
    pos = np.arange(edges[-1])
    return ((pos >= edges[:-1, None]) & (pos < edges[1:, None])).astype(dtype)


@functools.lru_cache(maxsize=64)
def _pool_matrices(extent: tuple, bins: tuple, dtype) -> tuple:
    """Read-only ``(Ph, Pw, area)`` for pooling an ``extent`` window into ``bins``.

    A model pools a handful of fixed shapes, so each is built once per
    process and dtype; callers check the bins with ``_check_bins`` first.
    """
    he, we = _bin_edges(extent[0], bins[0]), _bin_edges(extent[1], bins[1])
    mats = (_bin_matrix(he, dtype), _bin_matrix(we, dtype),
            np.outer(np.diff(he), np.diff(we)).astype(dtype))
    for m in mats:
        m.flags.writeable = False
    return mats


def roi_avg_pool(x, rect: Rect, out_hw: tuple) -> Tensor:
    """Adaptive average pooling restricted to a rectangular window of the map.

    With 0/1 bin matrices ``Ph`` [oh, h] and ``Pw`` [ow, w], the bin sums of
    the window are ``Ph @ window @ Pw.T``; dividing by the bin areas gives
    the means.  The backward pass is ``Ph.T @ (g / area) @ Pw`` into the
    window of one zero buffer.  Neither pass loops over bins in Python, and
    the matrices of each (extent, bins, dtype) are built once per process.
    """
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"roi_avg_pool expects 4-D input, got {x.shape}")
    H, W = x.shape[2:]
    if rect.bottom > H or rect.right > W:
        raise ShapeError(f"rect {rect} exceeds feature map {H}x{W}")
    oh, ow = out_hw
    _check_bins(rect.height, oh, "roi_avg_pool rows")
    _check_bins(rect.width, ow, "roi_avg_pool cols")
    ph, pw, area = _pool_matrices((rect.height, rect.width), (oh, ow), x.data.dtype)
    window = np.s_[:, :, rect.top:rect.bottom, rect.left:rect.right]
    out_data = ph @ x.data[window] @ pw.T / area

    def bwd(g):
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        gx[window] = ph.T @ (g / area) @ pw
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
        _accumulate(x, np.broadcast_to((g / (H * W))[:, :, None, None], x.shape))

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
