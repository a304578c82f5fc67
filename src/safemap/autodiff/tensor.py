"""Minimal reverse-mode tensor engine.

A :class:`Tensor` wraps a float32 or float64 numpy array plus an optional
gradient buffer; any other input is converted to float64.  The compute
dtype follows the data: elementwise ops and matmul take numpy's promotion
of their operands, with a Python int or float taking the other operand's
dtype, and conv2d and linear cast their weights to the input's dtype.  A
numpy array or scalar on either side of an operator is an ordinary operand
(numpy defers to the Tensor's reflected operators), so a float64 one
promotes a float32 tensor.  So a float32 batch runs float32 end to end,
while float64 inputs (gradient checks, oracle tests) stay float64.  A
gradient buffer always has its tensor's dtype: a float64 parameter used
by a float32 op still accumulates a float64 gradient.  ``astype`` is the taped cast between the
two.

Differentiable operations record nodes onto the active :class:`Tape` in
execution order, which is by construction a topological order of the
computation graph.  ``backward(loss)`` consumes the tape in reverse,
accumulating gradients additively; accumulation order is fixed by tape
order, so repeated runs with identical inputs give bit-identical gradients
on one numpy/OpenBLAS build at one BLAS thread count (BLAS splits its
GEMMs, and so rounds them, by thread).

Every op output is checked for NaN/Inf and rejects non-finite values
immediately rather than letting them propagate.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np


class TensorError(Exception):
    """Base error for tensor-engine misuse."""


class ShapeError(TensorError):
    """Operand shapes are incompatible for the requested op."""


class NonFiniteError(TensorError):
    """An op produced (or was handed) NaN or Inf values."""


_tls = threading.local()


def _active_tape() -> Optional["Tape"]:
    return getattr(_tls, "tape", None)


def _as_float(data) -> np.ndarray:
    """float32 and float64 arrays as they are; anything else as float64."""
    arr = np.asarray(data)
    if arr.dtype != np.float32 and arr.dtype != np.float64:
        arr = arr.astype(np.float64)
    return arr


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """float32 or float64 n-dimensional array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "name")
    # numpy defers to the reflected operators, so ``ndarray * Tensor`` is a Tensor
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        arr = _as_float(data)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # Arithmetic sugar; all routed through the module-level ops.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Execution-ordered record of differentiable op nodes.

    Use as a context manager around a forward pass; at most one tape may be
    active per thread.  Ops record a node only when some input requires a
    gradient, so inference outside a tape costs nothing extra.

    A tape runs backward once, and only leaves keep ``.grad``: ``backward``
    pops each node and drops its output's gradient as it runs it, so saved
    op state (a conv's ``cols``) and activation gradients are freed as it goes.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed: Optional[int] = None  # the ops recorded, once backward pops them

    def __len__(self) -> int:
        return len(self._nodes) if self._consumed is None else self._consumed

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise TensorError("a tape is already active on this thread")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tls.tape = None

    def _record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._nodes.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Populate gradients of ``loss`` w.r.t. every leaf that needs one."""
        if self._consumed is not None:
            raise TensorError("this tape already ran backward; record a new one")
        if loss.data.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        nodes = self._nodes
        if not any(out is loss for out, _ in reversed(nodes)):
            raise TensorError("loss tensor was not recorded on this tape")
        self._consumed = len(nodes)
        loss.grad = np.ones_like(loss.data)
        while nodes:
            out, backward_fn = nodes.pop()
            g, out.grad = out.grad, None
            if g is not None:
                backward_fn(g)


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation on the active tape, seeded at ``loss``."""
    tape = _active_tape()
    if tape is None:
        raise TensorError("backward() requires an active tape")
    tape.backward(loss)


def _as_tensor(x, like=None) -> Tensor:
    """``x`` as a Tensor; a Python int or float takes the dtype of ``like``,
    the other operand, so ``t * 0.5`` keeps a float32 ``t`` float32."""
    if isinstance(x, Tensor):
        return x
    if type(x) in (int, float) and isinstance(like, Tensor):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:  # the first write is a copy: no zero fill, no aliasing of g
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g, casting="same_kind")
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (the inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op goes on the tape: one is active and some parent needs a gradient."""
    return _active_tape() is not None and any(p.requires_grad for p in parents)


def _leaf(data: np.ndarray, requires_grad: bool, name: Optional[str]) -> Tensor:
    """Tensor on a float array its caller checked finite, without a second scan."""
    t = Tensor.__new__(Tensor)
    t.data, t.grad, t.requires_grad, t.name = data, None, requires_grad, name
    return t


def _make_op(out_data: np.ndarray, parents: Sequence[Tensor],
             backward_fn: Callable[[np.ndarray], None], op: str) -> Tensor:
    out_data = _as_float(out_data)
    _check_finite(out_data, op)
    out = _leaf(out_data, any(p.requires_grad for p in parents), None)
    if _records(parents):
        _active_tape()._record(out, backward_fn)
    return out


def add(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    out_data = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make_op(out_data, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    out_data = a.data - b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make_op(out_data, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    out_data = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make_op(out_data, (a, b), bwd, "mul")


def div(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = a.data / b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make_op(out_data, (a, b), bwd, "div")


def relu(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        _accumulate(a, g * (a.data > 0.0))

    return _make_op(np.maximum(a.data, 0.0), (a,), bwd, "relu")


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape[1]} vs {b.shape[0]}")
    out_data = a.data @ b.data

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make_op(out_data, (a, b), bwd, "matmul")


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got shape {a.shape}")

    def bwd(g):
        _accumulate(a, g.T)

    return _make_op(a.data.T.copy(), (a,), bwd, "transpose")


def astype(a, dtype) -> Tensor:
    """Cast to float32 or float64; the gradient flows back in ``a``'s dtype."""
    a = _as_tensor(a)
    dtype = np.dtype(dtype)
    if dtype != np.float32 and dtype != np.float64:
        raise TensorError(f"astype supports float32 and float64, got {dtype}")

    def bwd(g):
        _accumulate(a, g)  # a.grad has a's dtype, so this casts back

    return _make_op(a.data.astype(dtype), (a,), bwd, "astype")


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy() if np.ndim(g) == 0
                        else np.full(a.shape, g.reshape(())))
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        _accumulate(a, np.broadcast_to(gg, a.shape).copy())

    return _make_op(np.asarray(out_data), (a,), bwd, "sum")


def gather_rows(a, indices) -> Tensor:
    """Select rows of a 2-D tensor; gradient scatter-adds back by row index."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows index out of range for {a.shape[0]} rows")
    out_data = a.data[idx]

    def bwd(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

    return _make_op(out_data, (a,), bwd, "gather_rows")


def select_stack(candidates: Sequence[Tensor], selected) -> Tensor:
    """Per-sample gather across a list of same-shaped ``[B, ...]`` tensors.

    ``out[b] = candidates[selected[b]][b]``.  The selection index is treated
    as a constant; gradients route only into the chosen candidate rows.
    """
    if not candidates:
        raise ShapeError("select_stack needs at least one candidate")
    cands = [_as_tensor(c) for c in candidates]
    base = cands[0].shape
    for c in cands[1:]:
        if c.shape != base:
            raise ShapeError(f"select_stack candidates disagree on shape: {c.shape} vs {base}")
    sel = np.asarray(selected, dtype=np.int64)
    if sel.ndim != 1 or sel.shape[0] != base[0]:
        raise ShapeError("select_stack selection must be one index per sample")
    if sel.size and (sel.min() < 0 or sel.max() >= len(cands)):
        raise ShapeError(f"select_stack index out of range for {len(cands)} candidates")

    out_data = np.empty(base, dtype=np.result_type(*(c.data for c in cands)))
    for r, c in enumerate(cands):
        rows = sel == r
        if rows.any():
            out_data[rows] = c.data[rows]

    def bwd(g):
        for r, c in enumerate(cands):
            if not c.requires_grad:
                continue
            rows = sel == r
            if not rows.any():
                continue
            if c.grad is None:
                c.grad = np.zeros_like(c.data)
            c.grad[rows] += g[rows]

    return _make_op(out_data, tuple(cands), bwd, "select_stack")


def parameter(data, name: Optional[str] = None) -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(data, requires_grad=True, name=name)
