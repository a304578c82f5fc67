"""Central-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from safemap.autodiff import Tape, Tensor, backward


@dataclass
class GradCheckReport:
    """Worst-case comparison between analytic and numeric gradients."""

    max_rel_error: float
    max_abs_error: float
    worst_param: str
    worst_index: tuple
    checked: int

    def ok(self, tol: float) -> bool:
        return self.max_rel_error <= tol


def grad_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float = 1e-5) -> GradCheckReport:
    """Compare tape gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must rebuild the forward pass from the current parameter
    values on each call and return a scalar tensor.  Analytic gradients are
    taken from one taped run; each parameter entry then costs two extra
    forward passes.  Relative error per coordinate is
    ``|a - n| / max(|a|, |n|, 1e-8)``.  The analytic gradients are left in
    ``grad`` afterwards.
    """
    for p in params:
        p.grad = None
    with Tape():
        backward(loss_fn())
    analytic = []
    for p in params:
        if not p.requires_grad:
            raise ValueError(f"grad_check param {p.name!r} does not require grad")
        analytic.append(np.zeros_like(p.data) if p.grad is None else p.grad.copy())

    worst = GradCheckReport(0.0, 0.0, "", (), 0)
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            f_plus = loss_fn().item()
            flat[k] = orig - eps
            f_minus = loss_fn().item()
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            abs_err = abs(a.reshape(-1)[k] - numeric)
            rel_err = abs_err / max(abs(a.reshape(-1)[k]), abs(numeric), 1e-8)
            worst.checked += 1
            if rel_err > worst.max_rel_error:
                idx = tuple(int(i) for i in np.unravel_index(k, p.shape)) if p.shape else ()
                worst = GradCheckReport(rel_err, abs_err, p.name or "<unnamed>", idx,
                                        worst.checked)
            elif abs_err > worst.max_abs_error:
                worst.max_abs_error = abs_err
        p.grad = a
    return worst
