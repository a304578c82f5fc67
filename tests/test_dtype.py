"""The dtype rule: a float32 batch computes in float32, parameters stay float64.

``batch_tensor`` is the one place that picks float32; every op follows its
input's dtype; parameters, their gradients, the SGD update and checkpoints
stay float64; the covariance losses and ``evaluate``'s softmax upcast to
float64.
"""

import numpy as np
import pytest

from safemap.adapt.covariance import FeatureBatch, loss_coral, loss_da
from safemap.autodiff import Tape, Tensor, backward, nn_ops, softmax_cross_entropy, tensor_sum
from safemap.autodiff import tensor as tensor_mod
from safemap.model import DamConfig, forward, init_params
from safemap.model.training import Dataset, batch_tensor, evaluate

SMALL = DamConfig(input_hw=(64, 64), stage_widths=(4, 6, 8, 10), local_widths=(6, 6), d=8)


def _images(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(n, 3, 64, 64), dtype=np.uint8)


def _dataset(n, seed=0):
    return Dataset(images=_images(n, seed), labels=np.arange(n) % 2, entries=[])


def test_batch_tensor_rounds_each_value_once_to_float32():
    u8 = np.arange(256, dtype=np.uint8).reshape(1, 1, 16, 16)
    x = batch_tensor(u8)
    assert x.data.dtype == np.float32
    np.testing.assert_array_equal(x.data, (u8 / 127.5 - 1.0).astype(np.float32))


@pytest.mark.parametrize("config", [DamConfig(), DamConfig(da_mode=True)],
                         ids=["default", "da_mode"])
def test_float32_batch_runs_every_op_in_float32(config, monkeypatch):
    # guards the speedup: a hard-coded float64 buffer or cast in any op
    # would upcast its output or the gradients it hands back
    outputs, grads = [], []
    real_make_op, real_accumulate = tensor_mod._make_op, tensor_mod._accumulate

    def make_op(out_data, parents, backward_fn, op):
        out = real_make_op(out_data, parents, backward_fn, op)
        outputs.append((op, out.data.dtype))
        return out

    def accumulate(t, g):
        grads.append((t.name, np.asarray(g).dtype))
        real_accumulate(t, g)

    for module in (nn_ops, tensor_mod):
        monkeypatch.setattr(module, "_make_op", make_op)
        monkeypatch.setattr(module, "_accumulate", accumulate)
    params = init_params(config, seed=0)
    with Tape():
        trace = forward(batch_tensor(_images(2)), params, config)
        backward(softmax_cross_entropy(trace.logits, np.array([0, 1])))
    convs = [dt for op, dt in outputs if op == "conv2d"]
    assert len(convs) >= 12
    assert all(dt == np.float32 for dt in convs)
    assert [(op, dt) for op, dt in outputs if dt != np.float32] == []
    # parameter gradients too are computed in float32, then added into
    # their float64 buffers
    assert grads and [(n, dt) for n, dt in grads if dt != np.float32] == []


@pytest.mark.parametrize("config", [DamConfig(), DamConfig(da_mode=True)],
                         ids=["default", "da_mode"])
def test_float32_predict_runs_every_op_in_float32(config, monkeypatch):
    # the tape-free twin: evaluate's stride-1 convs take the flat lowering,
    # whose buffers must follow the batch's dtype too
    outputs, flat_blocks = [], []
    real_make_op, real_conv_flat = tensor_mod._make_op, nn_ops._conv_flat

    def make_op(out_data, parents, backward_fn, op):
        out = real_make_op(out_data, parents, backward_fn, op)
        outputs.append((op, out.data.dtype))
        return out

    def conv_flat(*args):
        out = real_conv_flat(*args)
        flat_blocks.append(tuple(a.dtype for a in args if isinstance(a, np.ndarray)) + (out.dtype,))
        return out

    for module in (nn_ops, tensor_mod):
        monkeypatch.setattr(module, "_make_op", make_op)
    monkeypatch.setattr(nn_ops, "_conv_flat", conv_flat)
    _, _, probs = evaluate(_dataset(3), init_params(config, seed=0), config)
    convs = [dt for op, dt in outputs if op == "conv2d"]
    assert len(convs) >= 12 and len(flat_blocks) >= 9
    # the loss is float32 too
    assert [(op, dt) for op, dt in outputs if dt != np.float32] == []
    assert set(flat_blocks) == {(np.dtype(np.float32),) * 5}  # xt, wi, flat, buf, sum
    assert probs.dtype == np.float64 and probs.shape == (3, 2)


def test_parameters_and_gradients_stay_float64():
    params = init_params(SMALL, seed=0)
    with Tape():
        trace = forward(batch_tensor(_images(4)), params, SMALL)
        backward(softmax_cross_entropy(trace.logits, np.array([0, 1, 0, 1])))
    assert trace.logits.data.dtype == np.float32
    gradless = {id(p) for p in params.expected_gradless(SMALL)}
    for p in params.all():
        assert p.data.dtype == np.float64, p.name
        if id(p) not in gradless:
            assert p.grad is not None and p.grad.dtype == np.float64, p.name


def test_predict_gives_float64_probabilities():
    params = init_params(SMALL, seed=3)
    _, _, probs = evaluate(_dataset(6, seed=1), params, SMALL)
    assert probs.dtype == np.float64
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    logits = forward(batch_tensor(_images(6, seed=1)), params, SMALL).logits.data
    np.testing.assert_array_equal(probs.argmax(axis=1), logits.argmax(axis=1))


def _feature_rows(seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, 8)).astype(np.float32) for n in (3, 5, 4, 4)]


def test_loss_da_upcasts_float32_features():
    sx, sy, tx, ty = _feature_rows(0)
    f32 = [Tensor(a, requires_grad=True) for a in (sx, sy, tx, ty)]
    f64 = [Tensor(a.astype(np.float64), requires_grad=True) for a in (sx, sy, tx, ty)]
    losses = []
    for f in (f32, f64):
        with Tape():
            loss = loss_da(FeatureBatch(x=f[0], y=f[1]), FeatureBatch(x=f[2], y=f[3]))
            backward(loss)
        losses.append(loss)
    assert losses[0].data.dtype == np.float64
    assert losses[0].item() == pytest.approx(losses[1].item(), rel=1e-12)
    for a, b in zip(f32, f64):
        assert a.grad.dtype == np.float32
        np.testing.assert_array_equal(a.grad, b.grad.astype(np.float32))


def test_loss_coral_upcasts_float32_features():
    sx, _, tx, _ = _feature_rows(1)
    a = loss_coral(Tensor(sx), Tensor(tx))
    b = loss_coral(Tensor(sx.astype(np.float64)), Tensor(tx.astype(np.float64)))
    assert a.data.dtype == np.float64
    assert a.item() == pytest.approx(b.item(), rel=1e-12)


_SCALAR_OPS = {
    "t * 0.5": lambda t: t * 0.5, "0.5 * t": lambda t: 0.5 * t,
    "t + 1": lambda t: t + 1, "1 + t": lambda t: 1 + t,
    "t - 2.0": lambda t: t - 2.0, "2.0 - t": lambda t: 2.0 - t,
    "t / 3": lambda t: t / 3, "1 / t": lambda t: 1 / t,
}


@pytest.mark.parametrize("expr", sorted(_SCALAR_OPS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_python_scalar_takes_the_tensor_dtype(expr, dtype):
    # a Python scalar must not upcast float32; the float64 paths (covariance,
    # gradcheck, oracles) must give exactly numpy's float64 result
    data = np.array([0.5, 1.5, -2.0, 3.0], dtype=dtype)
    t = Tensor(data, requires_grad=True)
    with Tape():
        out = _SCALAR_OPS[expr](t)
        backward(tensor_sum(out))
    assert out.data.dtype == dtype and t.grad.dtype == dtype
    np.testing.assert_array_equal(out.data, _SCALAR_OPS[expr](data))


@pytest.mark.parametrize("other", [np.float64(0.5), np.array(0.5), np.array([0.5])],
                         ids=["np.float64", "0-d", "1-d"])
def test_float64_numpy_operand_still_promotes(other):
    # numpy's own operators take precedence when a numpy value comes first,
    # so the reflected direction is checked through the op function
    t = Tensor(np.ones(1, dtype=np.float32))
    for op in (tensor_mod.add, tensor_mod.sub, tensor_mod.mul, tensor_mod.div):
        assert op(t, other).data.dtype == np.float64
        assert op(other, t).data.dtype == np.float64
    assert (t * other).data.dtype == np.float64
