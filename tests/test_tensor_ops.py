"""Forward-value checks for the tensor engine ops, and conv2d gradients.

Derived expectations are frozen from the brute-force oracles in oracles.py;
the random-shape tests recompute the oracle inline.
"""

import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemap.autodiff import (
    NonFiniteError,
    Rect,
    ShapeError,
    Tape,
    Tensor,
    TensorError,
    astype,
    backward,
    channel_concat,
    conv2d,
    gather_rows,
    global_avg_pool,
    linear,
    parameter,
    relu,
    roi_avg_pool,
    select_stack,
    softmax_cross_entropy,
    tensor_sum,
)
from safemap.autodiff import nn_ops
from oracles import (
    adaptive_avg_pool_naive,
    conv2d_backward_naive,
    conv2d_naive,
    cross_entropy_naive,
    roi_avg_pool_backward_naive,
    roi_avg_pool_naive,
)


class TestConv2d:
    def test_all_ones_3x3_sums_to_nine(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = conv2d(x, w, b, stride=1, pad=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == pytest.approx(9.0, abs=0)

    def test_identity_kernel_passes_input_through(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 1, 4, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, w, Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_diagonal_kernel_on_2x2(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        w = Tensor(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
        out = conv2d(x, w, Tensor(np.zeros(1)))
        assert out.item() == pytest.approx(5.0, abs=0)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_naive_oracle(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.normal(size=(2, 3, 7, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
        expect = conv2d_naive(x, w, b, stride, pad)
        np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)

    def test_channel_mismatch_names_dimension(self):
        with pytest.raises(ShapeError, match="channel"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


def _conv_backward(x, w, b, stride, pad, seed):
    """Run conv2d and backpropagate a random upstream gradient g; returns (out, g)."""
    with Tape():
        out = conv2d(x, w, b, stride=stride, pad=pad)
        g = np.random.default_rng(seed).normal(size=out.shape)
        backward(tensor_sum(out * Tensor(g)))
    return out, g


class TestConv2dBackward:
    """Gradients of the recorded conv against the plain-loop oracle.

    The weight gradient is one GEMM against the forward's ``cols``; the
    input gradient is a tape-free conv2d of the upstream gradient,
    zero-dilated by the stride, with the flipped kernel.  The grid's
    strides and pads reach its every border: padded at stride 1, dilated
    at stride 2 and 3, and cropped where pad >= kernel (a 1x1 kernel at
    pad 1 or 2, a 2x3 kernel at pad 2).
    """

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (2, 3)])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_naive_oracle(self, stride, pad, kernel, batch):
        rng = np.random.default_rng([stride, pad, kernel[0], kernel[1], batch])
        x = parameter(rng.normal(size=(batch, 2, 7, 9)), name="x")
        w = parameter(rng.normal(size=(3, 2) + kernel), name="w")
        b = parameter(rng.normal(size=3), name="b")
        out, g = _conv_backward(x, w, b, stride, pad, seed=1)
        gx, gw, gb = conv2d_backward_naive(x.data, w.data, g, stride, pad)
        np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, gb, rtol=0, atol=1e-12)
        assert out.data.dtype == np.float64
        assert out.data.flags.c_contiguous
        np.testing.assert_allclose(out.data, conv2d_naive(x.data, w.data, b.data, stride, pad),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_input_without_grad(self, stride, pad):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 6, 5)))
        w = parameter(rng.normal(size=(4, 3, 3, 3)), name="w")
        b = parameter(rng.normal(size=4), name="b")
        _, g = _conv_backward(x, w, b, stride, pad, seed=2)
        _, gw, gb = conv2d_backward_naive(x.data, w.data, g, stride, pad)
        assert x.grad is None
        np.testing.assert_allclose(w.grad, gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, gb, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 2)])
    def test_weight_without_grad(self, stride, pad):
        rng = np.random.default_rng(12)
        x = parameter(rng.normal(size=(2, 3, 6, 5)), name="x")
        w = Tensor(rng.normal(size=(4, 3, 2, 3)))
        b = Tensor(rng.normal(size=4))
        _, g = _conv_backward(x, w, b, stride, pad, seed=3)
        gx, _, _ = conv2d_backward_naive(x.data, w.data, g, stride, pad)
        assert w.grad is None and b.grad is None
        np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)

    def test_no_bias(self):
        rng = np.random.default_rng(13)
        x = parameter(rng.normal(size=(1, 2, 5, 5)), name="x")
        w = parameter(rng.normal(size=(2, 2, 3, 3)), name="w")
        _, g = _conv_backward(x, w, None, 1, 1, seed=4)
        gx, gw, _ = conv2d_backward_naive(x.data, w.data, g, 1, 1)
        np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, gw, rtol=0, atol=1e-12)


def _close32(actual, expected):
    """float32 result against a float64 oracle: ~100 float32 roundings
    (eps 1.2e-7) per entry, measured against the largest entry."""
    np.testing.assert_allclose(actual, expected, rtol=1e-5,
                               atol=1e-5 * np.abs(expected).max())


class TestConv2dFloat32:
    """float32 inputs against the float64 oracles on the same values."""

    # the stride x pad x kernel x batch grid of the float64 oracle test
    pytestmark = TestConv2dBackward.test_matches_naive_oracle.pytestmark

    def test_matches_float64_oracle(self, stride, pad, kernel, batch):
        rng = np.random.default_rng([stride, pad, kernel[0], kernel[1], batch])
        x = Tensor(rng.normal(size=(batch, 2, 7, 9)).astype(np.float32), requires_grad=True)
        # parameters stay float64 and are cast to x's dtype inside conv2d
        w = parameter(rng.normal(size=(3, 2) + kernel).astype(np.float32).astype(np.float64),
                      name="w")
        b = parameter(rng.normal(size=3).astype(np.float32).astype(np.float64), name="b")
        out, g = _conv_backward(x, w, b, stride, pad, seed=1)
        x64 = x.data.astype(np.float64)
        assert out.data.dtype == np.float32 and x.grad.dtype == np.float32
        assert w.grad.dtype == np.float64 and b.grad.dtype == np.float64
        _close32(out.data, conv2d_naive(x64, w.data, b.data, stride, pad))
        g32 = g.astype(np.float32).astype(np.float64)  # the upstream gradient conv2d saw
        gx, gw, gb = conv2d_backward_naive(x64, w.data, g32, stride, pad)
        _close32(x.grad, gx)
        _close32(w.grad, gw)
        _close32(b.grad, gb)


def _count_blocks(monkeypatch, helper="_im2col"):
    """Spy on nn_ops._im2col (or _conv_flat); returns the block sizes its calls see."""
    real, calls = getattr(nn_ops, helper), []
    monkeypatch.setattr(nn_ops, helper,
                        lambda *a, **k: calls.append(a[0].shape[1]) or real(*a, **k))
    return calls


class TestConv2dBlocks:
    """A tape-free conv streams sample blocks of CHUNK_BYTES; a recorded one runs one block.

    A tape-free stride-1 conv of more than one sample with pad < kernel runs
    its blocks through ``_conv_flat``, whose shifted copies hold
    Cin*kw*(H+pad)*(W+pad) values per sample; every other tape-free conv
    runs them through ``_im2col``.
    """

    @staticmethod
    def _inputs(batch, stride, pad, k):
        rng = np.random.default_rng([batch, stride, pad, k])
        x = Tensor(rng.normal(size=(batch, 3, 9, 8)).astype(np.float32))
        return x, Tensor(rng.normal(size=(4, 3, k, k))), Tensor(rng.normal(size=4))

    @pytest.mark.parametrize("per_block", [1, 2])
    @pytest.mark.parametrize("batch", [1, 4, 5])
    @pytest.mark.parametrize("stride,pad,k", list(itertools.product([1, 2], [0, 1], [1, 3])))
    def test_blocks_match_one_block(self, monkeypatch, per_block, batch, stride, pad, k):
        x, w, b = self._inputs(batch, stride, pad, k)
        whole = conv2d(x, w, b, stride=stride, pad=pad).data
        Ho, Wo = whole.shape[2:]
        flat = stride == 1 and pad < k and batch > 1
        per_sample = 3 * k * (9 + pad) * (8 + pad) if flat else 3 * k * k * Ho * Wo
        monkeypatch.setattr(nn_ops, "CHUNK_BYTES", per_block * per_sample * 4)
        calls = _count_blocks(monkeypatch, "_conv_flat" if flat else "_im2col")
        blocks = conv2d(x, w, b, stride=stride, pad=pad).data
        assert calls == [min(per_block, batch - b0) for b0 in range(0, batch, per_block)]
        assert blocks.dtype == np.float32 and blocks.flags.c_contiguous
        np.testing.assert_allclose(blocks, whole, rtol=1e-5, atol=1e-5 * np.abs(whole).max())

    def test_im2col_fills_the_given_buffer(self):
        xt = np.random.default_rng(0).normal(size=(2, 3, 5, 6))
        buf = np.empty(2 * 3 * 3 * 3 * 3 * 4)
        cols = nn_ops._im2col(xt, 3, 3, 1, 0, 3, 4, out=buf)
        assert np.shares_memory(cols, buf)
        np.testing.assert_array_equal(cols, nn_ops._im2col(xt, 3, 3, 1, 0, 3, 4))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_input_gradient_conv_runs_in_blocks(self, monkeypatch, dtype, stride):
        # the recorded forward (im2col) is one block; the input gradient's
        # tape-free conv takes the flat path, over g bordered by 1 at stride 1
        # ([5, 4, 9, 8] at pad 1) and over g dilated and bordered at stride 2
        # ([5, 4, 11, 10] at pad 0), in blocks of 2, 2 and 1
        rng = np.random.default_rng([stride, 7])
        x = Tensor(rng.normal(size=(5, 3, 9, 8)).astype(dtype), requires_grad=True)
        w = parameter(rng.normal(size=(4, 3, 3, 3)).astype(dtype).astype(np.float64), name="w")
        monkeypatch.setattr(nn_ops, "CHUNK_BYTES", 2 * 4 * 3 * 11 * 10 * x.data.itemsize)
        calls = _count_blocks(monkeypatch, "_conv_flat")
        _, g = _conv_backward(x, w, None, stride, 1, seed=6)
        assert calls == [2, 2, 1]
        g = g.astype(dtype).astype(np.float64)  # the upstream gradient conv2d saw
        gx, _, _ = conv2d_backward_naive(x.data.astype(np.float64), w.data, g, stride, 1)
        assert x.grad.dtype == dtype
        if dtype == np.float64:
            np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)
        else:
            _close32(x.grad, gx)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_recorded_conv_runs_one_block(self, monkeypatch, stride, pad):
        x, w, b = self._inputs(5, stride, pad, 3)
        wp, bp = parameter(w.data, name="w"), parameter(b.data, name="b")
        out, _ = _conv_backward(x, wp, bp, stride, pad, seed=5)
        want = (out.data, wp.grad, bp.grad)
        wp.grad = bp.grad = None
        monkeypatch.setattr(nn_ops, "CHUNK_BYTES", 1)
        calls = _count_blocks(monkeypatch)
        out, _ = _conv_backward(x, wp, bp, stride, pad, seed=5)
        assert calls[0] == 5  # the forward's one block; a backward may add its own call
        for got, exp in zip((out.data, wp.grad, bp.grad), want):
            assert got.tobytes() == exp.tobytes()


class TestConv2dFlat:
    """The tape-free stride-1 lowering against the recorded im2col conv and the oracle.

    It adds each dot product as kh partial sums, so it agrees with the
    recorded path to float32 rounding, not bit for bit.  A batch of one
    keeps im2col.
    """

    @staticmethod
    def _check(x, w, b, pad):
        free = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=pad).data
        with Tape():
            recorded = conv2d(Tensor(x), parameter(w, name="w"), Tensor(b), stride=1, pad=pad)
        cast = [a.astype(x.dtype).astype(np.float64) for a in (w, b)]  # what conv2d computed with
        expect = conv2d_naive(x.astype(np.float64), *cast, 1, pad)
        assert free.dtype == x.dtype and free.flags.c_contiguous
        assert free.shape == recorded.shape == expect.shape
        _close32(free, expect)
        _close32(free, recorded.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 2, 5, 7, 64])
    @pytest.mark.parametrize("k,pad", [(1, 0), (3, 0), (3, 1)])
    @pytest.mark.parametrize("hw", [(9, 8), (5, 11)])
    def test_matches_recorded_conv_and_oracle(self, dtype, batch, k, pad, hw):
        rng = np.random.default_rng([batch, k, pad, *hw])
        x = rng.normal(size=(batch, 3) + hw).astype(dtype)
        self._check(x, rng.normal(size=(4, 3, k, k)), rng.normal(size=4), pad)

    @pytest.mark.parametrize("k,pad", [(1, 0), (3, 0), (3, 1)])
    def test_short_last_block_reads_no_stale_pixels(self, monkeypatch, k, pad):
        # blocks of 2, 2 and 1: past the last block's one image, the buffer
        # still holds the previous block's pixels, here 1e4 times larger
        rng = np.random.default_rng([k, pad])
        x = rng.normal(size=(5, 3, 9, 8)).astype(np.float32)
        x[:4] *= 1e4
        monkeypatch.setattr(nn_ops, "CHUNK_BYTES", 2 * 3 * k * (9 + pad) * (8 + pad) * 4)
        calls = _count_blocks(monkeypatch, "_conv_flat")
        w, b = rng.normal(size=(4, 3, k, k)), rng.normal(size=4)
        last = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=pad).data[4:]
        assert calls == [2, 2, 1]
        expect = conv2d_naive(x[4:].astype(np.float64), w.astype(np.float32).astype(np.float64),
                              b.astype(np.float32).astype(np.float64), 1, pad)
        _close32(last, expect)

    def test_other_convs_keep_im2col(self, monkeypatch):
        calls = _count_blocks(monkeypatch, "_conv_flat")
        x = np.random.default_rng(0).normal(size=(2, 3, 9, 8))
        conv2d(Tensor(x), Tensor(np.ones((4, 3, 1, 1))), stride=1, pad=1)  # pad >= kernel
        conv2d(Tensor(x), Tensor(np.ones((4, 3, 3, 3))), stride=2, pad=1)
        conv2d(Tensor(x[:1]), Tensor(np.ones((4, 3, 3, 3))), stride=1, pad=1)  # one sample
        assert calls == []
        conv2d(Tensor(x), Tensor(np.ones((4, 3, 3, 3))), stride=1, pad=1)
        assert calls == [2]


class TestFloat32Outputs:
    """Every op on the model's path keeps a float32 input float32."""

    def test_linear(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        out = linear(x, Tensor(rng.normal(size=(2, 4))), Tensor(np.ones(2)))
        assert out.data.dtype == np.float32

    def test_roi_avg_pool(self):
        x = Tensor(np.arange(32, dtype=np.float32).reshape(1, 2, 4, 4))
        assert roi_avg_pool(x, Rect(0, 3, 1, 4), (2, 2)).data.dtype == np.float32

    def test_select_stack(self):
        cands = [Tensor(np.full((2, 3), v, dtype=np.float32)) for v in (1.0, 2.0)]
        out = select_stack(cands, [1, 0])
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, [[2, 2, 2], [1, 1, 1]])

    def test_softmax_cross_entropy(self):
        logits = Tensor(np.array([[1.0, -1.0], [0.5, 2.0]], dtype=np.float32))
        assert softmax_cross_entropy(logits, [0, 1]).data.dtype == np.float32

    def test_other_inputs_become_float64(self):
        assert Tensor(np.arange(3)).data.dtype == np.float64
        assert Tensor(np.ones(2, dtype=np.float16)).data.dtype == np.float64
        assert Tensor([1.0, 2.0]).data.dtype == np.float64


class TestAstype:
    def test_forward_casts_and_gradient_keeps_source_dtype(self):
        x = parameter(np.array([1.5, -2.0, 3.25]), name="x")
        with Tape():
            y = astype(x, np.float32)
            backward(tensor_sum(y * Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))))
        assert y.data.dtype == np.float32
        np.testing.assert_array_equal(y.data, x.data)
        assert x.grad.dtype == np.float64
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 3.0])

    def test_upcast_gradient_returns_float32(self):
        x = Tensor(np.array([0.5, 4.0], dtype=np.float32), requires_grad=True)
        with Tape():
            backward(tensor_sum(astype(x, np.float64) * 3.0))
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_rejects_non_float_dtype(self):
        with pytest.raises(TensorError, match="float32 and float64"):
            astype(Tensor([1.0]), np.int64)


class TestLinear:
    def test_identity_weight(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        out = linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x)

    def test_dot_product_example(self):
        out = linear(Tensor([[1.0, 2.0]]), Tensor([[1.0, 1.0]]), Tensor([0.0]))
        assert out.item() == pytest.approx(3.0, abs=0)

    def test_zero_weight_gives_bias_rows(self):
        b = np.array([2.0, -1.0])
        out = linear(Tensor(np.random.default_rng(2).normal(size=(5, 3))),
                     Tensor(np.zeros((2, 3))), Tensor(b))
        np.testing.assert_array_equal(out.data, np.tile(b, (5, 1)))

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="feature"):
            linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))))


class TestRelu:
    def test_elementwise_max(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_masked_where(self, dtype):
        fi = np.finfo(dtype)
        a = np.array([-0.0, 0.0, fi.smallest_subnormal, -fi.smallest_subnormal,
                      fi.tiny / 2, -fi.tiny / 2, 1.0, -1.0, fi.max, -fi.max], dtype=dtype)
        out = relu(Tensor(a)).data
        assert out.dtype == dtype
        assert out.tobytes() == np.where(a > 0, a, 0.0).astype(dtype).tobytes()

    def test_gradient_is_zero_at_zero(self):
        x = parameter(np.array([-0.0, 0.0, 5e-324, -1.0, 2.0]), name="x")
        with Tape():
            backward(tensor_sum(relu(x)))
        assert x.grad.tobytes() == np.array([0.0, 0.0, 1.0, 0.0, 1.0]).tobytes()


def full_map_pool(x, out_hw):
    """Adaptive average pooling: ``roi_avg_pool`` over the whole map."""
    return roi_avg_pool(x, Rect(0, x.shape[2], 0, x.shape[3]), out_hw)


class TestAdaptiveAvgPool:
    def test_2x2_to_1x1_is_mean(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = full_map_pool(x, (1, 1))
        assert out.item() == pytest.approx(2.5, abs=0)

    @pytest.mark.parametrize("hw,out_hw", [((7, 7), (7, 7)), ((31, 31), (7, 7)),
                                           ((8, 6), (3, 2)), ((5, 5), (4, 4))])
    def test_matches_naive_oracle(self, hw, out_hw):
        rng = np.random.default_rng(hw[0])
        x = rng.normal(size=(2, 3, *hw))
        out = full_map_pool(Tensor(x), out_hw)
        expect = adaptive_avg_pool_naive(x, *out_hw)
        np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(2, 9), st.integers(2, 9),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_global_mean_preserved_at_1x1(self, b, c, h, w, seed):
        x = np.random.default_rng(seed).normal(size=(b, c, h, w))
        out = full_map_pool(Tensor(x), (1, 1))
        np.testing.assert_allclose(out.data[:, :, 0, 0], x.mean(axis=(2, 3)), atol=1e-12)

    def test_pooling_up_is_rejected(self):
        with pytest.raises(ShapeError, match="empty bins"):
            full_map_pool(Tensor(np.zeros((1, 1, 3, 3))), (4, 4))


class TestRoiAvgPool:
    def test_full_region_identity_partition(self):
        x = np.random.default_rng(3).normal(size=(2, 2, 5, 6))
        out = roi_avg_pool(Tensor(x), Rect(0, 5, 0, 6), (5, 6))
        np.testing.assert_allclose(out.data, x, atol=0)

    def test_quadrant_means_on_4x4(self):
        vals = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = roi_avg_pool(Tensor(vals), Rect(0, 4, 0, 4), (2, 2))
        # quadrant means of [[0..3],[4..7],[8..11],[12..15]]
        expect = np.array([[[[2.5, 4.5], [10.5, 12.5]]]])
        np.testing.assert_array_equal(out.data, expect)

    def test_2x2_region_mean(self):
        x = np.array([[[[1.0, 3.0], [5.0, 7.0]]]])
        out = roi_avg_pool(Tensor(x), Rect(0, 2, 0, 2), (1, 1))
        assert out.item() == pytest.approx(4.0, abs=0)

    @pytest.mark.parametrize("rect,out_hw", [
        (Rect(1, 6, 2, 7), (3, 3)),
        (Rect(0, 9, 0, 4), (7, 2)),
        (Rect(3, 10, 1, 8), (7, 7)),
    ])
    def test_matches_naive_oracle(self, rect, out_hw):
        rng = np.random.default_rng(rect.top + rect.right)
        x = rng.normal(size=(2, 3, 10, 9))
        out = roi_avg_pool(Tensor(x), rect, out_hw)
        expect = roi_avg_pool_naive(x, rect.top, rect.bottom, rect.left, rect.right, *out_hw)
        np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)

    def test_degenerate_region_rejected(self):
        with pytest.raises(ShapeError):
            Rect(2, 2, 0, 4)

    def test_region_smaller_than_output_rejected(self):
        with pytest.raises(ShapeError, match="empty bins"):
            roi_avg_pool(Tensor(np.zeros((1, 1, 8, 8))), Rect(0, 4, 0, 4), (7, 7))

    def test_bins_checked_on_every_call(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        roi_avg_pool(x, Rect(0, 4, 0, 4), (2, 2))
        for out_hw, message in (((0, 2), "must be positive"), ((2, 5), "empty bins")):
            with pytest.raises(ShapeError, match=message):
                roi_avg_pool(x, Rect(0, 4, 0, 4), out_hw)


class TestPoolMatrixCache:
    @staticmethod
    def fresh(extent, bins, dtype):
        """The (Ph, Pw, area) of one pool, built with loops from the bin rule."""
        def matrix(length, out):
            m = np.zeros((out, length), dtype)
            for i in range(out):
                m[i, i * length // out:(i + 1) * length // out] = 1
            return m
        ph, pw = matrix(extent[0], bins[0]), matrix(extent[1], bins[1])
        return ph, pw, np.outer(ph.sum(axis=1), pw.sum(axis=1)).astype(dtype)

    @pytest.mark.parametrize("extent,bins", [((15, 16), (7, 7)), ((31, 31), (7, 7)),
                                             ((9, 4), (7, 2)), ((5, 6), (5, 6))])
    def test_equal_to_fresh_and_read_only(self, extent, bins):
        for dtype in (np.dtype(np.float32), np.dtype(np.float64)):
            cached = nn_ops._pool_matrices(extent, bins, dtype)
            for got, want in zip(cached, self.fresh(extent, bins, dtype)):
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes() and got.shape == want.shape
                assert not got.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    got[...] = 0

    def test_keyed_by_dtype(self):
        f32 = nn_ops._pool_matrices((12, 10), (3, 4), np.dtype(np.float32))
        f64 = nn_ops._pool_matrices((12, 10), (3, 4), np.dtype(np.float64))
        assert nn_ops._pool_matrices((12, 10), (3, 4), np.dtype(np.float32)) is f32
        assert [m.dtype for m in f32] == [np.float32] * 3
        assert [m.dtype for m in f64] == [np.float64] * 3
        x = np.random.default_rng(0).normal(size=(1, 2, 12, 10))
        out32 = roi_avg_pool(Tensor(x.astype(np.float32)), Rect(0, 12, 0, 10), (3, 4))
        out64 = roi_avg_pool(Tensor(x), Rect(0, 12, 0, 10), (3, 4))
        assert out32.data.dtype == np.float32 and out64.data.dtype == np.float64


# (map hw, rect, out hw): a rect grid, then the model's own shapes, the
# SQ4 blocks of the 31x31 stage-2 map and the 7x7 -> 7x7 fusion pool
ROI_CASES = [
    ((10, 9), Rect(1, 6, 2, 7), (3, 3)),
    ((10, 9), Rect(0, 9, 0, 4), (7, 2)),
    ((10, 9), Rect(3, 10, 1, 8), (7, 7)),
    ((31, 31), Rect(0, 15, 0, 15), (7, 7)),
    ((31, 31), Rect(0, 15, 15, 31), (7, 7)),
    ((31, 31), Rect(15, 31, 0, 15), (7, 7)),
    ((31, 31), Rect(15, 31, 15, 31), (7, 7)),
    ((7, 7), Rect(0, 7, 0, 7), (7, 7)),
]


def _roi_backward(x, rect, out_hw, seed):
    """Run roi_avg_pool and backpropagate a random upstream gradient g; returns (out, g)."""
    with Tape():
        out = roi_avg_pool(x, rect, out_hw)
        g = np.random.default_rng(seed).normal(size=out.shape)
        backward(tensor_sum(out * Tensor(g)))
    return out, g


class TestRoiAvgPoolBackward:
    """Gradients of the bin-matrix pooling against the plain-loop oracle."""

    @pytest.mark.parametrize("hw,rect,out_hw", ROI_CASES)
    def test_matches_naive_oracle(self, hw, rect, out_hw):
        rng = np.random.default_rng([hw[0], rect.top, rect.left])
        x = parameter(rng.normal(size=(2, 3, *hw)), name="x")
        out, g = _roi_backward(x, rect, out_hw, seed=1)
        box = (rect.top, rect.bottom, rect.left, rect.right)
        np.testing.assert_allclose(out.data, roi_avg_pool_naive(x.data, *box, *out_hw),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, roi_avg_pool_backward_naive(x.shape, g, *box),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("hw,rect,out_hw", ROI_CASES)
    def test_float32_matches_float64_oracle(self, hw, rect, out_hw):
        rng = np.random.default_rng([hw[0], rect.top, rect.left])
        x = Tensor(rng.normal(size=(2, 3, *hw)).astype(np.float32), requires_grad=True)
        out, g = _roi_backward(x, rect, out_hw, seed=1)
        assert out.data.dtype == np.float32 and x.grad.dtype == np.float32
        box = (rect.top, rect.bottom, rect.left, rect.right)
        _close32(out.data, roi_avg_pool_naive(x.data.astype(np.float64), *box, *out_hw))
        g32 = g.astype(np.float32).astype(np.float64)  # the upstream gradient the pool saw
        _close32(x.grad, roi_avg_pool_backward_naive(x.shape, g32, *box))


class TestNdarrayLeftOperand:
    """numpy defers to Tensor's reflected operators instead of looping over it."""

    @pytest.mark.parametrize("op,value,grad", [
        (operator.add, [2.5, 4.5], [1.0, 1.0]),
        (operator.sub, [-1.5, 3.5], [-1.0, -1.0]),
        (operator.mul, [1.0, 2.0], [0.5, 4.0]),
        (operator.truediv, [0.25, 8.0], [-0.125, -16.0]),
    ])
    def test_result_is_a_taped_tensor(self, op, value, grad):
        t = parameter(np.array([2.0, 0.5]), name="t")
        with Tape():
            out = op(np.array([0.5, 4.0]), t)
            backward(tensor_sum(out))
        assert isinstance(out, Tensor)
        np.testing.assert_array_equal(out.data, value)
        np.testing.assert_array_equal(t.grad, grad)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_float64_operand_promotes_float32_tensor(self, op):
        t = Tensor(np.array([2.0, 0.5], dtype=np.float32))
        assert op(np.array([0.5, 4.0]), t).data.dtype == np.float64
        assert op(np.float64(0.5), t).data.dtype == np.float64
        assert op(np.array([0.5, 4.0], dtype=np.float32), t).data.dtype == np.float32
        assert op(0.5, t).data.dtype == np.float32  # a Python float stays weak


class TestChannelConcat:
    def test_shape_arithmetic(self):
        a = Tensor(np.zeros((1, 3, 7, 7)))
        b = Tensor(np.zeros((1, 5, 7, 7)))
        assert channel_concat([a, b]).shape == (1, 8, 7, 7)

    def test_mismatched_extent_rejected(self):
        with pytest.raises(ShapeError, match="mismatch"):
            channel_concat([Tensor(np.zeros((1, 3, 7, 7))), Tensor(np.zeros((1, 3, 6, 7)))])

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_concat_then_slice_roundtrips(self, c1, c2, b, h, w, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(b, c1, h, w))
        bb = rng.normal(size=(b, c2, h, w))
        cat = channel_concat([Tensor(a), Tensor(bb)])
        np.testing.assert_array_equal(cat.data[:, :c1], a)
        np.testing.assert_array_equal(cat.data[:, c1:c1 + c2], bb)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_ln_k(self):
        out = softmax_cross_entropy(Tensor([[0.3, 0.3], [7.0, 7.0]]), [0, 1])
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-15)

    def test_saturated_correct_class(self):
        out = softmax_cross_entropy(Tensor([[50.0, 0.0]]), [0])
        assert out.item() < 1e-20

    def test_ln4_example(self):
        out = softmax_cross_entropy(Tensor([[0.0, math.log(3.0)]]), [0])
        assert out.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        out = softmax_cross_entropy(Tensor([[1000.0, -1000.0]]), [1])
        assert np.isfinite(out.item())

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ShapeError, match="range"):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])

    @given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_and_ln_k_iff_constant_rows(self, b, k, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(b, k)) * 3
        labels = rng.integers(0, k, size=b)
        loss = softmax_cross_entropy(Tensor(logits), labels).item()
        assert loss >= 0.0
        np.testing.assert_allclose(loss, cross_entropy_naive(logits, labels), atol=1e-10)
        const = softmax_cross_entropy(Tensor(np.full((b, k), 1.7)), labels).item()
        assert const == pytest.approx(math.log(k), abs=1e-12)
        # perturb one row: loss must move off ln k
        bumped = np.full((b, k), 1.7)
        bumped[0, 0] += 1.0
        moved = softmax_cross_entropy(Tensor(bumped), labels).item()
        assert abs(moved - math.log(k)) > 1e-6


class TestGatherSelect:
    def test_gather_rows_forward_and_scatter_backward(self):
        x = parameter(np.arange(12, dtype=np.float64).reshape(4, 3), name="x")
        with Tape():
            g = gather_rows(x, [2, 0, 2])
            loss = tensor_sum(g)
            backward(loss)
        np.testing.assert_array_equal(g.data, x.data[[2, 0, 2]])
        expect = np.zeros((4, 3))
        expect[2] = 2.0
        expect[0] = 1.0
        np.testing.assert_array_equal(x.grad, expect)

    def test_select_stack_routes_rows(self):
        a = parameter(np.ones((3, 2, 2, 2)) * 1.0, name="a")
        b = parameter(np.ones((3, 2, 2, 2)) * 2.0, name="b")
        sel = [1, 0, 1]
        with Tape():
            out = select_stack([a, b], sel)
            loss = tensor_sum(out)
            backward(loss)
        np.testing.assert_array_equal(out.data[0], b.data[0])
        np.testing.assert_array_equal(out.data[1], a.data[1])
        assert a.grad[1].sum() == 8.0 and a.grad[0].sum() == 0.0
        assert b.grad[0].sum() == 8.0 and b.grad[1].sum() == 0.0


class TestTapeAndErrors:
    def test_backward_requires_scalar(self):
        x = parameter(np.ones(3), name="x")
        with Tape() as t, pytest.raises(ShapeError, match="scalar"):
            y = x * 2.0
            t.backward(y)

    def test_sum_backward_all_ones(self):
        x = parameter(np.array([3.0, -1.0, 2.0]), name="x")
        with Tape():
            backward(tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_elementwise_square_gradient(self):
        x = parameter(np.array([1.0, 2.0]), name="x")
        with Tape():
            backward(tensor_sum(x * x))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        x = parameter(np.array([1.0]), name="x")
        with Tape():
            backward(tensor_sum(x + x))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_first_gradient_is_a_copy_in_the_buffers_dtype(self):
        from safemap.autodiff.tensor import _accumulate
        x = parameter(np.zeros(3), name="x")
        g = np.array([1.5, -0.0, 2.0], dtype=np.float32)
        _accumulate(x, g)
        assert x.grad.dtype == np.float64 and not np.shares_memory(x.grad, g)
        g[0] = 7.0
        assert x.grad.tolist() == [1.5, 0.0, 2.0] and np.signbit(x.grad[1])
        _accumulate(x, np.ones(3))
        assert x.grad.tolist() == [2.5, 1.0, 3.0]

    def test_nan_input_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])

    def test_non_finite_op_output_rejected(self):
        a = Tensor([1.0])
        b = Tensor([0.0])
        with pytest.raises(NonFiniteError):
            a / b

    def test_non_finite_op_output_names_the_op(self):
        with pytest.raises(NonFiniteError, match="^div produced"):
            Tensor([1.0]) / Tensor([0.0])

    def test_op_output_checked_once(self, monkeypatch):
        from safemap.autodiff import tensor as tensor_mod
        a, b = Tensor([1.0]), Tensor([2.0])
        real_check = tensor_mod._check_finite
        checked = []

        def counting_check(arr, op):
            checked.append(op)
            real_check(arr, op)

        monkeypatch.setattr(tensor_mod, "_check_finite", counting_check)
        out = a + b
        assert checked == ["add"]
        assert out.data.dtype == np.float64 and out.grad is None and out.name is None

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(Exception, match="already active"):
                with Tape():
                    pass

    def test_second_backward_raises_and_keeps_leaf_grads(self):
        x = parameter(np.array([1.0, -2.0]), name="x")
        with Tape() as tape:
            loss = tensor_sum(x * x)
            tape.backward(loss)
            want = x.grad.copy()
            with pytest.raises(TensorError, match="already ran backward"):
                tape.backward(loss)
        assert x.grad.tobytes() == want.tobytes()

    def test_loss_from_another_tape_rejected(self):
        x = parameter(np.array([1.0]), name="x")
        with Tape():
            other = tensor_sum(x * x)
        with Tape() as tape, pytest.raises(TensorError, match="not recorded on this tape"):
            tensor_sum(x + x)
            tape.backward(other)
        assert x.grad is None

    def test_only_leaves_keep_grad(self):
        rng = np.random.default_rng(2)
        x = parameter(rng.normal(size=(2, 2, 5, 5)), name="x")
        w = parameter(rng.normal(size=(3, 2, 3, 3)), name="w")
        with Tape():
            out = conv2d(x, w, pad=1)
            h = relu(out)
            loss = tensor_sum(h * h)
            backward(loss)
        assert out.grad is None and h.grad is None and loss.grad is None
        assert x.grad is not None and w.grad is not None

    def test_len_counts_recorded_ops_after_backward(self):
        x = parameter(np.ones(3), name="x")
        with Tape() as tape:
            loss = tensor_sum(relu(x * 2.0))  # mul, relu, sum
            assert len(tape) == 3
            backward(loss)
        assert len(tape) == 3

    def test_backward_frees_column_matrices(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 8, 32, 32)).astype(np.float32))
        w = parameter(rng.normal(size=(2, 8, 3, 3)), name="w")
        cols_bytes = (8 * 3 * 3) * (4 * 32 * 32) * 4  # [Cin*kh*kw, B*Ho*Wo] float32
        tracemalloc.start()
        try:
            with Tape() as tape:
                base = tracemalloc.get_traced_memory()[0]
                loss = tensor_sum(conv2d(x, w, pad=1))
                recorded = tracemalloc.get_traced_memory()[0] - base
                backward(loss)
                kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(tape) == 2  # the tape is still referenced
        assert recorded >= cols_bytes
        assert kept < cols_bytes // 4

    def test_backward_deterministic_bit_identical(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            x = parameter(rng.normal(size=(2, 2, 6, 6)), name="x")
            w = parameter(rng.normal(size=(3, 2, 3, 3)), name="w")
            with Tape():
                out = conv2d(x, w, stride=1, pad=1)
                h = relu(out)
                loss = tensor_sum(h * h)
                backward(loss)
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run(7)
        gx2, gw2 = run(7)
        assert gx1.tobytes() == gx2.tobytes()
        assert gw1.tobytes() == gw2.tobytes()

    def test_global_avg_pool_matches_mean(self):
        x = np.random.default_rng(5).normal(size=(3, 4, 5, 6))
        out = global_avg_pool(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)), atol=1e-12)
