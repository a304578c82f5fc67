"""Forward-value checks for the tensor engine ops, and conv2d gradients.

Derived expectations are frozen from the brute-force oracles in oracles.py;
the random-shape tests recompute the oracle inline.
"""

import math

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
    adaptive_avg_pool,
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
from oracles import (
    adaptive_avg_pool_naive,
    conv2d_backward_naive,
    conv2d_naive,
    cross_entropy_naive,
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
    """Gradients of the im2col/GEMM conv against the plain-loop oracle."""

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


class TestAdaptiveAvgPool:
    def test_2x2_to_1x1_is_mean(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = adaptive_avg_pool(x, (1, 1))
        assert out.item() == pytest.approx(2.5, abs=0)

    @pytest.mark.parametrize("hw,out_hw", [((7, 7), (7, 7)), ((31, 31), (7, 7)),
                                           ((8, 6), (3, 2)), ((5, 5), (4, 4))])
    def test_matches_naive_oracle(self, hw, out_hw):
        rng = np.random.default_rng(hw[0])
        x = rng.normal(size=(2, 3, *hw))
        out = adaptive_avg_pool(Tensor(x), out_hw)
        expect = adaptive_avg_pool_naive(x, *out_hw)
        np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(2, 9), st.integers(2, 9),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_global_mean_preserved_at_1x1(self, b, c, h, w, seed):
        x = np.random.default_rng(seed).normal(size=(b, c, h, w))
        out = adaptive_avg_pool(Tensor(x), (1, 1))
        np.testing.assert_allclose(out.data[:, :, 0, 0], x.mean(axis=(2, 3)), atol=1e-12)

    def test_pooling_up_is_rejected(self):
        with pytest.raises(ShapeError, match="empty bins"):
            adaptive_avg_pool(Tensor(np.zeros((1, 1, 3, 3))), (4, 4))


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
