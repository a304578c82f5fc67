"""Backward-pass verification: every op against central finite differences."""

import numpy as np
import pytest

from safemap.autodiff import (
    Rect,
    Tensor,
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
    transpose,
)

from gradcheck import grad_check

TOL = 1e-4
EPS = 1e-5


def test_sum_of_squares_is_tight():
    x = parameter(np.array([1.0, -2.0, 3.0]), name="x")
    report = grad_check(lambda: tensor_sum(x * x), [x], eps=EPS)
    assert report.max_rel_error < 1e-7


def test_constant_fn_has_zero_error():
    x = parameter(np.array([1.0, 2.0]), name="x")
    report = grad_check(lambda: tensor_sum(x * 0.0 + 5.0), [x], eps=EPS)
    assert report.max_rel_error == 0.0
    assert report.max_abs_error == 0.0


def test_conv_relu_sum_chain():
    rng = np.random.default_rng(11)
    x = parameter(rng.normal(size=(1, 2, 6, 6)), name="x")
    w = parameter(rng.normal(size=(3, 2, 3, 3)), name="w")
    b = parameter(rng.normal(size=3), name="b")
    report = grad_check(lambda: tensor_sum(relu(conv2d(x, w, b, stride=1, pad=0))),
                        [x, w, b], eps=EPS)
    assert report.max_rel_error < TOL


@pytest.mark.parametrize("seed", range(5))
def test_conv_strided_padded(seed):
    rng = np.random.default_rng(seed)
    x = parameter(rng.normal(size=(2, 2, 7, 6)), name="x")
    w = parameter(rng.normal(size=(3, 2, 3, 3)), name="w")
    b = parameter(rng.normal(size=3), name="b")

    def fn():
        h = conv2d(x, w, b, stride=2, pad=1)
        return tensor_sum(h * h)

    assert grad_check(fn, [x, w, b], eps=EPS).max_rel_error < TOL


@pytest.mark.parametrize("seed", range(5))
def test_linear(seed):
    rng = np.random.default_rng(100 + seed)
    x = parameter(rng.normal(size=(3, 4)), name="x")
    w = parameter(rng.normal(size=(5, 4)), name="w")
    b = parameter(rng.normal(size=5), name="b")
    report = grad_check(lambda: tensor_sum(linear(x, w, b) * linear(x, w, b)), [x, w, b], eps=EPS)
    assert report.max_rel_error < TOL


@pytest.mark.parametrize("seed", range(5))
def test_pools(seed):
    rng = np.random.default_rng(200 + seed)
    x = parameter(rng.normal(size=(2, 3, 8, 9)), name="x")

    def fn():
        a = roi_avg_pool(x, Rect(0, 8, 0, 9), (3, 4))  # the full map
        r = roi_avg_pool(x, Rect(1, 7, 2, 9), (3, 3))
        g = global_avg_pool(x)
        return tensor_sum(a * a) + tensor_sum(r * r) + tensor_sum(g * g)

    assert grad_check(fn, [x], eps=EPS).max_rel_error < TOL


@pytest.mark.parametrize("seed", range(5))
def test_concat_slice_transpose_sqrt(seed):
    rng = np.random.default_rng(300 + seed)
    a = parameter(rng.normal(size=(2, 2, 3, 3)), name="a")
    b = parameter(rng.normal(size=(2, 4, 3, 3)), name="b")
    m = parameter(rng.uniform(0.5, 2.0, size=(3, 4)), name="m")

    def fn():
        cat = channel_concat([a, b])
        # the name predates the slice and sqrt ops; m / (m + 1) takes div's
        # gradient through both operands in their place
        return tensor_sum(cat * cat) + tensor_sum(transpose(transpose(m)) / (m + 1.0))

    assert grad_check(fn, [a, b, m], eps=EPS).max_rel_error < TOL


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy(seed):
    rng = np.random.default_rng(400 + seed)
    logits = parameter(rng.normal(size=(4, 3)) * 2, name="logits")
    labels = rng.integers(0, 3, size=4)
    report = grad_check(lambda: softmax_cross_entropy(logits, labels), [logits], eps=EPS)
    assert report.max_rel_error < TOL


def test_gather_and_select_stack():
    rng = np.random.default_rng(500)
    x = parameter(rng.normal(size=(5, 3)), name="x")
    a = parameter(rng.normal(size=(3, 2, 2, 2)), name="a")
    b = parameter(rng.normal(size=(3, 2, 2, 2)), name="b")

    def fn():
        g = gather_rows(x, [4, 0, 0, 2])
        s = select_stack([a, b], [1, 0, 1])
        return tensor_sum(g * g) + tensor_sum(s * s)

    assert grad_check(fn, [x, a, b], eps=EPS).max_rel_error < TOL


def test_broadcast_arithmetic():
    rng = np.random.default_rng(600)
    a = parameter(rng.normal(size=(3, 4)), name="a")
    b = parameter(rng.normal(size=(4,)), name="b")
    c = parameter(rng.uniform(1.0, 2.0, size=(3, 1)), name="c")

    def fn():
        return tensor_sum((a + b) * c - a / c)

    assert grad_check(fn, [a, b, c], eps=EPS).max_rel_error < TOL


def test_report_carries_worst_location():
    x = parameter(np.array([2.0, 3.0]), name="weights")
    report = grad_check(lambda: tensor_sum(x * x), [x], eps=EPS)
    assert report.worst_param == "weights"
    assert report.checked == 2
    assert report.ok(TOL)
