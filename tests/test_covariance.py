"""Covariance matrices and alignment losses against pairwise brute force."""

import numpy as np
import pytest

from safemap.adapt.covariance import (
    AdaptError,
    FeatureBatch,
    cov_between,
    cov_within,
    loss_coral,
    loss_da,
)
from safemap.autodiff import Tape, Tensor, backward, gather_rows, tensor_sum

from gradcheck import grad_check
from oracles import coral_cov_naive, cov_between_naive, cov_within_naive


def rel_close(a, b, tol=1e-8):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1.0)
    return np.abs(a - b).max() / denom < tol


class TestHandCases:
    # x=[0,2], y=[1,3]: within = (2^2)*2 + (2^2)*2 = 16,
    # between = 1 + 9 + 1 + 1 = 12
    X = np.array([[0.0], [2.0]])
    Y = np.array([[1.0], [3.0]])

    def test_within_16(self):
        assert np.array_equal(cov_within(self.X, self.Y).data, [[16.0]])

    def test_between_12(self):
        assert np.array_equal(cov_between(self.X, self.Y).data, [[12.0]])

    def test_oracle_agrees_on_hand_case(self):
        assert np.array_equal(cov_within_naive(self.X, self.Y), [[16.0]])
        assert np.array_equal(cov_between_naive(self.X, self.Y), [[12.0]])

    def test_all_identical_within_zero(self):
        f = np.ones((5, 3)) * 2.5
        assert np.array_equal(cov_within(f, f.copy()).data, np.zeros((3, 3)))

    def test_identical_single_points_between_zero(self):
        p = np.array([[1.0, -2.0]])
        assert np.array_equal(cov_between(p, p.copy()).data, np.zeros((2, 2)))


class TestPairwiseOracles:
    def test_100_random_trials(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            nx = int(rng.integers(0, 33))
            ny = int(rng.integers(0, 33))
            d = int(rng.integers(1, 17))
            xs = rng.normal(size=(nx, d)) * rng.uniform(0.1, 10)
            ys = rng.normal(size=(ny, d)) * rng.uniform(0.1, 10)
            assert rel_close(cov_within(xs, ys).data, cov_within_naive(xs, ys))
            assert rel_close(cov_between(xs, ys).data, cov_between_naive(xs, ys))

    def test_exact_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            xs = rng.normal(size=(9, 6))
            ys = rng.normal(size=(5, 6))
            w = cov_within(xs, ys).data
            b = cov_between(xs, ys).data
            assert np.array_equal(w, w.T)
            assert np.array_equal(b, b.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            xs = rng.normal(size=(8, 5))
            ys = rng.normal(size=(6, 5))
            for m in (cov_within(xs, ys).data, cov_between(xs, ys).data):
                eig = np.linalg.eigvalsh(m)
                assert eig.min() >= -1e-9 * max(1.0, eig.max())


class TestDegenerateRule:
    def test_single_sample_class_contributes_zero(self):
        ys = np.array([[1.0, 0.0], [3.0, 1.0], [0.0, 2.0]])
        lone = np.array([[9.0, 9.0]])
        with_lone = cov_within(lone, ys).data
        without = cov_within(np.zeros((0, 2)), ys).data
        assert np.array_equal(with_lone, without)
        assert np.array_equal(without, cov_within_naive(np.zeros((0, 2)), ys))

    def test_empty_class_between_zero(self):
        ys = np.array([[1.0], [2.0]])
        assert np.array_equal(cov_between(np.zeros((0, 1)), ys).data, np.zeros((1, 1)))

    def test_both_empty_arrays_give_zero(self):
        empty = np.zeros((0, 3))
        assert np.array_equal(cov_within(empty, empty.copy()).data, np.zeros((3, 3)))
        assert np.array_equal(cov_between(empty, empty.copy()).data, np.zeros((3, 3)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(AdaptError):
            cov_between(np.ones((2, 3)), np.ones((2, 4)))


class TestFeatureBatch:
    def test_from_labels_partitions(self):
        feats = Tensor(np.arange(10.0).reshape(5, 2))
        labels = np.array([1, 0, 1, 0, 0])
        fb = FeatureBatch.from_labels(feats, labels)
        assert np.array_equal(fb.x.data, feats.data[[0, 2]])
        assert np.array_equal(fb.y.data, feats.data[[1, 3, 4]])
        assert fb.d == 2 and not fb.degenerate()

    def test_degenerate_flag(self):
        feats = Tensor(np.ones((3, 2)))
        fb = FeatureBatch.from_labels(feats, np.array([0, 0, 0]))
        assert fb.degenerate()

    def test_bad_label_rejected(self):
        with pytest.raises(AdaptError):
            FeatureBatch.from_labels(Tensor(np.ones((2, 2))), np.array([0, 2]))

    def test_gradients_reach_source_rows(self):
        feats = Tensor(np.random.default_rng(0).normal(size=(6, 3)),
                       requires_grad=True, name="f")
        labels = np.array([1, 0, 1, 0, 1, 0])
        with Tape() as tape:
            fb = FeatureBatch.from_labels(feats, labels)
            w, b = cov_within(fb.x, fb.y), cov_between(fb.x, fb.y)
            total = tensor_sum(w * w) + tensor_sum(b * b)
            tape.backward(total)
        assert feats.grad is not None and np.abs(feats.grad).max() > 0


class TestLossDa:
    def test_identical_batches_zero(self):
        rng = np.random.default_rng(3)
        xs, ys = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        src = FeatureBatch(x=xs, y=ys)
        tgt = FeatureBatch(x=xs.copy(), y=ys.copy())
        assert float(loss_da(src, tgt).data) == 0.0

    def test_substitution_case_equals_0_3125(self):
        # source covariances are (16, 12); target x=[0,3], y=[1,1] has
        # within 2*(3^2) + 0 = 18 and between 2*(1) + 2*(4) = 10. Both domains
        # have 2 + 2 rows, so within is divided by 2^2 + 2^2 = 8 and between
        # by 2*2 = 4: (16/8 - 18/8)^2 + (12/4 - 10/4)^2 = 0.3125, exact in
        # float arithmetic
        tx, ty = np.array([[0.0], [3.0]]), np.array([[1.0], [1.0]])
        assert np.array_equal(cov_within_naive(tx, ty), [[18.0]])
        assert np.array_equal(cov_between_naive(tx, ty), [[10.0]])
        src = FeatureBatch(x=np.array([[0.0], [2.0]]), y=np.array([[1.0], [3.0]]))
        assert float(loss_da(src, FeatureBatch(x=tx, y=ty)).data) == 0.3125

    def test_row_duplication_invariance(self):
        # every pair count grows 4x with each row doubled, and so does every
        # pair sum, so the per-pair term does not depend on the batch size
        rng = np.random.default_rng(21)
        xs, ys = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        tx, ty = rng.normal(size=(4, 4)), rng.normal(size=(2, 4)) + 1.0
        base = float(loss_da(FeatureBatch(x=xs, y=ys), FeatureBatch(x=tx, y=ty)).data)
        twice = [np.concatenate([f, f]) for f in (xs, ys, tx, ty)]
        doubled = float(loss_da(FeatureBatch(x=twice[0], y=twice[1]),
                                FeatureBatch(x=twice[2], y=twice[3])).data)
        assert base > 0.0
        assert doubled == pytest.approx(base, rel=1e-12)

    def test_nonnegative_and_zero_iff_matching(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            src = FeatureBatch(x=rng.normal(size=(3, 2)), y=rng.normal(size=(4, 2)))
            tgt = FeatureBatch(x=rng.normal(size=(5, 2)), y=rng.normal(size=(2, 2)))
            assert float(loss_da(src, tgt).data) >= 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        xs, ys = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))
        tx, ty = rng.normal(size=(4, 4)), rng.normal(size=(7, 4))
        base = float(loss_da(FeatureBatch(x=xs, y=ys),
                             FeatureBatch(x=tx, y=ty)).data)
        for seed in range(5):
            r = np.random.default_rng(seed)
            perm = float(loss_da(
                FeatureBatch(x=xs[r.permutation(6)], y=ys[r.permutation(5)]),
                FeatureBatch(x=tx[r.permutation(4)], y=ty[r.permutation(7)])).data)
            assert perm == pytest.approx(base, rel=1e-12)

    def test_all_degenerate_batch_backpropagates(self):
        # every within class has < 2 samples and every between has an empty
        # class: the loss is a taped zero and its gradients are zero
        feats = Tensor(np.array([[1.0, 2.0], [3.0, -1.0]]), requires_grad=True, name="f")
        with Tape():
            src = FeatureBatch.from_labels(gather_rows(feats, [0]), np.array([1]))
            tgt = FeatureBatch.from_labels(gather_rows(feats, [1]), np.array([0]))
            loss = loss_da(src, tgt)
            backward(loss)
        assert float(loss.data) == 0.0
        assert np.array_equal(feats.grad, np.zeros((2, 2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        params = [Tensor(rng.normal(size=(3, 4)), requires_grad=True, name="sx"),
                  Tensor(rng.normal(size=(4, 4)), requires_grad=True, name="sy"),
                  Tensor(rng.normal(size=(5, 4)), requires_grad=True, name="tx"),
                  Tensor(rng.normal(size=(2, 4)), requires_grad=True, name="ty")]

        def fn():
            return loss_da(FeatureBatch(x=params[0], y=params[1]),
                           FeatureBatch(x=params[2], y=params[3]))

        report = grad_check(fn, params, eps=1e-5)
        assert report.max_rel_error < 1e-4


class TestLossCoral:
    def test_identical_zero(self):
        f = np.random.default_rng(1).normal(size=(6, 3))
        assert float(loss_coral(f, f.copy()).data) == 0.0

    def test_variance_4_vs_1_gives_9(self):
        src = np.array([[-2.0], [0.0], [2.0]])   # n-1 variance 4
        tgt = np.array([[-1.0], [0.0], [1.0]])   # n-1 variance 1
        assert coral_cov_naive(src)[0, 0] == 4.0
        assert coral_cov_naive(tgt)[0, 0] == 1.0
        assert float(loss_coral(src, tgt).data) == pytest.approx(9.0, rel=1e-12)

    def test_matches_naive_covariances(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            fs = rng.normal(size=(int(rng.integers(2, 20)), 5))
            ft = rng.normal(size=(int(rng.integers(2, 20)), 5))
            cs, ct = coral_cov_naive(fs), coral_cov_naive(ft)
            expect = ((cs - ct) ** 2).sum() / 5
            assert float(loss_coral(fs, ft).data) == pytest.approx(expect, rel=1e-10)

    def test_per_domain_mean_shift_invariance(self):
        rng = np.random.default_rng(4)
        fs, ft = rng.normal(size=(8, 3)), rng.normal(size=(6, 3))
        base = float(loss_coral(fs, ft).data)
        shifted = float(loss_coral(fs + rng.normal(size=3),
                                   ft + rng.normal(size=3)).data)
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_single_sample_rejected(self):
        with pytest.raises(AdaptError):
            loss_coral(np.ones((1, 3)), np.ones((4, 3)))

    def test_gradients(self):
        rng = np.random.default_rng(6)
        params = [Tensor(rng.normal(size=(5, 4)), requires_grad=True, name="fs"),
                  Tensor(rng.normal(size=(6, 4)), requires_grad=True, name="ft")]

        def fn():
            return loss_coral(params[0], params[1])

        report = grad_check(fn, params, eps=1e-5)
        assert report.max_rel_error < 1e-4
