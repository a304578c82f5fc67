"""Metric definitions, with safe as the positive class."""

import numpy as np
import pytest

from safemap.report import (
    Confusion,
    MetricsError,
    confusion,
    metrics_from_confusion,
)

SAFE, DANG = 0, 1


def metrics(predictions, labels):
    """Metrics over hard predictions, the way ``safemap eval`` computes them."""
    return metrics_from_confusion(confusion(predictions, labels))


def vec(pairs):
    """pairs of (label, prediction, count) -> (predictions, labels)."""
    labels, preds = [], []
    for lab, pred, n in pairs:
        labels += [lab] * n
        preds += [pred] * n
    return np.array(preds), np.array(labels)


class TestHumanStudyAccuracy:
    # The human study's outcome table, in % of all responses: the decided
    # cells are safe->safe 40.41, safe->dang 5.56, dang->safe 26.80,
    # dang->dang 22.37; unsure answers (4.32 safe, 0.51 dangerous) and the
    # 0.03 discarded count as errors. Scaled by 100 this gives integer
    # counts totalling 10000, and accuracy (4041+2237)/10000 = 0.6278.
    def test_accuracy_62_78(self):
        preds, labels = vec([
            (SAFE, SAFE, 4041),
            (SAFE, DANG, 556 + 432),        # decided wrong + unsure
            (DANG, SAFE, 2680 + 51),        # decided wrong + unsure
            (DANG, DANG, 2237),
            (SAFE, DANG, 2), (DANG, SAFE, 1),  # the 0.03% discarded
        ])
        assert preds.size == 10000
        rep = metrics(preds, labels)
        assert rep.accuracy == pytest.approx(0.6278, abs=1e-12)
        assert round(rep.accuracy * 100, 2) == 62.78

    def test_decided_only_precision_is_0_601(self):
        # restricted to decided answers the safe-positive precision matches
        # the study's reported 0.601
        preds, labels = vec([
            (SAFE, SAFE, 4041), (SAFE, DANG, 556),
            (DANG, SAFE, 2680), (DANG, DANG, 2237),
        ])
        rep = metrics(preds, labels)
        assert round(rep.precision, 3) == 0.601


class TestFprDefinition:
    def test_3_of_10_dangerous_predicted_safe(self):
        preds, labels = vec([
            (DANG, SAFE, 3), (DANG, DANG, 7),
            (SAFE, SAFE, 5),
        ])
        rep = metrics(preds, labels)
        assert rep.fpr == 0.30
        assert rep.confusion.fp == 3 and rep.confusion.tn == 7

    def test_fpr_monotone_as_errors_flip_correct(self):
        prev = None
        for wrong in range(5, -1, -1):
            preds, labels = vec([
                (DANG, SAFE, wrong), (DANG, DANG, 10 - wrong),
                (SAFE, SAFE, 4),
            ])
            f = metrics(preds, labels).fpr
            if prev is not None:
                assert f <= prev
            prev = f

    def test_all_correct(self):
        preds, labels = vec([(SAFE, SAFE, 6), (DANG, DANG, 4)])
        rep = metrics(preds, labels)
        assert rep.accuracy == 1.0 and rep.fpr == 0.0 and rep.f1 == 1.0
        assert not rep.zero_division


class TestZeroDivision:
    def test_no_dangerous_samples_flags_fpr(self):
        preds, labels = vec([(SAFE, SAFE, 5)])
        rep = metrics(preds, labels)
        assert rep.fpr == 0.0 and "fpr" in rep.zero_division

    def test_nothing_predicted_safe_flags_precision(self):
        preds, labels = vec([(SAFE, DANG, 3), (DANG, DANG, 3)])
        rep = metrics(preds, labels)
        assert rep.precision == 0.0 and "precision" in rep.zero_division
        assert rep.f1 == 0.0 and "f1" in rep.zero_division


class TestValidationAndRoundTrip:
    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            metrics([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            metrics([0, 1], [0])

    def test_non_binary_rejected(self):
        with pytest.raises(MetricsError):
            metrics([0, 2], [0, 1])

    def test_negative_confusion_rejected(self):
        with pytest.raises(MetricsError):
            Confusion(tp=-1, fp=0, tn=0, fn=0)

    def test_confusion_roundtrip_reproduces_scalars(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            rep = metrics(preds, labels)
            again = metrics_from_confusion(rep.confusion)
            assert again == rep
            c = rep.confusion
            assert c.total == n
            assert rep.accuracy == (c.tp + c.tn) / n
