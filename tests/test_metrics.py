"""Tests for accuracy, confusion matrices, ROC/AUC, and FN reduction."""

import numpy as np
import pytest

from jsbnn.metrics import ConfusionMatrix, accuracy, confusion, fn_reduction, roc_auc


def brute_force_auc(scores, labels):
    """Pairwise concordance with half credit for ties (Mann-Whitney)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_none_correct(self):
        assert accuracy([1, 0, 0], [0, 1, 1]) == 0.0

    def test_three_of_four(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 1, 1]) == 0.75

    def test_probability_rows_argmax(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
        # the tie on the last row resolves to class 0
        assert accuracy(probs, [0, 1, 0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])


class TestConfusion:
    def test_perfect_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        np.testing.assert_array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_inverted_binary_antidiagonal(self):
        cm = confusion([1, 1, 0, 0], [0, 0, 1, 1], 2)
        np.testing.assert_array_equal(cm.counts, [[0, 2], [2, 0]])

    def test_hand_counted_fixture(self):
        labels = [0, 0, 0, 1, 1, 1, 1, 0, 1, 0]
        preds = [0, 1, 0, 1, 1, 0, 1, 0, 0, 1]
        cm = confusion(preds, labels, 2)
        np.testing.assert_array_equal(cm.counts, [[3, 2], [2, 3]])
        assert cm.total == 10
        assert cm.false_negatives() == 2

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0, 2], 2)

    def test_accuracy_equals_trace_over_total(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 100))
            k = int(rng.integers(2, 5))
            labels = rng.integers(0, k, n)
            preds = rng.integers(0, k, n)
            cm = confusion(preds, labels, k)
            assert accuracy(preds, labels) == pytest.approx(np.trace(cm.counts) / cm.total)


class TestRocAuc:
    def test_perfect_separation(self):
        curve = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curve.auc == pytest.approx(1.0)

    def test_label_independent_scores_give_half(self):
        # constant scores tie every positive/negative pair
        curve = roc_auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0])
        assert curve.auc == pytest.approx(0.5, abs=1e-12)
        # symmetric wins/losses also cancel to exactly one half
        curve = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 0, 0, 1])
        assert curve.auc == pytest.approx(0.5, abs=1e-12)

    def test_six_sample_fixture(self):
        curve = roc_auc([0.9, 0.8, 0.7, 0.4, 0.3, 0.1], [1, 1, 0, 1, 0, 0])
        assert curve.auc == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_endpoints_present_and_monotone(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0, 1, 50)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        curve = roc_auc(scores, labels)
        np.testing.assert_array_equal(curve.points[0], [0.0, 0.0])
        np.testing.assert_array_equal(curve.points[-1], [1.0, 1.0])
        assert np.all(np.diff(curve.points[:, 0]) >= 0)
        assert np.all(np.diff(curve.points[:, 1]) >= 0)

    def test_matches_brute_force_concordance(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            n = int(rng.integers(4, 200))
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            if trial % 2:
                scores = np.round(rng.uniform(0, 1, n), 1)  # force ties
            else:
                scores = rng.uniform(0, 1, n)
            curve = roc_auc(scores, labels)
            assert curve.auc == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(0.01, 0.99, 80)
        labels = rng.integers(0, 2, 80)
        labels[:2] = [0, 1]
        a = roc_auc(scores, labels).auc
        b = roc_auc(np.log(scores / (1 - scores)), labels).auc
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.2, 0.8], [1, 1])


class TestFnReduction:
    def test_identical_is_zero(self):
        cm = ConfusionMatrix(np.array([[50, 10], [20, 40]]))
        assert fn_reduction(cm, cm) == 0.0

    def test_published_style_reductions(self):
        base = ConfusionMatrix(np.array([[500, 10], [100, 400]]))
        better_a = ConfusionMatrix(np.array([[500, 10], [88, 412]]))
        better_b = ConfusionMatrix(np.array([[500, 10], [87, 413]]))
        # 100 -> 88.3 is 11.7%; with integer counts 88 gives 12.0%
        assert fn_reduction(base, better_a) == pytest.approx(0.12, abs=1e-12)
        assert fn_reduction(base, better_b) == pytest.approx(0.13, abs=1e-12)

    def test_fractional_reference_values(self):
        # the exact 11.7% / 12.8% reductions, checked on scaled counts
        base = ConfusionMatrix(np.array([[0, 0], [1000, 0]]))
        a = ConfusionMatrix(np.array([[0, 0], [883, 117]]))
        b = ConfusionMatrix(np.array([[0, 0], [872, 128]]))
        assert fn_reduction(base, a) == pytest.approx(0.117, rel=1e-12)
        assert fn_reduction(base, b) == pytest.approx(0.128, rel=1e-12)

    def test_zero_baseline_rejected(self):
        perfect = ConfusionMatrix(np.array([[5, 0], [0, 5]]))
        other = ConfusionMatrix(np.array([[5, 0], [1, 4]]))
        with pytest.raises(ValueError):
            fn_reduction(perfect, other)

    def test_requires_binary(self):
        cm3 = ConfusionMatrix(np.zeros((3, 3), dtype=int))
        cm2 = ConfusionMatrix(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ValueError):
            fn_reduction(cm3, cm2)
