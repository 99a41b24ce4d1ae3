"""Classification metrics: accuracy, confusion matrix, ROC curve and AUC.

All pure functions over immutable inputs; thread-safe. Predictions may be
given either as class ids or as per-class score/probability rows, in which
case the argmax is taken with ties broken toward the lower class index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["ConfusionMatrix", "RocCurve", "accuracy", "confusion", "roc_auc", "fn_reduction"]


def _predicted_classes(predictions) -> np.ndarray:
    pred = np.asarray(predictions)
    if pred.ndim == 2:
        return np.argmax(pred, axis=1)  # argmax picks the lowest index on ties
    if pred.ndim == 1:
        return pred.astype(np.int64)
    raise ValueError(f"predictions must be 1-D class ids or a 2-D score matrix, got shape {pred.shape}")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts indexed (true class, predicted class)."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("counts must be a square matrix")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def false_negatives(self, positive: int = 1) -> int:
        """Count of positives predicted as any other class."""
        return int(self.counts[positive].sum() - self.counts[positive, positive])


@dataclass(frozen=True)
class RocCurve:
    """ROC points ordered by increasing false-positive rate, plus trapezoidal AUC."""

    points: np.ndarray  # (k, 2) of (fpr, tpr)
    auc: float

    def to_json(self) -> str:
        return json.dumps({"auc": self.auc, "points": self.points.tolist()})

    def csv_rows(self):
        return [f"{float(fpr)!r},{float(tpr)!r}" for fpr, tpr in self.points]


def accuracy(predictions, labels) -> float:
    """Fraction of correct predictions."""
    labels = np.asarray(labels)
    pred = _predicted_classes(predictions)
    if labels.size == 0:
        raise ValueError("accuracy undefined on empty input")
    if pred.shape[0] != labels.shape[0]:
        raise ValueError("predictions and labels must have equal length")
    return float(np.mean(pred == labels))


def confusion(predictions, labels, k: int) -> ConfusionMatrix:
    """k x k confusion matrix; counts[t][p] increments per sample."""
    labels = np.asarray(labels)
    pred = _predicted_classes(predictions)
    if pred.shape[0] != labels.shape[0]:
        raise ValueError("predictions and labels must have equal length")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    if pred.size and (pred.min() < 0 or pred.max() >= k):
        raise ValueError(f"predicted classes must lie in [0, {k})")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (labels, pred), 1)
    return ConfusionMatrix(counts)


def roc_auc(scores, labels) -> RocCurve:
    """ROC curve over every distinct score threshold, with trapezoidal AUC.

    scores are positive-class probabilities (class 1). Tied scores are grouped
    into a single threshold step. The curve always starts at (0, 0) and ends at
    (1, 1); AUC equals the pairwise concordance statistic with half credit for
    ties.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape[0] != labels.shape[0]:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both classes must be present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # group tied scores into single steps
    boundary = np.flatnonzero(np.diff(s)) + 1
    tp = np.concatenate([[0], np.cumsum(y == 1)[np.append(boundary - 1, len(s) - 1)]])
    fp = np.concatenate([[0], np.cumsum(y == 0)[np.append(boundary - 1, len(s) - 1)]])
    fpr = fp / n_neg
    tpr = tp / n_pos
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(points=np.column_stack([fpr, tpr]), auc=auc)


def fn_reduction(cm_a: ConfusionMatrix, cm_b: ConfusionMatrix) -> float:
    """Relative false-negative reduction of b versus a: (FN_a - FN_b) / FN_a."""
    if cm_a.counts.shape != (2, 2) or cm_b.counts.shape != (2, 2):
        raise ValueError("fn_reduction expects binary confusion matrices")
    fn_a = cm_a.false_negatives()
    fn_b = cm_b.false_negatives()
    if fn_a == 0:
        raise ValueError("reduction undefined: baseline has zero false negatives")
    return (fn_a - fn_b) / fn_a
