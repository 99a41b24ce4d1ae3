"""Dataset construction: synthetic clusters, normalization, noise, splits, CSV I/O.

Datasets are immutable after construction and safe to share across threads.
The CSV schema is a header row with feature columns f0..fk and an integer
`label` column.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "NoiseSpec",
    "CsvSchema",
    "minmax_normalize",
    "add_noise",
    "synth_clusters",
    "split",
    "load_csv",
    "manifest",
]

SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, integer labels, and a per-row split tag."""

    features: np.ndarray
    labels: np.ndarray
    split_tags: np.ndarray = None

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("labels must be one integer per feature row")
        tags = self.split_tags
        if tags is None:
            tags = np.full(x.shape[0], "train", dtype=object)
        else:
            tags = np.asarray(tags, dtype=object)
            if tags.shape != (x.shape[0],):
                raise ValueError("split_tags must tag every row exactly once")
            bad = set(tags) - set(SPLITS)
            if bad:
                raise ValueError(f"unknown split tags: {sorted(bad)}")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "split_tags", tags)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, tag: str):
        """(features, labels) of one split."""
        if tag not in SPLITS:
            raise ValueError(f"unknown split {tag!r}")
        mask = self.split_tags == tag
        return self.features[mask], self.labels[mask]


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise N(mean, sigma^2), drawn from `seed`."""

    mean: float = 0.0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")


def minmax_normalize(features) -> np.ndarray:
    """Per-column (x - min) / (max - min); constant columns map to 0.

    Idempotent on already-normalized data.
    """
    x = np.asarray(features, dtype=np.float64)
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    out = np.zeros_like(x)
    nz = span > 0
    out[:, nz] = (x[:, nz] - lo[nz]) / span[nz]
    return out


def add_noise(ds: Dataset, spec: NoiseSpec) -> Dataset:
    """Add elementwise Gaussian noise to every split of a normalized dataset.

    Each split receives an independent stream derived from (spec.seed, split
    index), and noisy features are deliberately not re-clipped to [0, 1] (a
    clip would shrink the requested sigma).
    """
    noisy = ds.features.copy()
    for k, tag in enumerate(SPLITS):
        mask = ds.split_tags == tag
        n = int(mask.sum())
        if n == 0 or spec.sigma == 0.0:
            continue
        rng = np.random.default_rng([int(spec.seed), k])
        noisy[mask] += rng.normal(spec.mean, spec.sigma, (n, ds.n_features))
    return Dataset(noisy, ds.labels, ds.split_tags)


def synth_clusters(n_per_class: int, centers, spread: float, bias_ratio: float = 1.0,
                   seed: int = 0) -> Dataset:
    """2-D Gaussian clusters, one per class, with a skewed class-0 count.

    Class 0 (the "negative" class) gets round(n_per_class * bias_ratio) rows;
    every other class gets n_per_class. The default bias_ratio 2.52 mirrors a
    roughly 2.5:1 negative:positive imbalance.
    """
    if bias_ratio <= 0.0:
        raise ValueError("bias_ratio must be > 0")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise ValueError("centers must be one 2-D point per class, at least two classes")
    if centers.shape[0] > 1 and np.unique(centers, axis=0).shape[0] < centers.shape[0]:
        import warnings

        warnings.warn("degenerate centers: two classes share a center", stacklevel=2)
    rng = np.random.default_rng([int(seed), 4])
    feats, labels = [], []
    for cls, center in enumerate(centers):
        n = int(round(n_per_class * bias_ratio)) if cls == 0 else n_per_class
        feats.append(center + spread * rng.standard_normal((n, centers.shape[1])))
        labels.append(np.full(n, cls, dtype=np.int64))
    return Dataset(np.vstack(feats), np.concatenate(labels))


def split(ds: Dataset, fractions, seed: int = 0) -> Dataset:
    """Tag rows train/validation/test by a seeded, class-stratified shuffle.

    fractions must be three non-negative numbers summing to 1. Within every
    class the split sizes are apportioned by largest remainder, so per-class
    fractions stay within one row of the global fractions.
    """
    fr = np.asarray(fractions, dtype=np.float64)
    if fr.shape != (3,) or np.any(fr < 0):
        raise ValueError("fractions must be three non-negative numbers")
    if abs(fr.sum() - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fr.sum()}")
    rng = np.random.default_rng([int(seed), 5])
    tags = np.empty(ds.n_rows, dtype=object)
    for cls in np.unique(ds.labels):
        idx = np.flatnonzero(ds.labels == cls)
        idx = rng.permutation(idx)
        n = idx.size
        raw = fr * n
        counts = np.floor(raw).astype(int)
        remainder = raw - counts
        for k in np.argsort(-remainder, kind="stable")[: n - counts.sum()]:
            counts[k] += 1
        start = 0
        for k, tag in enumerate(SPLITS):
            tags[idx[start:start + counts[k]]] = tag
            start += counts[k]
    return Dataset(ds.features, ds.labels, tags)


@dataclass(frozen=True)
class CsvSchema:
    """Expected CSV layout: feature columns f0..f{n-1} and an integer label column."""

    n_features: int
    n_classes: int
    label_column: str = "label"

    def feature_columns(self):
        return [f"f{i}" for i in range(self.n_features)]


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Parse a dataset CSV, preserving row order.

    Malformed rows raise with their line number; labels outside
    [0, schema.n_classes) raise a schema error; an empty file is an error.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        expected = schema.feature_columns() + [schema.label_column]
        if header != expected:
            raise ValueError(f"{path}: header {header} does not match schema {expected}")
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise ValueError(f"{path}:{lineno}: expected {len(expected)} cells, got {len(row)}")
            try:
                feats.append([float(c) for c in row[:-1]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature cell") from None
            try:
                label = int(row[-1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer label") from None
            if not 0 <= label < schema.n_classes:
                raise ValueError(
                    f"{path}:{lineno}: label {label} outside schema range [0, {schema.n_classes})"
                )
            labels.append(label)
    if not feats:
        raise ValueError(f"{path}: empty dataset file")
    return Dataset(np.asarray(feats), np.asarray(labels))


def manifest(seed: int, noise: NoiseSpec, bias_ratio: float, fractions) -> str:
    """Provenance JSON for a generated dataset."""
    return json.dumps(
        {
            "seed": int(seed),
            "noise": {"mean": noise.mean, "sigma": noise.sigma, "seed": int(noise.seed)},
            "bias_ratio": bias_ratio,
            "split_fractions": list(map(float, fractions)),
        },
        indent=1,
    )
