"""Tests for dataset generation, normalization, noise, splits, and CSV parsing."""

import numpy as np
import pytest

from jsbnn.data import (
    CsvSchema,
    Dataset,
    NoiseSpec,
    add_noise,
    load_csv,
    manifest,
    minmax_normalize,
    split,
    synth_clusters,
)


class TestMinmaxNormalize:
    def test_basic_column(self):
        out = minmax_normalize(np.array([[0.0], [5.0], [10.0]]))
        np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_idempotent(self):
        x = np.array([[0.0, 1.0], [0.25, 0.0], [1.0, 0.5]])
        np.testing.assert_array_equal(minmax_normalize(x), x)

    def test_negative_range(self):
        out = minmax_normalize(np.array([[-2.0], [0.0], [2.0]]))
        np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        out = minmax_normalize(np.array([[3.0, 1.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])


class TestAddNoise:
    def base(self, n=400):
        rng = np.random.default_rng(1)
        feats = rng.uniform(0, 1, (n, 3))
        ds = Dataset(feats, np.zeros(n, dtype=int))
        return split(ds, [0.6, 0.2, 0.2], seed=2)

    def test_zero_sigma_identity(self):
        ds = self.base()
        out = add_noise(ds, NoiseSpec(sigma=0.0, seed=5))
        np.testing.assert_array_equal(out.features, ds.features)

    def test_reproducible(self):
        ds = self.base()
        a = add_noise(ds, NoiseSpec(sigma=0.9, seed=5))
        b = add_noise(ds, NoiseSpec(sigma=0.9, seed=5))
        np.testing.assert_array_equal(a.features, b.features)

    def test_noise_variance_matches_spec(self):
        ds = self.base(n=4000)
        out = add_noise(ds, NoiseSpec(sigma=0.9, seed=5))
        delta = (out.features - ds.features).ravel()
        n = delta.size
        var = delta.var(ddof=1)
        se = 0.81 * np.sqrt(2.0 / (n - 1))
        assert abs(var - 0.81) < 3 * se

    def test_splits_get_independent_noise(self):
        ds = self.base()
        out = add_noise(ds, NoiseSpec(sigma=0.5, seed=5))
        for tag in ("train", "validation", "test"):
            mask = ds.split_tags == tag
            assert not np.allclose(out.features[mask], ds.features[mask])

    def test_no_clipping(self):
        ds = self.base()
        out = add_noise(ds, NoiseSpec(sigma=2.0, seed=5))
        assert out.features.min() < 0.0 and out.features.max() > 1.0


class TestSynthClusters:
    def test_equal_counts_at_unit_ratio(self):
        ds = synth_clusters(100, [[0, 0], [1, 1]], 0.1, bias_ratio=1.0, seed=3)
        assert int(np.sum(ds.labels == 0)) == 100
        assert int(np.sum(ds.labels == 1)) == 100

    def test_bias_ratio_counts(self):
        ds = synth_clusters(1000, [[0, 0], [1, 1]], 0.1, bias_ratio=2.52, seed=3)
        assert int(np.sum(ds.labels == 0)) == 2520
        assert int(np.sum(ds.labels == 1)) == 1000
        assert ds.n_rows == 3520

    def test_seeded_reproducibility(self):
        a = synth_clusters(50, [[0, 0], [1, 1]], 0.1, seed=4)
        b = synth_clusters(50, [[0, 0], [1, 1]], 0.1, seed=4)
        np.testing.assert_array_equal(a.features, b.features)

    def test_clusters_near_centers(self):
        ds = synth_clusters(500, [[0, 0], [5, 5]], 0.1, seed=5)
        c0 = ds.features[ds.labels == 0].mean(axis=0)
        c1 = ds.features[ds.labels == 1].mean(axis=0)
        np.testing.assert_allclose(c0, [0, 0], atol=0.05)
        np.testing.assert_allclose(c1, [5, 5], atol=0.05)

    def test_degenerate_centers_warn_only(self):
        with pytest.warns(UserWarning):
            synth_clusters(10, [[0, 0], [0, 0]], 0.1, seed=6)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            synth_clusters(10, [[0, 0], [1, 1]], 0.1, bias_ratio=0.0)


class TestSplit:
    def test_sizes_60_20_20(self):
        ds = Dataset(np.zeros((100, 2)), np.repeat([0, 1], 50))
        out = split(ds, [0.6, 0.2, 0.2], seed=1)
        assert int(np.sum(out.split_tags == "train")) == 60
        assert int(np.sum(out.split_tags == "validation")) == 20
        assert int(np.sum(out.split_tags == "test")) == 20

    def test_everything_train(self):
        ds = Dataset(np.zeros((37, 2)), np.zeros(37, dtype=int))
        out = split(ds, [1.0, 0.0, 0.0], seed=1)
        assert int(np.sum(out.split_tags == "train")) == 37

    def test_two_seeds_differ_same_sizes(self):
        ds = Dataset(np.arange(200).reshape(100, 2).astype(float), np.repeat([0, 1], 50))
        a = split(ds, [0.6, 0.2, 0.2], seed=1)
        b = split(ds, [0.6, 0.2, 0.2], seed=2)
        assert not np.array_equal(a.split_tags, b.split_tags)
        for tag in ("train", "validation", "test"):
            assert np.sum(a.split_tags == tag) == np.sum(b.split_tags == tag)

    def test_partition_property(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            fr = rng.dirichlet([1, 1, 1])
            ds = Dataset(np.zeros((n, 1)), rng.integers(0, 3, n))
            out = split(ds, fr, seed=int(rng.integers(1000)))
            counts = {t: int(np.sum(out.split_tags == t)) for t in ("train", "validation", "test")}
            assert sum(counts.values()) == n  # exhaustive, disjoint by construction

    def test_stratification_within_one_row(self):
        rng = np.random.default_rng(10)
        ds = Dataset(np.zeros((351, 1)), rng.integers(0, 3, 351))
        fr = [0.6, 0.2, 0.2]
        out = split(ds, fr, seed=11)
        for cls in range(3):
            cls_mask = ds.labels == cls
            n_cls = int(cls_mask.sum())
            for k, tag in enumerate(("train", "validation", "test")):
                got = int(np.sum(out.split_tags[cls_mask] == tag))
                assert abs(got - fr[k] * n_cls) <= 1.0

    def test_bias_ratio_survives_split(self):
        ds = synth_clusters(500, [[0, 0], [1, 1]], 0.1, bias_ratio=2.52, seed=3)
        out = split(ds, [0.6, 0.2, 0.2], seed=4)
        x_te, y_te = out.subset("test")
        ratio = np.sum(y_te == 0) / np.sum(y_te == 1)
        assert ratio == pytest.approx(2.52, abs=0.03)

    def test_fractions_must_sum_to_one(self):
        ds = Dataset(np.zeros((10, 1)), np.zeros(10, dtype=int))
        with pytest.raises(ValueError):
            split(ds, [0.5, 0.2, 0.2], seed=1)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "ds.csv"
        path.write_text(text)
        return path

    def test_three_row_fixture(self, tmp_path):
        path = self.write(tmp_path, "f0,f1,label\n0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,0\n")
        ds = load_csv(path, CsvSchema(n_features=2, n_classes=2))
        assert ds.n_rows == 3
        np.testing.assert_allclose(ds.features[1], [0.3, 0.4])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = self.write(tmp_path, "f0,f1,label\n0.1,0.2,0\nx,0.4,1\n")
        with pytest.raises(ValueError, match=":3:"):
            load_csv(path, CsvSchema(n_features=2, n_classes=2))

    def test_unknown_label_is_schema_error(self, tmp_path):
        path = self.write(tmp_path, "f0,f1,label\n0.1,0.2,5\n")
        with pytest.raises(ValueError, match="label 5"):
            load_csv(path, CsvSchema(n_features=2, n_classes=2))

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path, CsvSchema(n_features=2, n_classes=2))

    def test_header_only_is_empty(self, tmp_path):
        path = self.write(tmp_path, "f0,f1,label\n")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path, CsvSchema(n_features=2, n_classes=2))

    def test_header_mismatch(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n0.1,0.2,0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path, CsvSchema(n_features=2, n_classes=2))


class TestManifest:
    def test_manifest_fields(self):
        import json

        text = manifest(7, NoiseSpec(sigma=0.9, seed=3), 2.52, [0.6, 0.2, 0.2])
        doc = json.loads(text)
        assert doc["seed"] == 7
        assert doc["noise"]["sigma"] == 0.9
        assert doc["bias_ratio"] == 2.52
        assert doc["split_fractions"] == [0.6, 0.2, 0.2]
