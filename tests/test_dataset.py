import numpy as np
import pytest

from glmetric.dataset import (LabeledDataset, SplitSpec, load_csv,
                              make_synthetic_mixture, pca_reduce,
                              scale_features, split, three_normal_preset)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_label_reencoding_by_sorted_value(self, tmp_path):
        for text, labels, values in [
            ("1.0,2.0,7\n1.5,2.5,7\n0.0,1.0,9\n0.5,1.5,9\n", [0, 0, 1, 1], ["7.0", "9.0"]),
            # a label that is not a number sorts every label as text, so
            # "10" < "9"; empty and blank lines are skipped
            ("1.0,2.0,b\n\n1.5,2.5,9\n \n0.0,1.0,10\n0.5,1.5,b\n", [2, 1, 0, 2],
             ["10", "9", "b"]),
        ]:
            ds = load_csv(write(tmp_path, text), 2)
            assert list(ds.labels) == labels
            assert ds.class_count == len(values) and ds.n == 4
            assert ds.meta["label_values"] == values

    def test_nan_cell_rejected_with_coordinates(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,0\n1.5,nan,1\n")
        with pytest.raises(ValueError, match=r"non-numeric cell at \(1, 1\)"):
            load_csv(path, 2)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = write(tmp_path, "1.0,abc,0\n")
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            load_csv(path, 2)

    def test_iris_shape(self):
        ds = load_csv("data/iris.csv", "label", has_header=True)
        assert (ds.n, ds.dim, ds.class_count) == (150, 4, 3)
        assert ds.names == ("sepal_length", "sepal_width", "petal_length", "petal_width")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", 0)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_csv(write(tmp_path, ""), 0)

    def test_single_class_flagged(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,0\n2,0\n"), 1)
        assert ds.meta.get("single_class") is True

    def test_label_column_by_name_and_row_order(self, tmp_path):
        path = write(tmp_path, "a,y,b\n1,5,2\n3,5,4\n0,2,9\n")
        ds = load_csv(path, "y", has_header=True)
        assert ds.names == ("a", "b")
        np.testing.assert_allclose(ds.features, [[1, 2], [3, 4], [0, 9]])
        assert list(ds.labels) == [1, 1, 0]  # sorted original values 2 < 5


class TestScale:
    def test_affine_endpoints(self):
        ds = LabeledDataset(np.array([[0.0], [5.0], [10.0]]), [0, 0, 1], 2)
        scaled, _ = scale_features(ds)
        np.testing.assert_allclose(scaled.features.ravel(), [-1.0, 0.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        ds = LabeledDataset(np.full((3, 1), 3.0), [0, 1, 0], 2)
        scaled, params = scale_features(ds)
        np.testing.assert_array_equal(scaled.features, 0.0)
        np.testing.assert_array_equal(params.transform(ds).features, 0.0)

    def test_already_at_range_is_fixed_point(self):
        ds = LabeledDataset(np.array([[-1.0], [1.0]]), [0, 1], 2)
        scaled, _ = scale_features(ds)
        np.testing.assert_allclose(scaled.features, ds.features)

    def test_reused_params_may_exceed_range_but_stay_finite(self):
        train = LabeledDataset(np.array([[0.0], [1.0]]), [0, 1], 2)
        _, params = scale_features(train)
        other = LabeledDataset(np.array([[2.0]]), [0], 2)
        out = params.transform(other)
        assert np.isfinite(out.features).all()
        assert out.features[0, 0] > 1.0

    def test_round_trip_dict(self):
        ds = LabeledDataset(np.array([[0.0, 2.0], [4.0, 6.0]]), [0, 1], 2)
        _, params = scale_features(ds)
        from glmetric.dataset import ScaleParams
        clone = ScaleParams.from_dict(params.to_dict())
        np.testing.assert_array_equal(clone.transform(ds).features,
                                      params.transform(ds).features)


class TestSplit:
    def make(self, n=10, classes=2):
        rng = np.random.default_rng(0)
        return LabeledDataset(rng.normal(size=(n, 3)),
                              np.arange(n) % classes, classes)

    def test_sizes(self):
        tr, va, te = split(self.make(), SplitSpec(seed=1))
        assert (tr.n, va.n, te.n) == (6, 2, 2)

    def test_same_seed_identical(self):
        ds = self.make(30)
        a = split(ds, SplitSpec(seed=7))
        b = split(ds, SplitSpec(seed=7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_stratified_proportions(self):
        ds = LabeledDataset(np.arange(10, dtype=float)[:, None],
                            [0] * 5 + [1] * 5, 2)
        tr, va, te = split(ds, SplitSpec(seed=3))
        assert np.bincount(tr.labels).tolist() == [3, 3]

    def test_partition_property(self):
        ds = self.make(37, 3)
        tr, va, te = split(ds, SplitSpec(seed=11))
        rows = np.vstack([p.features for p in (tr, va, te)])
        assert len(rows) == ds.n
        # every original row appears exactly once
        orig = {tuple(r) for r in ds.features}
        got = [tuple(r) for r in rows]
        assert len(set(got)) == len(got)
        assert set(got) == orig

    def test_non_stratified_partition(self):
        ds = self.make(23, 3)
        tr, va, te = split(ds, SplitSpec(seed=4, stratified=False))
        assert tr.n + va.n + te.n == 23
        rows = [tuple(r) for p in (tr, va, te) for r in p.features]
        assert len(set(rows)) == 23

    def test_infeasible_stratification(self):
        ds = LabeledDataset(np.zeros((4, 1)), [0, 0, 0, 1], 2)
        with pytest.raises(ValueError, match=">= 3 members"):
            split(ds, SplitSpec(seed=0))

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(ratios=(0.5, 0.5, 0.1))
        with pytest.raises(ValueError):
            SplitSpec(ratios=(1.0, 0.0, 0.0))


class TestPca:
    def test_full_rank_is_isometry(self):
        rng = np.random.default_rng(2)
        ds = LabeledDataset(rng.normal(size=(40, 6)), rng.integers(0, 2, 40), 2)
        _, (red,) = pca_reduce(ds, 6)
        before = np.linalg.norm(ds.features[:, None] - ds.features[None], axis=2)
        after = np.linalg.norm(red.features[:, None] - red.features[None], axis=2)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_data_on_line_needs_one_dim(self):
        t = np.linspace(0, 1, 25)
        x = np.outer(t, [1.0, 2.0, -1.0])
        ds = LabeledDataset(x, np.zeros(25, dtype=int), 1)
        params, (red,) = pca_reduce(ds, 1)
        recon = red.features @ params.components.T + params.mean
        assert np.abs(recon - x).max() <= 1e-10

    def test_captured_variance_matches_eigen_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(100, 10)) @ np.diag(np.linspace(0.2, 3.0, 10))
        ds = LabeledDataset(x, rng.integers(0, 2, 100), 2)
        _, (red,) = pca_reduce(ds, 5)
        w = np.linalg.eigvalsh(np.cov(x.T, bias=True))[::-1]
        # each kept component carries the variance of its eigenvalue
        np.testing.assert_allclose(red.features.var(axis=0), w[:5], rtol=1e-10)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(6)
        ds = LabeledDataset(rng.normal(size=(30, 8)), rng.integers(0, 2, 30), 2)
        params, _ = pca_reduce(ds, 4)
        gram = params.components.T @ params.components
        assert np.abs(gram - np.eye(4)).max() < 1e-10

    def test_validation_uses_training_parameters(self):
        rng = np.random.default_rng(7)
        tr = LabeledDataset(rng.normal(size=(30, 5)), rng.integers(0, 2, 30), 2)
        va = LabeledDataset(rng.normal(size=(10, 5)), rng.integers(0, 2, 10), 2)
        params, (tr_red, va_red) = pca_reduce(tr, 3, va)
        np.testing.assert_allclose(va_red.features, params.transform_features(va.features))

    def test_invalid_dim(self):
        ds = LabeledDataset(np.zeros((5, 3)) + np.eye(5, 3), np.zeros(5, dtype=int), 1)
        with pytest.raises(ValueError):
            pca_reduce(ds, 4)


class TestSyntheticMixture:
    def test_law_of_large_numbers(self):
        comps = [(1.0, np.zeros(3), np.eye(3), 0)]
        ds = make_synthetic_mixture(comps, 10000, seed=1)
        # mean of 10k standard normals: sd 0.01 per coordinate, 0.05 = 5 sigma
        assert np.abs(ds.features.mean(axis=0)).max() < 0.05

    def test_degenerate_weights(self):
        comps = [(1.0, [0.0], [[1.0]], 2), (0.0, [5.0], [[1.0]], 0)]
        ds = make_synthetic_mixture(comps, 50, seed=0)
        assert (ds.labels == 2).all()

    def test_non_pd_covariance_rejected(self):
        comps = [(1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 0)]
        with pytest.raises(ValueError, match="non-PD"):
            make_synthetic_mixture(comps, 10, seed=0)

    def test_determinism(self):
        comps = three_normal_preset()
        a = make_synthetic_mixture(comps, 100, seed=3)
        b = make_synthetic_mixture(comps, 100, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_three_normal_preset_shape(self):
        ds = make_synthetic_mixture(three_normal_preset(), 300, seed=0)
        assert ds.class_count == 3
        assert ds.dim == 10


def test_dataset_rejects_nan():
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.nan]]), [0], 1)


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        LabeledDataset(np.ones((2, 2)), [0, 2], 2)
