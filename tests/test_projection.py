import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodcf import dataset, projection
from oodcf.errors import (
    DataError,
    DimensionMismatch,
    IndexOutOfRange,
    RankDeficientWarning,
    TooFewRows,
)

RNG = np.random.default_rng(12345)


def inverse_project(model, z):
    """Latents back to raw units through the transposed loadings (the exact
    inverse of `project` when k = d)."""
    return model.standardizer.inverse_transform(np.asarray(z, dtype=float) @ model.loadings.T)


def load_projection(path):
    """Read back what `save_projection` wrote."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return projection.ProjectionModel(
        standardizer=projection.Standardizer(mean=np.array(payload["mean"]),
                                             scale=np.array(payload["scale"])),
        loadings=np.array(payload["loadings"]),
        explained_variance=np.array(payload["explained_variance"]),
        diagnostics=payload["diagnostics"])


def random_matrix(n=60, d=5, seed=0):
    gen = np.random.default_rng(seed)
    A = gen.normal(size=(d, d))
    return gen.normal(size=(n, d)) @ A


class TestStandardizer:
    def test_hand_arithmetic(self):
        std = projection.fit_standardizer(np.array([[1.0], [3.0]]))
        assert std.mean[0] == 2.0
        assert std.scale[0] == pytest.approx(math.sqrt(2.0))

    def test_constant_column_guard(self):
        std = projection.fit_standardizer(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert std.scale[0] == 1.0

    def test_transform_mean_is_zero(self):
        X = random_matrix(seed=1)
        std = projection.fit_standardizer(X)
        assert np.allclose(std.transform(X.mean(axis=0)), 0.0)

    @pytest.mark.parametrize("X, with_scaling", [
        ([[1e160], [-1e160], [0.0]], True),     # the squared deviations overflow
        ([[1.5e308], [1.5e308]], False),        # the column sum overflows
        ([[1.0, 1.5e308], [2.0, 1.5e308]], True),
    ])
    def test_overflow_is_a_data_error(self, X, with_scaling):
        with pytest.raises(DataError, match="overflows a float"):
            projection.fit_standardizer(np.array(X), with_scaling=with_scaling)

    def test_large_finite_column_is_kept(self):
        std = projection.fit_standardizer(np.array([[1e150], [-1e150], [0.0]]))
        assert std.scale[0] == pytest.approx(1e150)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            projection.fit_standardizer(np.array([[1.0, 2.0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1000))
    def test_roundtrip_identity(self, seed):
        X = random_matrix(n=20, d=4, seed=seed)
        std = projection.fit_standardizer(X)
        back = std.inverse_transform(std.transform(X))
        assert np.allclose(back, X, rtol=1e-12, atol=1e-9)


class TestFitPca:
    def test_toy_first_component_horizontal(self):
        ds = dataset.make_toy(1000, 1, 0)
        id_feats = ds.features[~ds.ood_flag]
        model = projection.fit_projection(id_feats, 2, with_scaling=False)
        w = model.loadings[:, 0]
        angle = math.degrees(math.atan2(w[1], w[0])) % 180.0
        assert min(angle, 180.0 - angle) < 2.0

    def test_full_rank_reconstruction(self):
        X = random_matrix(seed=2)
        model = projection.fit_projection(X, X.shape[1])
        Z = projection.project(model, X)
        back = inverse_project(model, Z)
        assert np.allclose(back, X, atol=1e-8)

    def test_eigenvalue_oracle(self):
        # independent eigendecomposition of the covariance matrix
        X = random_matrix(n=200, d=6, seed=3)
        Xs = projection.fit_standardizer(X).transform(X)
        model = projection.fit_projection(X, 6)
        oracle = np.linalg.eig(np.cov(Xs.T)).eigenvalues.real
        oracle = np.sort(oracle)[::-1]
        assert np.allclose(model.explained_variance, oracle, rtol=1e-8)

    def test_orthonormal_loadings(self):
        X = random_matrix(seed=4)
        model = projection.fit_projection(X, 3)
        gram = model.loadings.T @ model.loadings
        assert np.allclose(gram, np.eye(3), atol=1e-10)

    def test_sign_convention_determinism(self):
        X = random_matrix(seed=5)
        a = projection.fit_projection(X, 4)
        b = projection.fit_projection(X, 4)
        assert np.array_equal(a.loadings, b.loadings)
        for j in range(4):
            col = a.loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_rank_deficient_shrinks_with_warning(self):
        gen = np.random.default_rng(6)
        base = gen.normal(size=(40, 2))
        X = np.hstack([base, base[:, :1] + base[:, 1:]])  # rank 2 in 3 columns
        with pytest.warns(RankDeficientWarning):
            model = projection.fit_projection(X, 3)
        assert model.k == 2
        assert model.diagnostics["shrunk_from"] == 3

    def test_k_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            projection.fit_projection(random_matrix(seed=7), 99)

    def test_explained_variance_non_increasing_and_total(self):
        X = random_matrix(n=120, d=5, seed=8)
        model = projection.fit_projection(X, 5, with_scaling=True)
        ev = model.explained_variance
        assert np.all(np.diff(ev) <= 1e-12)
        # scaled data has unit sample variance per column, so the total is d
        assert ev.sum() == pytest.approx(5.0, abs=1e-8)


class TestProject:
    def test_training_mean_maps_to_origin(self):
        X = random_matrix(seed=9)
        model = projection.fit_projection(X, 3)
        z = projection.project(model, X.mean(axis=0))
        assert np.allclose(z, 0.0, atol=1e-10)

    def test_project_inverse_roundtrip_latent(self):
        X = random_matrix(seed=10)
        model = projection.fit_projection(X, X.shape[1])
        z = np.array([0.3, -1.2, 0.7, 2.0, -0.1])
        back = projection.project(model, inverse_project(model, z))
        assert np.allclose(back, z, atol=1e-10)

    def test_batch_matches_per_row(self):
        X = random_matrix(seed=11)
        model = projection.fit_projection(X, 4)
        batch = projection.project(model, X[:10])
        rows = np.array([projection.project(model, x) for x in X[:10]])
        assert np.array_equal(batch, rows)

    def test_dimension_mismatch(self):
        model = projection.fit_projection(random_matrix(seed=12), 3)
        with pytest.raises(DimensionMismatch):
            projection.project(model, np.zeros(7))

    def test_linearity_in_standardized_space(self):
        X = random_matrix(seed=13)
        model = projection.fit_projection(X, 4)
        W = model.loadings
        u, v = np.array([1.0, 0, 2, -1, 0.5]), np.array([0.0, 3, -2, 1, 1])
        assert np.allclose(W.T @ (2 * u + 3 * v), 2 * (W.T @ u) + 3 * (W.T @ v),
                           atol=1e-10)

    def test_affine_combination_identity(self):
        # project(a*x + b*y - (a+b-1)*mean) = a*z_x + b*z_y for center-only models
        X = random_matrix(seed=19)
        model = projection.fit_projection(X, 3, with_scaling=False)
        mean = model.standardizer.mean
        x, y = X[0], X[1]
        a, b = 2.0, -0.5
        lhs = projection.project(model, a * x + b * y - (a + b - 1.0) * mean)
        rhs = a * projection.project(model, x) + b * projection.project(model, y)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestJacobian:
    def test_all_dims_is_w_transpose(self):
        X = random_matrix(seed=14)
        model = projection.fit_projection(X, X.shape[1])
        J = projection.jacobian(model, range(model.k))
        assert np.array_equal(J, model.loadings.T)

    def test_empty_dims(self):
        model = projection.fit_projection(random_matrix(seed=15), 3)
        J = projection.jacobian(model, [])
        assert J.shape == (0, 5)

    def test_out_of_range(self):
        model = projection.fit_projection(random_matrix(seed=16), 3)
        with pytest.raises(IndexOutOfRange):
            projection.jacobian(model, [0, 3])

    def test_finite_difference_oracle(self):
        # central differences of project() in raw units pick up 1/scale factors
        X = random_matrix(n=80, d=5, seed=17)
        model = projection.fit_projection(X, 4, with_scaling=True)
        J = projection.jacobian(model, range(4))
        x0 = X[3]
        eps = 1e-5
        for i in range(5):
            e = np.zeros(5)
            e[i] = eps
            fd = (projection.project(model, x0 + e)
                  - projection.project(model, x0 - e)) / (2 * eps)
            adjusted = fd * model.standardizer.scale[i]
            assert np.allclose(adjusted, J[:, i], rtol=1e-6, atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 500))
    def test_disjoint_blocks_orthogonal(self, seed):
        gen = np.random.default_rng(seed)
        X = random_matrix(n=50, d=6, seed=seed)
        model = projection.fit_projection(X, 6)
        dims = gen.permutation(6)
        cut = gen.integers(1, 6)
        A = projection.jacobian(model, sorted(dims[:cut]))
        B = projection.jacobian(model, sorted(dims[cut:]))
        assert np.allclose(A @ B.T, 0.0, atol=1e-10)


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        X = random_matrix(seed=18)
        model = projection.fit_projection(X, 4)
        path = tmp_path / "proj.json"
        projection.save_projection(model, path)
        loaded = load_projection(path)
        assert np.array_equal(loaded.loadings, model.loadings)
        assert np.array_equal(loaded.explained_variance, model.explained_variance)
        assert np.array_equal(loaded.standardizer.mean, model.standardizer.mean)
        assert np.array_equal(loaded.standardizer.scale, model.standardizer.scale)
