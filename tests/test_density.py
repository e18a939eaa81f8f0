import math

import numpy as np
import pytest

from conftest import STOP_QUANTILE, mode_nll, nll_dis_target

from oodcf import _gaussian, density, projection
from oodcf.errors import DataError, DimensionMismatch, OutOfRange, SingularCovariance
from oodcf.partition import Partition


def tiny_partition(z_d, z_n):
    return Partition(z_d=tuple(z_d), z_n=tuple(z_n), per_cardinality=[],
                     threshold=None)


def fit_density(Z, Y, part):
    return density.fit_partition_density(Z, Y, density.class_moments(Z, Y), part,
                                         STOP_QUANTILE)


def fit_mahalanobis(Z, Y):
    """The class-conditional baseline as the pipeline fits it: from the
    density model's joint Gaussians."""
    k = Z.shape[1]
    return density.MahalanobisScorer.fit(fit_density(Z, Y, tiny_partition([0], range(1, k))))


def fit_marginal(Z, Y=None):
    Y = np.zeros(len(Z), int) if Y is None else Y
    return density.MarginalMahalanobisScorer.fit(density.class_moments(Z, Y))


class TestFitPartitionDensity:
    def test_toy_non_dis_moments(self, toy_fit):
        # both ID classes share the vertical marginal N(0, 0.5)
        comp = toy_fit.model.non_dis
        assert abs(comp.mean[0]) < 0.1
        assert comp.cov[0, 0] == pytest.approx(0.5, abs=0.06)

    def test_toy_dis_class_centers(self, toy_fit):
        # class means projected through the fitted PCA land at the dis centers
        for c, raw_mean in ((0, np.array([3.0, 0.0])), (1, np.array([-3.0, 0.0]))):
            z = projection.project(toy_fit.projection, raw_mean)
            z_d = z[list(toy_fit.part.z_d)]
            fitted = toy_fit.model.dis_per_class[c].mean
            assert np.allclose(fitted, z_d, atol=0.1)

    def test_single_row_class_raises(self):
        gen = np.random.default_rng(0)
        Z = np.vstack([gen.normal(size=(10, 2)), [[9.0, 9.0]]])
        Y = np.array([0] * 10 + [1])
        with pytest.raises(SingularCovariance):
            fit_density(Z, Y, tiny_partition([0], [1]))

    def test_component_dimensions(self, wine_fit):
        model = wine_fit.model
        assert model.non_dis.dim == len(wine_fit.part.z_n)
        for comp in model.dis_per_class:
            assert comp.dim == len(wine_fit.part.z_d)
        assert model.n_classes == 2

    @pytest.mark.parametrize("q", [0.0, 1.5, math.nan])
    def test_stop_quantile_out_of_range(self, toy_fit, q):
        with pytest.raises(OutOfRange):
            density.fit_partition_density(toy_fit.Z_train, toy_fit.train.class_label,
                                          toy_fit.moments, toy_fit.part, q)


class TestStopNlls:
    """The fit's stop NLLs are the stop quantile of each Gaussian's train
    NLLs: every train row for the pooled z_n Gaussian, each class's own rows
    for the class-conditional ones."""

    QS = (0.1, 0.5, 0.9, 1.0)

    @staticmethod
    def oracle(comp, rows, q) -> float:
        # one row at a time: a row's NLL does not depend on its batch
        return np.quantile([comp.nll(z[None])[0] for z in rows], q)

    @pytest.mark.parametrize("kind", ["toy", "wine"])
    def test_exact_quantiles_of_train_nlls(self, kind, request):
        fit = request.getfixturevalue(f"{kind}_fit")
        Z, Y = fit.Z_train, fit.train.class_label
        zn, zd = list(fit.part.z_n), list(fit.part.z_d)
        stops = []
        for q in self.QS:
            model = density.fit_partition_density(Z, Y, fit.moments, fit.part, q)
            assert model.non_dis_stop == self.oracle(model.non_dis, Z[:, zn], q)
            assert model.dis_stop.shape == model.joint_stop.shape == (model.n_classes,)
            for c in range(model.n_classes):
                own = Z[Y == c]
                assert model.dis_stop[c] == self.oracle(model.dis_per_class[c], own[:, zd], q)
                assert model.joint_stop[c] == self.oracle(model.joint_per_class[c], own, q)
            stops.append(np.concatenate([[model.non_dis_stop], model.dis_stop,
                                         model.joint_stop]))
        assert (np.diff(stops, axis=0) > 0).all()  # strictly rising in q


class TestNllNonDis:
    def test_unit_gaussian_at_mean(self):
        comp = density.GaussianComponent.from_moments([0.0], [[1.0]])
        assert comp.nll(np.array([[0.0]]))[0] == pytest.approx(
            0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_unit_gaussian_two_sigma(self):
        comp = density.GaussianComponent.from_moments([0.0], [[1.0]])
        assert comp.nll(np.array([[2.0]]))[0] == pytest.approx(
            0.5 * math.log(2 * math.pi) + 2.0, abs=1e-12)

    def test_direct_formula_oracle(self, toy_fit):
        # brute-force density via explicit matrix inverse, no Cholesky
        gen = np.random.default_rng(1)
        for comp in [toy_fit.model.non_dis] + toy_fit.model.joint_per_class:
            inv = np.linalg.inv(comp.cov)
            sign, logdet = np.linalg.slogdet(comp.cov)
            for _ in range(50):
                z = comp.mean + gen.normal(size=comp.dim) * 3
                diff = z - comp.mean
                expected = 0.5 * (comp.dim * math.log(2 * math.pi) + logdet
                                  + diff @ inv @ diff)
                assert comp.nll(z[None])[0] == pytest.approx(expected, rel=1e-9)

    def test_dimension_mismatch(self, toy_fit):
        comp = toy_fit.model.non_dis
        with pytest.raises(DimensionMismatch):
            comp.nll(np.zeros((1, 5)))
        # a vector of the right width is one row too few dims, not a row
        for score in (comp.nll, comp.mahalanobis_sq):
            with pytest.raises(DimensionMismatch):
                score(np.zeros(comp.dim))

    def test_mode_is_minimum(self, toy_fit):
        comp = toy_fit.model.non_dis
        gen = np.random.default_rng(2)
        base = comp.nll(comp.mean[None])[0]
        assert base == pytest.approx(mode_nll(comp), abs=1e-12)
        perturbed = comp.mean + gen.normal(size=(1000, comp.dim))
        assert np.all(comp.nll(perturbed) >= base)


class TestNllDis:
    def test_target_at_class_mean(self, toy_fit):
        comp = toy_fit.model.dis_per_class[0]
        got = nll_dis_target(toy_fit.model, comp.mean, target=0)
        assert got == pytest.approx(mode_nll(comp), abs=1e-12)

    def test_none_with_identical_components(self):
        gen = np.random.default_rng(3)
        rows = gen.normal(size=(40, 1))
        Z = np.hstack([np.vstack([rows, rows]), gen.normal(size=(80, 1))])
        Y = np.array([0] * 40 + [1] * 40)
        model = fit_density(Z, Y, tiny_partition([0], [1]))
        z = np.array([0.3])
        assert density.nll_dis(model, z[None])[0] == \
            pytest.approx(nll_dis_target(model, z, target=0), abs=1e-12)

    def test_none_equals_loop_minimum(self, toy_fit):
        gen = np.random.default_rng(4)
        for _ in range(100):
            z = gen.normal(size=len(toy_fit.part.z_d)) * 4
            got = density.nll_dis(toy_fit.model, z[None])[0]
            oracle = min(nll_dis_target(toy_fit.model, z, target=c)
                         for c in range(toy_fit.model.n_classes))
            assert got == oracle


def ood_score(model, proj, x):
    """Per-row oracle for `ood_scores`: (l_n, l_d) of one raw input, l_d as
    the minimum over the class components."""
    z = projection.project(proj, np.asarray(x, dtype=float))
    l_n = float(model.non_dis.nll(z[None, list(model.partition.z_n)])[0])
    l_d = min(float(c.nll(z[None, list(model.partition.z_d)])[0]) for c in model.dis_per_class)
    return l_n, l_d


class TestOodScore:
    def test_total_is_exact_sum(self, toy_fit):
        # scores.csv writes l_total as the sum of the two batched columns
        ln, ld = density.ood_scores(
            toy_fit.model, projection.project(toy_fit.projection, np.array([[0.0, 2.0]])))
        assert sum(ood_score(toy_fit.model, toy_fit.projection, [0.0, 2.0])) == ln[0] + ld[0]

    def test_deterministic(self, toy_fit):
        z = projection.project(toy_fit.projection, np.array([[1.0, 1.0], [0.0, 2.0]]))
        a = density.ood_scores(toy_fit.model, z)
        b = density.ood_scores(toy_fit.model, z)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_ood_centroid_above_id_median(self, toy_fit):
        centroid = sum(ood_score(toy_fit.model, toy_fit.projection, [0.0, 2.0]))
        id_train = toy_fit.train.features[~toy_fit.train.ood_flag]
        ln, ld = density.ood_scores(toy_fit.model,
                                    projection.project(toy_fit.projection, id_train))
        assert centroid > np.median(ln + ld)

    def test_batch_matches_single(self, toy_fit, toy_ood):
        ln, ld = density.ood_scores(toy_fit.model,
                                    projection.project(toy_fit.projection, toy_ood[:20]))
        for i in range(20):
            one_n, one_d = ood_score(toy_fit.model, toy_fit.projection, toy_ood[i])
            assert one_n == pytest.approx(ln[i], rel=1e-12)
            assert one_d == pytest.approx(ld[i], rel=1e-12)


class TestMahalanobis:
    def test_zero_at_class_mean(self):
        gen = np.random.default_rng(5)
        Z = gen.normal(size=(100, 3))
        Y = gen.integers(0, 2, size=100)
        scorer = fit_mahalanobis(Z, Y)
        mean0 = Z[Y == 0].mean(axis=0)
        assert scorer.score(mean0[None])[0] == pytest.approx(0.0, abs=1e-18)

    def test_identity_covariance_hand_value(self):
        comp = density.GaussianComponent.from_moments([0.0, 0.0], np.eye(2))
        scorer = density.MahalanobisScorer(components=[comp])
        assert scorer.score(np.array([[1.0, 1.0]]))[0] == pytest.approx(2.0, abs=1e-12)

    def test_marginal_pools_all_rows_hand_value(self):
        # two point-symmetric classes at x = +-3: pooled mean 0, and pooled
        # covariance diag(36, 4) / (n - 1) = diag(12, 4/3), all of the x
        # spread between the classes and all of the y spread within them
        Z = np.array([[3.0, 1.0], [3.0, -1.0], [-3.0, 1.0], [-3.0, -1.0]])
        scorer = fit_marginal(Z, np.array([0, 0, 1, 1]))
        assert np.allclose(scorer.component.mean, [0.0, 0.0], atol=1e-15)
        assert np.allclose(scorer.component.cov, np.diag([12.0, 4.0 / 3.0]),
                           rtol=1e-12)
        # 6^2 / 12 + 2^2 / (4/3) = 3 + 3
        assert scorer.score(np.array([[6.0, 2.0]]))[0] == pytest.approx(6.0, rel=1e-12)
        assert np.allclose(scorer.score(np.array([[0.0, 0.0], [3.0, 1.0]])),
                           [0.0, 9.0 / 12.0 + 1.0 / (4.0 / 3.0)], rtol=1e-12)

    def test_shift_invariance(self):
        gen = np.random.default_rng(6)
        Z = gen.normal(size=(200, 3))
        Y = gen.integers(0, 2, size=200)
        q = gen.normal(size=3)
        shift = np.array([5.0, -7.0, 11.0])
        a = fit_mahalanobis(Z, Y).score(q[None])[0]
        b = fit_mahalanobis(Z + shift, Y).score((q + shift)[None])[0]
        assert a == pytest.approx(b, abs=1e-8)
        am = fit_marginal(Z, Y).score(q[None])[0]
        bm = fit_marginal(Z + shift, Y).score((q + shift)[None])[0]
        assert am == pytest.approx(bm, abs=1e-8)

    def test_min_over_classes(self, toy_fit):
        scorer = density.MahalanobisScorer.fit(toy_fit.model)
        gen = np.random.default_rng(7)
        pts = gen.normal(size=(50, 2)) * 3
        batch = scorer.score(pts)
        for i, z in enumerate(pts):
            per_class = [c.mahalanobis_sq(z[None])[0] for c in scorer.components]
            assert batch[i] == pytest.approx(min(per_class), rel=1e-12)


class TestWhitening:
    """A row's NLL and Mahalanobis distance come from the same arithmetic
    whatever batch it sits in."""

    def test_row_alone_in_batch_and_permuted(self, wine_fit, toy_fit):
        gen = np.random.default_rng(9)
        models = (wine_fit.model, toy_fit.model)
        comps = [g for m in models for g in (m.non_dis, *m.dis_per_class, *m.joint_per_class)]
        for comp in comps:
            Z = comp.mean + 3.0 * gen.normal(size=(301, comp.dim))
            nll, maha = comp.nll(Z), comp.mahalanobis_sq(Z)
            perm = gen.permutation(len(Z))
            assert np.array_equal(comp.nll(Z[perm]), nll[perm])
            assert np.array_equal(comp.mahalanobis_sq(Z[perm]), maha[perm])
            assert np.array_equal(comp.nll(np.asfortranarray(Z)), nll)
            for i in range(0, len(Z), 23):
                assert comp.nll(Z[i:i + 1])[0] == nll[i]
                assert comp.mahalanobis_sq(Z[i:i + 1])[0] == maha[i]
                assert comp.nll(Z[i:i + 2])[0] == nll[i]

    def test_matches_a_solve_with_the_covariance(self, wine_fit):
        gen = np.random.default_rng(10)
        for comp in wine_fit.model.joint_per_class:
            D = 2.0 * gen.normal(size=(50, comp.dim))
            want = np.einsum("ij,ij->i", D, np.linalg.solve(comp.cov, D.T).T)
            assert np.allclose(comp.mahalanobis_sq(comp.mean + D), want, rtol=1e-9, atol=0)


class TestClassMoments:
    def test_pooled_moments_match_all_rows(self, wine_fit, toy_fit):
        for fit in (wine_fit, toy_fit):
            Z, m = fit.Z_train, fit.moments
            assert np.allclose(m.mean, Z.mean(axis=0), rtol=0, atol=1e-14)
            assert np.allclose(m.cov, np.cov(Z.T), rtol=1e-12, atol=1e-14)

    def test_mahalanobis_baseline_is_the_joint_model(self, toy_fit):
        # the baseline's components are what a per-class fit of all latents gives
        scorer = density.MahalanobisScorer.fit(toy_fit.model)
        for c, comp in enumerate(scorer.components):
            rows = toy_fit.Z_train[toy_fit.train.class_label == c]
            centered = rows - rows.mean(axis=0)
            assert np.array_equal(comp.mean, rows.mean(axis=0))
            assert np.array_equal(comp.cov, centered.T @ centered / (len(rows) - 1))

    @pytest.mark.parametrize("labels", [[0, 0, 2, 2], [1, 1, 2, 2], [-1, 0, 0, 1]])
    def test_labels_must_be_contiguous_from_zero(self, labels):
        with pytest.raises(DataError):
            density.class_moments(np.zeros((4, 2)), np.array(labels))


def same_bits(got, want):
    """Equal shape, dtype and every bit (NaN payloads and -0.0 included)."""
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def awkward(shape, seed):
    """Floats over 16 decades, with -0.0, +-inf and NaN sprinkled in."""
    gen = np.random.default_rng(seed)
    x = gen.normal(size=shape) * 10.0 ** gen.integers(-8, 8, size=shape)
    flat = x.reshape(-1)
    for value in (-0.0, np.inf, -np.inf, np.nan) if flat.size else ():
        flat[gen.integers(0, flat.size, size=max(1, flat.size // 50))] = value
    return x


class TestTallArrayKernels:
    """`rowwise`, `column_mean` and the `np.compress` gathers give the
    arrays of the plain numpy expressions they stand for, bit for bit."""

    B, C = _gaussian._BROADCAST_ROWS, _gaussian._ROW_CHUNK

    @pytest.mark.parametrize("ufunc", [np.subtract, np.add, np.true_divide])
    @pytest.mark.parametrize("d", [1, 2, 13])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 10**5 + 3])
    def test_rowwise_is_the_broadcast(self, ufunc, d, n):
        X, v = awkward((n, d), n + d), awkward((d,), d)
        v[0] = -0.0
        with np.errstate(all="ignore"):
            want = ufunc(X, v)
            assert same_bits(_gaussian.rowwise(ufunc, X, v), want)
            inplace = X.copy()
            assert _gaussian.rowwise(ufunc, inplace, v, out=inplace) is inplace
        assert same_bits(inplace, want)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "no columns", "float32"])
    def test_rowwise_other_layouts(self, layout):
        X = awkward((2 * self.B + 7, 4), 3)
        X = {"fortran": np.asfortranarray(X), "strided": X[::2, ::2],
             "no columns": X[:, :0], "float32": X.astype(np.float32)}[layout]
        v = awkward((X.shape[1],), 4)
        with np.errstate(all="ignore"):
            assert same_bits(_gaussian.rowwise(np.subtract, X, v), X - v)

    @pytest.mark.parametrize("d", [2, 3, 13])
    @pytest.mark.parametrize("n", [2, C - 1, C, C + 1, 2 * C, 3 * C + 5])
    def test_column_mean_c_contiguous(self, d, n):
        X = awkward((n, d), n * d)
        X[:, 0] = awkward((n,), 1) * 1e-3  # a column free of inf and NaN
        X[:, 1] = -0.0  # numpy's sum starts at +0.0
        with np.errstate(all="ignore"):
            assert same_bits(_gaussian.column_mean(X), X.mean(axis=0))

    @pytest.mark.parametrize("n", [C - 1, C, C + 1, 3 * C + 5])
    @pytest.mark.parametrize("layout", ["one column", "fortran", "strided", "float32"])
    def test_column_mean_other_layouts(self, layout, n):
        X = np.random.default_rng(n).normal(size=(2 * n, 3)) * 1e6 + 1.0
        X = {"one column": X[:n, :1].copy(), "fortran": np.asfortranarray(X[:n]),
             "strided": X[::2], "float32": X[:n].astype(np.float32)}[layout]
        assert same_bits(_gaussian.column_mean(X), X.mean(axis=0))

    def test_column_mean_sums_in_row_order(self):
        # 1 + 2**-53 + 2**-53 + ... stays 1 row by row, but not pairwise
        X = np.full((3 * self.C, 2), 2.0**-53)
        X[0] = 1.0
        assert same_bits(_gaussian.column_mean(X), X.mean(axis=0))
        assert X.mean(axis=0)[0] != X[:, 0].copy().mean()

    @pytest.mark.parametrize("mask", ["random", "all false", "all true"])
    def test_compress_is_the_boolean_gather(self, mask):
        gen = np.random.default_rng(5)
        rows = {"random": gen.random(3000) < 0.7, "all false": np.zeros(3000, bool),
                "all true": np.ones(3000, bool)}[mask]
        for X in (awkward((3000, 2), 6), gen.integers(-1, 3, 3000).astype(np.int8)):
            got = np.compress(rows, X, axis=0)
            assert got.dtype == X.dtype and np.array_equal(got.view(np.uint8),
                                                            X[rows].view(np.uint8))

    @pytest.mark.parametrize("labels", ["one class", "two classes"])
    def test_class_moments_of_tall_rows(self, labels):
        gen = np.random.default_rng(7)
        Z = gen.normal(size=(3 * self.C + 11, 2)) * [3.0, 0.5] + [1e3, -2.0]
        Y = (np.zeros(len(Z), int) if labels == "one class"
             else (gen.random(len(Z)) < 0.4).astype(np.int8))
        m = density.class_moments(Z, Y)
        for c in range(Y.max() + 1):
            rows = Z[Y == c]
            centered = rows - rows.mean(axis=0)
            assert np.array_equal(m.means[c], rows.mean(axis=0))
            assert np.array_equal(m.covs[c], centered.T @ centered / (len(rows) - 1))
        assert np.array_equal(m.mean, Z.mean(axis=0))


class TestRegularization:
    def test_near_singular_gets_ridge(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        comp = density.GaussianComponent.from_moments([0.0, 0.0], cov)
        assert comp.ridge > 0
        assert np.isfinite(comp.log_det)

    def test_hopeless_covariance_raises(self):
        with pytest.raises(SingularCovariance):
            density.GaussianComponent.from_moments([0.0], [[float("nan")]])
