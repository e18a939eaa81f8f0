import math
import tracemalloc
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from conftest import conditional_entropy, fit_qda, fit_toy, fit_wine
from hypothesis import given, settings
from hypothesis import strategies as st

from oodcf import partition
from oodcf.density import class_moments
from oodcf.errors import (
    CapExceeded,
    DataError,
    DegenerateNormalizationWarning,
    OutOfRange,
    SingularCovariance,
)


def bernoulli_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2(1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"probability {p} outside [0, 1]")
    out = 0.0
    if p > 0.0:
        out -= p * np.log2(p)
    if p < 1.0:
        out -= (1.0 - p) * np.log2(1.0 - p)
    return float(out)


def partition_loss(subset, Z_train, Y_train, Z_eval) -> float:
    """H[Yhat|Z_subset] - H[Yhat|Z_complement], both evaluated on Z_eval, from
    one `fit_qda` per side."""
    Z_train = np.asarray(Z_train, dtype=float)
    Z_eval = np.asarray(Z_eval, dtype=float)
    k = Z_train.shape[1]
    subset = tuple(sorted(subset))
    comp = tuple(i for i in range(k) if i not in subset)
    if not subset or not comp:
        raise OutOfRange("subset and complement must both be non-empty")
    h_sub = conditional_entropy(
        fit_qda(Z_train[:, subset], Y_train), Z_eval[:, subset])
    h_comp = conditional_entropy(
        fit_qda(Z_train[:, comp], Y_train), Z_eval[:, comp])
    return h_sub - h_comp


def separated_1d(n=200, gap=3.0, scale=1.0, seed=0):
    gen = np.random.default_rng(seed)
    Z = np.concatenate([gen.normal(-gap, scale, n), gen.normal(gap, scale, n)])
    Y = np.concatenate([np.zeros(n, int), np.ones(n, int)])
    return Z[:, None], Y


class TestFitQda:
    def test_separated_posterior_matches_closed_form(self):
        Z, Y = separated_1d()
        model = fit_qda(Z, Y)
        post = model.posterior(np.array([[3.0]]))[0]
        assert post[1] > 0.99
        # closed-form two-Gaussian posterior from the fitted moments
        m0, v0 = model.components[0].mean[0], model.components[0].cov[0, 0]
        m1, v1 = model.components[1].mean[0], model.components[1].cov[0, 0]
        log0 = -0.5 * (math.log(2 * math.pi * v0) + (3 - m0) ** 2 / v0) + math.log(0.5)
        log1 = -0.5 * (math.log(2 * math.pi * v1) + (3 - m1) ** 2 / v1) + math.log(0.5)
        expected = 1.0 / (1.0 + math.exp(log0 - log1))
        assert post[1] == pytest.approx(expected, rel=1e-12)

    def test_identical_classes_posterior_near_priors(self):
        gen = np.random.default_rng(1)
        base = gen.normal(size=(300, 2))
        Z = np.vstack([base, base])  # class distributions identical
        Y = np.array([0] * 300 + [1] * 300)
        model = fit_qda(Z, Y)
        post = model.posterior(gen.normal(size=(50, 2)))
        assert np.allclose(post, 0.5, atol=1e-9)

    def test_single_class_rejected(self):
        Z = np.random.default_rng(2).normal(size=(20, 2))
        with pytest.raises(DataError):
            fit_qda(Z, np.zeros(20, int))

    def test_priors_are_empirical(self):
        Z, Y = separated_1d()
        Z = np.vstack([Z, Z[:100]])
        Y = np.concatenate([Y, np.zeros(100, int)])
        model = fit_qda(Z, Y)
        assert model.priors[0] == pytest.approx(300 / 500)

    def test_posterior_rows_sum_to_one(self):
        Z, Y = separated_1d(seed=3)
        model = fit_qda(Z, Y)
        P = model.posterior(np.linspace(-5, 5, 40)[:, None])
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


class TestBernoulliEntropy:
    def test_maximum(self):
        assert bernoulli_entropy(0.5) == 1.0

    def test_degenerate_ends(self):
        assert bernoulli_entropy(0.0) == 0.0
        assert bernoulli_entropy(1.0) == 0.0

    def test_quarter(self):
        # -0.25*log2(0.25) - 0.75*log2(0.75), evaluated at high precision
        assert bernoulli_entropy(0.25) == pytest.approx(
            0.8112781244591328, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            bernoulli_entropy(1.5)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_bounds_and_symmetry(self, p):
        h = bernoulli_entropy(p)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(bernoulli_entropy(1.0 - p), abs=1e-12)


class TestConditionalEntropy:
    def test_constant_half_posterior_is_exactly_one(self):
        gen = np.random.default_rng(4)
        base = gen.normal(size=(100, 1))
        model = fit_qda(np.vstack([base, base]),
                                  np.array([0] * 100 + [1] * 100))
        h = conditional_entropy(model, gen.normal(size=(30, 1)))
        assert h == 1.0

    def test_toy_pc1_entropy(self, toy_fit):
        model = fit_qda(toy_fit.Z_train[:, [0]], toy_fit.train.class_label)
        h = conditional_entropy(model, toy_fit.Z_eval[:, [0]])
        assert abs(h - 1.92e-3) <= 5e-3

    def test_toy_pc2_entropy(self, toy_fit):
        model = fit_qda(toy_fit.Z_train[:, [1]], toy_fit.train.class_label)
        h = conditional_entropy(model, toy_fit.Z_eval[:, [1]])
        assert abs(h - 1.0) <= 0.02

    def test_two_classes_is_mean_bernoulli_entropy(self):
        Z, Y = separated_1d(gap=1.0, seed=9)
        model = fit_qda(Z, Y)
        Ze = np.linspace(-4, 4, 33)[:, None]
        expected = np.mean([bernoulli_entropy(p) for p in model.posterior(Ze)[:, 1]])
        assert conditional_entropy(model, Ze) == pytest.approx(expected, abs=1e-12)

    def test_binary_entropy_range(self):
        Z, Y = separated_1d(gap=0.5, seed=5)
        model = fit_qda(Z, Y)
        h = conditional_entropy(model, Z)
        assert 0.0 <= h <= 1.0


class TestSingletonEntropies:
    """The search's cardinality-1 entropies, kept on the Partition, are each
    latent's own QDA entropy: the values `toy` prints as H[Y|pc_j]."""

    @pytest.mark.parametrize("kind,seed", [(k, s) for k in ("toy", "wine") for s in range(3)])
    def test_match_per_latent_qda_oracle(self, kind, seed):
        fit = (fit_toy if kind == "toy" else fit_wine)(seed=seed)
        want = [conditional_entropy(fit_qda(fit.Z_train[:, [j]], fit.train.class_label),
                                    fit.Z_eval[:, [j]]) for j in range(fit.projection.k)]
        got = fit.part.singleton_entropies
        assert len(got) == fit.projection.k
        assert all(type(h) is float for h in got)
        assert np.abs(np.subtract(got, want)).max() <= 1e-15


class TestPartitionLoss:
    def test_toy_pc1_subset(self, toy_fit):
        loss = partition_loss(
            (0,), toy_fit.Z_train, toy_fit.train.class_label, toy_fit.Z_eval)
        assert loss == pytest.approx(-0.998, abs=0.02)

    def test_toy_sign_flip(self, toy_fit):
        a = partition_loss(
            (0,), toy_fit.Z_train, toy_fit.train.class_label, toy_fit.Z_eval)
        b = partition_loss(
            (1,), toy_fit.Z_train, toy_fit.train.class_label, toy_fit.Z_eval)
        assert b == -a

    def test_uninformative_dims_cancel(self):
        gen = np.random.default_rng(6)
        base = gen.normal(size=(150, 2))
        Z = np.vstack([base, base])
        Y = np.array([0] * 150 + [1] * 150)
        loss = partition_loss((0,), Z, Y, gen.normal(size=(40, 2)))
        assert loss == 0.0

    def test_empty_sides_rejected(self, toy_fit):
        with pytest.raises(OutOfRange):
            partition_loss(
                (0, 1), toy_fit.Z_train, toy_fit.train.class_label, toy_fit.Z_eval)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 300))
    def test_antisymmetry_exact(self, seed):
        gen = np.random.default_rng(seed)
        k = int(gen.integers(2, 5))
        Z = gen.normal(size=(60, k))
        Y = gen.integers(0, 2, size=60)
        if len(np.unique(Y)) < 2:
            Y[0], Y[1] = 0, 1
        Ze = gen.normal(size=(25, k))
        cut = int(gen.integers(1, k))
        sub = tuple(range(cut))
        comp = tuple(range(cut, k))
        assert partition_loss(sub, Z, Y, Ze) == \
            -partition_loss(comp, Z, Y, Ze)


def four_d_signal_data(seed=0, n=400, n_eval=200):
    """Dims 0 and 1 carry all class signal; dims 2 and 3 are noise."""
    gen = np.random.default_rng(seed)

    def block(n_rows):
        y = gen.integers(0, 2, size=n_rows)
        mu = np.where(y[:, None] == 0, 1.5, -1.5) * np.array([1.0, 1.0, 0.0, 0.0])
        return mu + gen.normal(size=(n_rows, 4)), y

    Z, Y = block(n)
    Ze, _ = block(n_eval)
    return Z, Y, Ze


def reference_search(Z, Y, Ze, slack=0.10):
    """Independent re-implementation: direct-formula QDA posteriors, explicit
    enumeration, and the documented normalization/threshold rule."""

    def entropy(cols):
        cols = list(cols)
        logps = []
        for c in (0, 1):
            rows = Z[Y == c][:, cols]
            mu = rows.mean(axis=0)
            cov = np.atleast_2d(np.cov(rows.T, ddof=1))
            inv = np.linalg.inv(cov)
            sign, logdet = np.linalg.slogdet(cov)
            diff = Ze[:, cols] - mu
            quad = np.einsum("ij,jk,ik->i", diff, inv, diff)
            lp = -0.5 * (len(cols) * np.log(2 * np.pi) + logdet + quad)
            logps.append(lp + np.log(rows.shape[0] / Z.shape[0]))
        L = np.vstack(logps)
        L = L - L.max(axis=0)
        P = np.exp(L)
        P = P / P.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(P > 0, P * np.log2(P), 0.0)
        return float((-terms.sum(axis=0)).mean())

    k = Z.shape[1]
    best = []
    for c in range(1, k):
        cands = []
        for sub in combinations(range(k), c):
            comp = tuple(i for i in range(k) if i not in sub)
            cands.append((entropy(sub) - entropy(comp), sub))
        loss, sub = min(cands, key=lambda t: (t[0], t[1]))
        best.append((c, sub, loss))
    losses = np.array([b[2] for b in best])
    norm = (losses - losses.mean()) / losses.std()
    m = norm.min()
    tau = m + abs(m) * slack
    for (c, sub, loss), z in zip(best, norm):
        if z < tau or z == tau:
            return sub, [b[2] for b in best]
    raise AssertionError("unreachable")


class TestSearchPartition:
    def test_toy_partition(self, toy_fit):
        assert toy_fit.part.z_d == (0,)
        assert toy_fit.part.z_n == (1,)

    def test_four_d_against_independent_oracle(self):
        Z, Y, Ze = four_d_signal_data()
        result = partition.search_partition(class_moments(Z, Y), Ze)
        oracle_subset, oracle_losses = reference_search(Z, Y, Ze)
        assert result.z_d == oracle_subset
        assert set(result.z_d) <= {0, 1}
        impl_losses = [r.loss for r in result.per_cardinality]
        assert np.allclose(impl_losses, oracle_losses, atol=1e-9)

    def test_slack_zero_is_global_argmin(self):
        Z, Y, Ze = four_d_signal_data(seed=1)
        result = partition.search_partition(class_moments(Z, Y), Ze, slack=0.0)
        losses = [r.normalized for r in result.per_cardinality]
        chosen = [r for r in result.per_cardinality if r.chosen][0]
        assert chosen.normalized == min(losses)

    def test_deterministic(self):
        Z, Y, Ze = four_d_signal_data(seed=2)
        a = partition.search_partition(class_moments(Z, Y), Ze)
        b = partition.search_partition(class_moments(Z, Y), Ze)
        assert a.z_d == b.z_d
        assert [r.loss for r in a.per_cardinality] == [r.loss for r in b.per_cardinality]

    def test_monotone_bias_guard(self):
        # the slack rule can only shrink the discriminative set
        for seed in range(4):
            Z, Y, Ze = four_d_signal_data(seed=seed)
            result = partition.search_partition(class_moments(Z, Y), Ze)
            by_norm = min(result.per_cardinality, key=lambda r: r.normalized)
            assert len(result.z_d) <= by_norm.cardinality

    def test_partition_covers_all_dims(self):
        Z, Y, Ze = four_d_signal_data(seed=3)
        result = partition.search_partition(class_moments(Z, Y), Ze)
        assert sorted(result.z_d + result.z_n) == [0, 1, 2, 3]
        assert set(result.z_d) & set(result.z_n) == set()
        assert 1 <= len(result.z_d) <= 3

    def test_cap(self):
        gen = np.random.default_rng(7)
        Z = gen.normal(size=(30, 6))
        Y = gen.integers(0, 2, size=30)
        with pytest.raises(CapExceeded):
            partition.search_partition(class_moments(Z, Y), Z, cap=5)

    def test_single_cardinality_is_chosen_silently(self, toy_fit):
        # k=2 has one cardinality: nothing to normalize against, nothing to warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = partition.search_partition(toy_fit.moments, toy_fit.Z_eval)
        assert len(result.z_d) == 1
        assert result.notes == []
        (record,) = result.per_cardinality
        assert (record.normalized, record.within_threshold, record.chosen) == (0.0, True, True)
        assert result.threshold is None

    def test_degenerate_normalization_fallback(self, monkeypatch):
        # k=4 with every subset entropy equal: the per-cardinality minima tie
        Z, Y, Ze = four_d_signal_data()
        monkeypatch.setattr(partition, "_subset_entropies", lambda means, covs, priors, Ze: [
            np.full(math.comb(4, c), 0.5) for c in range(5)])
        with pytest.warns(DegenerateNormalizationWarning):
            result = partition.search_partition(class_moments(Z, Y), Ze)
        assert len(result.z_d) == 1
        assert result.z_d == (0,)
        assert result.notes == [
            "all per-cardinality minima equal; falling back to smallest cardinality"]
        assert [r.within_threshold for r in result.per_cardinality] == [True, False, False]

    def test_k_below_two(self):
        gen = np.random.default_rng(8)
        with pytest.raises(OutOfRange):
            partition.search_partition(
                class_moments(gen.normal(size=(20, 1)), gen.integers(0, 2, 20)),
                gen.normal(size=(5, 1)))


class TestMulticlass:
    """Three ID classes: entropies generalize to the categorical posterior."""

    @staticmethod
    def data(seed=0):
        gen = np.random.default_rng(seed)
        means = np.array([[4.0, 0, 0], [-4.0, 0, 0], [0.0, 4, 0]])
        Z = np.vstack([m + gen.normal(size=(60, 3)) * 0.5 for m in means])
        Y = np.repeat([0, 1, 2], 60)
        Ze = np.vstack([m + gen.normal(size=(20, 3)) * 0.5 for m in means])
        return Z, Y, Ze

    def test_entropy_bounded_by_log2_c(self):
        Z, Y, Ze = self.data()
        gen = np.random.default_rng(1)
        noise = fit_qda(gen.normal(size=(180, 2)), Y)
        h = conditional_entropy(noise, gen.normal(size=(50, 2)))
        assert 0.0 <= h <= np.log2(3) + 1e-9

    def test_three_class_search_runs(self):
        Z, Y, Ze = self.data()
        result = partition.search_partition(class_moments(Z, Y), Ze)
        # dims 0 and 1 carry the class structure; dim 2 is noise
        assert 2 not in result.z_d
        assert sorted(result.z_d + result.z_n) == [0, 1, 2]


def per_subset_oracle(Z, Y, Ze):
    """One `fit_qda` + `conditional_entropy` per subset and per complement;
    returns [(cardinality, best subset, its loss)]. Ties follow the search's
    rule, the first subset in `combinations` order, where losses within the
    1e-12 bound of `assert_matches_oracle` of the best count as tied."""
    k = Z.shape[1]

    def entropy(cols):
        cols = list(cols)
        return conditional_entropy(fit_qda(Z[:, cols], Y), Ze[:, cols])

    out = []
    for c in range(1, k):
        scored = []
        for sub in combinations(range(k), c):
            comp = tuple(i for i in range(k) if i not in sub)
            scored.append((sub, entropy(sub) - entropy(comp)))
        best = min(loss for _, loss in scored)
        sub, loss = next((sub, loss) for sub, loss in scored if loss - best <= 1e-12)
        out.append((c, sub, loss))
    return out


def search(Z, Y, Ze):
    return partition.search_partition(class_moments(Z, Y), Ze)


def assert_matches_oracle(result, oracle):
    assert [(r.cardinality, r.subset) for r in result.per_cardinality] == \
        [(c, sub) for c, sub, _ in oracle]
    for r, (_, _, loss) in zip(result.per_cardinality, oracle):
        assert abs(r.loss - loss) <= 1e-12


def mixed_class_data(seed, k, n_classes, n=40, n_eval=20):
    """Correlated Gaussian classes whose means differ along random directions."""
    gen = np.random.default_rng(seed)
    mix = gen.normal(size=(k, k))
    shifts = gen.normal(scale=1.5, size=(n_classes, k))

    def block(rows):
        y = np.repeat(np.arange(n_classes), rows)
        return gen.normal(size=(y.size, k)) @ mix + shifts[y], y

    Z, Y = block(n)
    Ze, _ = block(n_eval // n_classes)
    return Z, Y, Ze


class TestBatchedSearchAgainstOracle:
    """The batched search scores every subset exactly like a per-subset QDA fit."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 7), st.sampled_from([2, 3]))
    def test_random_tables(self, seed, k, n_classes):
        Z, Y, Ze = mixed_class_data(seed, k, n_classes)
        assert_matches_oracle(search(Z, Y, Ze), per_subset_oracle(Z, Y, Ze))

    def test_duplicate_column_takes_the_ridge_fallback(self, monkeypatch):
        Z, Y, Ze = mixed_class_data(11, 5, 2)
        Z[:, 3] = Z[:, 1]
        Ze[:, 3] = Ze[:, 1]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.cov(Z[Y == 0].T))
        oracle = per_subset_oracle(Z, Y, Ze)

        ridges = []
        fit = partition.GaussianComponent.from_moments.__func__

        def spy(cls, mean, cov):
            comp = fit(cls, mean, cov)
            ridges.append(comp.ridge)
            return comp

        monkeypatch.setattr(partition.GaussianComponent, "from_moments", classmethod(spy))
        assert_matches_oracle(search(Z, Y, Ze), oracle)
        assert max(ridges) > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_train_rows_raise(self, bad):
        Z, Y, Ze = mixed_class_data(12, 4, 2)
        Z[5, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularCovariance):
                partition.search_partition(class_moments(Z, Y), Ze)

    def test_overflowing_covariance_raises(self):
        # finite rows whose covariance overflows reach the direct path
        Z, Y, Ze = mixed_class_data(12, 4, 2)
        Z[5, 2] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularCovariance):
                partition.search_partition(class_moments(Z, Y), Ze)

    def test_single_class_rejected(self):
        Z, _, Ze = mixed_class_data(13, 3, 2)
        with pytest.raises(DataError):
            partition.search_partition(class_moments(Z, np.zeros(Z.shape[0], int)), Ze)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 7), st.sampled_from([2, 3]))
    def test_random_tables_one_subset_per_batch(self, seed, k, n_classes):
        Z, Y, Ze = mixed_class_data(seed, k, n_classes)
        batched = search(Z, Y, Ze)
        with mock.patch.object(partition, "_CHUNK", 1):
            single = search(Z, Y, Ze)
        assert_matches_oracle(single, per_subset_oracle(Z, Y, Ze))
        # a subset's arithmetic does not depend on the batch it shares
        assert single.per_cardinality == batched.per_cardinality

    def test_near_singular_column_is_factored_directly(self, monkeypatch):
        Z, Y, Ze = mixed_class_data(11, 5, 2)
        gen = np.random.default_rng(3)
        Z[:, 3] = Z[:, 1] + 1e-6 * gen.normal(size=len(Z))
        Ze[:, 3] = Ze[:, 1] + 1e-6 * gen.normal(size=len(Ze))
        for c in (0, 1):
            cov = np.cov(Z[Y == c][:, [1, 3]].T)
            pivot = np.linalg.cholesky(cov)[1, 1] ** 2  # factors: tiny but positive
            assert 0.0 < pivot < partition._PIVOT_FLOOR * cov[1, 1]
        oracle = per_subset_oracle(Z, Y, Ze)

        direct = set()
        fit = partition._direct_entropies

        def spy(means, covs, log_priors, Zt, idx):
            direct.update(map(tuple, idx.tolist()))
            return fit(means, covs, log_priors, Zt, idx)

        monkeypatch.setattr(partition, "_direct_entropies", spy)
        assert_matches_oracle(search(Z, Y, Ze), oracle)
        # exactly the proper subsets holding both 1 and 3 skip the tree
        assert direct == {sub for c in range(2, 5) for sub in combinations(range(5), c)
                          if {1, 3} <= set(sub)}

    def test_direct_entropies_match_per_subset_fit(self):
        # near-singular subsets scored directly agree with a per-subset QDA fit
        Z, Y, Ze = mixed_class_data(11, 5, 2)
        gen = np.random.default_rng(3)
        Z[:, 3] = Z[:, 1] + 1e-6 * gen.normal(size=len(Z))
        Ze[:, 3] = Ze[:, 1] + 1e-6 * gen.normal(size=len(Ze))
        m = class_moments(Z, Y)
        log_priors = np.log(m.counts / m.counts.sum())
        for c in (2, 3, 4):
            idx = np.array([s for s in combinations(range(5), c) if {1, 3} <= set(s)])
            got = partition._direct_entropies(m.means, m.covs, log_priors, Ze.T, idx)
            want = [conditional_entropy(fit_qda(Z[:, s], Y), Ze[:, s])
                    for s in idx]
            assert np.abs(got - want).max() <= 1e-12

    def test_k13_search_memory(self):
        # wine-sized: 104 train rows, 26 eval rows
        Z, Y, Ze = mixed_class_data(15, 13, 2, n=52, n_eval=27)
        partition.search_partition(class_moments(Z, Y), Ze)
        tracemalloc.start()
        try:
            partition.search_partition(class_moments(Z, Y), Ze)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

    @pytest.mark.parametrize("chunk", [128, 64, 7])
    def test_k13_chunks_split_cardinalities(self, k13_case, monkeypatch, chunk):
        Z, Y, Ze, oracle = k13_case
        assert math.comb(13, 6) > chunk
        monkeypatch.setattr(partition, "_CHUNK", chunk)
        assert_matches_oracle(partition.search_partition(class_moments(Z, Y), Ze), oracle)


@pytest.fixture(scope="module")
def k13_case():
    """Wine-sized k=13 table and its per-subset oracle (8190 subsets)."""
    Z, Y, Ze = mixed_class_data(14, 13, 2, n=30, n_eval=16)
    return Z, Y, Ze, per_subset_oracle(Z, Y, Ze)
