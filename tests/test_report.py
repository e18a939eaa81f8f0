import numpy as np
import pytest
from conftest import density_counterfactuals, id_rows, id_scores, l1_distance, ood_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from oodcf import counterfactual, report
from oodcf.errors import DimensionMismatch, EmptyInput, NonFiniteLoss, OodcfError


def pairwise_auroc(pos, neg):
    """Exhaustive pairwise-comparison oracle with half credit for ties."""
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def loop_auroc(positive_scores, negative_scores) -> float:
    """The tie loop `report.auroc` used before its tie groups were vectorized."""
    pos = np.asarray(positive_scores, dtype=float).ravel()
    neg = np.asarray(negative_scores, dtype=float).ravel()
    if pos.size == 0 or neg.size == 0:
        raise EmptyInput("auroc needs at least one score on each side")
    scores = np.concatenate([pos, neg])
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    ranks[order] = np.arange(1, scores.size + 1, dtype=float)
    # average the ranks within each tie group
    sorted_scores = scores[order]
    i = 0
    while i < sorted_scores.size:
        j = i
        while j + 1 < sorted_scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


class TestL1Distance:
    """The per-row oracle that `evaluate_run`'s vectorized L1 is held to."""

    def test_identity(self):
        assert l1_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_arithmetic(self):
        assert l1_distance(np.array([1.0, 2.0]), np.array([2.0, 0.0])) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            l1_distance(np.zeros(2), np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1000))
    def test_permutation_invariance(self, seed):
        gen = np.random.default_rng(seed)
        x, y = gen.normal(size=(2, 6))
        perm = gen.permutation(6)
        assert l1_distance(x, y) == pytest.approx(
            l1_distance(x[perm], y[perm]), rel=1e-12)


class TestAuroc:
    def test_perfect_separation(self):
        assert report.auroc([3.0, 2.0], [1.0, 0.0]) == 1.0

    def test_single_tied_pair(self):
        assert report.auroc([1.0], [1.0]) == 0.5

    def test_hand_case(self):
        # 8 of 9 pairs have pos > neg
        assert report.auroc([0.9, 0.8, 0.4], [0.7, 0.3, 0.2]) == pytest.approx(8 / 9)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            report.auroc([], [1.0])

    def test_matches_pairwise_oracle_with_ties(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            n_pos = int(gen.integers(1, 50))
            n_neg = int(gen.integers(1, 50))
            # coarse grid forces plenty of ties
            pos = gen.integers(0, 6, n_pos).astype(float)
            neg = gen.integers(0, 6, n_neg).astype(float)
            assert abs(report.auroc(pos, neg) - pairwise_auroc(pos, neg)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1000))
    def test_complement_identity(self, seed):
        gen = np.random.default_rng(seed)
        pos = gen.integers(0, 5, int(gen.integers(1, 20))).astype(float)
        neg = gen.integers(0, 5, int(gen.integers(1, 20))).astype(float)
        assert report.auroc(pos, neg) + report.auroc(neg, pos) == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1000))
    def test_monotone_transform_invariance(self, seed):
        gen = np.random.default_rng(seed)
        pos = gen.normal(size=int(gen.integers(1, 25)))
        neg = gen.normal(size=int(gen.integers(1, 25)))
        base = report.auroc(pos, neg)
        assert report.auroc(np.exp(pos), np.exp(neg)) == pytest.approx(base)
        assert report.auroc(3 * pos + 7, 3 * neg + 7) == pytest.approx(base)


class TestAurocAgainstLoop:
    """The vectorized tie groups give bit-identical AUROCs to the old loop."""

    @staticmethod
    def check(pos, neg):
        got = report.auroc(pos, neg)
        assert got == loop_auroc(pos, neg)
        return got

    def test_heavy_ties(self):
        gen = np.random.default_rng(1)
        for decimals in (0, 1, 2):
            for n_pos, n_neg in ((3, 500), (200, 300), (1000, 40)):
                pos = np.round(gen.normal(0.5, 1.0, n_pos), decimals)
                neg = np.round(gen.normal(size=n_neg), decimals)
                self.check(pos, neg)

    def test_all_equal(self):
        assert self.check(np.full(5, 2.0), np.full(7, 2.0)) == 0.5

    def test_infinities(self):
        inf = np.inf
        self.check([inf, 1.0, -inf, inf], [-inf, 0.0, inf, 1.0])
        self.check([inf, inf], [inf])
        assert self.check([inf], [-inf]) == 1.0

    @pytest.mark.parametrize("side", ["pos", "neg", "both"])
    def test_nan_is_its_own_tie_group(self, side):
        gen = np.random.default_rng(2)
        pos = np.round(gen.normal(size=30), 1)
        neg = np.round(gen.normal(size=40), 1)
        if side in ("pos", "both"):
            pos[[0, 5, 6]] = np.nan
        if side in ("neg", "both"):
            neg[[3, 4]] = np.nan
        self.check(pos, neg)
        self.check([np.nan, np.nan], [np.nan])

    def test_one_element_sides(self):
        gen = np.random.default_rng(3)
        many = np.round(gen.normal(size=50), 1)
        for one in ([0.0], [many[7]], [np.inf], [np.nan]):
            self.check(one, many)
            self.check(many, one)
            self.check(one, [0.0])

    @pytest.mark.parametrize("decimals", [None, 3])
    def test_toy_score_size(self, decimals):
        # one toy-score AUROC call: 40000 ID test scores against 100000 OOD
        gen = np.random.default_rng(4)
        pos = gen.normal(1.0, 1.0, 40_000)
        neg = gen.normal(size=100_000)
        if decimals is not None:
            pos, neg = np.round(pos, decimals), np.round(neg, decimals)
        self.check(pos, neg)

    def test_toy_score_size_with_nans(self):
        # 140000 scores, NaNs on both sides among heavy ties
        gen = np.random.default_rng(5)
        pos = np.round(gen.normal(1.0, 1.0, 40_000), 2)
        neg = np.round(gen.normal(size=100_000), 2)
        pos[gen.choice(pos.size, 300, replace=False)] = np.nan
        neg[gen.choice(neg.size, 700, replace=False)] = np.nan
        self.check(pos, neg)


def fake_results(points):
    out = []
    for x in np.atleast_2d(points):
        x = np.asarray(x, dtype=float)
        out.append(counterfactual.CounterfactualResult(
            x_original=x, x_counterfactual=x.copy(), delta=np.zeros_like(x),
            trajectories=[], losses_before={}, losses_after={}, steps_taken={},
            variant="full", target_class=None))
    return out


class TestEvaluateRun:
    def test_counterfactuals_equal_to_id_test_score_half(self, toy_fit):
        id_test = id_rows(toy_fit.test).features
        row = report.evaluate_run(fake_results(id_test), id_scores(toy_fit),
                                  toy_fit.model, toy_fit.projection)
        assert row.auroc == pytest.approx(0.5, abs=1e-12)
        assert row.l1 == 0.0

    def test_untouched_ood_remains_detectable(self, toy_fit, toy_ood):
        row = report.evaluate_run(fake_results(toy_ood), id_scores(toy_fit),
                                  toy_fit.model, toy_fit.projection)
        assert row.auroc >= 0.99

    def test_schema_fields(self, toy_fit, toy_ood):
        results = density_counterfactuals(toy_fit, toy_ood[:20])
        row = report.evaluate_run(results, id_scores(toy_fit),
                                  toy_fit.model, toy_fit.projection,
                                  approach="OOD CF")
        assert row.approach == "OOD CF"
        for name in ("non_dis", "dis", "l1", "auroc"):
            assert np.isfinite(getattr(row, name))
        assert 0.0 <= row.auroc <= 1.0

    def test_failed_rows_excluded(self, toy_fit, toy_ood):
        results = fake_results(toy_ood[:5])
        results.append(counterfactual.CounterfactualResult(
            x_original=toy_ood[5], x_counterfactual=toy_ood[5],
            delta=np.zeros(2), trajectories=[], losses_before={},
            losses_after={}, steps_taken={}, variant="full",
            target_class=None, error="NonFiniteLoss: boom"))
        row = report.evaluate_run(results, id_scores(toy_fit),
                                  toy_fit.model, toy_fit.projection)
        assert np.isfinite(row.l1)

    @pytest.mark.parametrize("source", ["toy", "wine"])
    def test_l1_equals_the_per_row_oracle(self, request, source):
        fit = request.getfixturevalue(f"{source}_fit")
        ood = ood_rows(fit.test).features
        results = density_counterfactuals(fit, ood)
        row = report.evaluate_run(results, id_scores(fit), fit.model, fit.projection)
        assert row.l1 == np.mean([l1_distance(r.x_original, r.x_counterfactual)
                                  for r in results])

    def test_l1_equals_the_oracle_on_random_tables(self, monkeypatch):
        # any width d: the scores are stubbed, so no model of width d is needed
        monkeypatch.setattr(report, "project", lambda projection, X: X)
        monkeypatch.setattr(report, "ood_scores",
                            lambda model, Z: (np.zeros(len(Z)), np.zeros(len(Z))))
        gen = np.random.default_rng(6)
        for d in (2, 3, 7, 13, 64, 300):
            for _ in range(5):
                X = gen.normal(size=(int(gen.integers(1, 80)), d)) * 10.0 ** gen.integers(-3, 4)
                X_cf = X + gen.normal(size=X.shape) * 10.0 ** gen.integers(-3, 4)
                results = fake_results(X)
                for r, x_cf in zip(results, X_cf):
                    r.x_counterfactual[:] = x_cf
                row = report.evaluate_run(results, [0.0], None, None)
                assert row.l1 == np.mean([l1_distance(x, x_cf) for x, x_cf in zip(X, X_cf)])

    def test_all_failed_raises(self, toy_fit, toy_ood):
        bad = counterfactual.CounterfactualResult(
            x_original=toy_ood[0], x_counterfactual=toy_ood[0],
            delta=np.zeros(2), trajectories=[], losses_before={},
            losses_after={}, steps_taken={}, variant="full",
            target_class=None, error="boom")
        with pytest.raises(EmptyInput):
            report.evaluate_run([bad], id_scores(toy_fit),
                                toy_fit.model, toy_fit.projection)


class TestRepeatAndAggregate:
    """`run`'s two multi-seed pieces: `aggregate` over a variant's per-seed
    rows, and `seed_prefix`, which names the seed of a failing fit or
    evaluation."""

    @staticmethod
    def run_fn(seed):
        gen = np.random.default_rng(seed)
        return report.EvalRow(approach="X", non_dis=float(gen.normal()),
                              dis=float(gen.normal()), l1=float(gen.normal()),
                              auroc=float(gen.random()))

    def test_single_seed_equals_single_run(self):
        mean, std = report.aggregate([self.run_fn(7)])
        assert mean == self.run_fn(7)
        assert mean.n_seeds == 1
        assert std == {"non_dis": 0.0, "dis": 0.0, "l1": 0.0, "auroc": 0.0}

    def test_mean_matches_arithmetic(self):
        rows = [self.run_fn(s) for s in range(5)]
        mean, std = report.aggregate(rows)
        for name in ("non_dis", "dis", "l1", "auroc"):
            values = [getattr(r, name) for r in rows]
            assert getattr(mean, name) == pytest.approx(np.mean(values), abs=1e-12)
            assert std[name] == pytest.approx(np.std(values), abs=1e-12)
        assert mean.n_seeds == 5
        assert set(std) == {"non_dis", "dis", "l1", "auroc"}

    def test_rerun_is_bit_identical(self):
        rows = [self.run_fn(s) for s in (3, 4, 5, 6)]
        assert report.aggregate(rows) == report.aggregate(list(rows))

    def test_explicit_seed_list(self):
        mean, _ = report.aggregate([self.run_fn(s) for s in (2, 9, 14)])
        assert mean.approach == "X"
        assert mean.n_seeds == 3

    def test_empty_seed_list_rejected(self):
        with pytest.raises(EmptyInput):
            report.aggregate([])

    def test_failing_seed_reports_seed(self):
        with pytest.raises(EmptyInput, match="seed 4: nothing to do"):
            with report.seed_prefix(4):
                raise EmptyInput("nothing to do")

    def test_failing_seed_reraises_its_exception(self):
        original = NonFiniteLoss("loss became nan")
        with pytest.raises(NonFiniteLoss, match="seed 5: loss became nan") as info:
            with report.seed_prefix(5):
                raise original
        assert info.value is original

    def test_failing_seed_with_two_argument_exception(self):
        class Pair(OodcfError):
            def __init__(self, left, right):
                super().__init__(f"{left} vs {right}")
                self.left, self.right = left, right

        with pytest.raises(Pair, match="seed 0: a vs b") as info:
            with report.seed_prefix(0):
                raise Pair("a", "b")
        assert (info.value.left, info.value.right) == ("a", "b")


class TestFormatTable:
    def test_header_schema(self, toy_fit):
        rows = [report.EvalRow("OOD CF", 1.0, -2.0, 11.8, 0.86),
                report.EvalRow("CFI", 1.6, 8.5, 9.5, 1.0)]
        text = report.format_table(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["Approach", "Non-dis", "Dis", "L1", "AUROC"]
        assert "OOD CF" in lines[2]
