import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodcf import counterfactual, report
from oodcf.counterfactual import GenerationConfig
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
    def test_identity(self):
        assert report.l1_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_arithmetic(self):
        assert report.l1_distance(np.array([1.0, 2.0]), np.array([2.0, 0.0])) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            report.l1_distance(np.zeros(2), np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1000))
    def test_permutation_invariance(self, seed):
        gen = np.random.default_rng(seed)
        x, y = gen.normal(size=(2, 6))
        perm = gen.permutation(6)
        assert report.l1_distance(x, y) == pytest.approx(
            report.l1_distance(x[perm], y[perm]), rel=1e-12)


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
        id_test = toy_fit.test.id_rows().features
        row = report.evaluate_run(fake_results(id_test), id_test,
                                  toy_fit.model, toy_fit.projection)
        assert row.auroc == pytest.approx(0.5, abs=1e-12)
        assert row.l1 == 0.0

    def test_untouched_ood_remains_detectable(self, toy_fit, toy_ood):
        id_test = toy_fit.test.id_rows().features
        row = report.evaluate_run(fake_results(toy_ood), id_test,
                                  toy_fit.model, toy_fit.projection)
        assert row.auroc >= 0.99

    def test_schema_fields(self, toy_fit, toy_ood):
        cfg = GenerationConfig()
        results = counterfactual.batch_generate(
            toy_ood[:20], variant="full", model=toy_fit.model,
            projection=toy_fit.projection, cfg=cfg)
        row = report.evaluate_run(results, toy_fit.test.id_rows().features,
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
        row = report.evaluate_run(results, toy_fit.test.id_rows().features,
                                  toy_fit.model, toy_fit.projection)
        assert np.isfinite(row.l1)

    def test_all_failed_raises(self, toy_fit, toy_ood):
        bad = counterfactual.CounterfactualResult(
            x_original=toy_ood[0], x_counterfactual=toy_ood[0],
            delta=np.zeros(2), trajectories=[], losses_before={},
            losses_after={}, steps_taken={}, variant="full",
            target_class=None, error="boom")
        with pytest.raises(EmptyInput):
            report.evaluate_run([bad], toy_fit.test.id_rows().features,
                                toy_fit.model, toy_fit.projection)


class TestRepeatAndAggregate:
    @staticmethod
    def run_fn(seed):
        gen = np.random.default_rng(seed)
        return report.EvalRow(approach="X", non_dis=float(gen.normal()),
                              dis=float(gen.normal()), l1=float(gen.normal()),
                              auroc=float(gen.random()))

    def test_single_seed_equals_single_run(self):
        agg = report.repeat_and_aggregate(self.run_fn, [7])
        single = self.run_fn(7)
        assert agg.mean.non_dis == single.non_dis
        assert agg.mean.auroc == single.auroc
        assert agg.mean.n_seeds == 1

    def test_mean_matches_arithmetic(self):
        agg = report.repeat_and_aggregate(self.run_fn, range(5))
        rows = [self.run_fn(s) for s in range(5)]
        assert agg.mean.l1 == pytest.approx(np.mean([r.l1 for r in rows]), abs=1e-12)
        assert len(agg.per_seed) == 5
        assert set(agg.std) == {"non_dis", "dis", "l1", "auroc"}

    def test_rerun_is_bit_identical(self):
        a = report.repeat_and_aggregate(self.run_fn, [3, 4, 5, 6])
        b = report.repeat_and_aggregate(self.run_fn, [3, 4, 5, 6])
        assert a.mean == b.mean

    def test_explicit_seed_list(self):
        agg = report.repeat_and_aggregate(self.run_fn, [2, 9, 14])
        assert [seed for seed, _ in agg.per_seed] == [2, 9, 14]
        assert agg.mean.n_seeds == 3

    def test_empty_seed_list_rejected(self):
        with pytest.raises(EmptyInput):
            report.repeat_and_aggregate(self.run_fn, [])

    def test_failing_seed_reports_seed(self):
        def boom(seed):
            if seed == 4:
                raise EmptyInput("nothing to do")
            return self.run_fn(seed)

        with pytest.raises(EmptyInput, match="seed 4"):
            report.repeat_and_aggregate(boom, [3, 4, 5])

    def test_failing_seed_keeps_trajectory(self):
        trajectory = np.arange(6.0).reshape(3, 2)
        original = NonFiniteLoss("loss became nan", trajectory=trajectory)

        def boom(seed):
            raise original

        with pytest.raises(NonFiniteLoss, match="seed 5: loss became nan") as info:
            report.repeat_and_aggregate(boom, [5, 6])
        assert info.value is original
        assert info.value.trajectory is trajectory

    def test_failing_seed_with_two_argument_exception(self):
        class Pair(OodcfError):
            def __init__(self, left, right):
                super().__init__(f"{left} vs {right}")
                self.left, self.right = left, right

        def boom(seed):
            raise Pair("a", "b")

        with pytest.raises(Pair, match="seed 0: a vs b") as info:
            report.repeat_and_aggregate(boom, [0])
        assert (info.value.left, info.value.right) == ("a", "b")


class TestFormatTable:
    def test_header_schema(self, toy_fit):
        rows = [report.EvalRow("OOD CF", 1.0, -2.0, 11.8, 0.86),
                report.EvalRow("CFI", 1.6, 8.5, 9.5, 1.0)]
        text = report.format_table(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["Approach", "Non-dis", "Dis", "L1", "AUROC"]
        assert "OOD CF" in lines[2]
