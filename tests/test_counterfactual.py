import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (WINE_LIKE, argmax_targets, fit_toy, fit_wine, grad_nll, id_rows,
                      ood_rows, predict_proba)

from oodcf import counterfactual, dataset, density, projection, rng
from oodcf.counterfactual import ORDERS, VARIANTS, CfiConfig, GenerationConfig, PhaseTrace
from oodcf.errors import DimensionMismatch, NonFiniteLoss, OutOfRange


def latents(fit, X):
    return projection.project(fit.projection, np.atleast_2d(X))


def _variant_kwargs(fit, variant, classifier, cfg=None, cfi_cfg=None):
    if variant == "cfi":
        return {"classifiers": [classifier], "cfi_cfg": cfi_cfg or CfiConfig()}
    return {"model": fit.model, "projection": fit.projection,
            "cfg": cfg or GenerationConfig()}


def _targets(fit, variant, classifier, X):
    """The tests' target rule: `select_target` for the density variants, the
    classifier argmax for CFI. Rows built to overflow are the engine's to
    flag, so the rule itself stays silent on them."""
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "cfi":
            return argmax_targets(classifier, X)
        return counterfactual.select_target(fit.model, fit.projection, X)


def _run(fit, variant, X, classifier=None, targets=None, record=True, **cfgs):
    """`batch_generate` on the rows of X, toward `targets` or the tests' rule."""
    X = np.array(X, dtype=float, ndmin=2)
    if targets is None:
        targets = _targets(fit, variant, classifier, X)
    return counterfactual.batch_generate(X, targets, variant=variant, record=record,
                                         **_variant_kwargs(fit, variant, classifier, **cfgs))


class TestConfigs:
    def test_generation_validation(self):
        with pytest.raises(OutOfRange):
            GenerationConfig(order="sideways")
        with pytest.raises(OutOfRange):
            GenerationConfig(step_size=0.0)
        with pytest.raises(OutOfRange):
            GenerationConfig(max_iter=0)

    def test_cfi_validation(self):
        with pytest.raises(OutOfRange):
            CfiConfig(lam=-1.0)


class TestGenerate:
    def test_toy_trajectory_geometry(self, toy_fit):
        # from (0,2) with target class 1: vertical (non-dis) motion first,
        # then horizontal motion toward the class-1 centroid at (-3, 0)
        [res] = _run(toy_fit, "full", [0.0, 2.0], targets=[1],
                     cfg=GenerationConfig(order="non_dis_first"))
        phase1, phase2 = res.trajectories
        assert phase1.phase == "non_dis"
        assert phase2.phase == "dis"
        raw1 = toy_fit.projection.standardizer.inverse_transform(phase1.points)
        raw2 = toy_fit.projection.standardizer.inverse_transform(phase2.points)
        assert np.max(np.abs(raw1[:, 0] - raw1[0, 0])) < 0.1   # x frozen
        assert raw1[-1, 1] < 1.0                              # y moved down
        assert np.max(np.abs(raw2[:, 1] - raw2[0, 1])) < 0.1   # y frozen
        assert res.x_counterfactual[0] < -1.5                  # toward class 1

    def test_phases_chain(self, toy_fit, toy_ood):
        [res] = _run(toy_fit, "full", toy_ood[0])
        end_of_first = res.trajectories[0].points[-1]
        start_of_second = res.trajectories[1].points[0]
        assert np.array_equal(end_of_first, start_of_second)

    def test_delta_additivity_and_exactness(self, toy_fit, toy_ood):
        [res] = _run(toy_fit, "full", toy_ood[1])
        assert np.array_equal(res.x_original + res.delta, res.x_counterfactual)
        # delta decomposes into the per-phase displacements
        scale = toy_fit.projection.standardizer.scale
        parts = sum((t.points[-1] - t.points[0]) for t in res.trajectories) * scale
        assert np.allclose(parts, res.delta, atol=1e-12)

    def test_already_typical_point_does_not_move(self, toy_fit):
        # a point at the class-0 dis mean and pooled non-dis mean starts below
        # both stop thresholds
        z = np.zeros(2)
        z[list(toy_fit.part.z_d)] = toy_fit.model.dis_per_class[0].mean
        z[list(toy_fit.part.z_n)] = toy_fit.model.non_dis.mean
        x = toy_fit.projection.standardizer.inverse_transform(z @ toy_fit.projection.loadings.T)
        [res] = _run(toy_fit, "full", x, targets=[0])
        assert res.steps_taken == {"non_dis": 0, "dis": 0}
        assert np.allclose(res.delta, 0.0)

    def test_descent_contract(self, toy_fit, toy_ood):
        for res in _run(toy_fit, "full", toy_ood[:40]):
            for trace in res.trajectories:
                assert trace.losses[-1] <= trace.losses[0]
            assert res.losses_after["non_dis"] <= res.losses_before["non_dis"]
            assert res.losses_after["dis"] <= res.losses_before["dis"]

    def test_order_sensitivity(self, toy_fit):
        x = np.array([0.5, 2.2])
        [nd] = _run(toy_fit, "full", x, cfg=GenerationConfig(order="non_dis_first"))
        [dn] = _run(toy_fit, "full", x, cfg=GenerationConfig(order="dis_first"))
        assert [t.phase for t in nd.trajectories] == ["non_dis", "dis"]
        assert [t.phase for t in dn.trajectories] == ["dis", "non_dis"]
        mid_nd = nd.trajectories[0].points[-1]
        mid_dn = dn.trajectories[0].points[-1]
        assert not np.allclose(mid_nd, mid_dn)
        for res in (nd, dn):
            assert res.losses_after["non_dis"] <= res.losses_before["non_dis"]
            assert res.losses_after["dis"] <= res.losses_before["dis"]

    def test_dis_first_moves_horizontally_then_vertically(self, toy_fit):
        [res] = _run(toy_fit, "full", [0.0, 2.0], targets=[1],
                     cfg=GenerationConfig(order="dis_first"))
        raw1 = toy_fit.projection.standardizer.inverse_transform(
            res.trajectories[0].points)
        raw2 = toy_fit.projection.standardizer.inverse_transform(
            res.trajectories[1].points)
        assert np.max(np.abs(raw1[:, 1] - raw1[0, 1])) < 0.1   # y frozen first
        assert raw1[-1, 0] < -1.5                              # x moved to class 1
        assert np.max(np.abs(raw2[:, 0] - raw2[0, 0])) < 0.1   # x frozen second
        assert abs(raw2[-1, 1]) < 1.0                          # y moved down

    def test_gradient_matches_finite_differences(self, toy_fit, wine_fit):
        eps = 1e-5
        for fit, seed in ((toy_fit, 0), (wine_fit, 1)):
            gen = np.random.default_rng(seed)
            d = fit.projection.n_features
            phases = [
                (fit.model.non_dis, list(fit.part.z_n)),
                (fit.model.dis_per_class[0], list(fit.part.z_d)),
                (fit.model.joint_per_class[1], list(range(fit.projection.k))),
            ]
            for trial in range(100):
                comp, dims = phases[trial % len(phases)]
                J = projection.jacobian(fit.projection, dims)
                u = gen.normal(size=d) * 2.0
                analytic = J.T @ grad_nll(comp, J @ u)
                fd = np.zeros(d)
                for i in range(d):
                    e = np.zeros(d)
                    e[i] = eps
                    fd[i] = (comp.nll((J @ (u + e))[None])[0]
                             - comp.nll((J @ (u - e))[None])[0]) / (2 * eps)
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(analytic - fd) / denom < 1e-5

    def test_auto_target_is_nearest_class(self, toy_fit):
        X = np.array([[2.0, 2.0], [-2.0, 2.0]])
        assert counterfactual.select_target(toy_fit.model, toy_fit.projection,
                                            X).tolist() == [0, 1]


class TestStopRule:
    """A density phase that ends before max_iter without an error ends at
    its first iterate whose loss is at or below the stop NLL that the fit
    holds for the phase's Gaussian."""

    RUNS = [("full", order) for order in ORDERS] + [(v, ORDERS[0]) for v in ("sg", "sn", "sd")]

    @pytest.mark.parametrize("q", [0.5, 0.9])
    @pytest.mark.parametrize("kind", ["toy", "wine"])
    def test_phase_stops_at_first_loss_at_or_below_its_stop(self, kind, q, request):
        fit = request.getfixturevalue(f"{kind}_fit")
        model = density.fit_partition_density(fit.Z_train, fit.train.class_label,
                                              fit.moments, fit.part, q)
        # OOD rows descend; ID rows mostly start below their stops
        X = np.vstack([ood_rows(fit.test).features[:60], id_rows(fit.test).features[:20]])
        targets = counterfactual.select_target(model, fit.projection, X)
        moved = still = 0
        for variant, order in self.RUNS:
            cfg = GenerationConfig(order=order)
            for res in counterfactual.batch_generate(X, targets, variant=variant, model=model,
                                                     projection=fit.projection, cfg=cfg):
                for trace in res.trajectories:  # none for a failed row
                    if trace.steps == cfg.max_iter:
                        continue
                    t = res.target_class
                    stop = {"non_dis": model.non_dis_stop, "dis": model.dis_stop[t],
                            "joint": model.joint_stop[t]}[trace.phase]
                    assert trace.losses[-1] <= stop
                    if trace.steps:
                        assert trace.losses[-2] > stop
                    moved += trace.steps > 0
                    still += trace.steps == 0
        assert moved > 0 and still > 0


class TestDecoupling:
    def test_latent_decoupling_both_steps(self, toy_fit, toy_ood):
        zn, zd = list(toy_fit.part.z_n), list(toy_fit.part.z_d)
        W = toy_fit.projection.loadings
        for res in _run(toy_fit, "full", toy_ood[:30]):
            for trace in res.trajectories:
                Z = trace.points @ W
                frozen = zd if trace.phase == "non_dis" else zn
                drift = np.abs(Z[:, frozen] - Z[0, frozen]).max()
                assert drift < 1e-9

    @staticmethod
    def _frozen_drift(toy_fit, toy_ood, variant, frozen):
        """Largest move of the `frozen` latents over 20 rows of `variant`."""
        dims = list(getattr(toy_fit.part, frozen))
        results = _run(toy_fit, variant, toy_ood[:20])
        z0 = latents(toy_fit, toy_ood[:20])
        z1 = latents(toy_fit, [res.x_counterfactual for res in results])
        return np.abs(z1[:, dims] - z0[:, dims]).max()

    def test_sn_freezes_discriminative_latents(self, toy_fit, toy_ood):
        assert self._frozen_drift(toy_fit, toy_ood, "sn", "z_d") < 1e-9

    def test_sd_freezes_non_discriminative_latents(self, toy_fit, toy_ood):
        assert self._frozen_drift(toy_fit, toy_ood, "sd", "z_n") < 1e-9


class TestAblations:
    def test_sg_descends_joint_and_total(self, toy_fit, toy_ood):
        for res in _run(toy_fit, "sg", toy_ood[:20]):
            assert res.losses_after["joint"] <= res.losses_before["joint"]
            before = res.losses_before["non_dis"] + res.losses_before["dis"]
            after = res.losses_after["non_dis"] + res.losses_after["dis"]
            assert after <= before + 1e-9

    def test_unknown_variant(self, toy_fit):
        with pytest.raises(OutOfRange):
            counterfactual.batch_generate(
                np.zeros((1, 2)), [0], variant="nope", model=toy_fit.model,
                projection=toy_fit.projection, cfg=GenerationConfig())

    def test_wine_descent_contract_all_variants(self, wine_fit):
        ood = ood_rows(wine_fit.test).features
        for variant in ("full", "sg", "sn", "sd"):
            results = _run(wine_fit, variant, ood)
            assert not any(r.failed for r in results)
            for res in results:
                for trace in res.trajectories:
                    assert trace.losses[-1] <= trace.losses[0]


@pytest.fixture(scope="module")
def toy_classifier(toy_fit):
    return _classifier(toy_fit)


class TestCfi:
    def test_unregularized_reaches_target_probability(self, toy_fit, toy_ood,
                                                      toy_classifier):
        # the gradient of (q_t - 1)^2 vanishes quadratically near q_t = 1, so
        # the limiting behavior needs a longer budget than the default
        X = toy_ood[:30]
        targets = counterfactual.select_target(toy_fit.model, toy_fit.projection, X)
        results = _run(toy_fit, "cfi", X, toy_classifier, targets=targets,
                       cfi_cfg=CfiConfig(lam=0.0, step_size=0.2, max_iter=2000))
        for res, t in zip(results, targets):
            assert predict_proba(toy_classifier, res.x_counterfactual)[t] >= 0.99

    def test_huge_lambda_freezes_point(self, toy_fit, toy_ood, toy_classifier):
        [res] = _run(toy_fit, "cfi", toy_ood[0], toy_classifier, cfi_cfg=CfiConfig(lam=1e6))
        assert np.allclose(res.delta, 0.0)

    def test_objective_never_diverges(self, toy_fit, toy_ood, toy_classifier):
        for res in _run(toy_fit, "cfi", toy_ood[:20], toy_classifier):
            assert np.isfinite(res.losses_after["objective"])

    def test_classifier_training_deterministic(self, toy_fit):
        a, b = _classifier(toy_fit, seed=3), _classifier(toy_fit, seed=3)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_classifier_separates_toy(self, toy_fit, toy_classifier):
        id_test = id_rows(toy_fit.test)
        proba = predict_proba(toy_classifier, id_test.features)
        accuracy = (np.argmax(proba, axis=1) == id_test.class_label).mean()
        assert accuracy > 0.99


# -- trainer oracle: the mini-batch loop with a gather per batch and a row max --

def _oracle_train(features, labels, epochs=500, lr=0.01, batch_size=128, seed=0):
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    U = projection.fit_standardizer(X, with_scaling=True).transform(X)
    n, d = U.shape
    n_classes = int(y.max()) + 1
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    gen = rng.generator(seed, stream=2)
    onehot = np.eye(n_classes)[y]
    for _ in range(epochs):
        order = rng.permutation(gen, n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            logits = U[idx] @ W.T + b
            logits -= logits.max(axis=1, keepdims=True)
            P = np.exp(logits)
            P /= P.sum(axis=1, keepdims=True)
            G = (P - onehot[idx]) / idx.size
            W -= lr * (G.T @ U[idx])
            b -= lr * G.sum(axis=0)
    return W, b


def _split(kind, seed):
    """The train and test splits of the toy or wine `run` at a seed."""
    if kind == "toy":
        ds = dataset.make_toy(1000, 500, seed)
    else:
        table = dataset.load_csv(WINE_LIKE, "target")
        ds = dataset.apply_ood_rule(table, "class_equals:2")
    return dataset.split(ds, 0.8, seed)


def _train_id_rows(kind, seed):
    """ID rows of the train split the `run` command trains CFI on."""
    return id_rows(_split(kind, seed)[0])


_STACKS = {}


def _seed_stack(kind):
    """The classifiers of seeds 0-4 trained in one lock-step stack, as `run` does."""
    if kind not in _STACKS:
        rows = [_train_id_rows(kind, seed) for seed in range(5)]
        _STACKS[kind] = rows, counterfactual.train_softmax_classifier(
            [(r.features, r.class_label) for r in rows], list(range(5)))
    return _STACKS[kind]


class TestTrainerAgainstOracle:
    """Per-epoch gathers, a class-wise max and lock-step seeds leave every
    weight bit-equal to the per-seed oracle."""

    @pytest.mark.parametrize("kind,seed", [(k, s) for k in ("toy", "wine")
                                           for s in range(5)])
    def test_bit_equal_on_pipeline_data(self, kind, seed):
        rows, classifiers = _seed_stack(kind)
        W, b = _oracle_train(rows[seed].features, rows[seed].class_label, seed=seed)
        assert np.array_equal(classifiers[seed].weights, W)
        assert np.array_equal(classifiers[seed].bias, b)

    def test_bit_equal_three_classes_short_last_batch(self):
        gen = np.random.default_rng(5)
        y = np.repeat([0, 1, 2], [100, 120, 87])
        shift = 1.5 * y[:, None] * np.array([1.0, -1.0, 0.5, 0.0])
        Xs = [gen.normal(size=(y.size, 4)) + shift for _ in range(3)]
        assert y.size % 128 != 0
        classifiers = counterfactual.train_softmax_classifier(
            [(X, y) for X in Xs], [2, 7, 2], epochs=60)
        for X, seed, clf in zip(Xs, [2, 7, 2], classifiers):
            W, b = _oracle_train(X, y, epochs=60, seed=seed)
            assert clf.weights.shape == (3, 4)
            assert np.array_equal(clf.weights, W)
            assert np.array_equal(clf.bias, b)

    # (classes, dims, seeds, rows, batch, epochs): many classes, one seed, a
    # batch larger than the set, batches of 1000 and wine's 13 dims
    @pytest.mark.parametrize("C,d,S,n,batch,epochs", [
        (9, 4, 2, 300, 128, 30), (12, 5, 3, 300, 128, 30), (3, 3, 1, 250, 128, 40),
        (2, 13, 5, 103, 128, 60), (4, 2, 2, 3000, 1000, 20), (7, 13, 1, 500, 700, 30),
    ])
    def test_bit_equal_across_shapes(self, C, d, S, n, batch, epochs):
        gen = np.random.default_rng(C * 100 + d)
        y = np.arange(n) % C
        centers = gen.normal(size=(C, d))
        Xs = [gen.normal(size=(n, d)) + 2.0 * centers[y] for _ in range(S)]
        seeds = [3 * s + 1 for s in range(S)]
        classifiers = counterfactual.train_softmax_classifier(
            [(X, y) for X in Xs], seeds, epochs=epochs, batch_size=batch)
        for X, seed, clf in zip(Xs, seeds, classifiers):
            W, b = _oracle_train(X, y, epochs=epochs, batch_size=batch, seed=seed)
            assert clf.weights.shape == (C, d) and clf.bias.shape == (C,)
            assert clf.weights.flags.c_contiguous and clf.bias.flags.c_contiguous
            assert np.array_equal(clf.weights, W)
            assert np.array_equal(clf.bias, b)

    def test_wine_stack_memory(self):
        # the five wine seeds in one stack; gathering a whole permutation
        # draw at once instead of one epoch adds about 2 MB
        rows, _ = _seed_stack("wine")
        sets = [(r.features, r.class_label) for r in rows]
        tracemalloc.start()
        try:
            counterfactual.train_softmax_classifier(sets, list(range(5)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6

    def test_sets_of_different_sizes_are_rejected(self):
        X, y = np.random.default_rng(0).normal(size=(10, 2)), np.arange(10) % 2
        with pytest.raises(DimensionMismatch):
            counterfactual.train_softmax_classifier([(X, y), (X[:8], y[:8])], [0, 1])


def _max_row_proba(rows, U):
    """`_RowClassifiers.proba` with the row max taken by `max(axis=-1)`."""
    logits = np.einsum("nj,ncj->nc", U, rows.weights) + rows.bias
    logits = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(logits)
    return p / p.sum(axis=-1, keepdims=True)


def test_proba_class_max_keeps_non_finite_logits():
    # one row per pattern; a non-finite bias gets zero weights, so its logit
    # is the bias itself
    inf, nan = np.inf, np.nan
    bias = np.array([[inf, 0, 1], [-inf, 0, 1], [inf, inf, 0], [-inf, -inf, -inf],
                     [inf, -inf, 2], [nan, 0, 1], [0, nan, inf], [-inf, 3, nan],
                     [1e308, -1e308, 0], [-2, 5, 5]])
    n = len(bias)
    gen = np.random.default_rng(0)
    weights = np.where(np.isfinite(bias)[:, :, None], gen.normal(size=(n, 3, 4)), 0.0)
    rows = counterfactual._RowClassifiers(np.zeros((n, 4)), np.ones((n, 4)), weights, bias)
    U = gen.normal(size=(n, 4))
    with np.errstate(all="ignore"):
        got, want = rows.proba(U), _max_row_proba(rows, U)
    nan_at = np.isnan(want)
    assert nan_at.any() and (~nan_at).any()
    assert np.array_equal(np.isnan(got), nan_at)
    assert got[~nan_at].tobytes() == want[~nan_at].tobytes()


def _cfi_batch(classifiers, X, ids, targets, cfg=None):
    return counterfactual.batch_generate(
        X, targets, variant="cfi", classifiers=classifiers, classifier_ids=ids,
        cfi_cfg=cfg or CfiConfig(), record=False)


class TestLockStepDescent:
    """Every seed's CFI rows descend in one batch, each row under its own
    seed's classifier, with the bits of a per-seed or one-row descent."""

    @pytest.mark.parametrize("kind", ["toy", "wine"])
    def test_row_alone_in_its_seed_and_in_all_seeds(self, kind):
        _, classifiers = _seed_stack(kind)
        oods = [ood_rows(_split(kind, seed)[1]).features[:40] for seed in range(5)]
        targets = [np.arange(len(X)) % 2 for X in oods]
        everything = _cfi_batch(classifiers, np.vstack(oods),
                                np.repeat(np.arange(5), [len(X) for X in oods]),
                                np.concatenate(targets))
        start = 0
        for s, (X, t) in enumerate(zip(oods, targets)):
            own = _cfi_batch(classifiers, X, np.full(len(X), s), t)
            for i in range(len(X)):
                # alone: its seed's classifier as the one-item list
                alone = (_cfi_batch([classifiers[s]], X[i], 0, t[i:i + 1])[0]
                         if i % 13 == 0 else own[i])
                for res in (own[i], everything[start + i]):
                    assert np.array_equal(res.x_counterfactual, alone.x_counterfactual)
                    assert res.steps_taken == alone.steps_taken
                    assert res.losses_after == alone.losses_after
            start += len(X)

    def test_row_stacks_stay_c_contiguous(self, monkeypatch):
        kept = []
        keep_rows = counterfactual._CfiObjective.keep_rows

        def checked(self, classifiers, U0, targets):
            kept.append([a.flags.c_contiguous for a in vars(classifiers).values()])
            keep_rows(self, classifiers, U0, targets)

        monkeypatch.setattr(counterfactual._CfiObjective, "keep_rows", checked)
        _, classifiers = _seed_stack("toy")
        X = np.vstack([ood_rows(_split("toy", seed)[1]).features[:60] for seed in range(5)])
        # at lambda = 1 rows stop moving at many different steps, and a huge
        # row diverges
        X[7] = 1.7e308
        with np.errstate(over="ignore", invalid="ignore"):
            results = _cfi_batch(classifiers, X, np.arange(len(X)) % 5,
                                 np.arange(len(X)) % 2, CfiConfig(lam=1.0))
        assert results[7].failed
        assert len({r.steps_taken.get("cfi") for r in results}) > 20
        assert len(kept) > 5 and all(all(flags) for flags in kept)


class TestCfiGradient:
    """At lambda = 0 a CFI step is a plain gradient step on (q_t - p_t)^2, so
    U - step(U, P, 1) is its gradient."""

    @pytest.mark.parametrize("kind", ["toy", "wine"])
    def test_smooth_step_matches_central_differences(self, kind):
        _, classifiers = _seed_stack(kind)
        X = ood_rows(_split(kind, 0)[1]).features[:40]
        rows = counterfactual._RowClassifiers.gather(classifiers, np.arange(len(X)) % 5)
        U = rows.transform(X)
        objective = counterfactual._CfiObjective(rows, U, np.arange(len(X)) % 2,
                                                 CfiConfig(lam=0.0))
        grad = U - objective.step(U, objective.loss(U)[1], np.ones(len(U)))
        h, fd = 1e-6, np.empty_like(U)
        for j in range(U.shape[1]):
            E = np.zeros_like(U)
            E[:, j] = h
            fd[:, j] = (objective.loss(U + E)[0] - objective.loss(U - E)[0]) / (2 * h)
        rel = np.linalg.norm(grad - fd, axis=1) / np.linalg.norm(fd, axis=1)
        assert rel.max() <= 1e-6


class TestNllGradient:
    """With alpha = 1 a density step is a plain gradient step on the phase's
    Gaussian NLL of J @ u, so U - step(U, Y, 1) is its gradient; alpha is
    per row."""

    @pytest.mark.parametrize("phase", ["non_dis", "dis", "joint"])
    @pytest.mark.parametrize("kind", ["toy", "wine"])
    def test_step_matches_central_differences(self, kind, phase, request):
        fit = request.getfixturevalue(f"{kind}_fit")
        U = fit.projection.standardizer.transform(ood_rows(fit.test).features[:40])
        targets = np.arange(len(U)) % 2
        dims, gaussians, _ = counterfactual._phase_gaussians(fit.model, fit.projection,
                                                             phase, targets)
        J = projection.jacobian(fit.projection, dims)
        objective = counterfactual._NllObjective(J, gaussians, phase)
        grad = U - objective.step(U, objective.loss(U)[1], np.ones(len(U)))
        comps = {"non_dis": [fit.model.non_dis] * 2, "dis": fit.model.dis_per_class,
                 "joint": fit.model.joint_per_class}[phase]

        def nll(V):
            return np.array([comps[t].nll((J @ v)[None])[0] for v, t in zip(V, targets)])

        h, fd = 1e-5, np.empty_like(U)
        for j in range(U.shape[1]):
            E = np.zeros_like(U)
            E[:, j] = h
            fd[:, j] = (nll(U + E) - nll(U - E)) / (2 * h)
        rel = np.linalg.norm(grad - fd, axis=1) / np.linalg.norm(fd, axis=1)
        assert rel.max() <= 1e-6


# -- per-row oracle: the descent loops as they ran before the batched engine --
# Kept verbatim apart from two helpers that pin the arithmetic of that time
# (the gradient by two LU solves, and the class probabilities by a matmul),
# a divergence that carries only its message, CFI's p_t written as 1, each
# NLL taken of a one-row matrix, and the stop NLLs read from the fit.

def _oracle_grad_nll(component, z):
    y = np.linalg.solve(component.chol, z - component.mean)
    return np.linalg.solve(component.chol.T, y)


def _oracle_proba(classifier, u):
    logits = u @ classifier.weights.T + classifier.bias
    logits = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(logits)
    return p / p.sum(axis=-1, keepdims=True)


def _oracle_select_target(model, proj, x):
    z = projection.project(proj, np.asarray(x, dtype=float))
    z_d = z[list(model.partition.z_d)]
    nlls = [comp.nll(z_d[None])[0] for comp in model.dis_per_class]
    return int(np.argmin(nlls))


def _oracle_descend(u0, component, J, threshold, cfg, phase):
    u = u0.copy()
    z = J @ u
    loss = float(component.nll(z[None])[0])
    points, losses = [u.copy()], [loss]
    alpha, rises, steps = cfg.step_size, 0, 0
    while steps < cfg.max_iter and loss > threshold:
        g = J.T @ _oracle_grad_nll(component, z)
        u = u - alpha * g
        z = J @ u
        new_loss = float(component.nll(z[None])[0])
        if not np.isfinite(new_loss):
            raise NonFiniteLoss(f"{phase} phase diverged at step {steps + 1} (alpha={alpha:g})")
        if new_loss > loss:
            rises += 1
            if rises >= 2:
                alpha *= 0.5
                rises = 0
        else:
            rises = 0
        loss = new_loss
        steps += 1
        points.append(u.copy())
        losses.append(loss)
    return u, PhaseTrace(phase, np.array(points), np.array(losses), steps)


def _oracle_generate(x, model, proj, cfg, variant, target):
    """(x_counterfactual, trajectories, steps_taken) of a density variant."""
    if variant == "full":
        phases = ("non_dis", "dis") if cfg.order == "non_dis_first" else ("dis", "non_dis")
    else:
        phases = {"sg": ("joint",), "sn": ("non_dis",), "sd": ("dis",)}[variant]
    plan = []
    for name in phases:
        if name == "non_dis":
            plan.append((name, model.non_dis,
                         projection.jacobian(proj, model.partition.z_n),
                         model.non_dis_stop))
        elif name == "dis":
            plan.append((name, model.dis_per_class[target],
                         projection.jacobian(proj, model.partition.z_d),
                         model.dis_stop[target]))
        else:
            plan.append((name, model.joint_per_class[target],
                         projection.jacobian(proj, range(proj.k)),
                         model.joint_stop[target]))
    x = np.asarray(x, dtype=float)
    u0 = proj.standardizer.transform(x)
    u = u0
    trajectories, steps = [], {}
    for name, component, J, threshold in plan:
        u, trace = _oracle_descend(u, component, J, threshold, cfg, name)
        trajectories.append(trace)
        steps[name] = trace.steps
    return x + (u - u0) * proj.standardizer.scale, trajectories, steps


def _oracle_cfi(x, classifier, cfg, target):
    """(x_counterfactual, trajectories, steps_taken) of the CFI baseline,
    whose target probability p_t is 1."""
    x = np.asarray(x, dtype=float)
    u0 = classifier.standardizer.transform(x)

    def objective(u):
        qt = _oracle_proba(classifier, u)[target]
        return (qt - 1.0) ** 2 + cfg.lam * np.abs(u - u0).sum()

    u = u0.copy()
    points, losses = [u.copy()], [float(objective(u))]
    steps = 0
    for _ in range(cfg.max_iter):
        P = _oracle_proba(classifier, u)
        qt = P[target]
        grad_q = qt * (classifier.weights[target] - P @ classifier.weights)
        g = 2.0 * (qt - 1.0) * grad_q
        moved = u - cfg.step_size * g
        d = moved - u0
        d = np.sign(d) * np.maximum(np.abs(d) - cfg.step_size * cfg.lam, 0.0)
        u_next = u0 + d
        loss = float(objective(u_next))
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"cfi diverged at step {steps + 1}")
        if np.array_equal(u_next, u):
            break
        u = u_next
        steps += 1
        points.append(u.copy())
        losses.append(loss)
    trace = PhaseTrace("cfi", np.array(points), np.array(losses), steps)
    return x + (u - u0) * classifier.standardizer.scale, [trace], {"cfi": steps}


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))
                 / max(np.linalg.norm(b), 1e-300))


def _assert_matches_oracle(res, oracle):
    x_cf, trajectories, steps = oracle
    assert res.steps_taken == steps
    assert _rel(res.x_counterfactual, x_cf) <= 1e-10
    assert [t.phase for t in res.trajectories] == [t.phase for t in trajectories]
    for got, want in zip(res.trajectories, trajectories):
        assert got.steps == want.steps and got.points.shape == want.points.shape
        assert _rel(got.points, want.points) <= 1e-10
        assert _rel(got.losses, want.losses) <= 1e-10


def _classifier(fit, seed=0):
    id_train = id_rows(fit.train)
    [clf] = counterfactual.train_softmax_classifier(
        [(id_train.features, id_train.class_label)], [seed])
    return clf


class TestEngineAgainstOracle:
    """The batched engine against the per-row loops it replaced: equal step
    counts per row and phase, counterfactuals and trajectories within 1e-10
    relative (they differ only in float reduction order)."""

    @pytest.mark.parametrize("kind,seed", [(k, s) for k in ("toy", "wine")
                                           for s in range(5)])
    def test_matches_per_row_oracle(self, kind, seed):
        fit = fit_toy(seed, n_per_class=300, n_ood=30) if kind == "toy" else fit_wine(seed)
        ood = ood_rows(fit.test).features
        targets = counterfactual.select_target(fit.model, fit.projection, ood)
        assert targets.tolist() == [_oracle_select_target(fit.model, fit.projection, x)
                                    for x in ood]
        for order in ORDERS:
            cfg = GenerationConfig(order=order)
            for variant in ("full", "sg", "sn", "sd"):
                results = _run(fit, variant, ood, targets=targets, cfg=cfg)
                for x, t, res in zip(ood, targets, results):
                    assert res.target_class == t
                    _assert_matches_oracle(res, _oracle_generate(
                        x, fit.model, fit.projection, cfg, variant, t))
        clf = _classifier(fit, seed)
        results = _run(fit, "cfi", ood, clf, targets=targets)
        for x, t, res in zip(ood, targets, results):
            _assert_matches_oracle(res, _oracle_cfi(x, clf, CfiConfig(), t))


    @pytest.mark.parametrize("kind", ["toy", "wine"])
    def test_step_halving_matches_oracle(self, kind):
        # at alpha=2 the NLL rises twice in a row on many rows, so the
        # step-size halving runs
        fit = fit_toy(0, n_per_class=300, n_ood=30) if kind == "toy" else fit_wine(0)
        ood = ood_rows(fit.test).features
        cfg = GenerationConfig(step_size=2.0)
        targets = counterfactual.select_target(fit.model, fit.projection, ood)
        double_rises = 0
        for variant in ("full", "sg", "sn", "sd"):
            results = _run(fit, variant, ood, targets=targets, cfg=cfg)
            for x, t, res in zip(ood, targets, results):
                oracle = _oracle_generate(x, fit.model, fit.projection, cfg, variant, t)
                _assert_matches_oracle(res, oracle)
                for trace in oracle[1]:
                    rose = np.diff(trace.losses) > 0
                    double_rises += int(np.sum(rose[1:] & rose[:-1]))
        assert double_rises > 0


class TestBatch:
    def test_empty_input(self):
        assert counterfactual.batch_generate(np.empty((0, 2)), []) == []

    def test_batch_equals_loop(self, toy_fit, toy_ood, toy_classifier):
        for variant in VARIANTS:
            batch = _run(toy_fit, variant, toy_ood[:10], toy_classifier)
            for x, res in zip(toy_ood[:10], batch):
                [single] = _run(toy_fit, variant, x, toy_classifier)
                assert np.array_equal(res.x_counterfactual, single.x_counterfactual)
                assert res.losses_after == single.losses_after
                assert res.steps_taken == single.steps_taken
                for a, b in zip(res.trajectories, single.trajectories):
                    assert np.array_equal(a.points, b.points)
                    assert np.array_equal(a.losses, b.losses)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_permuted_batch_is_bit_identical(self, wine_fit, variant):
        ood = ood_rows(wine_fit.test).features
        clf = _classifier(wine_fit)
        base = _run(wine_fit, variant, ood, clf)
        perm = np.random.default_rng(0).permutation(len(ood))
        permuted = _run(wine_fit, variant, ood[perm], clf)
        for j, i in enumerate(perm):
            assert np.array_equal(permuted[j].x_counterfactual, base[i].x_counterfactual)
            assert permuted[j].steps_taken == base[i].steps_taken
            assert permuted[j].losses_after == base[i].losses_after

    def test_mixed_target_classes(self, toy_fit, toy_ood, toy_classifier):
        rows = toy_ood[:12]
        targets = np.arange(len(rows)) % 2
        for variant in VARIANTS:
            batch = _run(toy_fit, variant, rows, toy_classifier, targets=targets)
            for x, t, res in zip(rows, targets, batch):
                assert res.target_class == t
                if variant == "cfi":
                    oracle = _oracle_cfi(x, toy_classifier, CfiConfig(), t)
                else:
                    oracle = _oracle_generate(x, toy_fit.model, toy_fit.projection,
                                              GenerationConfig(), variant, t)
                _assert_matches_oracle(res, oracle)

    def test_out_of_range_target_flags_its_row(self, toy_fit, toy_ood):
        results = _run(toy_fit, "full", toy_ood[:3], targets=[0, 7, 1])
        assert [r.failed for r in results] == [False, True, False]
        assert results[1].error == "UnknownClass: target class 7 not in [0, 2)"

    def test_wrong_width_is_rejected(self, toy_fit, toy_classifier):
        for variant in ("full", "cfi"):
            with pytest.raises(DimensionMismatch):
                counterfactual.batch_generate(
                    np.zeros((2, 3)), [0, 0], variant=variant,
                    **_variant_kwargs(toy_fit, variant, toy_classifier))

    def test_diverging_row_is_isolated(self, toy_fit, toy_ood):
        rows = np.vstack([toy_ood[0], np.array([1e200, 1e200]), toy_ood[1]])
        results = _run(toy_fit, "full", rows)
        assert [r.failed for r in results] == [False, True, False]
        assert "NonFiniteLoss" in results[1].error

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_diverging_row_each_variant(self, toy_fit, toy_ood, toy_classifier, variant):
        # a squared Mahalanobis distance overflows at 1e200; CFI needs a row
        # whose standardization overflows
        bad = np.array([1.7e308, -1.7e308] if variant == "cfi" else [1e200, 1e200])
        rows = np.vstack([toy_ood[0], bad, toy_ood[1]])
        targets = _targets(toy_fit, variant, toy_classifier, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = _run(toy_fit, variant, rows, toy_classifier, targets=targets)
        assert [r.failed for r in results] == [False, True, False]
        with pytest.raises(NonFiniteLoss) as info, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's own
            if variant == "cfi":
                _oracle_cfi(bad, toy_classifier, CfiConfig(), targets[1])
            else:
                _oracle_generate(bad, toy_fit.model, toy_fit.projection,
                                 GenerationConfig(), variant, targets[1])
        assert results[1].error == f"NonFiniteLoss: {info.value}"
        for i in (0, 2):
            [single] = _run(toy_fit, variant, rows[i], toy_classifier, targets=targets[i:i + 1])
            assert np.array_equal(results[i].x_counterfactual, single.x_counterfactual)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_finite_start_is_flagged(self, toy_fit, toy_ood, toy_classifier,
                                         variant):
        # the per-row loops passed a NaN starting loss as a finished row
        rows = np.vstack([toy_ood[0], [np.inf, 0.0]])
        targets = _targets(toy_fit, variant, toy_classifier, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = _run(toy_fit, variant, rows, toy_classifier, targets=targets)
        assert not results[0].failed
        assert "diverged at step 1" in results[1].error

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_unrecorded_run_matches_recorded(self, toy_fit, toy_ood, toy_classifier,
                                             variant):
        recorded = _run(toy_fit, variant, toy_ood[:10], toy_classifier)
        bare = _run(toy_fit, variant, toy_ood[:10], toy_classifier, record=False)
        for a, b in zip(recorded, bare):
            assert b.trajectories == [] and len(a.trajectories) >= 1
            assert np.array_equal(a.x_counterfactual, b.x_counterfactual)
            assert a.steps_taken == b.steps_taken
            assert a.losses_before == b.losses_before
            assert a.losses_after == b.losses_after

    def test_select_target_batch(self, toy_fit, toy_ood):
        batch = counterfactual.select_target(toy_fit.model, toy_fit.projection, toy_ood)
        assert batch.dtype.kind == "i" and batch.shape == (len(toy_ood),)
        singles = [counterfactual.select_target(toy_fit.model, toy_fit.projection,
                                                x[None])[0] for x in toy_ood]
        assert batch.tolist() == singles
        assert set(singles) == {0, 1}
