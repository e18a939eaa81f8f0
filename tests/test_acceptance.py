"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import fit_toy
from oodcf import (cli, counterfactual, dataset, density, partition,
                   projection, report)
from oodcf.counterfactual import CfiConfig, GenerationConfig

WINE = Path(__file__).resolve().parent.parent / "data" / "wine_like.csv"
SEEDS = (0, 1, 2, 3, 4)


def verdict(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def toy_detection_aurocs(seed):
    """Custom-metric and Mahalanobis AUROCs for one toy seed."""
    fit = fit_toy(seed=seed)
    id_test = fit.test.id_rows().features
    ood = fit.test.ood_rows().features
    Zid = projection.project(fit.projection, id_test)
    Zood = projection.project(fit.projection, ood)
    ln_i, ld_i = density.ood_scores(fit.model, Zid)
    ln_o, ld_o = density.ood_scores(fit.model, Zood)
    mah = density.MahalanobisScorer.fit(fit.Z_train, fit.train.class_label)
    marg = density.MarginalMahalanobisScorer.fit(fit.Z_train)
    return {
        "custom": report.auroc(-(ln_i + ld_i), -(ln_o + ld_o)),
        "mahalanobis": report.auroc(-mah.score(Zid), -mah.score(Zood)),
        "marginal": report.auroc(-marg.score(Zid), -marg.score(Zood)),
    }


def test_criterion_01_toy_custom_metric_auroc():
    start = time.perf_counter()
    values = [toy_detection_aurocs(seed)["custom"] for seed in SEEDS]
    elapsed = time.perf_counter() - start
    mean = float(np.mean(values))
    ok = mean >= 0.99 and elapsed < 10.0
    verdict(1, ok, f"custom-metric AUROC {mean:.4f} (>= 0.99), {elapsed:.1f}s (< 10s)")


def toy_population_auroc(score):
    """ID-vs-OOD AUROC of the distance `score` (lower = more ID) under the
    documented toy populations, by quadrature on a 0.02 grid that reaches
    8 sigmas past every mean. Equal scores count half."""
    step, width = 0.02, 8.0
    means = np.array(dataset.TOY_CLASS_MEANS + (dataset.TOY_OOD_MEAN,))
    sd = np.sqrt(max(dataset.TOY_CLASS_VAR, dataset.TOY_OOD_VAR))
    axes = [np.arange(lo, hi + step, step) for lo, hi in
            zip(means.min(axis=0) - width * sd, means.max(axis=0) + width * sd)]
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)

    def density_weight(mean, var):  # unnormalized isotropic Gaussian
        return np.exp(-0.5 * ((X - mean) ** 2).sum(axis=1) / var)

    w_id = sum(density_weight(m, dataset.TOY_CLASS_VAR)
               for m in dataset.TOY_CLASS_MEANS)
    w_ood = density_weight(dataset.TOY_OOD_MEAN, dataset.TOY_OOD_VAR)
    _, group = np.unique(score(X), return_inverse=True)
    id_mass = np.bincount(group, w_id)
    ood_mass = np.bincount(group, w_ood)
    id_below = np.cumsum(id_mass) - id_mass
    wins = (ood_mass * (id_below + 0.5 * id_mass)).sum()
    return float(wins / (id_mass.sum() * ood_mass.sum()))


def test_criterion_02_toy_mahalanobis_aurocs():
    tol = 0.02  # about 3 standard errors of a 5-seed mean of the marginal AUROC
    rows = [toy_detection_aurocs(seed) for seed in SEEDS]
    custom, mah, marg = (float(np.mean([r[key] for r in rows]))
                         for key in ("custom", "mahalanobis", "marginal"))
    # oracles from the true toy parameters; Mahalanobis AUROCs are invariant
    # under the fitted affine projection, so raw coordinates serve
    means = np.array(dataset.TOY_CLASS_MEANS)
    centre = means.mean(axis=0)
    # equal-weight mixture of the ID classes: within- plus between-class spread
    mixture_cov = dataset.TOY_CLASS_VAR * np.eye(2) + np.cov(means.T, bias=True)
    precision = np.linalg.inv(mixture_cov)
    mah_oracle = toy_population_auroc(lambda X: np.min(
        [((X - m) ** 2).sum(axis=1) for m in means], axis=0) / dataset.TOY_CLASS_VAR)
    marg_oracle = toy_population_auroc(
        lambda X: np.einsum("ni,ij,nj->n", X - centre, precision, X - centre))
    ok = (abs(mah - mah_oracle) <= tol and abs(marg - marg_oracle) <= tol
          and marg < custom)
    verdict(2, ok,
            f"class-conditional {mah:.4f} (oracle {mah_oracle:.4f}), "
            f"marginal {marg:.4f} (oracle {marg_oracle:.4f}), each within {tol}; "
            f"marginal < custom {custom:.4f}")


def test_criterion_03_toy_entropies_and_partition():
    fit = fit_toy(seed=0)
    h = []
    for j in (0, 1):
        qda = partition.fit_qda(fit.Z_train[:, [j]], fit.train.class_label)
        h.append(partition.conditional_entropy(qda, fit.Z_eval[:, [j]]))
    ok = h[0] < 0.02 and h[1] > 0.95 and fit.part.z_d == (0,)
    verdict(3, ok,
            f"H[Y|pc1]={h[0]:.2e} (< 0.02), H[Y|pc2]={h[1]:.3f} (> 0.95), "
            f"z_d={list(fit.part.z_d)} (= [pc1])")


def test_criterion_04_gradient_finite_differences(toy_fit, wine_fit):
    eps = 1e-5
    start = time.perf_counter()
    worst = 0.0
    for fit, seed in ((toy_fit, 10), (wine_fit, 11)):
        gen = np.random.default_rng(seed)
        d = fit.projection.n_features
        phases = [(fit.model.non_dis, list(fit.part.z_n))]
        phases += [(comp, list(fit.part.z_d)) for comp in fit.model.dis_per_class]
        for trial in range(100):
            comp, dims = phases[trial % len(phases)]
            J = projection.jacobian(fit.projection, dims)
            u = gen.normal(size=d) * 2.0
            analytic = J.T @ comp.grad_nll(J @ u)
            fd = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = eps
                fd[i] = (comp.nll(J @ (u + e)) - comp.nll(J @ (u - e))) / (2 * eps)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    verdict(4, ok, f"max rel err {worst:.2e} (< 1e-5) on 2x100 pairs, "
                   f"{elapsed:.1f}s (< 5s)")


@pytest.fixture(scope="module")
def toy_cf_batch():
    fit = fit_toy(seed=0, n_per_class=500, n_ood=200)
    cfg = GenerationConfig()
    results = counterfactual.batch_generate(
        fit.test.ood_rows().features, variant="full", model=fit.model,
        projection=fit.projection, cfg=cfg)
    return fit, results


def test_criterion_05_step_decoupling(toy_cf_batch):
    fit, results = toy_cf_batch
    W = fit.projection.loadings
    zn, zd = list(fit.part.z_n), list(fit.part.z_d)
    worst = 0.0
    assert len(results) == 200
    for res in results:
        for trace in res.trajectories:
            Z = trace.points @ W
            frozen = zd if trace.phase == "non_dis" else zn
            worst = max(worst, float(np.abs(Z[:, frozen] - Z[0, frozen]).max()))
    ok = worst < 1e-9
    verdict(5, ok, f"max frozen-partition latent drift {worst:.2e} (< 1e-9) "
                   f"over {len(results)} counterfactuals")


def test_criterion_06_descent_contract(toy_cf_batch, wine_fit):
    fit, results = toy_cf_batch
    wine_results = counterfactual.batch_generate(
        wine_fit.test.ood_rows().features, variant="full",
        model=wine_fit.model, projection=wine_fit.projection,
        cfg=GenerationConfig())
    checked = strict_violations = phase_violations = endpoint_violations = 0
    for res in list(results) + list(wine_results):
        assert not res.failed
        checked += 1
        # each optimized partition's NLL at its phase end <= at its phase start
        for trace in res.trajectories:
            if trace.losses[-1] > trace.losses[0]:
                phase_violations += 1
        # end-to-end, both partitions sit at or below their initial values up
        # to the cross-phase float drift bounded by the decoupling criterion
        for key in ("non_dis", "dis"):
            slack = 1e-9 * max(1.0, abs(res.losses_before[key]))
            if res.losses_after[key] > res.losses_before[key] + slack:
                endpoint_violations += 1
        before = res.losses_before["non_dis"] + res.losses_before["dis"]
        after = res.losses_after["non_dis"] + res.losses_after["dis"]
        moved = any(res.steps_taken.values())
        if moved and not after < before:
            strict_violations += 1
    ok = (phase_violations == 0 and endpoint_violations == 0
          and strict_violations == 0)
    verdict(6, ok, f"{checked} counterfactuals: {phase_violations} phase increases, "
                   f"{endpoint_violations} endpoint increases, "
                   f"{strict_violations} non-strict total decreases")


def test_criterion_07_auroc_oracle_equivalence():
    gen = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        n_pos = int(gen.integers(1, 51))
        n_neg = int(gen.integers(1, 51))
        if gen.random() < 0.5:  # integer grids force ties
            pos = gen.integers(0, 8, n_pos).astype(float)
            neg = gen.integers(0, 8, n_neg).astype(float)
        else:
            pos = gen.normal(size=n_pos)
            neg = gen.normal(size=n_neg)
        wins = 0.0
        for p in pos:
            for n in neg:
                wins += 1.0 if p > n else (0.5 if p == n else 0.0)
        oracle = wins / (n_pos * n_neg)
        worst = max(worst, abs(report.auroc(pos, neg) - oracle))
    ok = worst <= 1e-12
    verdict(7, ok, f"max |rank-based - pairwise oracle| = {worst:.2e} (<= 1e-12)")


def test_criterion_08_ablation_ordering():
    cfg = GenerationConfig()
    totals = {v: [] for v in ("full", "sg", "sn", "sd")}
    for seed in SEEDS:
        fit = fit_toy(seed=seed, n_per_class=500, n_ood=200)
        id_test = fit.test.id_rows().features
        ood = fit.test.ood_rows().features
        for variant in totals:
            results = counterfactual.batch_generate(
                ood, variant=variant, model=fit.model,
                projection=fit.projection, cfg=cfg)
            row = report.evaluate_run(results, id_test, fit.model, fit.projection)
            totals[variant].append(row.auroc)
    means = {v: float(np.mean(scores)) for v, scores in totals.items()}
    ok = all(means["full"] <= means[v] for v in ("sg", "sn", "sd"))
    verdict(8, ok, "AUROC full {full:.3f} <= sg {sg:.3f}, sn {sn:.3f}, "
                   "sd {sd:.3f}".format(**means))


def test_criterion_09_tabular_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    code = cli.main(["run", "--data", str(WINE), "--label-col", "target",
                     "--ood-rule", "class_equals:2",
                     "--seeds", ",".join(map(str, SEEDS)),
                     "--variants", "full,sg,sn,sd,cfi",
                     "--out", str(tmp_path / "wine_run")])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    header_ok = out.splitlines()[0].split() == ["Approach", "Non-dis", "Dis",
                                                "L1", "AUROC"]
    with open(tmp_path / "wine_run" / "metrics_summary.csv") as fh:
        rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    schema_ok = rows[0] == ["approach", "non_dis", "dis", "l1", "auroc", "n_seeds"]
    seeds_ok = all(r[5] == "5" for r in rows[1:])
    variants_ok = [r[0] for r in rows[1:]] == ["OOD CF", "OOD SG", "OOD SN",
                                               "OOD SD", "CFI"]
    ok = (code == 0 and elapsed < 60.0 and header_ok and schema_ok
          and seeds_ok and variants_ok)
    verdict(9, ok, f"exit {code}, {elapsed:.1f}s (< 60s), schema "
                   f"{'ok' if header_ok and schema_ok else 'BAD'}, "
                   f"5-seed aggregation {'ok' if seeds_ok else 'BAD'}")


def test_criterion_10_cfi_crossing_and_l1_monotonicity():
    fit = fit_toy(seed=0, n_per_class=500, n_ood=200)
    id_train = fit.train.id_rows()
    clf = counterfactual.train_softmax_classifier(
        id_train.features, id_train.class_label, seed=0)
    ood = fit.test.ood_rows().features
    targets = [counterfactual.select_target(fit.model, fit.projection, x)
               for x in ood]

    def run(lam):
        results = [counterfactual.cfi_generate(
            x, clf, CfiConfig(lam=lam, target_class=t))
            for x, t in zip(ood, targets)]
        crossed = np.mean([clf.predict_proba(r.x_counterfactual)[t] >= 0.5
                           for r, t in zip(results, targets)])
        l1 = np.mean([report.l1_distance(r.x_original, r.x_counterfactual)
                      for r in results])
        return float(crossed), float(l1)

    crossed_default, l1_01 = run(0.1)  # default lambda
    _, l1_1 = run(1.0)
    _, l1_10 = run(10.0)
    ok = crossed_default >= 0.95 and l1_10 < l1_1 < l1_01
    verdict(10, ok, f"q_t>=0.5 for {crossed_default:.1%} (>= 95%) at lambda=0.1; "
                    f"mean L1 {l1_10:.4f} < {l1_1:.4f} < {l1_01:.4f} "
                    f"for lambda 10 > 1 > 0.1")


def test_criterion_11_byte_identical_reruns(tmp_path):
    def snapshot(root):
        return {p.name: p.read_bytes() for p in Path(root).iterdir()}

    toy_args = ["toy", "--seeds", "5", "--n-per-class", "300", "--n-ood", "150",
                "--out", str(tmp_path / "toy_out")]
    run_args = ["run", "--data", str(WINE), "--label-col", "target",
                "--ood-rule", "class_equals:2", "--seeds", "2",
                "--variants", "full,cfi", "--out", str(tmp_path / "run_out")]
    mismatches = []
    for args, out in ((toy_args, tmp_path / "toy_out"),
                      (run_args, tmp_path / "run_out")):
        assert cli.main(args) == 0
        first = snapshot(out)
        assert cli.main(args) == 0
        second = snapshot(out)
        if sorted(first) != sorted(second):
            mismatches.append(f"{out.name}: file sets differ")
        mismatches += [f"{out.name}/{name}" for name in first
                       if second.get(name) != first[name]]
    ok = not mismatches
    verdict(11, ok, "toy + run reruns byte-identical" if ok
            else f"changed: {mismatches}")
