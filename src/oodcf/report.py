"""Evaluation metrics (Non-dis, Dis, L1, AUROC) and multi-seed aggregation.

The detection score is -l_total so that ID points score higher; AUROC is
the rank-based (Mann-Whitney) statistic with half credit for ties. L1 is
reported in raw feature units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counterfactual import CounterfactualResult
from .density import PartitionDensityModel, nll_dis, nll_non_dis, ood_scores
from .errors import DimensionMismatch, EmptyInput
from .projection import ProjectionModel, project


def l1_distance(x, x_prime) -> float:
    """Sum of absolute coordinate differences."""
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    if x.shape != x_prime.shape:
        raise DimensionMismatch(f"shapes differ: {x.shape} vs {x_prime.shape}")
    return float(np.abs(x_prime - x).sum())


def auroc(positive_scores, negative_scores) -> float:
    """P(positive > negative) with ties counting one half (Mann-Whitney U).

    Each positive counts the negatives below it plus half those equal to
    it, by binary search in the sorted negatives. NaN compares unequal to
    everything, itself included, so it ranks as its own tie group above
    every number, positives before negatives: a NaN positive beats every
    non-NaN negative and ties nothing. U is a sum of half-integers far
    below 2**53, so it is exact, equal to the average-rank sum.
    """
    pos = np.asarray(positive_scores, dtype=float).ravel()
    neg = np.asarray(negative_scores, dtype=float).ravel()
    if pos.size == 0 or neg.size == 0:
        raise EmptyInput("auroc needs at least one score on each side")
    neg = np.sort(neg)  # NaNs last
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    ties[np.isnan(pos)] = 0
    u = below.sum() + 0.5 * ties.sum()
    return float(u / (pos.size * neg.size))


@dataclass(frozen=True)
class EvalRow:
    """One table row: Approach, Non-dis, Dis, L1, AUROC."""

    approach: str
    non_dis: float
    dis: float
    l1: float
    auroc: float
    n_seeds: int = 1


def evaluate_run(counterfactuals: list[CounterfactualResult], id_test_features,
                 model: PartitionDensityModel, projection: ProjectionModel,
                 approach: str = "OOD CF") -> EvalRow:
    """Metrics of a batch of counterfactuals against held-out ID data.

    Non-dis and Dis are mean per-partition NLLs of the counterfactual
    latents (Dis in scoring mode, min over classes); AUROC uses -l_total
    with ID test rows as positives and the counterfactuals as negatives.
    Rows whose generation failed are excluded.
    """
    ok = [r for r in counterfactuals if not r.failed]
    if not ok:
        raise EmptyInput("no successfully generated counterfactuals to evaluate")
    id_test = np.atleast_2d(np.asarray(id_test_features, dtype=float))
    if id_test.shape[0] == 0:
        raise EmptyInput("need at least one ID test row")

    X_cf = np.vstack([r.x_counterfactual for r in ok])
    Z_cf = project(projection, X_cf)
    zn = Z_cf[:, list(model.partition.z_n)]
    zd = Z_cf[:, list(model.partition.z_d)]
    ln_cf = nll_non_dis(model, zn)
    ld_cf = nll_dis(model, zd, target=None)

    ln_id, ld_id = ood_scores(model, project(projection, id_test))
    score_pos = -(ln_id + ld_id)
    score_neg = -(ln_cf + ld_cf)

    l1_mean = float(np.mean([l1_distance(r.x_original, r.x_counterfactual) for r in ok]))
    return EvalRow(
        approach=approach,
        non_dis=float(ln_cf.mean()),
        dis=float(ld_cf.mean()),
        l1=l1_mean,
        auroc=auroc(score_pos, score_neg),
    )


@dataclass(frozen=True)
class AggregateResult:
    mean: EvalRow
    per_seed: list[tuple[int, EvalRow]]
    std: dict


def repeat_and_aggregate(run_fn, seeds: list[int],
                         approach: str | None = None) -> AggregateResult:
    """Run `run_fn(seed)` for each seed and average each metric; per-seed
    rows and standard deviations are kept for the long-form output. A
    failing seed aborts with its own exception, whose message is prefixed
    with the seed."""
    n_seeds = len(seeds)
    if n_seeds < 1:
        raise EmptyInput("need at least one seed")
    per_seed = []
    for seed in seeds:
        try:
            row = run_fn(seed)
        except Exception as exc:
            exc.args = (f"seed {seed}: {exc}",)
            raise
        per_seed.append((seed, row))
    name = approach if approach is not None else per_seed[0][1].approach
    fields = ("non_dis", "dis", "l1", "auroc")
    values = {f: np.array([getattr(row, f) for _, row in per_seed]) for f in fields}
    mean = EvalRow(
        approach=name,
        **{f: float(values[f].mean()) for f in fields},
        n_seeds=n_seeds,
    )
    std = {f: float(values[f].std(ddof=0)) for f in fields}
    return AggregateResult(mean=mean, per_seed=per_seed, std=std)


def format_table(rows: list[EvalRow]) -> str:
    """Aligned text table in the Approach/Non-dis/Dis/L1/AUROC schema."""
    header = ("Approach", "Non-dis", "Dis", "L1", "AUROC")
    cells = [header] + [
        (r.approach, f"{r.non_dis:.3f}", f"{r.dis:.3f}", f"{r.l1:.3f}", f"{r.auroc:.3f}")
        for r in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) if j else cell.ljust(w)
                               for j, (cell, w) in enumerate(zip(row, widths))))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
