"""Evaluation metrics (Non-dis, Dis, L1, AUROC) and multi-seed aggregation.

The detection score is -l_total so that ID points score higher; AUROC is
the rank-based (Mann-Whitney) statistic with half credit for ties. L1 is
reported in raw feature units.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .counterfactual import CounterfactualResult
from .density import PartitionDensityModel, ood_scores
from .errors import EmptyInput
from .projection import ProjectionModel, project


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
    # both sides sorted (copies: ravel may hand back the caller's array), so
    # the binary searches walk the negatives in order; the counts are the same
    pos, neg = np.sort(pos), np.sort(neg)  # NaNs last
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


def evaluate_run(counterfactuals: list[CounterfactualResult], id_scores,
                 model: PartitionDensityModel, projection: ProjectionModel,
                 approach: str = "OOD CF") -> EvalRow:
    """Metrics of a batch of counterfactuals against held-out ID data.

    Non-dis and Dis are mean per-partition NLLs of the counterfactual
    latents (Dis in scoring mode, min over classes); AUROC uses -l_total
    with the ID test rows' `id_scores` as positives and the counterfactuals
    as negatives.
    Rows whose generation failed are excluded.
    """
    ok = [r for r in counterfactuals if not r.failed]
    if not ok:
        raise EmptyInput("no successfully generated counterfactuals to evaluate")
    score_pos = np.asarray(id_scores, dtype=float).ravel()
    if score_pos.size == 0:
        raise EmptyInput("need at least one ID test row")

    X_cf = np.vstack([r.x_counterfactual for r in ok])
    ln_cf, ld_cf = ood_scores(model, project(projection, X_cf))
    score_neg = -(ln_cf + ld_cf)

    X = np.vstack([r.x_original for r in ok])
    return EvalRow(
        approach=approach,
        non_dis=float(ln_cf.mean()),
        dis=float(ld_cf.mean()),
        l1=float(np.abs(X_cf - X).sum(axis=1).mean()),
        auroc=auroc(score_pos, score_neg),
    )


@contextmanager
def seed_prefix(seed: int):
    """Prefix the message of an exception raised inside with `seed S: `."""
    try:
        yield
    except Exception as exc:
        exc.args = (f"seed {seed}: {exc}",)
        raise


def aggregate(rows: list[EvalRow]) -> tuple[EvalRow, dict]:
    """The mean of each metric over `rows`, one row per seed, as an EvalRow
    named after the first and counting the rows as its seeds; and each
    metric's population standard deviation."""
    if not rows:
        raise EmptyInput("need at least one seed")
    values = {f: np.array([getattr(row, f) for row in rows])
              for f in ("non_dis", "dis", "l1", "auroc")}
    mean = EvalRow(approach=rows[0].approach, **{f: float(v.mean()) for f, v in values.items()},
                   n_seeds=len(rows))
    return mean, {f: float(v.std(ddof=0)) for f, v in values.items()}


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
