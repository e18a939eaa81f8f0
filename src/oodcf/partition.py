"""Split latent dimensions into discriminative (z_d) and non-discriminative
(z_n) index sets by exhaustive conditional-entropy search with a QDA
classifier.

For every subset S of latent dims the loss is
    H[Yhat_S | Z_S] - H[Yhat_S^c | Z_S^c]
where each entropy is the mean (base-2) entropy of the posterior of a QDA
classifier trained on the train rows of those columns and evaluated on
held-out rows. Per cardinality the best subset is kept; the per-cardinality
minima are z-score-normalized, and the smallest cardinality within a slack
threshold of the best normalized value becomes z_d.

The search fits each class's mean and covariance once on all k latents; a
subset's QDA parameters are the principal submatrices of those moments.
Subsets of one cardinality are scored in fixed-size chunks with one batched
Cholesky factorization and one batched solve per chunk, so peak memory does
not grow with C(k, c).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from ._gaussian import LOG_2PI, GaussianComponent
from .errors import (
    CapExceeded,
    DataError,
    DegenerateNormalizationWarning,
    DimensionMismatch,
    OutOfRange,
    SingularCovariance,
)

DEFAULT_SLACK = 0.10
DEFAULT_CAP = 20
_CHUNK = 128  # subsets per batched factorization


@dataclass(frozen=True)
class QdaModel:
    """Per-class Gaussian with empirical priors; posteriors over class ids 0..C-1."""

    components: list[GaussianComponent]
    priors: np.ndarray

    @property
    def n_classes(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def log_joint(self, Z: np.ndarray) -> np.ndarray:
        """log p(z | c) + log prior, shape (n, C)."""
        Z = np.asarray(Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[None, :]
        if Z.shape[1] != self.dim:
            raise DimensionMismatch(f"eval data has {Z.shape[1]} cols, model has {self.dim}")
        cols = [comp.log_density(Z) + np.log(p)
                for comp, p in zip(self.components, self.priors)]
        return np.stack(cols, axis=1)

    def posterior(self, Z: np.ndarray) -> np.ndarray:
        """P(c | z) rows summing to 1, shape (n, C)."""
        return _softmax(self.log_joint(Z))


def _softmax(lj: np.ndarray) -> np.ndarray:
    """Normalize log joints over the last (class) axis."""
    p = np.exp(lj - lj.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p


def fit_qda(Z: np.ndarray, Y: np.ndarray) -> QdaModel:
    """Class-conditional Gaussians with ridge-regularized covariances."""
    means, covs, priors = _class_moments(np.atleast_2d(np.asarray(Z, dtype=float)), Y)
    return QdaModel(components=[GaussianComponent.from_moments(m, s)
                                for m, s in zip(means, covs)], priors=priors)


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


def _posterior_entropy_bits(P: np.ndarray) -> np.ndarray:
    """Categorical entropy in bits over the last axis, with 0*log0 -> 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(P > 0.0, P * np.log2(P), 0.0)
    return -terms.sum(axis=-1)


def conditional_entropy(model: QdaModel, Z_eval: np.ndarray) -> float:
    """Mean posterior entropy over evaluation rows, in bits.

    For two classes this is E[h(P(y=1|z))]; for more classes the full
    categorical posterior entropy.
    """
    P = model.posterior(Z_eval)
    return float(_posterior_entropy_bits(P).mean())


def partition_loss(subset, Z_train, Y_train, Z_eval) -> float:
    """H[Yhat|Z_subset] - H[Yhat|Z_complement], both evaluated on Z_eval."""
    Z_train = np.asarray(Z_train, dtype=float)
    Z_eval = np.asarray(Z_eval, dtype=float)
    k = Z_train.shape[1]
    subset = tuple(sorted(subset))
    comp = tuple(i for i in range(k) if i not in subset)
    if not subset or not comp:
        raise OutOfRange("subset and complement must both be non-empty")
    h_sub = conditional_entropy(fit_qda(Z_train[:, subset], Y_train), Z_eval[:, subset])
    h_comp = conditional_entropy(fit_qda(Z_train[:, comp], Y_train), Z_eval[:, comp])
    return h_sub - h_comp


def _class_moments(Z: np.ndarray, Y: np.ndarray):
    """Per-class means (C, k), sample covariances (C, k, k) and empirical
    priors (C,)."""
    Y = np.asarray(Y)
    classes = np.unique(Y)
    if classes.size < 2:
        raise DataError(f"QDA needs >= 2 classes, got {classes.size}")
    means, covs, counts = [], [], []
    for c in classes:
        members = Z[Y == c]
        n = members.shape[0]
        if n < 2:
            raise SingularCovariance(f"need >= 2 rows to fit a Gaussian, got {n}")
        mean = members.mean(axis=0)
        centered = members - mean
        means.append(mean)
        covs.append(centered.T @ centered / (n - 1))
        counts.append(n)
    return np.array(means), np.array(covs), np.array(counts) / Z.shape[0]


def _factor(means: np.ndarray, covs: np.ndarray):
    """Cholesky factors and log-determinants of a stack of covariances.

    A stack that does not factor as it is goes matrix by matrix through
    `GaussianComponent.from_moments`, i.e. the ridge escalation and the
    non-finite check of the shared covariance policy.
    """
    if np.isfinite(covs).all():  # a batched Cholesky passes NaNs through silently
        try:
            chol = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError:
            pass
        else:
            return chol, 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    m = covs.shape[-1]
    comps = [GaussianComponent.from_moments(mu, cov)
             for mu, cov in zip(means.reshape(-1, m), covs.reshape(-1, m, m))]
    return (np.stack([g.chol for g in comps]).reshape(covs.shape),
            np.array([g.log_det for g in comps]).reshape(covs.shape[:-2]))


def _subset_entropies(means, covs, priors, Z_eval, c: int) -> np.ndarray:
    """Mean posterior entropy (bits) on Z_eval of the QDA restricted to each
    c-subset of the latent dims, in `combinations` order."""
    k = means.shape[1]
    Zt = Z_eval.T
    log_priors = np.log(priors)[:, None, None]
    subsets = combinations(range(k), c)
    out = []
    while (idx := np.array(list(islice(subsets, _CHUNK)))).size:   # (B, c)
        sub_means = means[:, idx]                                   # (C, B, c)
        chol, log_det = _factor(sub_means, covs[:, idx[:, :, None], idx[:, None, :]])
        y = np.linalg.solve(chol, Zt[idx] - sub_means[..., None])   # (C, B, c, n)
        with np.errstate(over="ignore"):
            quad = (y * y).sum(axis=-2)                             # (C, B, n)
        lj = -(0.5 * (c * LOG_2PI + log_det[..., None] + quad)) + log_priors
        P = _softmax(np.moveaxis(lj, 0, -1))                        # (B, n, C)
        out.append(_posterior_entropy_bits(P).mean(axis=-1))
    return np.concatenate(out)


@dataclass(frozen=True)
class CardinalityRecord:
    cardinality: int
    subset: tuple[int, ...]
    loss: float
    normalized: float
    within_threshold: bool
    chosen: bool


@dataclass(frozen=True)
class Partition:
    """Index sets plus the per-cardinality search diagnostics."""

    z_d: tuple[int, ...]
    z_n: tuple[int, ...]
    per_cardinality: list[CardinalityRecord]
    chosen_cardinality: int
    threshold: float | None
    notes: list[str] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.z_d) + len(self.z_n)


def search_partition(Z_train, Y_train, Z_eval, slack: float = DEFAULT_SLACK,
                     cap: int = DEFAULT_CAP) -> Partition:
    """Exhaustive search over all subsets of the latent dims.

    For each cardinality c in [1, k-1] the subset minimizing the partition
    loss is recorded (lexicographically smallest on ties). The k-1 minima
    are z-score-normalized; with m their minimum, cardinalities whose
    normalized value is below m + |m|*slack (or exactly equal to it)
    qualify, and the smallest qualifying cardinality becomes |z_d|.
    """
    Z_train = np.atleast_2d(np.asarray(Z_train, dtype=float))
    Z_eval = np.atleast_2d(np.asarray(Z_eval, dtype=float))
    k = Z_train.shape[1]
    if k < 2:
        raise OutOfRange(f"partition search needs k >= 2 latent dims, got {k}")
    if k > cap:
        raise CapExceeded(
            f"k={k} exceeds the exhaustive-search cap {cap}; lower k or raise the cap")
    if slack < 0.0:
        raise OutOfRange("slack must be >= 0")
    if Z_eval.shape[1] != k:
        raise DimensionMismatch("train and eval latent dimensionality differ")

    means, covs, priors = _class_moments(Z_train, Y_train)
    entropy = {c: _subset_entropies(means, covs, priors, Z_eval, c)
               for c in range(1, k)}
    best_per_card: list[tuple[int, tuple[int, ...], float]] = []
    for c in range(1, k):
        # the complement of the i-th c-subset is the (N-1-i)-th (k-c)-subset
        loss = entropy[c] - entropy[k - c][::-1]
        i = int(np.argmin(loss))  # first minimum: lexicographically-first subset wins ties
        best_per_card.append((c, next(islice(combinations(range(k), c), i, None)), loss[i]))

    losses = np.array([rec[2] for rec in best_per_card])
    notes: list[str] = []
    std = float(losses.std())
    if std == 0.0:
        msg = "all per-cardinality minima equal; falling back to smallest cardinality"
        warnings.warn(msg, DegenerateNormalizationWarning)
        notes.append(msg)
        normalized = np.zeros_like(losses)
        threshold = None
        chosen_idx = 0
        within = np.zeros(len(losses), dtype=bool)
        within[0] = True
    else:
        normalized = (losses - losses.mean()) / std
        m = float(normalized.min())
        threshold = m + abs(m) * slack
        within = (normalized < threshold) | (normalized == threshold)
        chosen_idx = int(np.nonzero(within)[0][0])
        # record the weakest qualifying candidate too: picking the largest
        # normalized value under the threshold is the other defensible
        # reading of the slack rule, and diagnostics should show both
        qual = np.nonzero(within)[0]
        alt_idx = int(qual[np.argmax(normalized[qual])])
        if alt_idx != chosen_idx:
            notes.append(
                f"max-within-threshold candidate: cardinality {best_per_card[alt_idx][0]} "
                f"subset {best_per_card[alt_idx][1]}")

    records = [
        CardinalityRecord(
            cardinality=c, subset=sub, loss=float(loss),
            normalized=float(norm), within_threshold=bool(w),
            chosen=(i == chosen_idx))
        for i, ((c, sub, loss), norm, w) in enumerate(zip(best_per_card, normalized, within))
    ]
    z_d = tuple(sorted(best_per_card[chosen_idx][1]))
    z_n = tuple(i for i in range(k) if i not in z_d)
    return Partition(
        z_d=z_d, z_n=z_n, per_cardinality=records,
        chosen_cardinality=best_per_card[chosen_idx][0],
        threshold=threshold, notes=notes,
    )
