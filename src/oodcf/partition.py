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

The search takes each class's mean and covariance on all k latents from the
seed's `ClassMoments`; a subset's QDA parameters are the principal
submatrices of those moments. The entropies come from a walk over the
subset tree. For a subset S and the dims j above every dim of S, the walk
keeps, per class: the Mahalanobis sums of the eval rows and the
log-determinant so far, the eval-row residuals of those dims conditioned on
S, and their conditional covariance. Growing S by its next dim j is one
Schur-complement step: the pivot d^2 = Sigma_jj|S adds r_j^2 / d^2 to the
sums and log d^2 to the log-determinant, and one rank-one update conditions
the remaining residuals and covariance on j. Dims are added in increasing
order, so the pivots are those of the Cholesky factorization of the sorted
principal submatrix. The walk is depth first over batches of at most
`_CHUNK` subsets whose arrays share one width, so memory stays bounded at
any k, and each entropy is written at its `combinations` position through a
mask -> position table built once per search.

A pivot that is non-finite or not above `_PIVOT_FLOOR` times the dim's
variance Sigma_jj has lost most of its digits to cancellation, and there a
direct factorization, whose failure decides the covariance ridge, may judge
the submatrix differently. Such a subset and every subset grown from it are
scored directly instead: a batched Cholesky factorization of the principal
submatrices, with the ridge escalation of `GaussianComponent.from_moments`
where one fails, and the forward substitution `whitened_sq` that every
Gaussian NLL uses. Non-finite train rows raise `SingularCovariance` in
`class_moments`, before any moment is taken; a class covariance
that still overflows gives non-finite pivots, so it reaches the direct path
too, which raises `SingularCovariance`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from ._gaussian import LOG_2PI, ClassMoments, GaussianComponent, whitened_sq
from .errors import (
    CapExceeded,
    DataError,
    DegenerateNormalizationWarning,
    DimensionMismatch,
    OutOfRange,
)

DEFAULT_SLACK = 0.10
DEFAULT_CAP = 20
_CHUNK = 128  # subsets per batch in the subset tree and in the direct path
_PIVOT_FLOOR = 1e-8  # relative to the dim's variance; see the module docstring


def _priors(moments: ClassMoments) -> np.ndarray:
    if len(moments.counts) < 2:
        raise DataError(f"QDA needs >= 2 classes, got {len(moments.counts)}")
    return moments.counts / moments.counts.sum()


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


def _mean_entropy(lj: np.ndarray) -> np.ndarray:
    """Mean over the eval rows of the posterior entropy (bits, 0*log0 -> 0)
    from log joints shaped (..., n, C), which it overwrites: each step takes
    the buffer of the one before."""
    P = np.subtract(lj, lj.max(axis=-1, keepdims=True), out=lj)
    np.exp(P, out=P)
    P /= P.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log2(P)
        terms *= P
    terms[~(P > 0.0)] = 0.0
    return -terms.sum(axis=-1).mean(axis=-1)


def _direct_entropies(means, covs, log_priors, Zt, idx) -> np.ndarray:
    """Entropies of the subsets in the rows of `idx` (B, c), each QDA factored
    from its principal submatrices, `_CHUNK` subsets per batched factorization
    and solve."""
    c = idx.shape[1]
    out = []
    for start in range(0, len(idx), _CHUNK):
        chunk = idx[start:start + _CHUNK]                              # (B, c)
        sub_means = means[:, chunk]                                    # (C, B, c)
        chol, log_det = _factor(sub_means, covs[:, chunk[:, :, None], chunk[:, None, :]])
        quad = whitened_sq(chol, Zt[chunk] - sub_means[..., None])     # (C, B, n)
        lj = -(0.5 * (c * LOG_2PI + log_det[..., None] + quad)) + log_priors[:, None, None]
        out.append(_mean_entropy(np.moveaxis(lj, 0, -1)))
    return np.concatenate(out)


def _positions(k: int):
    """Where each subset, given as a bit mask, sits in the concatenation over
    c = 0..k of `combinations(range(k), c)`; also the offset of each c."""
    rank = np.zeros(1, dtype=np.int32)
    pop = np.zeros(1, dtype=np.int8)
    for b in range(k - 1, -1, -1):
        # put element b below b+1..k-1: in lexicographic order the p-subsets
        # containing b come first, and C(k-1-b, p-1) of them precede the rest
        ahead = np.array([0] + [math.comb(k - 1 - b, p - 1) for p in range(1, k - b + 1)],
                         dtype=np.int32)
        rank = np.stack([rank + ahead[pop], rank], axis=1).ravel()
        pop = np.stack([pop, pop + 1], axis=1).ravel()
    offsets = np.cumsum([0] + [math.comb(k, c) for c in range(k + 1)], dtype=np.int32)
    return offsets[pop] + rank, offsets


def _schur_step(q, ld, R, V, log_priors):
    """Grow each subset by the first dim of its state: the grown subsets'
    entropies and their state (see `_subset_entropies`)."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = V[:, :, 0, :1]                                             # pivots, (B, C, 1)
        r = R[:, :, 0]                                                 # (B, C, n)
        # each (B, C, n) step writes into a buffer of its own
        grown = r * r
        grown /= p
        q = np.add(grown, q, out=grown)
        ld = ld + np.log(p[..., 0])
        # the c log(2 pi) term is common to all classes and cancels
        lj = ld[..., None] + q
        lj *= 0.5
        h = _mean_entropy(np.swapaxes(np.subtract(log_priors[:, None], lj, out=lj), 1, 2))
        g = (V[:, :, 0, 1:] / p)[..., None]                            # (B, C, w-1, 1)
        gr = g * r[:, :, None]
        return (h, q, ld, np.subtract(R[:, :, 1:], gr, out=gr),
                V[:, :, 1:, 1:] - g * V[:, :, None, 0, 1:])


def _subset_entropies(means, covs, priors, Z_eval) -> list[np.ndarray]:
    """Mean posterior entropy (bits) on Z_eval of the QDA restricted to each
    subset of the latent dims: item c holds the c-subsets in `combinations`
    order, for 0 < c < k."""
    k = means.shape[1]
    pos, offsets = _positions(k)
    full = (1 << k) - 1
    H = np.zeros(1 << k)
    log_priors = np.log(priors)
    floor = _PIVOT_FLOOR * np.diagonal(covs, axis1=1, axis2=2)        # (C, k)
    direct = []  # masks left to `_direct_entropies`

    def expand(d, masks, q, ld, R, V):
        # B subsets of the dims below d (bit masks), with per class: the
        # Mahalanobis sums q (B, C, n) and log-determinants ld (B, C) so far,
        # the residuals R (B, C, k-d, n) of dims d.. on the eval rows given
        # the subset, and their conditional covariance V (B, C, k-d, k-d)
        inc = masks | (1 << d)
        piv = V[:, :, 0, 0]
        live = inc != full  # the full set is no proper subset
        ok = (piv > floor[:, d]).all(axis=1) & np.isfinite(piv).all(axis=1) & live
        sel = slice(None)
        if not ok.all():
            bad = inc[live & ~ok]
            direct.append((bad[:, None] | (np.arange(1 << (k - 1 - d)) << (d + 1))).ravel())
            sel = ok
        h, *grown = _schur_step(q[sel], ld[sel], R[sel], V[sel], log_priors)
        H[pos[inc[sel]]] = h
        if d + 1 == k:
            return []
        pair = [(inc[sel], *grown), (masks, q, ld, R[:, :, 1:], V[:, :, 1:, 1:])]
        if 2 * len(masks) <= _CHUNK:
            pair = [tuple(map(np.concatenate, zip(*pair)))]
        return [(d + 1, *state) for state in pair if len(state[0])]

    stack = [(0, np.zeros(1, dtype=np.int64), np.zeros((1, len(covs), len(Z_eval))),
              np.zeros((1, len(covs))), (Z_eval.T - means[:, :, None])[None], covs[None])]
    while stack:
        stack += expand(*stack.pop())
    if direct:
        masks = np.concatenate(direct)
        masks = masks[masks != full]
        masks = masks[np.argsort(pos[masks])]
        bits = (masks[:, None] >> np.arange(k)) & 1
        card = bits.sum(axis=1)
        for c in np.unique(card):
            sel = card == c
            H[pos[masks[sel]]] = _direct_entropies(
                means, covs, log_priors, Z_eval.T, np.nonzero(bits[sel])[1].reshape(-1, c))
    return [H[offsets[c]:offsets[c + 1]] for c in range(k + 1)]


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
    threshold: float | None
    notes: list[str] = field(default_factory=list)
    singleton_entropies: tuple[float, ...] = ()  # H[Y | z_j] in bits, per latent j

    @property
    def k(self) -> int:
        return len(self.z_d) + len(self.z_n)


def search_partition(moments: ClassMoments, Z_eval, slack: float = DEFAULT_SLACK,
                     cap: int = DEFAULT_CAP) -> Partition:
    """Exhaustive search over all subsets of the latent dims; each QDA is
    cut from the train `moments`.

    For each cardinality c in [1, k-1] the subset minimizing the partition
    loss is recorded (lexicographically smallest on ties). The k-1 minima
    are z-score-normalized; with m their minimum, cardinalities whose
    normalized value is below m + |m|*slack (or exactly equal to it)
    qualify, and the smallest qualifying cardinality becomes |z_d|. A
    single cardinality (k = 2) is chosen as it is. Each latent's own
    entropy, a by-product of the search, is kept as `singleton_entropies`.
    """
    Z_eval = np.atleast_2d(np.asarray(Z_eval, dtype=float))
    k = len(moments.mean)
    if k < 2:
        raise OutOfRange(f"partition search needs k >= 2 latent dims, got {k}")
    if k > cap:
        raise CapExceeded(
            f"k={k} exceeds the exhaustive-search cap {cap}; lower k or raise the cap")
    if slack < 0.0:
        raise OutOfRange("slack must be >= 0")
    if Z_eval.shape[1] != k:
        raise DimensionMismatch("train and eval latent dimensionality differ")

    entropy = _subset_entropies(moments.means, moments.covs, _priors(moments), Z_eval)
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
        if len(losses) > 1:  # one cardinality has nothing to be compared with
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
        z_d=z_d, z_n=z_n, per_cardinality=records, threshold=threshold, notes=notes,
        singleton_entropies=tuple(entropy[1].tolist()),
    )
