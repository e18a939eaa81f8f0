"""Feature standardization and PCA: the linear latent map and its Jacobian.

The latent map is z = W^T (x - mean) / scale with orthonormal loadings W,
so gradient-based perturbation in standardized space moves disjoint latent
index sets independently. PCA is an eigendecomposition of the sample
covariance with a fixed sign convention (largest-magnitude loading entry
positive) so repeated fits are bit-identical.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._gaussian import column_mean, rowwise
from .errors import (
    DataError,
    DimensionMismatch,
    IndexOutOfRange,
    RankDeficientWarning,
    TooFewRows,
)


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray  # strictly positive; 1.0 for constant columns

    def transform(self, x: np.ndarray) -> np.ndarray:
        # the divide writes a fresh array: in place in the difference, it
        # raised the peak RSS of a toy at 10^5 rows per class
        centered = rowwise(np.subtract, np.asarray(x, dtype=float), self.mean)
        return rowwise(np.true_divide, centered, self.scale)

    def inverse_transform(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=float) * self.scale + self.mean


def fit_standardizer(train_features: np.ndarray, with_scaling: bool = True) -> Standardizer:
    """Column means and sample standard deviations (divisor n-1).

    Constant columns get scale 1 so the transform stays invertible. A
    column whose mean or deviation overflows is a `DataError`. With
    `with_scaling=False` only centering is applied (scale is all ones);
    the 2D toy pipeline uses this because scaling every column to unit
    variance makes a 2D sample correlation matrix's eigenvectors sit at
    +-45 degrees regardless of the data.
    """
    X = np.asarray(train_features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise TooFewRows("need a 2D matrix with >= 2 rows to fit a standardizer")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = column_mean(X)
        scale = X.std(axis=0, ddof=1) if with_scaling else np.ones_like(mean)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(scale)))
    if bad.size:
        raise DataError(f"the mean or standard deviation of feature column {bad[0]} "
                        "overflows a float; rescale the column")
    return Standardizer(mean=mean, scale=np.where(scale > 0.0, scale, 1.0))


@dataclass(frozen=True)
class ProjectionModel:
    """Standardizer plus orthonormal PCA loadings (d x k) and eigenvalues."""

    standardizer: Standardizer
    loadings: np.ndarray            # W, shape (d, k), columns orthonormal
    explained_variance: np.ndarray  # shape (k,), non-increasing
    diagnostics: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.loadings.shape[1]

    @property
    def n_features(self) -> int:
        return self.loadings.shape[0]


def fit_projection(train_features: np.ndarray, k: int,
                   with_scaling: bool = True) -> ProjectionModel:
    """The standardizer of `train_features`, then the top-k eigenvectors of
    the sample covariance of the standardized data.

    If k exceeds the numerical rank, a RankDeficientWarning is emitted, k is
    shrunk, and the event is recorded in diagnostics.
    """
    standardizer = fit_standardizer(train_features, with_scaling=with_scaling)
    X = standardizer.transform(train_features)
    n, d = X.shape
    if not 1 <= k <= min(n - 1, d):
        raise IndexOutOfRange(f"k={k} outside [1, min(n-1, d)={min(n - 1, d)}]")

    centered = rowwise(np.subtract, X, column_mean(X))
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]

    tol = max(n, d) * np.finfo(float).eps * max(eigvals.max(), 0.0)
    rank = int((eigvals > tol).sum())
    diagnostics = {"requested_k": k, "rank": rank}
    if k > rank:
        warnings.warn(
            f"requested k={k} exceeds numerical rank {rank}; shrinking",
            RankDeficientWarning)
        diagnostics["shrunk_from"] = k
        k = max(rank, 1)
    diagnostics["effective_k"] = k

    W = eigvecs[:, :k].copy()
    # sign convention: the largest-magnitude entry of each column is positive
    for j in range(k):
        pivot = np.argmax(np.abs(W[:, j]))
        if W[pivot, j] < 0:
            W[:, j] = -W[:, j]

    return ProjectionModel(
        standardizer=standardizer,
        loadings=W,
        explained_variance=eigvals[:k].copy(),
        diagnostics=diagnostics,
    )


def project(model: ProjectionModel, x: np.ndarray) -> np.ndarray:
    """z = W^T standardize(x); accepts a single vector or a batch matrix.

    einsum keeps the reduction order identical for single rows and batches,
    so batched projection is bit-identical to a per-row loop.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.n_features:
        raise DimensionMismatch(
            f"input has {x.shape[-1]} features, model expects {model.n_features}")
    return np.einsum("...j,jk->...k", model.standardizer.transform(x), model.loadings)


def jacobian(model: ProjectionModel, dims) -> np.ndarray:
    """Rows of W^T restricted to `dims`: the exact gradient of the latent map
    with respect to standardized inputs (no scale factors in this space)."""
    dims = list(dims)
    if any((d < 0 or d >= model.k) for d in dims):
        raise IndexOutOfRange(f"dims {dims} outside [0, {model.k})")
    if not dims:
        return np.zeros((0, model.n_features))
    return model.loadings[:, dims].T.copy()


def save_projection(model: ProjectionModel, path, extra: dict | None = None) -> None:
    """Serialize to JSON (mean, scale, loadings, variances, diagnostics).

    `extra` entries (e.g. a provenance config) are stored alongside.
    """
    payload = {
        "mean": model.standardizer.mean.tolist(),
        "scale": model.standardizer.scale.tolist(),
        "loadings": model.loadings.tolist(),
        "explained_variance": model.explained_variance.tolist(),
        "diagnostics": model.diagnostics,
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
