"""Full-covariance Gaussian component shared by the QDA classifier and the
per-partition density models, the one way rows are whitened, the class
moments every model of a seed is cut from, and the two tall-array kernels
(`rowwise`, `column_mean`) that the fits use on (n, d) arrays of many rows.

Covariance regularization policy: try the Cholesky factorization of the
sample covariance; on failure add ridge*I with ridge = 1e-6 * trace/m and
escalate by x10 until the factorization succeeds or the escalation cap is
hit (SingularCovariance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionMismatch, SingularCovariance

LOG_2PI = float(np.log(2.0 * np.pi))
_RIDGE_START = 1e-6
_RIDGE_ESCALATIONS = 16
_ROW_CHUNK = 1 << 13  # rows per block of the pooled covariance, a whitening and a column mean
_BROADCAST_ROWS = 512  # rows a `rowwise` block lays out as one long row


def rowwise(ufunc, X: np.ndarray, v, out: np.ndarray | None = None) -> np.ndarray:
    """`ufunc(X, v, out=out)` for float64 rows X (n, d) and one row v (d,),
    the same values in the same array. The plain broadcast runs numpy's
    inner loop over d values once per row; here each block of
    `_BROADCAST_ROWS` C-contiguous rows is viewed as one long row and met by
    v tiled to its length. The leftover rows, and an X (or out) that is not
    2-D, float64 like v, C-contiguous and at least one block tall, take the
    plain broadcast."""
    v = np.asarray(v)
    if not (X.ndim == 2 and len(X) >= _BROADCAST_ROWS and X.shape[1:] == v.shape
            and v.size and X.dtype == v.dtype == np.float64
            and X.flags.c_contiguous and (out is None or out.flags.c_contiguous)):
        return ufunc(X, v, out=out)
    out = np.empty_like(X) if out is None else out
    m, width = len(X) - len(X) % _BROADCAST_ROWS, _BROADCAST_ROWS * v.size
    ufunc(X[:m].reshape(-1, width), np.tile(v, _BROADCAST_ROWS),
          out=out[:m].reshape(-1, width))
    ufunc(X[m:], v, out=out[m:])
    return out


def column_mean(X: np.ndarray) -> np.ndarray:
    """`X.mean(axis=0)` of a 2-D float64 X, bit for bit. numpy sums a C-contiguous
    (n, d >= 2) array one row at a time, in an inner loop over d values. A
    running `np.add.accumulate` down each column, `_ROW_CHUNK` rows at a
    time after the sum so far (0.0 at first, as in numpy's reduce), adds
    the same values in the same order in long loops; it is the faster one
    for d of 2 or 3. numpy sums d = 1 and non-C-contiguous inputs pairwise,
    so those, other dtypes and arrays under one block take `X.mean(axis=0)`."""
    n, d = X.shape
    if not (2 <= d <= 3 and n >= _ROW_CHUNK and X.dtype == np.float64
            and X.flags.c_contiguous):
        return X.mean(axis=0)
    acc = np.empty((_ROW_CHUNK + 1, d))
    acc[0] = 0.0
    for start in range(0, n, _ROW_CHUNK):
        block = X[start:start + _ROW_CHUNK]
        run = acc[:len(block) + 1]
        run[1:] = block
        np.add.accumulate(run, axis=0, out=run)
        acc[0] = run[-1]
    return acc[0] / n


def regularized_cholesky(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky of cov (+ escalating ridge); returns (L, ridge_used)."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    m = cov.shape[0]
    if not np.isfinite(cov).all():
        raise SingularCovariance("covariance has non-finite entries")
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    base = _RIDGE_START * np.trace(cov) / m
    if not base > 0.0:
        raise SingularCovariance("covariance has non-positive trace; cannot regularize")
    ridge = base
    for _ in range(_RIDGE_ESCALATIONS):
        try:
            return np.linalg.cholesky(cov + ridge * np.eye(m)), ridge
        except np.linalg.LinAlgError:
            ridge *= 10.0
    raise SingularCovariance(
        f"covariance not positive definite after ridge escalation to {ridge:g}")


def whitened_sq(chol: np.ndarray, D: np.ndarray) -> np.ndarray:
    """||L^-1 d||^2 for the columns d of D (..., m, n) and lower-triangular L
    (..., m, m), by forward substitution that finishes one row of L^-1 D at a
    time and takes it out of the rows below. Only elementwise numpy touches
    the columns, so a column's value never depends on the other columns."""
    Y = np.array(D, dtype=float, order="C")
    with np.errstate(over="ignore", invalid="ignore"):  # far-off rows overflow to +inf
        for i in range(chol.shape[-1]):
            Y[..., i, :] /= chol[..., i, i, None]
            Y[..., i + 1:, :] -= chol[..., i + 1:, i, None] * Y[..., i, None, :]
        np.square(Y, out=Y)
        quad = Y[..., 0, :].copy()
        for i in range(1, chol.shape[-1]):
            quad += Y[..., i, :]
    return quad


@dataclass(frozen=True)
class GaussianComponent:
    """Gaussian with cached Cholesky factor, its inverse, and log-determinant.

    `chol_inv` (L^-1, lower triangular) lets the descent engine whiten a
    batch of rows with one row-wise product instead of a solve per step.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray
    chol_inv: np.ndarray
    log_det: float
    ridge: float = 0.0

    @classmethod
    def from_moments(cls, mean, cov) -> "GaussianComponent":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        chol, ridge = regularized_cholesky(cov)
        log_det = 2.0 * float(np.log(np.diag(chol)).sum())
        return cls(mean=mean, cov=cov + ridge * np.eye(cov.shape[0]),
                   chol=chol, chol_inv=np.linalg.inv(chol), log_det=log_det,
                   ridge=ridge)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def _check(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.dim:
            raise DimensionMismatch(f"rows have shape {Z.shape}, component has dim {self.dim}")
        return Z

    def nll(self, Z: np.ndarray) -> np.ndarray:
        """Exact negative log-density (natural log) of each row of Z.

        Overflow to +inf is tolerated here; the optimizer uses it to detect
        divergence.
        """
        return 0.5 * (self.dim * LOG_2PI + self.log_det + self.mahalanobis_sq(Z))

    def mahalanobis_sq(self, Z: np.ndarray) -> np.ndarray:
        """(z - mean)^T Sigma^{-1} (z - mean) for each row z of Z, whitened
        `_ROW_CHUNK` rows at a time, so its temporaries stay small."""
        Z = self._check(Z)
        quad = np.empty(len(Z))
        for start in range(0, len(Z), _ROW_CHUNK):
            chunk = slice(start, start + _ROW_CHUNK)
            quad[chunk] = whitened_sq(self.chol, rowwise(np.subtract, Z[chunk], self.mean).T)
        return quad


@dataclass(frozen=True)
class ClassMoments:
    """Per-class means (C, k), sample covariances (C, k, k) and row counts (C,)
    of labelled rows, and the pooled mean (k,) and covariance (k, k)."""

    means: np.ndarray
    covs: np.ndarray
    counts: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    def gaussian(self, dims, c: int | None = None) -> GaussianComponent:
        """Class c's Gaussian (None: the pooled one) over the columns `dims`."""
        mean, cov = (self.mean, self.cov) if c is None else (self.means[c], self.covs[c])
        dims = list(dims)
        return GaussianComponent.from_moments(mean[dims], cov[np.ix_(dims, dims)])


def class_moments(Z: np.ndarray, Y: np.ndarray) -> ClassMoments:
    """Moments of the rows of Z by their class ids Y, which must be 0..C-1.
    The pooled covariance sums the centred rows `_ROW_CHUNK` at a time, so
    no centred copy of all of Z is made."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Y = np.asarray(Y)
    if Y.size == 0 or Y.min() < 0 or not (counts := np.bincount(Y)).all():
        raise DataError("class labels must be contiguous ids starting at 0")
    means, covs = [], []
    for c, n in enumerate(counts.tolist()):
        if n < 2:
            raise SingularCovariance(f"need >= 2 rows to fit a Gaussian, got {n}")
        members = np.compress(Y == c, Z, axis=0)
        if not np.isfinite(members).all():
            raise SingularCovariance(f"class {c} has non-finite train rows")
        means.append(column_mean(members))
        centered = rowwise(np.subtract, members, means[-1])
        covs.append(centered.T @ centered / (n - 1))
    mean, scatter = column_mean(Z), 0.0
    for start in range(0, len(Z), _ROW_CHUNK):
        centered = rowwise(np.subtract, Z[start:start + _ROW_CHUNK], mean)
        scatter = scatter + centered.T @ centered
    return ClassMoments(np.array(means), np.array(covs), counts, mean,
                        scatter / (len(Z) - 1))
