"""Full-covariance Gaussian component shared by the QDA classifier and the
per-partition density models.

Covariance regularization policy: try the Cholesky factorization of the
sample covariance; on failure add ridge*I with ridge = 1e-6 * trace/m and
escalate by x10 until the factorization succeeds or the escalation cap is
hit (SingularCovariance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularCovariance

LOG_2PI = float(np.log(2.0 * np.pi))
_RIDGE_START = 1e-6
_RIDGE_ESCALATIONS = 16


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
    def fit(cls, Z: np.ndarray) -> "GaussianComponent":
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        n, m = Z.shape
        if n < 2:
            raise SingularCovariance(f"need >= 2 rows to fit a Gaussian, got {n}")
        mean = Z.mean(axis=0)
        centered = Z - mean
        cov = centered.T @ centered / (n - 1)
        return cls.from_moments(mean, cov)

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

    def _check(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.dim:
            raise DimensionMismatch(f"point has dim {z.shape[-1]}, component has {self.dim}")
        return z

    def nll(self, z: np.ndarray):
        """Exact negative log-density (natural log); vector or batch.

        Overflow to +inf is tolerated here; the optimizer uses it to detect
        divergence.
        """
        return 0.5 * (self.dim * LOG_2PI + self.log_det + self.mahalanobis_sq(z))

    def grad_nll(self, z: np.ndarray) -> np.ndarray:
        """Gradient of the NLL at z: Sigma^{-1} (z - mean) = L^-T L^-1 (z - mean),
        the product the descent engine takes row by row."""
        z = self._check(z)
        y = np.einsum("ij,...j->...i", self.chol_inv, z - self.mean)
        return np.einsum("ji,...j->...i", self.chol_inv, y)

    def log_density(self, z: np.ndarray):
        out = self.nll(z)
        return -out

    def mahalanobis_sq(self, z: np.ndarray):
        """(z - mean)^T Sigma^{-1} (z - mean); vector or batch."""
        z = self._check(z)
        single = z.ndim == 1
        diff = np.atleast_2d(z) - self.mean
        y = np.linalg.solve(self.chol, diff.T)
        with np.errstate(over="ignore"):
            quad = (y * y).sum(axis=0)
        return float(quad[0]) if single else quad

    @property
    def mode_nll(self) -> float:
        """NLL at the mean: 0.5 * (m log 2pi + log|Sigma|)."""
        return 0.5 * (self.dim * LOG_2PI + self.log_det)
