"""Per-partition Gaussian density models on ID training latents, NLL-based
OOD scores, and the two Mahalanobis baselines.

The non-discriminative dims get one pooled Gaussian over all ID train rows;
the discriminative dims get one Gaussian per ID class. NLLs use the natural
log (base 2 is reserved for entropies). Sorted training NLLs are kept on
the model so counterfactual generation can stop at any train quantile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._gaussian import GaussianComponent
from .errors import DataError, DimensionMismatch, UnknownClass
from .partition import Partition

__all__ = [
    "GaussianComponent", "PartitionDensityModel", "fit_partition_density",
    "nll_non_dis", "nll_dis", "ood_scores", "MahalanobisScorer",
    "MarginalMahalanobisScorer",
]


@dataclass(frozen=True)
class PartitionDensityModel:
    """Pooled Gaussian over z_n dims, class-conditional Gaussians over z_d dims.

    `joint_per_class` holds class-conditional Gaussians over all latent dims
    for the single-Gaussian ablation. The *_train_nlls arrays are sorted
    training NLLs (per class for the class-conditional families, own-class
    rows only) used for quantile stopping rules.
    """

    non_dis: GaussianComponent
    dis_per_class: list[GaussianComponent]
    joint_per_class: list[GaussianComponent]
    partition: Partition
    non_dis_train_nlls: np.ndarray
    dis_train_nlls: list[np.ndarray]
    joint_train_nlls: list[np.ndarray]

    @property
    def n_classes(self) -> int:
        return len(self.dis_per_class)

    def train_quantile(self, phase: str, q: float, target: int | None = None) -> float:
        """q-quantile of the ID-train NLLs for a generation phase."""
        if phase == "non_dis":
            return float(np.quantile(self.non_dis_train_nlls, q))
        if target is None or not 0 <= target < self.n_classes:
            raise UnknownClass(f"phase {phase!r} needs a valid target class, got {target}")
        if phase == "dis":
            return float(np.quantile(self.dis_train_nlls[target], q))
        if phase == "joint":
            return float(np.quantile(self.joint_train_nlls[target], q))
        raise ValueError(f"unknown phase {phase!r}")


def fit_partition_density(Z_train: np.ndarray, Y_train: np.ndarray,
                          partition: Partition) -> PartitionDensityModel:
    Z_train = np.atleast_2d(np.asarray(Z_train, dtype=float))
    Y_train = np.asarray(Y_train)
    if Z_train.shape[1] != partition.k:
        raise DimensionMismatch(
            f"latents have {Z_train.shape[1]} dims, partition covers {partition.k}")
    classes = np.unique(Y_train)
    if classes.size < 1 or not np.array_equal(classes, np.arange(classes.size)):
        raise DataError("class labels must be contiguous ids starting at 0")

    zn, zd = list(partition.z_n), list(partition.z_d)
    non_dis = GaussianComponent.fit(Z_train[:, zn])
    dis_per_class, joint_per_class = [], []
    dis_nlls, joint_nlls = [], []
    for c in classes:
        rows = Z_train[Y_train == c]
        dis = GaussianComponent.fit(rows[:, zd])
        joint = GaussianComponent.fit(rows)
        dis_per_class.append(dis)
        joint_per_class.append(joint)
        dis_nlls.append(np.sort(dis.nll(rows[:, zd])))
        joint_nlls.append(np.sort(joint.nll(rows)))

    return PartitionDensityModel(
        non_dis=non_dis,
        dis_per_class=dis_per_class,
        joint_per_class=joint_per_class,
        partition=partition,
        non_dis_train_nlls=np.sort(non_dis.nll(Z_train[:, zn])),
        dis_train_nlls=dis_nlls,
        joint_train_nlls=joint_nlls,
    )


def nll_non_dis(model: PartitionDensityModel, z_n: np.ndarray):
    """Exact Gaussian NLL of a z_n-dimensional point (or batch)."""
    return model.non_dis.nll(z_n)


def nll_dis(model: PartitionDensityModel, z_d: np.ndarray, target: int | None = None):
    """NLL under the class-`target` component; with target=None (scoring
    mode) the minimum NLL over classes."""
    if target is not None:
        if not 0 <= target < model.n_classes:
            raise UnknownClass(f"class {target} not in [0, {model.n_classes})")
        return model.dis_per_class[target].nll(z_d)
    per_class = [comp.nll(z_d) for comp in model.dis_per_class]
    z = np.asarray(z_d, dtype=float)
    if z.ndim == 1:
        return float(min(per_class))
    return np.minimum.reduce(per_class)


def ood_scores(model: PartitionDensityModel, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched (l_n, l_d) for a matrix of latents."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    ln = nll_non_dis(model, Z[:, list(model.partition.z_n)])
    ld = nll_dis(model, Z[:, list(model.partition.z_d)], target=None)
    return ln, ld


# -- Mahalanobis baselines ---------------------------------------------------

@dataclass(frozen=True)
class MahalanobisScorer:
    """Class-conditional squared Mahalanobis distance, min over classes."""

    components: list[GaussianComponent]

    @classmethod
    def fit(cls, Z_train: np.ndarray, Y_train: np.ndarray) -> "MahalanobisScorer":
        Z_train = np.atleast_2d(np.asarray(Z_train, dtype=float))
        Y_train = np.asarray(Y_train)
        comps = [GaussianComponent.fit(Z_train[Y_train == c])
                 for c in np.unique(Y_train)]
        return cls(components=comps)

    def score(self, z: np.ndarray):
        per_class = [comp.mahalanobis_sq(z) for comp in self.components]
        if np.asarray(z).ndim == 1:
            return float(min(per_class))
        return np.minimum.reduce(per_class)


@dataclass(frozen=True)
class MarginalMahalanobisScorer:
    """Squared Mahalanobis distance to a single Gaussian over all ID train rows."""

    component: GaussianComponent

    @classmethod
    def fit(cls, Z_train: np.ndarray) -> "MarginalMahalanobisScorer":
        return cls(component=GaussianComponent.fit(Z_train))

    def score(self, z: np.ndarray):
        return self.component.mahalanobis_sq(z)
