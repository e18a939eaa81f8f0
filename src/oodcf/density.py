"""Per-partition Gaussian density models on ID training latents, NLL-based
OOD scores, and the two Mahalanobis baselines.

The non-discriminative dims get one pooled Gaussian over all ID train rows;
the discriminative dims get one Gaussian per ID class. NLLs use the natural
log (base 2 is reserved for entropies), and every Gaussian is cut from the
seed's `ClassMoments`. Training NLLs are kept for the quantile stop rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._gaussian import ClassMoments, GaussianComponent, class_moments
from .errors import DimensionMismatch, UnknownClass
from .partition import Partition

__all__ = [
    "ClassMoments", "GaussianComponent", "PartitionDensityModel", "class_moments",
    "fit_partition_density", "nll_dis", "ood_scores", "MahalanobisScorer",
    "MarginalMahalanobisScorer",
]


@dataclass(frozen=True)
class PartitionDensityModel:
    """Pooled Gaussian over z_n dims, class-conditional Gaussians over z_d dims.

    `joint_per_class` holds class-conditional Gaussians over all latent dims
    for the single-Gaussian ablation. The *_train_nlls arrays are the
    training NLLs (per class for the class-conditional families, own-class
    rows only), in train row order, used for quantile stopping rules.
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


def fit_partition_density(Z_train: np.ndarray, Y_train: np.ndarray, moments: ClassMoments,
                          partition: Partition) -> PartitionDensityModel:
    """Gaussians cut from the `moments` of (Z_train, Y_train), and their train NLLs."""
    Z_train = np.atleast_2d(np.asarray(Z_train, dtype=float))
    Y_train = np.asarray(Y_train)
    if not Z_train.shape[1] == len(moments.mean) == partition.k:
        raise DimensionMismatch(
            f"latents have {Z_train.shape[1]} dims, moments {len(moments.mean)}, "
            f"partition covers {partition.k}")

    zn, zd = list(partition.z_n), list(partition.z_d)
    non_dis = moments.gaussian(zn)
    dis_per_class, joint_per_class, dis_nlls, joint_nlls = [], [], [], []
    for c in range(len(moments.counts)):
        rows = Z_train[Y_train == c]
        dis_per_class.append(moments.gaussian(zd, c))
        joint_per_class.append(moments.gaussian(range(partition.k), c))
        dis_nlls.append(dis_per_class[c].nll(rows[:, zd]))
        joint_nlls.append(joint_per_class[c].nll(rows))
        del rows  # one class's rows at a time

    return PartitionDensityModel(
        non_dis=non_dis,
        dis_per_class=dis_per_class,
        joint_per_class=joint_per_class,
        partition=partition,
        non_dis_train_nlls=non_dis.nll(Z_train[:, zn]),
        dis_train_nlls=dis_nlls,
        joint_train_nlls=joint_nlls,
    )


def nll_dis(model: PartitionDensityModel, Z_d: np.ndarray) -> np.ndarray:
    """Per row of Z_d, the minimum NLL over the class components (scoring mode)."""
    return np.minimum.reduce([comp.nll(Z_d) for comp in model.dis_per_class])


def ood_scores(model: PartitionDensityModel, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched (l_n, l_d) for a matrix of latents."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    ln = model.non_dis.nll(Z[:, list(model.partition.z_n)])
    ld = nll_dis(model, Z[:, list(model.partition.z_d)])
    return ln, ld


# -- Mahalanobis baselines ---------------------------------------------------

@dataclass(frozen=True)
class MahalanobisScorer:
    """Class-conditional squared Mahalanobis distance, min over classes."""

    components: list[GaussianComponent]

    @classmethod
    def fit(cls, model: PartitionDensityModel) -> "MahalanobisScorer":
        """The model's joint class-conditional Gaussians (the sg ablation's)."""
        return cls(components=model.joint_per_class)

    def score(self, Z: np.ndarray) -> np.ndarray:
        """Per row of Z, the minimum over the classes."""
        return np.minimum.reduce([comp.mahalanobis_sq(Z) for comp in self.components])


@dataclass(frozen=True)
class MarginalMahalanobisScorer:
    """Squared Mahalanobis distance to a single Gaussian over all ID train rows."""

    component: GaussianComponent

    @classmethod
    def fit(cls, moments: ClassMoments) -> "MarginalMahalanobisScorer":
        return cls(component=moments.gaussian(range(len(moments.mean))))

    def score(self, z: np.ndarray):
        return self.component.mahalanobis_sq(z)
