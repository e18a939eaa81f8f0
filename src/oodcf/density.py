"""Per-partition Gaussian density models on ID training latents, NLL-based
OOD scores, and the two Mahalanobis baselines.

The non-discriminative dims get one pooled Gaussian over all ID train rows;
the discriminative dims get one Gaussian per ID class. NLLs use the natural
log (base 2 is reserved for entropies), and every Gaussian is cut from the
seed's `ClassMoments`. The fit also holds the NLL where each descent phase
stops: a quantile of that Gaussian's ID-train NLLs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._gaussian import ClassMoments, GaussianComponent, class_moments
from .errors import DimensionMismatch, OutOfRange
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
    for the single-Gaussian ablation. A descent phase stops at its *_stop
    NLL: the stop quantile of that Gaussian's train NLLs (own-class rows
    for the per-class Gaussians, one value per class).
    """

    non_dis: GaussianComponent
    dis_per_class: list[GaussianComponent]
    joint_per_class: list[GaussianComponent]
    partition: Partition
    non_dis_stop: float
    dis_stop: np.ndarray    # (C,)
    joint_stop: np.ndarray  # (C,)

    @property
    def n_classes(self) -> int:
        return len(self.dis_per_class)


def fit_partition_density(Z_train: np.ndarray, Y_train: np.ndarray, moments: ClassMoments,
                          partition: Partition, stop_quantile: float) -> PartitionDensityModel:
    """Gaussians cut from the `moments` of (Z_train, Y_train), and the
    `stop_quantile` of their train NLLs."""
    if not 0.0 < stop_quantile <= 1.0:
        raise OutOfRange("stop_quantile must lie in (0, 1]")
    Z_train = np.atleast_2d(np.asarray(Z_train, dtype=float))
    Y_train = np.asarray(Y_train)
    if not Z_train.shape[1] == len(moments.mean) == partition.k:
        raise DimensionMismatch(
            f"latents have {Z_train.shape[1]} dims, moments {len(moments.mean)}, "
            f"partition covers {partition.k}")

    def stop(component, rows):
        return float(np.quantile(component.nll(rows), stop_quantile))

    zn, zd = list(partition.z_n), list(partition.z_d)
    non_dis = moments.gaussian(zn)
    dis_per_class, joint_per_class, dis_stop, joint_stop = [], [], [], []
    for c in range(len(moments.counts)):
        rows = np.compress(Y_train == c, Z_train, axis=0)
        dis_per_class.append(moments.gaussian(zd, c))
        joint_per_class.append(moments.gaussian(range(partition.k), c))
        dis_stop.append(stop(dis_per_class[c], rows[:, zd]))
        joint_stop.append(stop(joint_per_class[c], rows))
        del rows  # one class's rows at a time

    return PartitionDensityModel(
        non_dis=non_dis,
        dis_per_class=dis_per_class,
        joint_per_class=joint_per_class,
        partition=partition,
        non_dis_stop=stop(non_dis, Z_train[:, zn]),
        dis_stop=np.array(dis_stop),
        joint_stop=np.array(joint_stop),
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

    def score(self, Z: np.ndarray) -> np.ndarray:
        return self.component.mahalanobis_sq(Z)
