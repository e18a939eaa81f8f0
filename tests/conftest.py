from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from oodcf import counterfactual, dataset, density, partition, projection
from oodcf.errors import DimensionMismatch

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
WINE_LIKE = DATA_DIR / "wine_like.csv"
STOP_QUANTILE = 0.5  # the `--stop-quantile` default


def _rows(ds: dataset.LabeledDataset, keep) -> dataset.LabeledDataset:
    return dataset.LabeledDataset(ds.features[keep], ds.class_label[keep], ds.feature_names,
                                  ds.provenance)


def id_rows(ds: dataset.LabeledDataset) -> dataset.LabeledDataset:
    """The ID rows of `ds`, in order."""
    return _rows(ds, ~ds.ood_flag)


def ood_rows(ds: dataset.LabeledDataset) -> dataset.LabeledDataset:
    """The OOD rows of `ds`, in order."""
    return _rows(ds, ds.ood_flag)


@dataclass
class FittedToy:
    train: dataset.LabeledDataset
    test: dataset.LabeledDataset
    projection: projection.ProjectionModel
    part: partition.Partition
    moments: density.ClassMoments
    model: density.PartitionDensityModel
    Z_train: np.ndarray
    Z_eval: np.ndarray


def fit_toy(seed=0, n_per_class=1000, n_ood=1000) -> FittedToy:
    ds = dataset.make_toy(n_per_class, n_ood, seed)
    train, test = dataset.split(ds, 0.8, seed)
    proj = projection.fit_projection(
        train.features[~train.ood_flag], 2, with_scaling=False)
    Z_train = projection.project(proj, train.features)
    Z_eval = projection.project(proj, id_rows(test).features)
    return _fit(train, test, proj, Z_train, Z_eval)


def fit_wine(seed=0) -> FittedToy:
    table = dataset.load_csv(WINE_LIKE, "target")
    ds = dataset.apply_ood_rule(table, "class_equals:2")
    train, test = dataset.split(ds, 0.8, seed)
    proj = projection.fit_projection(
        train.features[~train.ood_flag], train.n_features, with_scaling=True)
    Z_train = projection.project(proj, train.features)
    Z_eval = projection.project(proj, id_rows(test).features)
    return _fit(train, test, proj, Z_train, Z_eval)


def _fit(train, test, proj, Z_train, Z_eval) -> FittedToy:
    moments = density.class_moments(Z_train, train.class_label)
    part = partition.search_partition(moments, Z_eval)
    model = density.fit_partition_density(Z_train, train.class_label, moments, part,
                                          STOP_QUANTILE)
    return FittedToy(train=train, test=test, projection=proj, part=part, moments=moments,
                     model=model, Z_train=Z_train, Z_eval=Z_eval)


@dataclass(frozen=True)
class QdaModel:
    """QDA oracle: per-class Gaussians with empirical priors, posteriors over
    class ids 0..C-1, each fitted from its own columns' moments."""

    components: list
    priors: np.ndarray

    def log_joint(self, Z) -> np.ndarray:
        """log p(z | c) + log prior, shape (n, C); the components reject a
        wrong width with DimensionMismatch."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return np.stack([np.log(p) - comp.nll(Z)
                         for comp, p in zip(self.components, self.priors)], axis=1)

    def posterior(self, Z) -> np.ndarray:
        """P(c | z) rows summing to 1, shape (n, C)."""
        lj = self.log_joint(Z)
        P = np.exp(lj - lj.max(axis=-1, keepdims=True))
        return P / P.sum(axis=-1, keepdims=True)


def fit_qda(Z, Y) -> QdaModel:
    """Class-conditional Gaussians with ridge-regularized covariances."""
    moments = density.class_moments(Z, Y)
    priors = partition._priors(moments)
    return QdaModel(components=[moments.gaussian(range(len(moments.mean)), c)
                                for c in range(len(priors))], priors=priors)


def conditional_entropy(model: QdaModel, Z_eval) -> float:
    """Mean posterior entropy over evaluation rows, in bits: E[h(P(y=1|z))]
    for two classes, the full categorical posterior entropy for more."""
    P = model.posterior(Z_eval)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(P > 0.0, P * np.log2(P), 0.0)
    return float(-terms.sum(axis=-1).mean())


def grad_nll(component, z) -> np.ndarray:
    """Gradient of a Gaussian's NLL at z: Sigma^{-1} (z - mean) = L^-T L^-1
    (z - mean), the product the descent engine takes row by row."""
    y = np.einsum("ij,...j->...i", component.chol_inv, z - component.mean)
    return np.einsum("ji,...j->...i", component.chol_inv, y)


def mode_nll(component) -> float:
    """A Gaussian's NLL at its mean: 0.5 * (m log 2pi + log|Sigma|)."""
    return 0.5 * (component.dim * np.log(2.0 * np.pi) + component.log_det)


def nll_dis_target(model, z_d, target: int) -> float:
    """NLL of the one row z_d under class `target`'s discriminative Gaussian."""
    return model.dis_per_class[target].nll(z_d[None])[0]


def l1_distance(x, x_prime) -> float:
    """Sum of absolute coordinate differences of one row pair: the per-row
    oracle of `report.evaluate_run`'s L1."""
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    if x.shape != x_prime.shape:
        raise DimensionMismatch(f"shapes differ: {x.shape} vs {x_prime.shape}")
    return float(np.abs(x_prime - x).sum())


def density_counterfactuals(fit: FittedToy, X, variant="full") -> list:
    """`batch_generate` on a density variant at the default settings, each
    row toward its `select_target` class, as `run` sends them."""
    return counterfactual.batch_generate(
        X, counterfactual.select_target(fit.model, fit.projection, X), variant=variant,
        model=fit.model, projection=fit.projection, cfg=counterfactual.GenerationConfig())


def id_scores(fit: FittedToy) -> np.ndarray:
    """-l_total of the fit's ID test rows: the AUROC positives of
    `report.evaluate_run`."""
    ln, ld = density.ood_scores(fit.model, fit.Z_eval)
    return -(ln + ld)


def predict_proba(classifier, X) -> np.ndarray:
    """Class probabilities of raw rows (or one row) by a matmul softmax."""
    U = classifier.standardizer.transform(np.asarray(X, dtype=float))
    logits = U @ classifier.weights.T + classifier.bias
    P = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return P / P.sum(axis=-1, keepdims=True)


def argmax_targets(classifier, X) -> np.ndarray:
    """Each row's most probable class under `classifier`: a CFI target that
    needs no density model."""
    return np.argmax(predict_proba(classifier, X), axis=1)


@pytest.fixture(scope="session")
def toy_fit() -> FittedToy:
    return fit_toy(seed=0)


@pytest.fixture(scope="session")
def wine_fit() -> FittedToy:
    return fit_wine(seed=0)


@pytest.fixture(scope="session")
def toy_ood(toy_fit) -> np.ndarray:
    return ood_rows(toy_fit.test).features
