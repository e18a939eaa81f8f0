"""Two-step counterfactual generation by gradient descent on per-partition
Gaussian NLLs, the single-Gaussian / single-step ablations, and the
squared-target-probability + L1 baseline (CFI).

All descent happens in standardized input space, where the PCA loadings are
orthonormal: a step that descends one partition's NLL provably cannot move
the other partition's latent coordinates. Each phase runs plain gradient
descent x' <- x' - alpha * g and stops early once that partition's NLL
falls to its stop NLL, the quantile of the ID training NLLs that the
density fit holds. A safeguard halves alpha after two consecutive NLL
increases so a too-large step cannot diverge.

Every variant runs on one engine, `_descend`, which steps a whole row batch
at a time and drops a row from its active set once the row is done. Its
products are row-wise einsums, so a row's result does not depend on which
rows share its batch or in what order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import rng
from ._gaussian import LOG_2PI
from .density import PartitionDensityModel
from .errors import (
    DimensionMismatch,
    NonFiniteLoss,
    OodcfError,
    OutOfRange,
    UnknownClass,
)
from .projection import (
    ProjectionModel,
    Standardizer,
    fit_standardizer,
    jacobian,
    project,
)

ORDERS = ("non_dis_first", "dis_first")
VARIANTS = ("full", "sg", "sn", "sd", "cfi")
TARGET_PROBABILITY = 1.0  # p_t, the target-class probability CFI aims for


@dataclass(frozen=True)
class GenerationConfig:
    order: str = "non_dis_first"
    step_size: float = 0.05      # alpha, in standardized input space
    max_iter: int = 500          # per step

    def __post_init__(self):
        if self.order not in ORDERS:
            raise OutOfRange(f"order must be one of {ORDERS}, got {self.order!r}")
        if self.step_size <= 0.0:
            raise OutOfRange("step_size must be > 0")
        if self.max_iter < 1:
            raise OutOfRange("max_iter must be >= 1")


@dataclass(frozen=True)
class CfiConfig:
    lam: float = 0.1             # L1 weight, in the classifier's standardized space
    step_size: float = 0.05
    max_iter: int = 500

    def __post_init__(self):
        if self.lam < 0.0:
            raise OutOfRange("lambda must be >= 0")
        if self.step_size <= 0.0 or self.max_iter < 1:
            raise OutOfRange("step_size must be > 0 and max_iter >= 1")


@dataclass(frozen=True)
class PhaseTrace:
    """One optimization phase: iterates in standardized space plus the
    optimized loss at each iterate."""

    phase: str                 # non_dis | dis | joint | cfi
    points: np.ndarray         # (steps+1, d) standardized iterates
    losses: np.ndarray         # (steps+1,) optimized loss per iterate
    steps: int


@dataclass(frozen=True)
class CounterfactualResult:
    """One row's counterfactual; `trajectories` is empty unless recorded."""

    x_original: np.ndarray
    x_counterfactual: np.ndarray
    delta: np.ndarray          # x_counterfactual - x_original, raw units
    trajectories: list[PhaseTrace]
    losses_before: dict
    losses_after: dict
    steps_taken: dict
    variant: str
    target_class: int | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


# -- the descent engine ------------------------------------------------------

@dataclass(frozen=True)
class _RowGaussians:
    """One Gaussian per row, gathered from a component list by class id.

    The engine whitens with the cached inverse factor, one row-wise product
    per step that also gives the gradient. Like the forward substitution of
    `GaussianComponent.nll`, it keeps a row's value independent of its batch
    companions, but the two round differently in the last bits.
    """

    mean: np.ndarray      # (n, m)
    chol_inv: np.ndarray  # (n, m, m), L^-1 of each row's covariance
    log_det: np.ndarray   # (n,)

    @classmethod
    def gather(cls, components, idx) -> "_RowGaussians":
        return cls(mean=np.stack([c.mean for c in components])[idx],
                   chol_inv=np.stack([c.chol_inv for c in components])[idx],
                   log_det=np.array([c.log_det for c in components])[idx])

    def take(self, mask) -> "_RowGaussians":
        return _RowGaussians(self.mean[mask], self.chol_inv[mask], self.log_det[mask])

    def whiten(self, Z):
        """L^-1 (z - mean) for each row of Z under its own Gaussian."""
        return np.einsum("nij,nj->ni", self.chol_inv, Z - self.mean)

    def nll(self, Y):
        """NLL from whitened rows Y."""
        return 0.5 * (Y.shape[1] * LOG_2PI + self.log_det + (Y * Y).sum(axis=1))


class _NllObjective:
    """Gaussian NLL of J @ u, one Gaussian per row; plain gradient steps."""

    proximal = False

    def __init__(self, J, gaussians: _RowGaussians, phase: str):
        self.J, self.gaussians, self.phase = J, gaussians, phase

    def keep(self, mask):
        self.gaussians = self.gaussians.take(mask)

    def loss(self, U):
        """Per-row loss and the whitened latents the next step reuses."""
        Y = self.gaussians.whiten(np.einsum("nj,mj->nm", U, self.J))
        return self.gaussians.nll(Y), Y

    def step(self, U, Y, alpha):
        grad_z = np.einsum("nji,nj->ni", self.gaussians.chol_inv, Y)
        return U - alpha[:, None] * np.einsum("nm,mj->nj", grad_z, self.J)

    def diverged(self, step, alpha) -> str:
        return f"{self.phase} phase diverged at step {step} (alpha={alpha:g})"


@dataclass(frozen=True)
class _RowClassifiers:
    """One softmax classifier per row, gathered from a list by index. Every
    field is a C-contiguous stack, and `take` keeps it one: only then do the
    row-wise einsums round as one classifier's two-operand ones, whatever
    rows and classifiers share the batch."""

    mean: np.ndarray     # (n, d) standardizer mean
    scale: np.ndarray    # (n, d) standardizer scale
    weights: np.ndarray  # (n, C, d)
    bias: np.ndarray     # (n, C)

    @classmethod
    def gather(cls, classifiers, idx) -> "_RowClassifiers":
        fields = [(c.standardizer.mean, c.standardizer.scale, c.weights, c.bias)
                  for c in classifiers]
        return cls(*(np.stack(arrays)[idx] for arrays in zip(*fields)))

    def take(self, mask) -> "_RowClassifiers":
        return _RowClassifiers(*(a[mask] for a in vars(self).values()))

    def transform(self, X):
        return (X - self.mean) / self.scale

    def proba(self, U):
        """Class probabilities of standardized rows U, each under its own classifier."""
        logits = np.einsum("nj,ncj->nc", U, self.weights) + self.bias
        logits = logits - reduce(np.maximum, logits.T)[:, None]  # exact, as in training
        p = np.exp(logits)
        return p / p.sum(axis=-1, keepdims=True)


class _CfiObjective:
    """(q_t(u) - p_t)^2 + lambda * ||u - u0||_1, one ISTA step at a time.

    The optimization runs in each row's classifier's standardized space and
    the L1 term is measured there; the kink is handled by soft-thresholding
    the displacement toward u0 after each gradient step on the smooth part,
    which realizes the zero-subgradient convention at coordinates where
    u = u0 (ISTA, Beck & Teboulle 2009).
    """

    proximal = True
    phase = "cfi"

    def __init__(self, classifiers: _RowClassifiers, U0, targets, cfg: CfiConfig):
        self.cfg, self.shrink = cfg, cfg.step_size * cfg.lam
        self.keep_rows(classifiers, U0, targets)

    def keep_rows(self, classifiers, U0, targets):
        self.classifiers, self.U0, self.targets = classifiers, U0, targets
        self.rows = np.arange(len(targets))
        self.W_target = classifiers.weights[self.rows, targets]

    def keep(self, mask):
        self.keep_rows(self.classifiers.take(mask), self.U0[mask], self.targets[mask])

    def loss(self, U):
        """Per-row objective and the class probabilities the next step reuses."""
        P = self.classifiers.proba(U)
        qt = P[self.rows, self.targets]
        l1 = np.abs(U - self.U0).sum(axis=1)
        return (qt - TARGET_PROBABILITY) ** 2 + self.cfg.lam * l1, P

    def step(self, U, P, alpha):
        qt = P[self.rows, self.targets][:, None]
        grad_q = qt * (self.W_target - np.einsum("nc,ncj->nj", P, self.classifiers.weights))
        g = 2.0 * (qt - TARGET_PROBABILITY) * grad_q
        d = U - alpha[:, None] * g - self.U0
        d = np.sign(d) * np.maximum(np.abs(d) - self.shrink, 0.0)
        return self.U0 + d

    def diverged(self, step, alpha) -> str:
        return f"cfi diverged at step {step}"


@dataclass(frozen=True)
class _Descent:
    """Per-row outcome of one `_descend` call."""

    U: np.ndarray          # (n, d) last accepted iterates
    loss0: np.ndarray      # (n,) loss at the start
    loss: np.ndarray       # (n,) loss at U
    steps: np.ndarray      # (n,) accepted steps
    errors: dict           # row -> NonFiniteLoss, for rows that diverged
    traces: list | None    # per-row PhaseTrace when recorded


def _descend(U0, objective, step_size, max_iter, thresholds,
             record=False) -> _Descent:
    """Descend every row of U0 at once.

    A row stays active until its loss falls to its threshold (-inf for
    none), it stops moving (a proximal objective), it has taken max_iter
    steps, or its loss turns non-finite; the last flags the row with a
    NonFiniteLoss and leaves the others running. A row that starts from a
    non-finite loss takes a step too, so it cannot pass unflagged. A
    gradient row halves its step size after two consecutive loss increases.

    The state of the active rows (iterate, loss, step size, rise count,
    threshold and the objective's per-row parameters) is kept compact and
    only re-packed when a row leaves. With `record`, every iterate goes into
    one (max_iter+1, n, d) buffer from which each row's PhaseTrace copies
    its own slice.
    """
    U = np.array(U0, dtype=float)
    n, d = U.shape
    loss0, cache = objective.loss(U)
    loss = loss0.copy()
    steps = np.zeros(n, dtype=int)
    messages = {}
    if record:
        points = np.empty((max_iter + 1, n, d))
        losses = np.empty((max_iter + 1, n))
        points[0], losses[0] = U, loss0
    # the active rows: their ids, iterates, losses, step sizes, rise counts
    # and thresholds
    rows, u, f = np.arange(n), U.copy(), loss0.copy()
    alpha, rises = np.full(n, float(step_size)), np.zeros(n, dtype=int)
    th = np.asarray(thresholds, dtype=float)

    def retire(mask, taken):
        """Write the rows outside `mask` back with `taken` steps, keep the rest."""
        nonlocal rows, u, f, cache, alpha, rises, th
        done = rows[~mask]
        U[done], loss[done], steps[done] = u[~mask], f[~mask], taken
        rows, u, f, cache = rows[mask], u[mask], f[mask], cache[mask]
        alpha, rises, th = alpha[mask], rises[mask], th[mask]
        objective.keep(mask)

    below = f <= th  # a non-finite start is not below: it steps, and is flagged
    if below.any():
        retire(~below, 0)
    for t in range(max_iter):
        if rows.size == 0:
            break
        new = objective.step(u, cache, alpha)
        new_loss, new_cache = objective.loss(new)
        finite = np.isfinite(new_loss)
        go = finite & (new != u).any(axis=1) if objective.proximal else finite
        if not go.all():
            for j in np.flatnonzero(~finite):
                messages[rows[j]] = objective.diverged(t + 1, alpha[j])
            retire(go, t)
            new, new_loss, new_cache = new[go], new_loss[go], new_cache[go]
        if not objective.proximal:
            rises = np.where(new_loss > f, rises + 1, 0)
            halve = rises >= 2
            alpha = np.where(halve, 0.5 * alpha, alpha)
            rises = np.where(halve, 0, rises)
        u, f, cache = new, new_loss, new_cache
        if record:
            points[t + 1, rows], losses[t + 1, rows] = u, f
        above = f > th
        if not above.all():
            retire(above, t + 1)
    retire(np.zeros(rows.size, dtype=bool), max_iter)

    traces = None
    if record:
        traces = [PhaseTrace(objective.phase, points[:s + 1, i].copy(),
                             losses[:s + 1, i].copy(), int(s))
                  for i, s in enumerate(steps)]
    errors = {i: NonFiniteLoss(msg) for i, msg in messages.items()}
    return _Descent(U=U, loss0=loss0, loss=loss, steps=steps, errors=errors, traces=traces)


# -- density variants: two-step, sg, sn, sd --------------------------------

def select_target(model: PartitionDensityModel, projection: ProjectionModel, X):
    """Per row of the (n, d) matrix X, the class whose discriminative NLL is
    lowest (ties: lowest id)."""
    Z = project(projection, X)[:, list(model.partition.z_d)]
    return np.argmin(np.stack([g.nll(Z) for g in model.dis_per_class], axis=1), axis=1)


def _phases(variant: str, order: str) -> tuple:
    if variant == "full":
        return ("non_dis", "dis") if order == "non_dis_first" else ("dis", "non_dis")
    return {"sg": ("joint",), "sn": ("non_dis",), "sd": ("dis",)}[variant]


def _phase_gaussians(model, projection, phase, targets):
    """Latent dims of a phase, each row's Gaussian over them, and each row's
    stop NLL."""
    if phase == "non_dis":
        comps, dims, stops = [model.non_dis], model.partition.z_n, np.array([model.non_dis_stop])
        targets = np.zeros_like(targets)
    elif phase == "dis":
        comps, dims, stops = model.dis_per_class, model.partition.z_d, model.dis_stop
    else:  # joint: all latent dims under the class-conditional joint Gaussian
        comps, dims, stops = model.joint_per_class, range(projection.k), model.joint_stop
    return list(dims), _RowGaussians.gather(comps, targets), stops[targets]


def _partition_nlls(model, projection, U, targets, joint: bool) -> dict:
    """non-dis and target-class dis (and joint) NLL at standardized rows."""
    Z = np.einsum("nj,jk->nk", U, projection.loadings)
    out = {}
    for phase in ("non_dis", "dis", "joint") if joint else ("non_dis", "dis"):
        dims, g, _ = _phase_gaussians(model, projection, phase, targets)
        out[phase] = g.nll(g.whiten(Z[:, dims]))
    return out


def _density_rows(X, variant, model, projection, cfg, targets, record):
    """Run a density variant's phases in turn on the rows of X."""
    n = X.shape[0]
    U0 = projection.standardizer.transform(X)
    U = U0.copy()
    outcomes = [None] * n
    traces = [[] for _ in range(n)]
    steps = [{} for _ in range(n)]
    live = np.arange(n)
    phases = _phases(variant, cfg.order)
    for phase in phases:
        dims, gaussians, stops = _phase_gaussians(model, projection, phase, targets[live])
        objective = _NllObjective(jacobian(projection, dims), gaussians, phase)
        run = _descend(U[live], objective, cfg.step_size, cfg.max_iter, stops, record)
        U[live] = run.U
        for j, i in enumerate(live):
            steps[i][phase] = int(run.steps[j])
            if record:
                traces[i].append(run.traces[j])
        for j, exc in run.errors.items():
            outcomes[live[j]] = exc
        live = np.array([i for i in live if outcomes[i] is None], dtype=int)

    t = targets[live]
    before = _partition_nlls(model, projection, U0[live], t, "joint" in phases)
    after = _partition_nlls(model, projection, U[live], t, "joint" in phases)
    # delta defined in raw units from the standardized displacement, and the
    # counterfactual defined as x + delta, so x' = x + delta holds exactly
    delta = (U - U0) * projection.standardizer.scale
    X_cf = X + delta
    for j, i in enumerate(live):
        outcomes[i] = CounterfactualResult(
            x_original=X[i], x_counterfactual=X_cf[i], delta=delta[i],
            trajectories=traces[i],
            losses_before={k: float(v[j]) for k, v in before.items()},
            losses_after={k: float(v[j]) for k, v in after.items()},
            steps_taken=steps[i], variant=variant, target_class=int(t[j]))
    return outcomes


def _cfi_rows(X, classifiers: _RowClassifiers, cfg, targets, record):
    """Run the CFI descent on the rows of X, each under its own classifier."""
    U0 = classifiers.transform(X)
    rows = np.arange(X.shape[0])
    run = _descend(U0, _CfiObjective(classifiers, U0, targets, cfg), cfg.step_size,
                   cfg.max_iter, np.full(len(rows), -np.inf), record)
    q_before = classifiers.proba(U0)[rows, targets]
    q_after = classifiers.proba(run.U)[rows, targets]
    delta = (run.U - U0) * classifiers.scale
    X_cf = X + delta
    return [run.errors[i] if i in run.errors else CounterfactualResult(
        x_original=X[i], x_counterfactual=X_cf[i], delta=delta[i],
        trajectories=[run.traces[i]] if record else [],
        losses_before={"objective": float(run.loss0[i]), "q_target": float(q_before[i])},
        losses_after={"objective": float(run.loss[i]), "q_target": float(q_after[i])},
        steps_taken={"cfi": int(run.steps[i])}, variant="cfi",
        target_class=int(targets[i])) for i in rows]


# -- CFI baseline ------------------------------------------------------------

@dataclass(frozen=True)
class SoftmaxClassifier:
    """Multinomial logistic regression on internally-standardized features."""

    standardizer: Standardizer
    weights: np.ndarray  # (C, d)
    bias: np.ndarray     # (C,)


def train_softmax_classifier(sets, seeds, epochs: int = 500, lr: float = 0.01,
                             batch_size: int = 128) -> list[SoftmaxClassifier]:
    """One classifier per (features, labels) set and seed: mini-batch SGD on
    the cross-entropy loss (500 epochs, lr 0.01, batch 128 by default), on
    standardized features. The sets share one row and class count, as every
    seed's train split of a table does, and train in lock step on a leading
    seed axis: a stacked product is one gemm per seed, so each classifier is
    bit for bit the one its set and seed train alone."""
    ys = [np.asarray(y, dtype=int) for _, y in sets]
    if len(seeds) != len(sets) or len({(np.shape(X), int(y.max()))
                                       for (X, _), y in zip(sets, ys)}) != 1:
        raise DimensionMismatch("lock-step training needs one seed per set, and one "
                                "row and class count")
    stds = [fit_standardizer(X, with_scaling=True) for X, _ in sets]
    # a ones column carries the bias: the last row of Wb is b, and a small
    # gemm adds its K terms in order, so u @ Wb adds b last, as `+ b` does
    U = np.stack([np.column_stack([std.transform(X), np.ones(len(X))])
                  for std, (X, _) in zip(stds, sets)])
    S, n, k = U.shape  # k = d + 1
    n_classes = int(ys[0].max()) + 1
    Wb = np.zeros((S, k, n_classes))
    gens = [rng.generator(seed, stream=2) for seed in seeds]
    # seed s's rows start at row s * n of the flattened stacks
    flat_U, flat_Y = U.reshape(S * n, k), np.eye(n_classes)[np.concatenate(ys)]
    block = max(1, 2 ** 14 // (S * n))  # epochs per draw: 2^14 uniforms bound the memory
    for first in range(0, epochs, block):
        count = min(block, epochs - first)
        orders = np.stack([rng.permutation(gen, n, count) for gen in gens], axis=1)
        for order in orders + n * np.arange(S)[:, None]:
            # one gather per epoch; each batch is a view of it
            U_epoch, Y_epoch = flat_U[order], flat_Y[order]
            for start in range(0, n, batch_size):
                u = U_epoch[:, start:start + batch_size]
                G = u @ Wb  # the logits, then in place the probabilities and gradient
                # a max one class at a time: exact, and cheaper than max(axis=2)
                G -= reduce(np.maximum, G.T).T[..., None]
                np.exp(G, out=G)
                G /= np.add.reduce(G, axis=2, keepdims=True)
                G -= Y_epoch[:, start:start + batch_size]
                G /= u.shape[1]
                # one gemm gives the weight and the bias gradients together
                Wb -= lr * (u.transpose(0, 2, 1) @ G)
    return [SoftmaxClassifier(standardizer=std, weights=np.ascontiguousarray(Wb[s, :-1].T),
                              bias=Wb[s, -1]) for s, std in enumerate(stds)]


# -- batch driver ------------------------------------------------------------

def _failed_result(x, variant, exc) -> CounterfactualResult:
    return CounterfactualResult(
        x_original=x, x_counterfactual=x.copy(), delta=np.zeros_like(x),
        trajectories=[], losses_before={}, losses_after={}, steps_taken={},
        variant=variant, target_class=None, error=f"{type(exc).__name__}: {exc}")


def batch_generate(points, targets, variant="full", model=None, projection=None, cfg=None,
                   classifiers=None, classifier_ids=0, cfi_cfg=None,
                   record=True) -> list[CounterfactualResult]:
    """Generate one counterfactual per row in one batched descent, row i
    toward class `targets[i]`; output order matches input order and a
    failing row is returned flagged instead of aborting the batch.

    CFI descends row i under `classifiers[classifier_ids[i]]` (a single id
    serves every row), so one call serves every seed. `record=False` skips
    the per-step trajectories.
    """
    X = np.array(points, dtype=float, ndmin=2)
    if X.size == 0:
        return []
    if variant not in VARIANTS:
        raise OutOfRange(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    n, d = X.shape
    if variant == "cfi":
        row_classifiers = _RowClassifiers.gather(classifiers, np.broadcast_to(classifier_ids, n))
        _, n_classes, n_features = row_classifiers.weights.shape
    else:
        n_classes, n_features = model.n_classes, projection.n_features
    if d != n_features:
        raise DimensionMismatch(f"input has {d} features, model expects {n_features}")
    targets = np.asarray(targets, dtype=int).reshape(n)
    outcomes = [None if 0 <= t < n_classes else
                UnknownClass(f"target class {t} not in [0, {n_classes})") for t in targets]
    ok = np.array([i for i in range(n) if outcomes[i] is None], dtype=int)
    # a row on its way to a non-finite loss may overflow or meet inf - inf;
    # the loss check flags it, so the arithmetic itself stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "cfi":
            done = _cfi_rows(X[ok], row_classifiers.take(ok), cfi_cfg, targets[ok], record)
        else:
            done = _density_rows(X[ok], variant, model, projection, cfg, targets[ok],
                                 record)
    for i, out in zip(ok, done):
        outcomes[i] = out
    return [_failed_result(x, variant, out) if isinstance(out, OodcfError) else out
            for x, out in zip(X, outcomes)]
