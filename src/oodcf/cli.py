"""Command-line entry point wiring the pipeline.

Subcommands: `toy` (2D toy experiment: AUROC table plus SVG figures),
`run` (full tabular pipeline with multi-seed EvalRow tables), `partition`
(projection + partition search only), and `score` (per-row OOD score dump).

Configuration comes from an INI-style key=value file with sections
([dataset], [projection], [partition], [generate], [cfi], [run]); flags
override file values. Each `RunConfig` field states its own INI key, flag,
converter and range, and both sources go through them. Every output file
embeds the resolved config for provenance. Exit codes: 2 config, 3 data,
4 numerical.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .counterfactual import (
    ORDERS,
    VARIANTS,
    CfiConfig,
    GenerationConfig,
    batch_generate,
    generate,
    select_target,
    train_softmax_classifier,
)
from .dataset import (
    LabeledDataset,
    OodRule,
    SplitSpec,
    apply_ood_rule,
    load_csv,
    make_toy,
    split,
)
from .density import (
    MahalanobisScorer,
    MarginalMahalanobisScorer,
    fit_partition_density,
    ood_scores,
)
from .errors import EXIT_CONFIG, CapExceeded, ConfigError, NumericError, OodcfError
from .partition import Partition, conditional_entropy, fit_qda, search_partition
from .projection import fit_projection, project, save_projection
from .report import auroc, evaluate_run, format_table, repeat_and_aggregate
from .svgplot import ScatterPlot

ORDER_NAMES = {"nd": "non_dis_first", "dn": "dis_first"}
TOY_TRACE_POINT = (0.0, 2.0)
TOY_TRACE_TARGET = 1


# -- config schema -------------------------------------------------------------

def _ints(text: str) -> list:
    return [int(v) for v in text.split(",") if v.strip()]


def _names(text: str) -> list:
    return [v.strip() for v in text.split(",") if v.strip()]


def _lookup(table: dict, fold=str):
    """Converter from a word in `table` (after `fold`) to its value."""
    def conv(text: str):
        if fold(text) not in table:
            raise ValueError(f"expected one of {', '.join(table)}")
        return table[fold(text)]
    return conv


_boolean = _lookup(configparser.ConfigParser.BOOLEAN_STATES, str.lower)


def _opt(default, section, conv=str, help="", ok=None, rule="", **names):
    """A RunConfig field and its schema: the INI `[section] key`, the flag, the
    converter from text, an optional range check `ok` with its `rule` text,
    and the help. `names` may override `key` (default: the field name),
    `flag` (default: --field-name; None for none) and `flag_conv`."""
    kind = "default_factory" if callable(default) else "default"
    return field(**{kind: default}, metadata=dict(
        section=section, conv=conv, help=help, ok=ok, rule=rule, **names))


def _flag(f) -> str | None:
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


@dataclass
class RunConfig:
    source: str = _opt("toy", "dataset", ok=lambda v: v in ("toy", "csv"),
                       rule="toy or csv", flag=None)
    data_path: str = _opt("", "dataset", help="CSV dataset path (switches source to csv)",
                          key="path", flag="--data")
    label_col: str = _opt("", "dataset", help="label column name")
    ood_rule: str = _opt("", "dataset",
                         help="class_equals:V | above_quartile:COL | equals:COL=V")
    n_per_class: int = _opt(1000, "dataset", int, "toy rows per class",
                            ok=lambda v: v >= 1, rule=">= 1")
    n_ood: int = _opt(1000, "dataset", int, "toy OOD rows", ok=lambda v: v >= 1, rule=">= 1")
    k: int = _opt(0, "projection", int, "latent dims (0 = input dimensionality)",
                  ok=lambda v: v >= 0, rule=">= 0 (0 = input dimensionality)")
    slack: float = _opt(0.10, "partition", float, "partition threshold slack",
                        ok=lambda v: 0 <= v < math.inf, rule="a finite number >= 0")
    cap: int = _opt(20, "partition", int, "partition search dimensionality cap",
                    ok=lambda v: v >= 2, rule=">= 2")
    order: str = _opt("non_dis_first", "generate",
                      help="step order: nd = non-dis first, dn = dis first",
                      ok=lambda v: v in ORDERS, rule=" or ".join(ORDERS),
                      flag_conv=_lookup(ORDER_NAMES))
    alpha: float = _opt(0.05, "generate", float, "gradient step size",
                        ok=lambda v: 0 < v < math.inf, rule="a finite number > 0")
    max_iter: int = _opt(500, "generate", int, "iterations per step",
                         ok=lambda v: v >= 1, rule=">= 1")
    stop_quantile: float = _opt(0.5, "generate", float,
                                "ID-train NLL quantile where a step stops",
                                ok=lambda v: 0 < v <= 1, rule="in (0, 1]")
    cfi_lambda: float = _opt(0.1, "cfi", float, "CFI L1 weight",
                             ok=lambda v: 0 <= v < math.inf, rule="a finite number >= 0",
                             key="lambda")
    variants: list = _opt(lambda: list(VARIANTS), "run", _names,
                          f"comma list from {','.join(VARIANTS)}",
                          ok=lambda v: v and set(v) <= set(VARIANTS),
                          rule=f"a comma list from {','.join(VARIANTS)}")
    seeds: list = _opt(lambda: [0, 1, 2, 3, 4], "run", _ints, "comma list of integer seeds",
                       ok=lambda v: v and min(v) >= 0, rule="one or more integers >= 0")
    train_fraction: float = _opt(0.8, "run", float, "share of rows in the train split",
                                 ok=lambda v: 0 < v < 1, rule="in (0, 1)")
    out: str = _opt("out", "run", help="output directory")
    emit_trajectories: bool = _opt(False, "run", _boolean,
                                   "write per-step trajectories (run, toy)")

    def resolved(self) -> dict:
        d = dict(vars(self))
        d["version"] = __version__
        return d

    @property
    def with_scaling(self) -> bool:
        # scaling a 2-column toy table would degenerate the PCA directions
        return self.source == "csv"

    def generation(self) -> GenerationConfig:
        return GenerationConfig(order=self.order, step_size=self.alpha,
                                max_iter=self.max_iter, stop_quantile=self.stop_quantile)

    def cfi(self) -> CfiConfig:
        return CfiConfig(lam=self.cfi_lambda, step_size=self.alpha,
                         max_iter=self.max_iter)


def parse_rule(spec: str) -> OodRule:
    """Parse an --ood-rule string.

    Grammar: 'class_equals:VALUE', 'above_quartile:COLUMN',
    or 'equals:COLUMN=VALUE'.
    """
    kind, _, rest = spec.partition(":")
    if not rest:
        raise ConfigError(f"bad --ood-rule {spec!r}; expected KIND:ARGS")
    try:
        if kind == "class_equals":
            return OodRule(kind="class_equals", value=float(rest))
        if kind == "above_quartile":
            return OodRule(kind="column_above_upper_quartile", target_column=rest)
        if kind == "equals":
            col, _, val = rest.partition("=")
            if not val:
                raise ConfigError(f"bad --ood-rule {spec!r}; equals needs COLUMN=VALUE")
            return OodRule(kind="column_equals_value", target_column=col,
                           value=float(val))
    except ValueError:
        raise ConfigError(f"bad --ood-rule {spec!r}; value must be numeric")
    raise ConfigError(f"unknown --ood-rule kind {kind!r}")


# -- config file + flags -----------------------------------------------------

def _convert(f, text: str, conv, where: str = ""):
    """`text` converted and range-checked for field `f`; `where` prefixes the
    error with the value's origin when it is not a flag."""
    try:
        value = conv(text)
        if f.metadata["ok"] and not f.metadata["ok"](value):
            raise ValueError(f"must be {f.metadata['rule']}")
    except ValueError as exc:
        raise ConfigError(f"{where}bad {_flag(f) or f.name} {text}; {exc}") from None
    return value


def _read_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(default_section="")  # no [DEFAULT] inheritance
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
    except (configparser.Error, ValueError) as exc:  # ValueError: undecodable bytes
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from None
    return parser


def load_config_file(path: str) -> dict:
    """Field values from an INI file; an unknown section or key is an error."""
    parser = _read_ini(path)
    schema = {(f.metadata["section"], f.metadata.get("key", f.name)): f
              for f in fields(RunConfig)}
    updates = {}
    for section in parser.sections():
        if section not in {s for s, _ in schema}:
            raise ConfigError(f"config [{section}]: unknown section")
        for key in parser.options(section):
            where = f"config [{section}] {key}: "
            if (section, key) not in schema:
                raise ConfigError(where + "unknown key")
            try:
                text = parser.get(section, key)
            except configparser.Error as exc:  # e.g. a lone '%' (interpolation)
                raise ConfigError(where + str(exc)) from None
            f = schema[section, key]
            updates[f.name] = _convert(f, text, f.metadata["conv"], where)
    return updates


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file values, then flag values; every value is
    converted and range-checked here, before any data is read."""
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for f in fields(RunConfig):
        flag = _flag(f)
        text = getattr(args, flag[2:].replace("-", "_"), None) if flag else None
        if text is not None:
            values[f.name] = _convert(f, text, f.metadata.get("flag_conv", f.metadata["conv"]))
    if getattr(args, "data", None):
        values["source"] = "csv"
    return RunConfig(**values)


# -- datasets and fitting ----------------------------------------------------

def load_dataset(cfg: RunConfig, seed: int) -> LabeledDataset:
    if cfg.source == "toy":
        return make_toy(cfg.n_per_class, cfg.n_ood, seed)
    if not cfg.data_path or not cfg.label_col or not cfg.ood_rule:
        raise ConfigError("csv source needs --data, --label-col and --ood-rule")
    table = load_csv(cfg.data_path, cfg.label_col)
    return apply_ood_rule(table, parse_rule(cfg.ood_rule))


@dataclass
class PipelineFit:
    train: LabeledDataset
    test: LabeledDataset
    projection: object
    partition: Partition
    model: object
    Z_train: np.ndarray
    Z_eval: np.ndarray


def fit_pipeline(cfg: RunConfig, seed: int) -> PipelineFit:
    ds = load_dataset(cfg, seed)
    train, test = split(ds, SplitSpec(train_fraction=cfg.train_fraction, seed=seed))
    k = cfg.k if cfg.k > 0 else train.n_features
    if k > cfg.cap:
        raise CapExceeded(
            f"k={k} exceeds the partition-search cap {cfg.cap}; "
            "pass --k to reduce dimensionality or --cap to override")
    projection = fit_projection(train.features[~train.ood_flag], k,
                                with_scaling=cfg.with_scaling)
    Z_train = project(projection, train.features)
    id_test = test.id_rows()
    Z_eval = project(projection, id_test.features)
    part = search_partition(Z_train, train.class_label, Z_eval,
                            slack=cfg.slack, cap=cfg.cap)
    model = fit_partition_density(Z_train, train.class_label, part)
    return PipelineFit(train=train, test=test, projection=projection,
                       partition=part, model=model, Z_train=Z_train, Z_eval=Z_eval)


# -- output helpers ----------------------------------------------------------

def _provenance(cfg: RunConfig) -> str:
    return json.dumps(cfg.resolved(), sort_keys=True, separators=(",", ":"))


_CSV_CHUNK_ROWS = 256  # tens of kB of text: streamed tables stay out of memory


def _plain_csv(rows: list, line: str, width: int) -> str | None:
    """`rows` as csv text by one `line` format per row, or None when a row
    is not a `width`-tuple or a cell might need csv quoting or prints
    differently. csv prints every non-str, non-None cell by str(), as `%s`
    does; it prints None as an empty field, quotes a lone empty field and a
    cell holding a comma, quote or LF, and on some Python versions one
    holding a CR."""
    if width < 2:
        return None
    try:
        text = "".join([line % row for row in rows])
    except (TypeError, ValueError):
        return None
    n = len(rows)
    if (text.count("\n") != n or text.count(",") != n * (width - 1)
            or '"' in text or "\r" in text or "None" in text):
        return None
    return text


def write_csv(path, header, rows, cfg: RunConfig):
    """The provenance line, the header and `rows`, byte for byte as
    `csv.writer` writes them; chunks of plain rows skip its per-cell work."""
    width = len(header)
    line = ",".join(["%s"] * width) + "\n"
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config: {_provenance(cfg)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        while chunk := list(itertools.islice(rows, _CSV_CHUNK_ROWS)):
            text = _plain_csv(chunk, line, width)
            if text is None:
                writer.writerows(chunk)
            else:
                fh.write(text)


def write_json(path, payload: dict, cfg: RunConfig):
    payload = {"config": cfg.resolved(), **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def partition_rows(part: Partition):
    return [(r.cardinality, "|".join(map(str, r.subset)), r.loss, r.normalized,
             int(r.within_threshold), int(r.chosen)) for r in part.per_cardinality]


def print_partition(part: Partition):
    print("cardinality  subset      loss        normalized  chosen")
    for r in part.per_cardinality:
        print(f"{r.cardinality:>11}  {'|'.join(map(str, r.subset)):<10}  "
              f"{r.loss:>10.4f}  {r.normalized:>10.4f}  {'*' if r.chosen else ''}")
    print(f"z_d = {list(part.z_d)}  z_n = {list(part.z_n)}")
    for note in part.notes:
        print(f"note: {note}")


def _traj_rows(fit: PipelineFit, results, variant):
    """Lazy rows of every trace of `results`, step by step: one projection
    and one NLL solve per Gaussian over all traces, cells from `.tolist()`
    so each prints by repr as a Python scalar."""
    found = [(i, res.target_class if res.target_class is not None else 0, trace)
             for i, res in enumerate(results) for trace in res.trajectories]
    if not found:
        return iter(())
    ids, targets, traces = zip(*found)
    lengths = [trace.points.shape[0] for trace in traces]
    U = np.concatenate([trace.points for trace in traces])
    Z = U @ fit.projection.loadings
    ln = fit.model.non_dis.nll(Z[:, list(fit.partition.z_n)])
    target, ld = np.repeat(targets, lengths), np.empty(len(U))
    for c in set(targets):
        rows = target == c
        ld[rows] = fit.model.dis_per_class[c].nll(Z[rows][:, list(fit.partition.z_d)])
    step = np.arange(len(U)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return zip(np.repeat(ids, lengths).tolist(), itertools.repeat(variant),
               np.repeat([trace.phase for trace in traces], lengths).tolist(),
               step.tolist(), *U.T.tolist(), ln.tolist(), ld.tolist())


def _counterfactual_rows(results, variant):
    """Lazy rows of `results`, built column by column; feature cells come
    from `.tolist()` so each prints by repr as a Python scalar."""
    losses = [[getattr(res, side).get(phase, "") for res in results]
              for side in ("losses_before", "losses_after") for phase in ("non_dis", "dis")]
    features = [np.array([getattr(res, name) for res in results]).T.tolist()
                for name in ("x_original", "x_counterfactual", "delta")]
    return zip(range(len(results)), itertools.repeat(variant),
               [res.target_class if res.target_class is not None else "" for res in results],
               [res.error or "" for res in results], *losses, *itertools.chain(*features))


# -- subcommands ---------------------------------------------------------------

def _toy_figures(cfg: RunConfig, fit: PipelineFit, out: Path):
    train = fit.train
    mean = fit.projection.standardizer.mean
    W = fit.projection.loadings
    lengths = 2.0 * np.sqrt(fit.projection.explained_variance)

    scatter = ScatterPlot(title="ID classes, OOD data, and principal components",
                          comment=f"config: {_provenance(cfg)}")
    labels = ("class 0", "class 1")
    colors = ("#1f77b4", "#2ca02c")
    for c in (0, 1):
        pts = train.features[(~train.ood_flag) & (train.class_label == c)]
        scatter.add_group(labels[c], colors[c], pts[:400])
    test_ood = fit.test.ood_rows().features
    scatter.add_group("OOD", "#d62728", test_ood[:400])
    for j in range(fit.projection.k):
        end = mean + lengths[j] * W[:, j] * fit.projection.standardizer.scale
        scatter.add_arrow(f"pc{j + 1}", "#333333", mean, end)
    scatter.write(out / "toy_scatter.svg")

    gen_base = cfg.generation()
    for order_key, order in ORDER_NAMES.items():
        gcfg = replace(gen_base, order=order, target_class=TOY_TRACE_TARGET)
        res = generate(np.array(TOY_TRACE_POINT), fit.model, fit.projection, gcfg)
        plot = ScatterPlot(
            title=f"trajectory of {TOY_TRACE_POINT}, order={order}",
            comment=f"config: {_provenance(cfg)}")
        for c in (0, 1):
            pts = train.features[(~train.ood_flag) & (train.class_label == c)]
            plot.add_group(labels[c], colors[c], pts[:400])
        plot.add_group("OOD", "#d62728", test_ood[:200])
        phase_colors = {"non_dis": "#9467bd", "dis": "#ff7f0e", "joint": "#8c564b"}
        for trace in res.trajectories:
            raw = fit.projection.standardizer.inverse_transform(trace.points)
            plot.add_polyline(f"{trace.phase} step", phase_colors[trace.phase], raw)
        plot.write(out / f"toy_trajectory_{order_key}.svg")
        if cfg.emit_trajectories:
            rows = _traj_rows(fit, [res], "full")
            header = (["row_id", "variant", "phase", "step"]
                      + [f"u_{n}" for n in train.feature_names]
                      + ["nll_non_dis", "nll_dis"])
            write_csv(out / f"toy_trajectory_{order_key}.csv", header, rows, cfg)


def cmd_toy(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.k == 0:
        cfg.k = 2

    approaches = ("Mahalanobis Distance", "Marginal Mahalanobis Distance", "Custom metric")
    per_seed = {a: [] for a in approaches}
    first_fit = None
    for seed in cfg.seeds:
        fit = fit_pipeline(cfg, seed)
        if first_fit is None:
            first_fit = fit
        Zood = project(fit.projection, fit.test.ood_rows().features)
        mah = MahalanobisScorer.fit(fit.Z_train, fit.train.class_label)
        marg = MarginalMahalanobisScorer.fit(fit.Z_train)
        ln_id, ld_id = ood_scores(fit.model, fit.Z_eval)
        ln_ood, ld_ood = ood_scores(fit.model, Zood)
        per_seed["Mahalanobis Distance"].append(
            auroc(-mah.score(fit.Z_eval), -mah.score(Zood)))
        per_seed["Marginal Mahalanobis Distance"].append(
            auroc(-marg.score(fit.Z_eval), -marg.score(Zood)))
        per_seed["Custom metric"].append(
            auroc(-(ln_id + ld_id), -(ln_ood + ld_ood)))

    rows = [(a, seed, score) for a in approaches
            for seed, score in zip(cfg.seeds, per_seed[a])]
    write_csv(out / "toy_auroc.csv", ["approach", "seed", "auroc"], rows, cfg)
    summary = [(a, float(np.mean(per_seed[a])), float(np.std(per_seed[a])), len(cfg.seeds))
               for a in approaches]
    write_csv(out / "toy_auroc_summary.csv",
              ["approach", "auroc", "auroc_std", "n_seeds"], summary, cfg)

    print("OOD approach                       AUROC")
    for a in approaches:
        print(f"{a:<33}  {np.mean(per_seed[a]):.3f}")

    # entropy / partition diagnostics for the first seed
    ent = [conditional_entropy(fit_qda(first_fit.Z_train[:, [j]],
                                       first_fit.train.class_label),
                               first_fit.Z_eval[:, [j]])
           for j in range(first_fit.projection.k)]
    for j, h in enumerate(ent):
        print(f"H[Y|pc{j + 1}] = {h:.3g} bits")
    print_partition(first_fit.partition)
    write_csv(out / "toy_partition.csv",
              ["cardinality", "subset", "loss", "normalized", "within_threshold", "chosen"],
              partition_rows(first_fit.partition), cfg)

    _toy_figures(cfg, first_fit, out)
    save_projection(first_fit.projection, out / "toy_projection.json",
                    extra={"config": cfg.resolved()})
    return 0


def _run_variant_results(cfg: RunConfig, fit: PipelineFit, variant: str, seed: int):
    ood_test = fit.test.ood_rows().features
    # every variant, CFI included, gets the same density-based target per row
    targets = select_target(fit.model, fit.projection, ood_test)
    # cfi iterates in the classifier's own space and never writes trajectories
    record = cfg.emit_trajectories and variant != "cfi"
    if variant == "cfi":
        id_train = fit.train.id_rows()
        classifier = train_softmax_classifier(
            id_train.features, id_train.class_label, seed=seed)
        return batch_generate(ood_test, variant="cfi", classifier=classifier,
                              cfi_cfg=cfg.cfi(), targets=targets, record=record)
    return batch_generate(ood_test, variant=variant, model=fit.model,
                          projection=fit.projection, cfg=cfg.generation(),
                          targets=targets, record=record)


def cmd_run(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    fits: dict[int, PipelineFit] = {}
    results_cache: dict[tuple[int, str], list] = {}

    def pipeline(seed: int) -> PipelineFit:
        if seed not in fits:
            fits[seed] = fit_pipeline(cfg, seed)
        return fits[seed]

    approach_names = {"full": "OOD CF", "sg": "OOD SG", "sn": "OOD SN",
                      "sd": "OOD SD", "cfi": "CFI"}
    aggregates = {}
    for variant in cfg.variants:
        def run_one(seed, variant=variant):
            fit = pipeline(seed)
            results = _run_variant_results(cfg, fit, variant, seed)
            results_cache[(seed, variant)] = results
            return evaluate_run(results, fit.test.id_rows().features, fit.model,
                                fit.projection, approach=approach_names[variant])

        aggregates[variant] = repeat_and_aggregate(
            run_one, cfg.seeds, approach=approach_names[variant])

    long_rows = [(approach_names[v], seed, row.non_dis, row.dis, row.l1, row.auroc)
                 for v in cfg.variants for seed, row in aggregates[v].per_seed]
    write_csv(out / "metrics.csv",
              ["approach", "seed", "non_dis", "dis", "l1", "auroc"], long_rows, cfg)
    summary_rows = [(r.mean.approach, r.mean.non_dis, r.mean.dis, r.mean.l1,
                     r.mean.auroc, r.mean.n_seeds)
                    for r in (aggregates[v] for v in cfg.variants)]
    write_csv(out / "metrics_summary.csv",
              ["approach", "non_dis", "dis", "l1", "auroc", "n_seeds"],
              summary_rows, cfg)
    write_json(out / "metrics.json", {
        "summary": [vars(aggregates[v].mean) for v in cfg.variants],
        "per_seed": {approach_names[v]: [
            {"seed": seed, **vars(row)} for seed, row in aggregates[v].per_seed]
            for v in cfg.variants},
        "std": {approach_names[v]: aggregates[v].std for v in cfg.variants},
    }, cfg)

    print(format_table([aggregates[v].mean for v in cfg.variants]))

    for seed in fits:
        fit = fits[seed]
        write_csv(out / f"partition_seed{seed}.csv",
                  ["cardinality", "subset", "loss", "normalized",
                   "within_threshold", "chosen"],
                  partition_rows(fit.partition), cfg)
        names = fit.train.feature_names
        header = (["row_id", "variant", "target_class", "error",
                   "non_dis_before", "dis_before", "non_dis_after", "dis_after"]
                  + [f"orig_{n}" for n in names] + [f"cf_{n}" for n in names]
                  + [f"delta_{n}" for n in names])
        rows = itertools.chain.from_iterable(
            _counterfactual_rows(results_cache[(seed, variant)], approach_names[variant])
            for variant in cfg.variants)
        write_csv(out / f"counterfactuals_seed{seed}.csv", header, rows, cfg)
        if cfg.emit_trajectories:
            # cfi iterates in the classifier's own space; rows stream variant
            # by variant into the file
            traj_rows = itertools.chain.from_iterable(
                _traj_rows(fit, results_cache[(seed, variant)], approach_names[variant])
                for variant in cfg.variants if variant != "cfi")
            theader = (["row_id", "variant", "phase", "step"]
                       + [f"u_{n}" for n in fit.train.feature_names]
                       + ["nll_non_dis", "nll_dis"])
            write_csv(out / f"trajectories_seed{seed}.csv", theader, traj_rows, cfg)
    return 0


def cmd_partition(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.source == "toy" and cfg.k == 0:
        cfg.k = 2
    fit = fit_pipeline(cfg, cfg.seeds[0])
    print_partition(fit.partition)
    write_csv(out / "partition.csv",
              ["cardinality", "subset", "loss", "normalized", "within_threshold", "chosen"],
              partition_rows(fit.partition), cfg)
    return 0


def cmd_score(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.source == "toy" and cfg.k == 0:
        cfg.k = 2
    fit = fit_pipeline(cfg, cfg.seeds[0])
    test = fit.test
    Z = project(fit.projection, test.features)
    ln, ld = ood_scores(fit.model, Z)
    mah = MahalanobisScorer.fit(fit.Z_train, fit.train.class_label).score(Z)
    marg = MarginalMahalanobisScorer.fit(fit.Z_train).score(Z)
    # Python floats from tolist() print by repr, the same text as numpy's str
    rows = zip(range(test.n_rows), ln.tolist(), ld.tolist(), (ln + ld).tolist(),
               mah.tolist(), marg.tolist(), test.ood_flag.astype(int).tolist())
    write_csv(out / "scores.csv",
              ["row_id", "l_n", "l_d", "l_total", "mahalanobis",
               "marginal_mahalanobis", "ood_flag"], rows, cfg)
    print(f"wrote {test.n_rows} score rows to {out / 'scores.csv'}")
    return 0


# -- argument parsing ----------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    # every flag value is text for the field's converter; a switch gives "true"
    p.add_argument("--config", help="INI config file; flags override its values")
    for f in fields(RunConfig):
        if _flag(f):
            switch = f.metadata["conv"] is _boolean
            p.add_argument(_flag(f), help=f.metadata["help"],
                           **({"action": "store_const", "const": "true"} if switch else {}))


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodcf",
        description="Two-step counterfactual generation for OOD tabular data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("toy", cmd_toy), ("run", cmd_run),
                     ("partition", cmd_partition), ("score", cmd_score)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    out_dir = args.out
    try:
        # the output directory is read first, so a bad setting gets an error.json
        if out_dir is None and args.config:
            out_dir = _read_ini(args.config).get("run", "out", raw=True, fallback=None)
        cfg = build_config(args)
        out_dir = cfg.out
        return args.fn(cfg)
    except (OodcfError, np.linalg.LinAlgError) as exc:
        if isinstance(exc, np.linalg.LinAlgError):  # numpy's, outside our hierarchy
            exc = NumericError(f"linear algebra failed: {exc}")
        record = {"error": type(exc).__name__, "message": str(exc),
                  "exit_code": getattr(exc, "exit_code", EXIT_CONFIG)}
        sys.stderr.write(json.dumps(record) + "\n")
        if out_dir:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / "error.json", "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write("\n")
        return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
