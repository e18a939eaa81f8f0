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
import types
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
    ClassMoments,
    MahalanobisScorer,
    MarginalMahalanobisScorer,
    class_moments,
    fit_partition_density,
    ood_scores,
)
from .errors import (
    EXIT_CONFIG,
    CapExceeded,
    ConfigError,
    DimensionMismatch,
    NonFiniteLoss,
    NumericError,
    OodcfError,
    TooFewDims,
)
from .partition import Partition, search_partition
from .projection import ProjectionModel, fit_projection, project, save_projection
from .report import aggregate, auroc, evaluate_run, format_table, seed_prefix
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
                          ok=lambda v: v and set(v) <= set(VARIANTS) and len(set(v)) == len(v),
                          rule=f"a comma list of distinct names from {','.join(VARIANTS)}")
    seeds: list = _opt(lambda: [0, 1, 2, 3, 4], "run", _ints, "comma list of integer seeds",
                       ok=lambda v: v and min(v) >= 0 and len(set(v)) == len(v),
                       rule="one or more distinct integers >= 0")
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
                                max_iter=self.max_iter)

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

def load_dataset(cfg: RunConfig, seed: int | None) -> LabeledDataset:
    """The rows of `seed`: a toy draw, or the CSV source, the same for every
    seed."""
    if cfg.source == "toy":
        return make_toy(cfg.n_per_class, cfg.n_ood, seed)
    if not cfg.data_path or not cfg.label_col or not cfg.ood_rule:
        raise ConfigError("csv source needs --data, --label-col and --ood-rule")
    table = load_csv(cfg.data_path, cfg.label_col)
    return apply_ood_rule(table, parse_rule(cfg.ood_rule))


def _csv_data(cfg: RunConfig) -> LabeledDataset | None:
    """A CSV source's dataset, parsed once for all of a command's seeds;
    None for the toy source, whose fits each draw their own rows, so that
    the rows die in the split."""
    return load_dataset(cfg, None) if cfg.source == "csv" else None


@dataclass
class PipelineFit:
    """A seed's fitted models, the latents of its test rows and the raw rows
    later stages read; no other row array of the seed outlives the fit."""

    projection: ProjectionModel
    partition: Partition
    moments: ClassMoments
    model: object
    Z_test: np.ndarray            # latents of every test row, in test order
    ood_flag: np.ndarray          # the test rows' OOD flags
    ood: np.ndarray | None        # the OOD test rows the caller kept (`keep`), raw
    feature_names: list
    train: LabeledDataset | None  # the ID-train rows the caller kept (`keep`)


def _kept_rows(keep: bool | int, masks) -> np.ndarray | None:
    """Positions of the rows a fit keeps of the boolean `masks`, in row
    order: every row of each mask for `keep` True, its first `keep` rows for
    a number, and None for False."""
    if not keep:
        return None
    n = None if keep is True else keep
    return np.sort(np.concatenate([np.flatnonzero(mask)[:n] for mask in masks]))


def fit_pipeline(cfg: RunConfig, seed: int, keep: bool | int = False,
                 data: LabeledDataset | None = None) -> PipelineFit:
    """Split, projection, partition search and densities of `seed`. Each raw
    array is let go once the stages that read it are done. `keep` is what
    the caller reads of the raw rows: True all ID-train and OOD test rows,
    a number n the first n train rows of each class and the first n OOD
    rows, in split order, and False none; they are picked before the
    search. `data` is a CSV source's dataset that the caller loaded once for
    all its seeds; without it the fit loads or draws its own."""
    # rows loaded here die in the split, one column at a time
    train, test = split(load_dataset(cfg, seed) if data is None else data,
                        SplitSpec(train_fraction=cfg.train_fraction, seed=seed))
    # split sends every OOD row to the test side, so every train row is ID
    k = cfg.k if cfg.k > 0 else train.n_features
    if k > cfg.cap:
        raise CapExceeded(
            f"k={k} exceeds the partition-search cap {cfg.cap}; "
            "pass --k to reduce dimensionality or --cap to override")
    # a k taken from the data that the data cannot serve is a data problem
    if cfg.k == 0 and not 2 <= k < train.n_rows:
        raise TooFewDims(f"the data give k={k} (one latent per feature) and {train.n_rows} "
                         "train rows; the partition search needs 2 <= k < rows")
    projection = fit_projection(train.features, k, cfg.with_scaling)
    if cfg.k == 0 and projection.k < 2:
        raise TooFewDims(f"the features have rank {projection.k}; the partition search needs 2")
    rows = _kept_rows(keep, [test.ood_flag])
    Z_test, ood_flag, ood = (project(projection, test.features), test.ood_flag,
                             None if rows is None else test.features[rows])
    del test
    rows = _kept_rows(keep, (train.class_label == c for c in range(train.n_classes)))
    Z_train, labels, names = (project(projection, train.features), train.class_label,
                              train.feature_names)
    kept = None if rows is None else LabeledDataset(
        train.features[rows], labels[rows], train.ood_flag[rows], names, train.provenance)
    del train, rows
    # the seed's one moment pass: the search, the model and both baselines use it
    moments = class_moments(Z_train, labels)
    part = search_partition(moments, Z_test[~ood_flag], slack=cfg.slack, cap=cfg.cap)
    model = fit_partition_density(Z_train, labels, moments, part, cfg.stop_quantile)
    return PipelineFit(projection, part, moments, model, Z_test, ood_flag, ood, names, kept)


def _test_scores(fit: PipelineFit) -> tuple:
    """The l_n, l_d, Mahalanobis and marginal Mahalanobis scores of each test
    row of `fit`, in test order; `toy` ranks them split by the rows' OOD
    flags."""
    ln, ld = ood_scores(fit.model, fit.Z_test)
    mah = MahalanobisScorer.fit(fit.model).score(fit.Z_test)
    marg = MarginalMahalanobisScorer.fit(fit.moments).score(fit.Z_test)
    return ln, ld, mah, marg


def _seed_scores(fit: PipelineFit) -> tuple:
    """The `_test_scores` of `fit` as the columns `score` writes: refused
    when a row's score, or its l_n + l_d, is not finite."""
    ln, ld, mah, marg = _test_scores(fit)
    bad = len(ln) - np.count_nonzero(np.isfinite(ln + ld) & np.isfinite(mah) & np.isfinite(marg))
    if bad:
        raise NumericError(f"{bad} of {len(ln)} test rows score non-finite, most likely rows "
                           "so far from the train data that a squared distance overflows")
    return ln, ld, mah, marg


# -- output helpers ----------------------------------------------------------

def _provenance(cfg: RunConfig) -> str:
    return json.dumps(cfg.resolved(), sort_keys=True, separators=(",", ":"))


_CSV_CHUNK_ROWS = 2048  # rows of a column chunk: its text takes under 1 MB


class Columns(tuple):
    """A chunk of a table's rows as equal-length 1-d numpy columns, one per
    field: floats print as repr, integers as str, and other values as the
    str of each value, csv-quoted."""


def _field(text: str) -> str:
    """`text` as a field of `write_csv`: quoted where it holds a comma,
    quote, LF or CR."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n\r') else text


def _cell_text(column: np.ndarray) -> np.ndarray:
    """The cells of `column` as the rows of a uint8 matrix with NULs to drop."""
    # imported here: a command that writes no column chunk never compiles it
    from ._numtext import float_text, int_text
    if column.dtype.kind == "f":
        return float_text(column)
    if column.dtype.kind == "i":
        return int_text(column)
    values, inverse = np.unique(column, return_inverse=True)
    cells = np.array([_field(str(v)).encode() for v in values.tolist()])
    return cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize)[inverse]


def _chunk_lines(chunk: Columns):
    """The csv lines of `chunk` as bytes, a few hundred at a time: made
    column by column, no Python object per cell."""
    n = len(chunk[0])
    comma, newline = (np.full((n, 1), ord(c), dtype=np.uint8) for c in ",\n")
    parts = [part for column in chunk for part in (_cell_text(column), comma)]
    parts[-1] = newline
    for start in range(0, n, 512):
        block = np.concatenate([part[start:start + 512] for part in parts], axis=1)
        yield block.tobytes().translate(None, b"\0")


def write_csv(path, header, rows, cfg: RunConfig):
    """The provenance line, the header and `rows`, byte for byte as
    `csv.writer` writes them with LF line ends, except that a cell holding
    a CR is quoted too (it would read back as a line break otherwise).
    `rows` yields rows, or `Columns` chunks, which print as the rows of
    their columns' `.tolist()` would."""
    with open(path, "wb") as fh:
        fh.write(f"# config: {_provenance(cfg)}\n".encode())
        # with a CRLF line terminator csv quotes a cell holding a bare CR too;
        # `writerow` hands over each row in one write, which ends it in LF
        lf_rows = types.SimpleNamespace(write=lambda row: fh.write(f"{row[:-2]}\n".encode()))
        writer = csv.writer(lf_rows, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, Columns):
                fh.writelines(_chunk_lines(row))
            else:
                writer.writerow(row)


def write_json(path, payload: dict, cfg: RunConfig):
    """`payload` and the config as JSON; a NaN or infinity, which JSON cannot
    hold, is a NumericError and writes no file."""
    try:
        text = json.dumps({"config": cfg.resolved(), **payload}, indent=1, sort_keys=True,
                          allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{Path(path).name}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_partition(path, part: Partition, cfg: RunConfig):
    rows = [(r.cardinality, "|".join(map(str, r.subset)), r.loss, r.normalized,
             int(r.within_threshold), int(r.chosen)) for r in part.per_cardinality]
    write_csv(path, ["cardinality", "subset", "loss", "normalized", "within_threshold",
                     "chosen"], rows, cfg)


def _traj_header(names) -> list:
    return ["row_id", "variant", "phase", "step", *[f"u_{n}" for n in names],
            "nll_non_dis", "nll_dis"]


def print_partition(part: Partition):
    print("cardinality  subset      loss        normalized  chosen")
    for r in part.per_cardinality:
        print(f"{r.cardinality:>11}  {'|'.join(map(str, r.subset)):<10}  "
              f"{r.loss:>10.4f}  {r.normalized:>10.4f}  {'*' if r.chosen else ''}")
    print(f"z_d = {list(part.z_d)}  z_n = {list(part.z_n)}")
    for note in part.notes:
        print(f"note: {note}")


def _traj_rows(model, projection: ProjectionModel, results, variant):
    """Every trace of `results`, step by step, as `Columns` chunks: one
    projection and one NLL solve per Gaussian over all traces. Of the id,
    phase and step columns only each row's trace index is whole."""
    found = [(i, res.target_class, trace)
             for i, res in enumerate(results) for trace in res.trajectories]
    if not found:
        return iter(())
    ids, targets, traces = zip(*found)
    ids, targets = np.array(ids), np.array(targets)
    lengths = [trace.points.shape[0] for trace in traces]
    of_row, starts = np.repeat(np.arange(len(traces)), lengths), np.cumsum(lengths) - lengths
    U = np.concatenate([trace.points for trace in traces])
    Z = U @ projection.loadings
    ln, ld = model.non_dis.nll(Z[:, list(model.partition.z_n)]), np.empty(len(U))
    for c in set(targets.tolist()):
        rows = targets[of_row] == c
        ld[rows] = model.dis_per_class[c].nll(Z[rows][:, list(model.partition.z_d)])
    phases = np.array([trace.phase for trace in traces])

    def chunks():
        for start in range(0, len(U), _CSV_CHUNK_ROWS):
            rows = np.arange(start, min(start + _CSV_CHUNK_ROWS, len(U)))
            trace = of_row[rows]
            yield Columns((ids[trace], np.full(len(rows), variant), phases[trace],
                           rows - starts[trace], *U[rows].T, ln[rows], ld[rows]))
    return chunks()


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

TOY_APPROACHES = ("Mahalanobis Distance", "Marginal Mahalanobis Distance", "Custom metric")
TOY_FIGURE_ROWS = 400  # rows of each group a toy figure draws


@dataclass
class ToyDiagnostics:
    """What the toy's files and printout take from its first seed: the fitted
    models and the few rows the figures draw, no row array of the fit."""

    projection: ProjectionModel
    model: object              # PartitionDensityModel
    class_points: list         # <= TOY_FIGURE_ROWS train rows per ID class
    ood_points: np.ndarray     # <= TOY_FIGURE_ROWS OOD test rows
    feature_names: list


def _toy_diagnostics(fit: PipelineFit) -> ToyDiagnostics:
    """What the toy's files take from `fit`, a fit that kept the figure rows."""
    train = fit.train
    class_points = [train.features[train.class_label == c] for c in (0, 1)]
    return ToyDiagnostics(fit.projection, fit.model, class_points, fit.ood, fit.feature_names)


def _toy_figures(cfg: RunConfig, diag: ToyDiagnostics, out: Path):
    projection = diag.projection
    mean, W = projection.standardizer.mean, projection.loadings
    lengths = 2.0 * np.sqrt(projection.explained_variance)

    classes = [("class 0", "#1f77b4", diag.class_points[0]),
               ("class 1", "#2ca02c", diag.class_points[1])]
    scatter = ScatterPlot(title="ID classes, OOD data, and principal components",
                          comment=f"config: {_provenance(cfg)}")
    for group in classes + [("OOD", "#d62728", diag.ood_points)]:
        scatter.add_group(*group)
    for j in range(projection.k):
        end = mean + lengths[j] * W[:, j] * projection.standardizer.scale
        scatter.add_arrow(f"pc{j + 1}", "#333333", mean, end)
    scatter.write(out / "toy_scatter.svg")

    gen_base = cfg.generation()
    for order_key, order in ORDER_NAMES.items():
        # `variant` by name, as every caller passes it: perfbench's trace
        # labels a generation span by it
        [res] = batch_generate([TOY_TRACE_POINT], [TOY_TRACE_TARGET], variant="full",
                               model=diag.model, projection=projection,
                               cfg=replace(gen_base, order=order))
        if res.failed:
            raise NonFiniteLoss(f"trajectory of {TOY_TRACE_POINT}: {res.error}")
        plot = ScatterPlot(
            title=f"trajectory of {TOY_TRACE_POINT}, order={order}",
            comment=f"config: {_provenance(cfg)}")
        for group in classes + [("OOD", "#d62728", diag.ood_points[:200])]:
            plot.add_group(*group)
        phase_colors = {"non_dis": "#9467bd", "dis": "#ff7f0e", "joint": "#8c564b"}
        for trace in res.trajectories:
            raw = projection.standardizer.inverse_transform(trace.points)
            plot.add_polyline(f"{trace.phase} step", phase_colors[trace.phase], raw)
        plot.write(out / f"toy_trajectory_{order_key}.svg")
        if cfg.emit_trajectories:
            write_csv(out / f"toy_trajectory_{order_key}.csv", _traj_header(diag.feature_names),
                      _traj_rows(diag.model, projection, [res], "full"), cfg)


def _toy_k(cfg: RunConfig):
    """`toy`, `partition` and `score` record the toy source's k = 0 as its
    two latents; any other source keeps k = 0, one latent per feature."""
    if cfg.source == "toy" and cfg.k == 0:
        cfg.k = 2


def cmd_toy(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _toy_k(cfg)
    data = _csv_data(cfg)
    # the figures draw the raw rows as points of a plane
    if data is not None and data.n_features != 2:
        raise DimensionMismatch(f"toy draws 2 raw features; the data have {data.n_features}")

    # one seed's fit at a time: each seed keeps only its AUROCs, the first
    # also its diagnostics; every file is written once all seeds are scored
    per_seed, diag = {a: [] for a in TOY_APPROACHES}, None
    for seed in cfg.seeds:
        with seed_prefix(seed):
            # the figure rows are all that toy reads of the raw rows
            fit = fit_pipeline(cfg, seed, keep=TOY_FIGURE_ROWS if diag is None else False,
                               data=data)
        if diag is None:
            diag, fit = _toy_diagnostics(fit), replace(fit, ood=None, train=None)
        ln, ld, mah, marg = _test_scores(fit)
        ood = fit.ood_flag
        for a, score in zip(TOY_APPROACHES, (mah, marg, ln + ld)):
            per_seed[a].append(auroc(-score[~ood], -score[ood]))
        # nothing of this seed may be alive while the next one is fitted
        del fit, ood, ln, ld, mah, marg, score

    rows = [(a, seed, score) for a in TOY_APPROACHES
            for seed, score in zip(cfg.seeds, per_seed[a])]
    write_csv(out / "toy_auroc.csv", ["approach", "seed", "auroc"], rows, cfg)
    summary = [(a, float(np.mean(per_seed[a])), float(np.std(per_seed[a])), len(cfg.seeds))
               for a in TOY_APPROACHES]
    write_csv(out / "toy_auroc_summary.csv",
              ["approach", "auroc", "auroc_std", "n_seeds"], summary, cfg)

    print("OOD approach                       AUROC")
    for a in TOY_APPROACHES:
        print(f"{a:<33}  {np.mean(per_seed[a]):.3f}")

    # entropy / partition diagnostics for the first seed, from its search
    part = diag.model.partition
    for j, h in enumerate(part.singleton_entropies):
        print(f"H[Y|pc{j + 1}] = {h:.3g} bits")
    print_partition(part)
    write_partition(out / "toy_partition.csv", part, cfg)

    _toy_figures(cfg, diag, out)
    save_projection(diag.projection, out / "toy_projection.json",
                    extra={"config": cfg.resolved()})
    return 0


APPROACH_NAMES = {"full": "OOD CF", "sg": "OOD SG", "sn": "OOD SN", "sd": "OOD SD",
                  "cfi": "CFI"}


def _cfi_results(cfg: RunConfig, fits: list, targets: list) -> list:
    """Each fit's CFI results, in `fits` order, from one lock-step training
    and one descent; CFI iterates in the classifier's own space and writes
    no trajectories."""
    classifiers = train_softmax_classifier(
        [(fit.train.features, fit.train.class_label) for fit in fits], cfg.seeds)
    counts = [len(fit.ood) for fit in fits]
    results = iter(batch_generate(
        np.vstack([fit.ood for fit in fits]), np.concatenate(targets), variant="cfi",
        classifiers=classifiers, classifier_ids=np.repeat(np.arange(len(fits)), counts),
        cfi_cfg=cfg.cfi(), record=False))
    return [list(itertools.islice(results, n)) for n in counts]


def cmd_run(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    # every list below runs in cfg.seeds order
    data, fits, targets, id_scores = _csv_data(cfg), [], [], []
    for seed in cfg.seeds:
        with seed_prefix(seed):
            fit = fit_pipeline(cfg, seed, keep=True, data=data)
            ln, ld = ood_scores(fit.model, fit.Z_test[~fit.ood_flag])
            fits.append(fit)
            targets.append(select_target(fit.model, fit.projection, fit.ood))
            id_scores.append(-(ln + ld))
    # results[v][i]: variant v's results on the OOD rows of seed cfg.seeds[i]
    results = {v: _cfi_results(cfg, fits, targets) if v == "cfi" else [
        batch_generate(fit.ood, t, variant=v, model=fit.model, projection=fit.projection,
                       cfg=cfg.generation(), record=cfg.emit_trajectories)
        for fit, t in zip(fits, targets)] for v in cfg.variants}
    evals = {v: [] for v in cfg.variants}
    for v in cfg.variants:
        for seed, fit, res, pos in zip(cfg.seeds, fits, results[v], id_scores):
            with seed_prefix(seed):
                evals[v].append(evaluate_run(res, pos, fit.model, fit.projection,
                                             approach=APPROACH_NAMES[v]))
    means, stds = zip(*(aggregate(evals[v]) for v in cfg.variants))

    write_csv(out / "metrics.csv", ["approach", "seed", "non_dis", "dis", "l1", "auroc"],
              [(r.approach, seed, r.non_dis, r.dis, r.l1, r.auroc)
               for v in cfg.variants for seed, r in zip(cfg.seeds, evals[v])], cfg)
    write_csv(out / "metrics_summary.csv",
              ["approach", "non_dis", "dis", "l1", "auroc", "n_seeds"],
              [(m.approach, m.non_dis, m.dis, m.l1, m.auroc, m.n_seeds) for m in means], cfg)
    write_json(out / "metrics.json", {
        "summary": [vars(m) for m in means],
        "per_seed": {APPROACH_NAMES[v]: [{"seed": seed, **vars(r)}
                                         for seed, r in zip(cfg.seeds, evals[v])]
                     for v in cfg.variants},
        "std": {APPROACH_NAMES[v]: std for v, std in zip(cfg.variants, stds)},
    }, cfg)

    print(format_table(means))

    for i, (seed, fit) in enumerate(zip(cfg.seeds, fits)):
        write_partition(out / f"partition_seed{seed}.csv", fit.partition, cfg)
        names = fit.feature_names
        header = (["row_id", "variant", "target_class", "error",
                   "non_dis_before", "dis_before", "non_dis_after", "dis_after"]
                  + [f"orig_{n}" for n in names] + [f"cf_{n}" for n in names]
                  + [f"delta_{n}" for n in names])
        rows = itertools.chain.from_iterable(
            _counterfactual_rows(results[v][i], APPROACH_NAMES[v]) for v in cfg.variants)
        write_csv(out / f"counterfactuals_seed{seed}.csv", header, rows, cfg)
        if cfg.emit_trajectories:
            traj_rows = itertools.chain.from_iterable(
                _traj_rows(fit.model, fit.projection, results[v][i], APPROACH_NAMES[v])
                for v in cfg.variants)
            write_csv(out / f"trajectories_seed{seed}.csv",
                      _traj_header(names), traj_rows, cfg)
    return 0


def cmd_partition(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _toy_k(cfg)
    fit = fit_pipeline(cfg, cfg.seeds[0])
    print_partition(fit.partition)
    write_partition(out / "partition.csv", fit.partition, cfg)
    return 0


def cmd_score(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _toy_k(cfg)
    fit = fit_pipeline(cfg, cfg.seeds[0])
    ln, ld, mah, marg = _seed_scores(fit)
    flags = fit.ood_flag.astype(int)
    del fit  # only the score columns reach the write
    columns = (np.arange(len(ln)), ln, ld, ln + ld, mah, marg, flags)
    write_csv(out / "scores.csv",
              ["row_id", "l_n", "l_d", "l_total", "mahalanobis",
               "marginal_mahalanobis", "ood_flag"],
              (Columns(c[start:start + _CSV_CHUNK_ROWS] for c in columns)
               for start in range(0, len(ln), _CSV_CHUNK_ROWS)), cfg)
    print(f"wrote {len(ln)} score rows to {out / 'scores.csv'}")
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
