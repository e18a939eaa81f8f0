"""Tabular data loading, OOD labeling rules, the 2D toy generator, and splits.

A dataset enters as a numeric CSV with a header and a label column, or is
synthesized by `make_toy`. An `--ood-rule` spec then designates some rows
as out-of-distribution; the remaining in-distribution rows keep contiguous
class ids. Splitting is stratified over ID classes and sends every OOD row
to the test side, since all models are fit on ID data only.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import (
    ConfigError,
    DataError,
    DegenerateSplit,
    DimensionMismatch,
    EmptyPartition,
    MalformedFile,
    MissingColumn,
    OutOfRange,
    UnknownClass,
)

OOD_LABEL = -1  # class_label sentinel for rows flagged OOD


@dataclass(frozen=True)
class RawTable:
    """Parsed numeric table with an identified label column."""

    column_names: list[str]
    rows: np.ndarray  # (n_rows, len(column_names)) float
    label_column: str

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def column(self, name: str) -> np.ndarray:
        if name not in self.column_names:
            raise MissingColumn(f"column {name!r} not in table")
        return self.rows[:, self.column_names.index(name)]


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix in raw units with a per-row class label.

    `class_label` is a contiguous id in [0, n_classes) for ID rows and
    OOD_LABEL for OOD rows, the only record of which rows are OOD; it is
    stored as `class_id_dtype(n_classes)` by the loaders (int8 for the toy),
    and code that does arithmetic on ids converts.
    """

    features: np.ndarray
    class_label: np.ndarray
    feature_names: list[str]
    provenance: str

    def __post_init__(self):
        labels = self.class_label
        if self.features.shape[0] != labels.shape[0]:
            raise DimensionMismatch("features and class_label row counts differ")
        if labels.size and labels.min() < OOD_LABEL:
            raise UnknownClass(f"class labels must be {OOD_LABEL} (OOD) or ids from 0")
        id_labels = labels[labels != OOD_LABEL]
        if id_labels.size and not np.bincount(id_labels).all():
            raise UnknownClass("ID class labels must be contiguous from 0")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def ood_flag(self) -> np.ndarray:
        return self.class_label == OOD_LABEL

    @property
    def n_classes(self) -> int:
        return int(self.class_label.max(initial=OOD_LABEL)) + 1


def _utf8_lines(fh, path):
    """Lines of a file opened as UTF-8 text; a byte that is not UTF-8 is a
    MalformedFile naming the byte and its offset in the file."""
    try:
        yield from fh
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            data = raw.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
                                f"at offset {exc.start}") from None
        raise


def load_csv(path, label_column: str) -> RawTable:
    """Parse a comma-delimited UTF-8 file with a mandatory header row.

    Every cell must parse as a finite float; missing and non-finite values
    are a hard error rather than being imputed.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")  # drops a leading BOM
    except OSError as exc:
        raise DataError(f"{path}: cannot open data file ({exc.strerror})") from exc
    with fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedFile(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise MalformedFile(f"{path}: duplicate column names in header")
        if label_column not in header:
            raise MissingColumn(f"{path}: label column {label_column!r} not in header {header}")
        # each row's floats go straight into one C double buffer; no Python
        # float outlives its row
        values = array("d")
        for lineno, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and raw[0].strip() == ""):
                continue  # tolerate trailing blank lines
            if len(raw) != len(header):
                raise MalformedFile(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}")
            for name, cell in zip(header, raw):
                cell = cell.strip()
                if cell == "":
                    raise MalformedFile(f"{path}:{lineno}: missing value in column {name!r}")
                try:
                    value = float(cell)
                except ValueError:
                    raise MalformedFile(
                        f"{path}:{lineno}: unparseable numeral {cell!r} in column {name!r}")
                if not math.isfinite(value):
                    raise MalformedFile(
                        f"{path}:{lineno}: non-finite value {cell!r} in column {name!r}")
                values.append(value)
    matrix = np.frombuffer(values, dtype=float).reshape(-1, len(header))
    return RawTable(column_names=header, rows=matrix, label_column=label_column)


def _upper_quartile(values: np.ndarray) -> float:
    # linear-interpolation (type-7) quantile at q = 0.75
    return float(np.quantile(values, 0.75))


def class_id_dtype(n_classes: int) -> np.dtype:
    """The narrowest signed integer type that holds OOD_LABEL and every id
    below `n_classes`: int8 up to 128 ID classes."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= n_classes - 1)


def _rule_value(spec: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad --ood-rule {spec!r}; value must be numeric") from None


def apply_ood_rule(table: RawTable, spec: str) -> LabeledDataset:
    """Flag the OOD rows of `spec` and relabel ID classes contiguously.

    `spec` is 'class_equals:VALUE' (the label equals VALUE),
    'above_quartile:COLUMN' (above the column's upper quartile) or
    'equals:COLUMN=VALUE'. A rule column other than the label (e.g. an age
    or angina column) stays in the feature matrix; only the label column
    is removed from features.
    """
    labels = table.column(table.label_column)
    kind, _, rest = spec.partition(":")
    if not rest:
        raise ConfigError(f"bad --ood-rule {spec!r}; expected KIND:ARGS")
    if kind == "class_equals":
        value = _rule_value(spec, rest)
        ood = labels == value
        applied = f"class_equals({value:g} on {table.label_column!r})"
    elif kind == "above_quartile":
        values = table.column(rest)
        cut = _upper_quartile(values)
        ood = values > cut
        applied = f"column_above_upper_quartile({rest!r} > {cut:g})"
    elif kind == "equals":
        column, _, text = rest.partition("=")
        if not text:
            raise ConfigError(f"bad --ood-rule {spec!r}; equals needs COLUMN=VALUE")
        value = _rule_value(spec, text)
        ood = table.column(column) == value
        applied = f"column_equals_value({column!r} == {value:g})"
    else:
        raise ConfigError(f"unknown --ood-rule kind {kind!r}")

    if not ood.any():
        raise EmptyPartition(f"rule {applied} flagged no rows as OOD")
    if ood.all():
        raise EmptyPartition(f"rule {applied} flagged every row as OOD")

    feature_idx = [i for i, name in enumerate(table.column_names)
                   if name != table.label_column]
    feature_names = [table.column_names[i] for i in feature_idx]
    features = table.rows[:, feature_idx]

    # an ID label's id is its rank among the distinct ID labels
    id_values = np.unique(labels[~ood])
    class_label = np.full(table.n_rows, OOD_LABEL, dtype=class_id_dtype(len(id_values)))
    class_label[~ood] = np.searchsorted(id_values, labels[~ood])

    return LabeledDataset(
        features=features,
        class_label=class_label,
        feature_names=feature_names,
        provenance=f"csv({table.label_column!r}); rule {applied}",
    )


TOY_CLASS_MEANS = ((3.0, 0.0), (-3.0, 0.0))
TOY_CLASS_VAR = 0.5
TOY_OOD_MEAN = (0.0, 2.0)
TOY_OOD_VAR = 0.3


def make_toy(n_per_class: int, n_ood: int, seed: int) -> LabeledDataset:
    """2D toy set: two ID Gaussians at (+-3, 0) with covariance 0.5*I and an
    OOD Gaussian at (0, 2) with covariance 0.3*I."""
    if n_per_class < 1 or n_ood < 1:
        raise OutOfRange("toy counts must be >= 1")
    # each block is drawn straight into its rows of the one feature matrix
    features = np.empty((2 * n_per_class + n_ood, 2))
    gen = rng.generator(seed, stream=0)
    for c, mean in enumerate(TOY_CLASS_MEANS):
        rng.normal(gen, mean, np.sqrt(TOY_CLASS_VAR), (n_per_class, 2),
                   out=features[c * n_per_class:(c + 1) * n_per_class])
    rng.normal(gen, TOY_OOD_MEAN, np.sqrt(TOY_OOD_VAR), (n_ood, 2),
               out=features[2 * n_per_class:])
    class_label = np.repeat(np.array([0, 1, OOD_LABEL], dtype=class_id_dtype(2)),
                            [n_per_class, n_per_class, n_ood])
    return LabeledDataset(
        features=features,
        class_label=class_label,
        feature_names=["x1", "x2"],
        provenance=f"toy(n_per_class={n_per_class}, n_ood={n_ood}, seed={seed})",
    )


def _train_mask(ds: LabeledDataset, train_fraction: float, seed: int) -> np.ndarray:
    """Rows that train: floor(train_fraction * n_c) of each ID class c, drawn
    by a permutation deterministic in `seed`."""
    gen = rng.generator(seed, stream=1)
    train_mask = np.zeros(ds.n_rows, dtype=bool)
    for c in range(ds.n_classes):
        members = np.nonzero(ds.class_label == c)[0]
        if members.size < 2:
            raise DegenerateSplit(f"class {c} has {members.size} row(s); need >= 2")
        order = members[rng.permutation(gen, members.size)]
        n_train = int(np.floor(train_fraction * members.size))
        n_train = min(max(n_train, 1), members.size - 1)  # both sides non-empty
        train_mask[order[:n_train]] = True
    return train_mask


def split(ds: LabeledDataset, train_fraction: float,
          seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified ID split (see `_train_mask`), `train_fraction` in (0, 1);
    every OOD row goes to the test side.

    Each source column is let go once both of its copies exist, so a source
    that only this call holds never lives whole next to both splits.
    """
    if ds.n_rows == 0:
        raise EmptyPartition("cannot split an empty dataset")
    train_mask = _train_mask(ds, train_fraction, seed)
    test_mask = ~train_mask
    names, provenance = ds.feature_names, ds.provenance
    columns = [ds.class_label, ds.features]
    del ds
    sides = ([], [])
    while columns:
        column = columns.pop(0)
        sides[0].append(np.compress(train_mask, column, axis=0))
        sides[1].append(np.compress(test_mask, column, axis=0))
        del column
    return tuple(LabeledDataset(x, labels, names, provenance) for labels, x in sides)
