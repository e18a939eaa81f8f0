import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodcf import cli, dataset
from oodcf.errors import (
    EXIT_DATA,
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


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
        table = dataset.load_csv(path, "label")
        assert table.n_rows == 3
        assert len(table.column_names) == 3
        assert table.label_column == "label"
        assert np.allclose(table.column("a"), [1, 3, 5])

    def test_unparseable_numeral(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\nabc,1\n")
        with pytest.raises(MalformedFile):
            dataset.load_csv(path, "label")

    def test_header_only(self, tmp_path):
        table = dataset.load_csv(write(tmp_path, "a,label\n"), "label")
        assert table.n_rows == 0

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(MissingColumn):
            dataset.load_csv(write(tmp_path, "a,b\n1,2\n"), "label")

    def test_bad_row_length(self, tmp_path):
        with pytest.raises(MalformedFile):
            dataset.load_csv(write(tmp_path, "a,label\n1,2,3\n"), "label")

    def test_missing_value_is_hard_error(self, tmp_path):
        with pytest.raises(MalformedFile):
            dataset.load_csv(write(tmp_path, "a,label\n,1\n"), "label")

    def test_empty_file(self, tmp_path):
        with pytest.raises(MalformedFile):
            dataset.load_csv(write(tmp_path, ""), "label")

    def test_duplicate_columns(self, tmp_path):
        with pytest.raises(MalformedFile):
            dataset.load_csv(write(tmp_path, "a,a\n1,2\n"), "a")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "infinity", "1e999"])
    def test_non_finite_cell_is_hard_error(self, tmp_path, cell):
        with pytest.raises(MalformedFile, match="non-finite"):
            dataset.load_csv(write(tmp_path, f"a,label\n1,0\n{cell},1\n"), "label")

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "absent.csv"
        with pytest.raises(DataError, match="absent.csv"):
            dataset.load_csv(missing, "label")

    def test_peak_within_twice_the_matrix(self, tmp_path):
        # no Python float per cell outlives its row
        gen = np.random.default_rng(0)
        rows = gen.normal(size=(20000, 14)) * 10.0 ** gen.integers(-5, 5, size=(20000, 14))
        path = tmp_path / "wide.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"c{j}" for j in range(14)) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
        tracemalloc.start()
        try:
            table = dataset.load_csv(path, "c0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(table.rows, rows)
        assert peak <= 2 * rows.nbytes

    def test_non_utf8_byte_is_malformed(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("caf\u00e9,label\n1,0\n".encode("latin-1"))
        with pytest.raises(MalformedFile, match=r"latin1\.csv: not UTF-8 text: "
                                                r"byte 0xe9 at offset 3"):
            dataset.load_csv(path, "label")


def wine_style_table():
    rows = "\n".join(f"{v},{v + 1},{c}" for v, c in
                     [(1, 0), (2, 1), (3, 2), (4, 0), (5, 1), (6, 2), (7, 0)])
    return f"f1,f2,target\n{rows}\n"


class TestApplyOodRule:
    def test_class_equals(self, tmp_path):
        path = write(tmp_path, wine_style_table())
        table = dataset.load_csv(path, "target")
        ds = dataset.apply_ood_rule(table, "class_equals:2")
        assert ds.n_classes == 2
        assert ds.ood_flag.sum() == 2
        assert set(ds.class_label[~ds.ood_flag]) == {0, 1}
        assert ds.feature_names == ["f1", "f2"]
        assert ds.features.shape == (7, 2)

    def test_relabeling_is_contiguous(self, tmp_path):
        # remove the middle class: remaining labels 0 and 2 must map to 0 and 1
        path = write(tmp_path, wine_style_table())
        table = dataset.load_csv(path, "target")
        ds = dataset.apply_ood_rule(table, "class_equals:1")
        id_labels = ds.class_label[~ds.ood_flag]
        assert set(id_labels) == {0, 1}

    def test_no_match_raises(self, tmp_path):
        table = dataset.load_csv(write(tmp_path, wine_style_table()), "target")
        with pytest.raises(EmptyPartition):
            dataset.apply_ood_rule(table, "class_equals:7")

    def test_all_match_raises(self, tmp_path):
        path = write(tmp_path, "a,label\n1,1\n2,1\n")
        table = dataset.load_csv(path, "label")
        with pytest.raises(EmptyPartition):
            dataset.apply_ood_rule(table, "class_equals:1")

    def test_upper_quartile_by_hand(self, tmp_path):
        # values 1..8: type-7 quantile at 0.75 is a[5] + 0.25*(a[6]-a[5]) = 6.25,
        # so rows with value > 6.25 (7 and 8) are OOD
        rows = "\n".join(f"{v},{v % 2}" for v in range(1, 9))
        table = dataset.load_csv(write(tmp_path, f"age,label\n{rows}\n"), "label")
        ds = dataset.apply_ood_rule(table, "above_quartile:age")
        assert np.array_equal(np.sort(ds.features[ds.ood_flag, 0]), [7, 8])
        # the rule column stays in the feature matrix
        assert ds.feature_names == ["age"]

    def test_column_equals_value(self, tmp_path):
        text = "angina,outcome\n1,0\n0,1\n1,1\n0,0\n"
        table = dataset.load_csv(write(tmp_path, text), "outcome")
        ds = dataset.apply_ood_rule(table, "equals:angina=1")
        assert ds.ood_flag.sum() == 2
        assert "angina" in ds.feature_names

    def test_rule_column_missing(self, tmp_path):
        table = dataset.load_csv(write(tmp_path, "a,label\n1,0\n2,1\n"), "label")
        with pytest.raises(MissingColumn):
            dataset.apply_ood_rule(table, "above_quartile:nope")

    def test_unknown_kind_rejected(self, tmp_path):
        table = dataset.load_csv(write(tmp_path, wine_style_table()), "target")
        with pytest.raises(ConfigError, match="unknown --ood-rule kind"):
            dataset.apply_ood_rule(table, "weird:1")


class TestClassIdDtype:
    """Class ids take the narrowest signed integer type that holds -1 and
    the largest id; `split` keeps it."""

    def test_toy_ids_are_int8(self):
        ds = dataset.make_toy(50, 20, 0)
        assert ds.class_label.dtype == np.int8
        assert ds.class_label.tolist() == [0] * 50 + [1] * 50 + [-1] * 20
        train, test = dataset.split(ds, 0.8, 0)
        assert train.class_label.dtype == test.class_label.dtype == np.int8

    def test_three_class_rule_gives_int8(self, tmp_path):
        table = dataset.load_csv(write(tmp_path, wine_style_table()), "target")
        ds = dataset.apply_ood_rule(table, "class_equals:1")
        assert ds.class_label.dtype == np.int8
        labels = table.column("target")
        want = np.where(labels == 1, -1, np.where(labels == 2, 1, 0))
        assert ds.class_label.tolist() == want.tolist()

    def test_200_classes_give_int16_with_the_same_ids(self, tmp_path):
        # ID labels 0, 3, ..., 597 and OOD label 600, two rows each, shuffled
        labels = np.random.default_rng(0).permutation(np.repeat(np.arange(0, 603, 3), 2))
        text = "x,target\n" + "".join(f"{i},{v}\n" for i, v in enumerate(labels))
        table = dataset.load_csv(write(tmp_path, text), "target")
        ds = dataset.apply_ood_rule(table, "class_equals:600")
        assert ds.n_classes == 200
        assert ds.class_label.dtype == np.int16
        assert ds.class_label.tolist() == np.where(labels == 600, -1, labels // 3).tolist()

    @pytest.mark.parametrize("n_classes, dtype", [(1, np.int8), (128, np.int8),
                                                  (129, np.int16), (32768, np.int16),
                                                  (32769, np.int32)])
    def test_narrowest_type_holding_the_largest_id(self, n_classes, dtype):
        assert dataset.class_id_dtype(n_classes) == dtype


class TestMakeToy:
    def test_shapes_and_classes(self):
        ds = dataset.make_toy(1000, 1000, 42)
        assert ds.n_rows == 3000
        assert ds.n_features == 2
        assert ds.n_classes == 2
        assert ds.ood_flag.sum() == 1000

    def test_monte_carlo_means(self):
        # sample mean of class 0 should sit within 0.02 of (3, 0) per coordinate
        ds = dataset.make_toy(100_000, 1, 7)
        c0 = ds.features[ds.class_label == 0]
        assert abs(c0[:, 0].mean() - 3.0) < 0.02
        assert abs(c0[:, 1].mean() - 0.0) < 0.02
        # and match the generator's variance
        assert abs(c0.var(axis=0, ddof=1).mean() - 0.5) < 0.01

    def test_ood_cluster(self):
        ds = dataset.make_toy(10, 50_000, 3)
        ood = ds.features[ds.ood_flag]
        assert np.allclose(ood.mean(axis=0), [0, 2], atol=0.02)
        assert abs(ood.var(axis=0, ddof=1).mean() - 0.3) < 0.01

    def test_seed_determinism(self):
        a = dataset.make_toy(500, 500, 9)
        b = dataset.make_toy(500, 500, 9)
        assert np.array_equal(a.features, b.features)

    def test_seeds_differ(self):
        a = dataset.make_toy(500, 500, 1)
        b = dataset.make_toy(500, 500, 2)
        assert not np.array_equal(a.features, b.features)

    def test_bad_counts(self):
        with pytest.raises(OutOfRange):
            dataset.make_toy(0, 10, 0)


def two_class_dataset(n0, n1, n_ood=0):
    n = n0 + n1 + n_ood
    features = np.arange(2 * n, dtype=float).reshape(n, 2)
    labels = np.concatenate([np.zeros(n0, int), np.ones(n1, int),
                             np.full(n_ood, dataset.OOD_LABEL)])
    return dataset.LabeledDataset(features, labels, ["a", "b"], "test")


# each inconsistent LabeledDataset field set, and the error it raises; -1 is
# OOD_LABEL, so a negative ID label is one below it
BAD_DATASETS = {
    "label_rows": ((np.zeros((3, 2)), np.zeros(2, int)), DimensionMismatch),
    "negative_id_label": ((np.zeros((3, 2)), np.array([0, -2, 1])), UnknownClass),
    "label_below_ood": ((np.zeros((2, 2)), np.array([-2, 0])), UnknownClass),
    "gap_in_id_labels": ((np.zeros((2, 2)), np.array([0, 2])), UnknownClass),
}


class TestLabeledDatasetChecks:
    """An inconsistent LabeledDataset is a data error: exit 3 with error.json."""

    @pytest.mark.parametrize("case", sorted(BAD_DATASETS))
    def test_raises_data_error(self, case):
        arrays, error = BAD_DATASETS[case]
        with pytest.raises(error) as info:
            dataset.LabeledDataset(*arrays, ["a", "b"], "test")
        assert isinstance(info.value, DataError)
        assert info.value.exit_code == EXIT_DATA

    @pytest.mark.parametrize("case", sorted(BAD_DATASETS))
    def test_cli_exits_3_with_error_json(self, case, tmp_path, monkeypatch, capsys):
        arrays, error = BAD_DATASETS[case]
        monkeypatch.setattr(cli, "make_toy", lambda *a: dataset.LabeledDataset(
            *arrays, ["a", "b"], "test"))
        assert cli.main(["score", "--out", str(tmp_path)]) == EXIT_DATA
        assert json.loads((tmp_path / "error.json").read_text())["error"] == error.__name__


class TestSplit:
    def test_a_source_only_split_holds_is_let_go_column_by_column(self):
        # the loaded table never lives whole next to both of its splits
        n = 20000
        dataset.split(dataset.make_toy(10, 10, 0), 0.8, 0)  # warm-up
        tracemalloc.start()
        try:
            dataset.split(dataset.make_toy(n, n, 0), 0.8, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * (3 * n * 24)  # features 16 B, label at most 8 B a row

    def test_fraction_arithmetic(self):
        ds = two_class_dataset(50, 50)
        train, test = dataset.split(ds, 0.8, 0)
        assert train.n_rows == 80
        assert test.n_rows == 20

    def test_all_ood_in_test(self):
        ds = two_class_dataset(40, 40, n_ood=50)
        train, test = dataset.split(ds, 0.8, 1)
        assert train.ood_flag.sum() == 0
        assert test.ood_flag.sum() == 50

    def test_stratification(self):
        ds = two_class_dataset(30, 70)
        train, _ = dataset.split(ds, 0.8, 2)
        counts = np.bincount(train.class_label[~train.ood_flag])
        # per-class train counts within one row of fraction * class size
        assert abs(counts[0] - 0.8 * 30) <= 1
        assert abs(counts[1] - 0.8 * 70) <= 1

    def test_degenerate_class(self):
        ds = two_class_dataset(1, 10)
        with pytest.raises(DegenerateSplit):
            dataset.split(ds, 0.5, 0)

    def test_split_determinism(self):
        ds = two_class_dataset(20, 20, n_ood=5)
        a1, b1 = dataset.split(ds, 0.7, 5)
        a2, b2 = dataset.split(ds, 0.7, 5)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.features, b2.features)

    @settings(max_examples=25, deadline=None)
    @given(n0=st.integers(2, 40), n1=st.integers(2, 40), n_ood=st.integers(0, 20),
           frac=st.floats(0.2, 0.9), seed=st.integers(0, 100))
    def test_partition_of_rows(self, n0, n1, n_ood, frac, seed):
        ds = two_class_dataset(n0, n1, n_ood)
        train, test = dataset.split(ds, frac, seed)
        assert train.n_rows + test.n_rows == ds.n_rows
        merged = np.vstack([train.features, test.features])
        assert np.array_equal(np.sort(merged.sum(axis=1)),
                              np.sort(ds.features.sum(axis=1)))
        assert train.ood_flag.sum() == 0

    def test_bad_fraction(self):
        # the one check of the fraction is the config's, before any data is read
        with pytest.raises(ConfigError, match="bad --train-fraction 1.0"):
            cli.build_config(cli.make_parser().parse_args(["run", "--train-fraction", "1.0"]))
