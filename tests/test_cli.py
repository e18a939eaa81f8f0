import csv
import io
import json
import tempfile
import tracemalloc
import types
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import argmax_targets
from hypothesis import given, settings
from hypothesis import strategies as st

from oodcf import cli, dataset
from oodcf.counterfactual import PhaseTrace, batch_generate, train_softmax_classifier
from oodcf.dataset import OodRule
from oodcf.density import (MahalanobisScorer, MarginalMahalanobisScorer,
                           fit_partition_density, ood_scores)
from oodcf.errors import ConfigError, NumericError, RankDeficientWarning
from oodcf.projection import project
from oodcf.report import auroc

ROOT = Path(__file__).resolve().parent.parent
WINE = ROOT / "data" / "wine_like.csv"
CONFIG = ROOT / "configs" / "wine_like.ini"


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def snapshot_tree(root):
    return {p.name: p.read_bytes() for p in Path(root).iterdir()}


def rerun_identical(args, out):
    """Run a command twice into the same output dir; contents must match."""
    assert run_cli(args + ["--out", out]) == 0
    before = snapshot_tree(out)
    assert run_cli(args + ["--out", out]) == 0
    after = snapshot_tree(out)
    assert sorted(before) == sorted(after)
    for name, blob in before.items():
        assert after[name] == blob, f"{name} changed between identical runs"


class TestParseRule:
    def test_class_equals(self):
        rule = cli.parse_rule("class_equals:2")
        assert rule == OodRule(kind="class_equals", value=2.0)

    def test_above_quartile(self):
        rule = cli.parse_rule("above_quartile:age")
        assert rule.kind == "column_above_upper_quartile"
        assert rule.target_column == "age"

    def test_equals(self):
        rule = cli.parse_rule("equals:angina=1")
        assert rule.kind == "column_equals_value"
        assert rule.target_column == "angina"
        assert rule.value == 1.0

    def test_bad_specs(self):
        for spec in ("class_equals", "equals:angina", "nonsense:x"):
            with pytest.raises(ConfigError):
                cli.parse_rule(spec)


class TestToyCommand:
    def test_outputs_and_table(self, tmp_path, capsys):
        code = run_cli(["toy", "--seeds", "0,1", "--n-per-class", "300",
                        "--n-ood", "200", "--out", tmp_path / "t"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("Mahalanobis Distance", "Marginal Mahalanobis Distance",
                     "Custom metric"):
            assert name in out
        rows = read_rows(tmp_path / "t" / "toy_auroc_summary.csv")
        assert rows[0] == ["approach", "auroc", "auroc_std", "n_seeds"]
        assert len(rows) == 4  # header + 3 approaches
        for name in ("toy_scatter.svg", "toy_trajectory_nd.svg",
                     "toy_trajectory_dn.svg", "toy_partition.csv",
                     "toy_projection.json"):
            assert (tmp_path / "t" / name).exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["toy", "--seeds", "7", "--n-per-class", "250", "--n-ood", "150"]
        rerun_identical(args, tmp_path / "t")

    def test_trace_divergence_exits_numeric(self, tmp_path, monkeypatch):
        # the trace row's squared Mahalanobis distance overflows at 1e200
        monkeypatch.setattr(cli, "TOY_TRACE_POINT", (1e200, 1e200))
        assert run_cli(["toy", "--seeds", "0", "--n-per-class", "220", "--n-ood", "120",
                        "--out", tmp_path / "t"]) == 4
        record = json.loads((tmp_path / "t" / "error.json").read_text())
        assert record["error"] == "NonFiniteLoss" and record["exit_code"] == 4

    def test_provenance_header(self, tmp_path):
        run_cli(["toy", "--seeds", "0", "--n-per-class", "220", "--n-ood", "120",
                 "--out", tmp_path / "t"])
        first = (tmp_path / "t" / "toy_auroc.csv").read_text().splitlines()[0]
        assert first.startswith("# config: ")
        payload = json.loads(first[len("# config: "):])
        assert payload["seeds"] == [0]
        assert payload["n_per_class"] == 220


def write_two_feature_csv(path, rank_one=False):
    """A toy table as a CSV of two features and a label, OOD rows labelled
    2; with `rank_one` the second feature is twice the first."""
    ds = dataset.make_toy(300, 100, 0)
    x, y = ds.features.T
    labels = np.where(ds.ood_flag, 2, ds.class_label)
    lines = [f"{a!r},{2 * a if rank_one else b!r},{c}" for a, b, c in zip(
        x.tolist(), y.tolist(), labels.tolist())]
    path.write_text("x,y,target\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestToyDefaultK:
    def test_csv_source_records_k_0_and_gives_the_k_2_aurocs(self, tmp_path, capsys):
        # one latent per feature of a two-feature table is the toy's k = 2
        data = write_two_feature_csv(tmp_path / "two.csv")
        argv = ["toy", "--data", data, "--label-col", "target", "--ood-rule",
                "class_equals:2", "--seeds", "0,1"]
        assert run_cli(argv + ["--out", tmp_path / "k0"]) == 0
        assert run_cli(argv + ["--k", "2", "--out", tmp_path / "k2"]) == 0
        k0, k2 = ((tmp_path / d / "toy_auroc.csv").read_text().splitlines() for d in ("k0", "k2"))
        assert [json.loads(t[0][len("# config: "):])["k"] for t in (k0, k2)] == [0, 2]
        assert k0[1:] == k2[1:] and len(k0) == 8


class TestRunCommand:
    def test_wine_like_run(self, tmp_path, capsys):
        code = run_cli(["run", "--data", WINE, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--seeds", "0",
                        "--variants", "full,sn", "--out", tmp_path / "r"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["Approach", "Non-dis", "Dis", "L1", "AUROC"]
        summary = read_rows(tmp_path / "r" / "metrics_summary.csv")
        assert summary[0] == ["approach", "non_dis", "dis", "l1", "auroc", "n_seeds"]
        assert [r[0] for r in summary[1:]] == ["OOD CF", "OOD SN"]
        long = read_rows(tmp_path / "r" / "metrics.csv")
        assert long[0] == ["approach", "seed", "non_dis", "dis", "l1", "auroc"]
        assert (tmp_path / "r" / "partition_seed0.csv").exists()
        cf_rows = read_rows(tmp_path / "r" / "counterfactuals_seed0.csv")
        assert cf_rows[0][:4] == ["row_id", "variant", "target_class", "error"]
        meta = json.loads((tmp_path / "r" / "metrics.json").read_text())
        assert "config" in meta and "summary" in meta

    def test_variant_selection(self, tmp_path):
        run_cli(["run", "--data", WINE, "--label-col", "target",
                 "--ood-rule", "class_equals:2", "--seeds", "1",
                 "--variants", "sn,sd", "--out", tmp_path / "r"])
        summary = read_rows(tmp_path / "r" / "metrics_summary.csv")
        assert len(summary) == 3  # header + 2 variants

    def test_missing_rule_column_exit_code(self, tmp_path, capsys):
        code = run_cli(["run", "--data", WINE, "--label-col", "target",
                        "--ood-rule", "above_quartile:nope",
                        "--out", tmp_path / "r"])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "MissingColumn"

    def test_unknown_variant_rejected(self, tmp_path):
        code = run_cli(["run", "--data", WINE, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--variants", "bogus",
                        "--out", tmp_path / "r"])
        assert code == 2

    def test_emit_trajectories(self, tmp_path):
        run_cli(["run", "--data", WINE, "--label-col", "target",
                 "--ood-rule", "class_equals:2", "--seeds", "0",
                 "--variants", "full", "--emit-trajectories",
                 "--out", tmp_path / "r"])
        rows = read_rows(tmp_path / "r" / "trajectories_seed0.csv")
        assert rows[0][:4] == ["row_id", "variant", "phase", "step"]
        assert rows[0][-2:] == ["nll_non_dis", "nll_dis"]
        assert len(rows) > 10

    def test_stop_quantile_reaches_the_fit(self):
        # a seed's stop NLLs are those of a direct fit at --stop-quantile
        fit = cli.fit_pipeline(cli.RunConfig(n_per_class=300, n_ood=30, stop_quantile=0.9), 0,
                               keep=True)
        want = fit_partition_density(project(fit.projection, fit.train.features),
                                     fit.train.class_label, fit.moments, fit.partition, 0.9)
        assert fit.model.non_dis_stop == want.non_dis_stop
        assert np.array_equal(fit.model.dis_stop, want.dis_stop)
        assert np.array_equal(fit.model.joint_stop, want.joint_stop)


class TestPartitionCommand:
    def test_toy_partition(self, tmp_path, capsys):
        code = run_cli(["partition", "--seeds", "0", "--n-per-class", "300",
                        "--n-ood", "100", "--out", tmp_path / "p"])
        assert code == 0
        assert "z_d = [0]" in capsys.readouterr().out
        rows = read_rows(tmp_path / "p" / "partition.csv")
        assert rows[0] == ["cardinality", "subset", "loss", "normalized",
                           "within_threshold", "chosen"]

    def test_cap_exceeded(self, tmp_path, capsys):
        code = run_cli(["partition", "--data", WINE, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--k", "21",
                        "--out", tmp_path / "p"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "CapExceeded"
        assert (tmp_path / "p" / "error.json").exists()

    def test_slack_zero(self, tmp_path, capsys):
        code = run_cli(["partition", "--data", WINE, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--slack", "0",
                        "--seeds", "0", "--out", tmp_path / "p"])
        assert code == 0
        rows = read_rows(tmp_path / "p" / "partition.csv")
        chosen = [r for r in rows[1:] if r[5] == "1"]
        normalized = [float(r[3]) for r in rows[1:]]
        assert float(chosen[0][3]) == min(normalized)


class TestScoreCommand:
    def test_schema_and_flags(self, tmp_path):
        code = run_cli(["score", "--seeds", "0", "--n-per-class", "250",
                        "--n-ood", "150", "--out", tmp_path / "s"])
        assert code == 0
        rows = read_rows(tmp_path / "s" / "scores.csv")
        assert rows[0] == ["row_id", "l_n", "l_d", "l_total", "mahalanobis",
                           "marginal_mahalanobis", "ood_flag"]
        flags = {r[6] for r in rows[1:]}
        assert flags == {"0", "1"}
        for r in rows[1:3]:
            assert float(r[1]) + float(r[2]) == float(r[3])

    def test_bytes_match_numpy_scalar_rows(self, tmp_path):
        # scores.csv writes Python floats from tolist(); csv prints them by
        # repr, which must give the text numpy scalars gave cell by cell
        argv = ["score", "--seeds", "0", "--n-per-class", "300", "--n-ood", "200",
                "--out", tmp_path / "s"]
        assert run_cli(argv) == 0
        blob = (tmp_path / "s" / "scores.csv").read_bytes()
        cfg = cli.build_config(cli.make_parser().parse_args([str(a) for a in argv]))
        cfg.k = 2
        fit = cli.fit_pipeline(cfg, 0)
        _, test = dataset.split(dataset.make_toy(300, 200, 0), dataset.SplitSpec(0.8, 0))
        Z = project(fit.projection, test.features)
        ln, ld = ood_scores(fit.model, Z)
        mah = MahalanobisScorer.fit(fit.model).score(Z)
        marg = MarginalMahalanobisScorer.fit(fit.moments).score(Z)
        rows = [(i, ln[i], ld[i], ln[i] + ld[i], mah[i], marg[i],
                 int(test.ood_flag[i])) for i in range(test.n_rows)]
        expected = io.StringIO()
        expected.write(f"# config: {cli._provenance(cfg)}\n")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["row_id", "l_n", "l_d", "l_total", "mahalanobis",
                         "marginal_mahalanobis", "ood_flag"])
        writer.writerows(rows)
        assert test.n_rows == 320
        assert blob == expected.getvalue().encode("utf-8")


NAN9 = ("f1,f2,target\n0.1,1.2,0\n0.5,0.7,0\n-0.3,1.1,0\n0.2,0.4,0\n"
        "3.1,-0.2,1\n2.7,0.3,1\n3.4,0.6,1\n2.9,-0.5,1\n1.5,nan,2\n")


class TestBadInputExitCodes:
    """Bad input exits with its documented code and writes error.json."""

    def test_nan_cell_in_score(self, tmp_path, capsys):
        data = tmp_path / "nan9.csv"
        data.write_text(NAN9, encoding="utf-8")
        out = tmp_path / "s"
        code = run_cli(["score", "--data", data, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--out", out])
        assert code == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "MalformedFile"
        assert "'nan'" in record["message"]
        assert not (out / "scores.csv").exists()

    def test_non_utf8_data_file(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(NAN9.replace("nan", "0.2").replace("f1", "caf\u00e9")
                         .encode("latin-1"))
        out = tmp_path / "s"
        code = run_cli(["score", "--data", data, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--out", out])
        assert code == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "MalformedFile"
        assert "byte 0xe9 at offset 3" in record["message"]
        assert not (out / "scores.csv").exists()

    def test_toy_refuses_a_source_without_two_features(self, tmp_path, capsys):
        # the figures draw raw rows as points of a plane; wine has 13 features
        out = tmp_path / "t"
        code = run_cli(["toy", "--data", WINE, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--seeds", "1,2", "--out", out])
        assert code == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DimensionMismatch"
        assert "13" in record["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("command", ["toy", "score"])
    def test_rank_one_two_feature_table_exits_3(self, tmp_path, capsys, command):
        # the data give k = 2 and only one latent: a data problem, not a setting
        out = tmp_path / "o"
        with pytest.warns(RankDeficientWarning):
            code = run_cli([command, "--data",
                            write_two_feature_csv(tmp_path / "r1.csv", True),
                            "--label-col", "target", "--ood-rule", "class_equals:2",
                            "--out", out])
        assert code == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "TooFewDims" and "rank 1" in record["message"]
        assert [p.name for p in out.iterdir()] == ["error.json"]

    def test_missing_data_file(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.csv"
        code = run_cli(["run", "--data", missing, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--out", tmp_path / "r"])
        assert code == 3
        record = json.loads((tmp_path / "r" / "error.json").read_text())
        assert record["error"] == "DataError"
        assert str(missing) in record["message"]

    def test_error_json_goes_to_config_out(self, tmp_path, capsys):
        data = tmp_path / "all_ood.csv"
        data.write_text("f1,target\n1,2\n2,2\n3,2\n", encoding="utf-8")
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text(
            "[dataset]\n"
            "source = csv\n"
            f"path = {data}\n"
            "label_col = target\n"
            "ood_rule = class_equals:2\n"
            "[run]\n"
            f"out = {tmp_path / 'from_file'}\n",
            encoding="utf-8")
        code = run_cli(["run", "--config", cfg_file])
        assert code == 3
        record = json.loads((tmp_path / "from_file" / "error.json").read_text())
        assert record["error"] == "EmptyPartition"

    @pytest.mark.parametrize("ini, argv, names", [
        ("[generate]\nalhpa = 0.1\n", [], "config [generate] alhpa: unknown key"),
        ("[generate]\nalpha = -1\n", [], "bad --alpha -1; must be"),
        ("", ["--alpha", "abc"], "bad --alpha abc"),
    ])
    def test_bad_setting_error_json_goes_to_config_out(self, tmp_path, capsys,
                                                        ini, argv, names):
        out = tmp_path / "from_file"
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text(ini + f"[run]\nout = {out}\n", encoding="utf-8")
        assert run_cli(["run", "--config", cfg_file] + argv) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError"
        assert names in record["message"]
        assert [p.name for p in out.iterdir()] == ["error.json"]

    @pytest.mark.parametrize("flag, argv", [
        ("--seeds", ["run", "--seeds", "-1"]),
        ("--k", ["partition", "--k", "-3"]),
        ("--slack", ["partition", "--config", CONFIG, "--slack", "nan"]),
        ("--alpha", ["run", "--alpha", "nan"]),
        ("--stop-quantile", ["run", "--stop-quantile", "inf"]),
        ("--cfi-lambda", ["run", "--cfi-lambda=-inf"]),
        ("--train-fraction", ["score", "--train-fraction", "nan"]),
        ("--alpha", ["run", "--alpha", "-1"]),
        ("--cfi-lambda", ["run", "--cfi-lambda", "-1"]),
        ("--slack", ["partition", "--slack", "-0.5"]),
        ("--stop-quantile", ["run", "--stop-quantile", "0"]),
        ("--stop-quantile", ["run", "--stop-quantile", "1.5"]),
        ("--train-fraction", ["run", "--train-fraction", "1.5"]),
        ("--train-fraction", ["score", "--train-fraction", "0"]),
        ("--max-iter", ["run", "--max-iter", "0"]),
        ("--cap", ["partition", "--cap", "-1"]),
        ("--cap", ["toy", "--cap", "1"]),
        ("--k", ["partition", "--k", "abc"]),
        ("--alpha", ["run", "--alpha", "abc"]),
        ("--max-iter", ["run", "--max-iter", "1.5"]),
        ("--order", ["run", "--order", "xy"]),
        ("--order", ["run", "--order", "non_dis_first"]),
        ("--variants", ["run", "--variants", "full,bogus"]),
        ("--n-per-class", ["toy", "--n-per-class", "0"]),
        ("--n-ood", ["score", "--n-ood", "0"]),
        ("--variants", ["run", "--variants", "full,sd,full"]),
    ])
    def test_bad_flag_value(self, tmp_path, capsys, flag, argv):
        out = tmp_path / "o"
        assert run_cli(argv + ["--out", out]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError"
        assert f"bad {flag} " in record["message"]
        assert "Traceback" not in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["error.json"]

    @pytest.mark.parametrize("command", ["toy", "run", "partition", "score"])
    @pytest.mark.parametrize("where", ["flag", "ini"])
    def test_repeated_seed_is_a_setting(self, tmp_path, capsys, command, where):
        # a repeated seed would fit twice and write its metrics rows twice
        out = tmp_path / "o"
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text("[run]\nseeds = 1,1\n", encoding="utf-8")
        argv = ["--seeds", "0,0"] if where == "flag" else ["--config", cfg_file]
        assert run_cli([command, *argv, "--out", out]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError"
        assert "bad --seeds " in record["message"]
        assert "distinct" in record["message"]
        assert [p.name for p in out.iterdir()] == ["error.json"]

    @pytest.mark.parametrize("factor", [1e160, 1e300])
    def test_overflowing_column_exits_3(self, tmp_path, capsys, factor):
        # its sample deviation overflows: the run would write nan rows otherwise
        gen = np.random.default_rng(0)
        X = gen.normal(size=(60, 3))
        X[:, 1] *= factor
        data = tmp_path / "big.csv"
        data.write_text(_table(["a", "b", "c", "target"],
                               [[*map(repr, x.tolist()), c]
                                for x, c in zip(X, np.repeat([0, 1, 2], 20))]),
                        encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli(["run", "--data", data, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--seeds", "0", "--out", out]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DataError"
        assert record["message"] == ("seed 0: the mean or standard deviation of feature "
                                     "column 1 overflows a float; rescale the column")
        assert [p.name for p in out.iterdir()] == ["error.json"]

    @pytest.mark.parametrize("command", ["toy", "run"])
    def test_two_feature_overflow_names_the_overflow(self, tmp_path, capsys, command):
        data = write_two_feature_csv(tmp_path / "two.csv")
        lines = data.read_text(encoding="utf-8").splitlines()
        lines[1:] = [f"{float(x) * 1e300!r},{rest}"
                     for x, rest in (line.split(",", 1) for line in lines[1:])]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli([command, "--data", data, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--seeds", "0", "--out", out]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "DataError" and "overflows" in record["message"]

    def test_score_refuses_non_finite_scores(self, tmp_path, capsys):
        # only the OOD rows hold the huge column, so the train side is finite
        # and the OOD rows' squared distances overflow
        X = np.random.default_rng(0).normal(size=(60, 3))
        labels = np.repeat([0, 1, 2], 20)
        X[labels == 2, 0] *= 1e300
        data = tmp_path / "far.csv"
        data.write_text(_table(["a", "b", "c", "target"],
                               [[*map(repr, x.tolist()), c] for x, c in zip(X, labels)]),
                        encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli(["score", "--data", data, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--seeds", "0", "--out", out]) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "NumericError" and record["exit_code"] == 4
        assert record["message"].startswith("20 of 28 test rows score non-finite")
        assert [p.name for p in out.iterdir()] == ["error.json"]

    def test_toy_still_ranks_non_finite_scores(self, tmp_path, capsys):
        # toy's AUROC ranks an infinite OOD score like any other
        data = write_two_feature_csv(tmp_path / "two.csv")
        lines = data.read_text(encoding="utf-8").splitlines()
        lines[1:] = [f"{float(x) * 1e300!r},{rest}" if rest.endswith(",2") else f"{x},{rest}"
                     for x, rest in (line.split(",", 1) for line in lines[1:])]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["--data", data, "--label-col", "target", "--ood-rule", "class_equals:2",
                "--seeds", "0"]
        assert run_cli(["score", *argv, "--out", tmp_path / "s"]) == 4
        assert run_cli(["toy", *argv, "--out", tmp_path / "t"]) == 0
        rows = read_rows(tmp_path / "t" / "toy_auroc.csv")[1:]
        assert [float(r[2]) for r in rows] == [1.0, 1.0, 1.0]

    def test_all_rows_failed_names_the_seed(self, tmp_path, capsys):
        # every step of size 1e300 diverges, so seed 3, the first, has no row
        out = tmp_path / "o"
        assert run_cli(["run", "--n-per-class", "100", "--n-ood", "20", "--seeds", "3,1",
                        "--variants", "full", "--alpha", "1e300", "--out", out]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "EmptyInput"
        assert record["message"] == ("seed 3: no successfully generated counterfactuals "
                                     "to evaluate")
        assert [p.name for p in out.iterdir()] == ["error.json"]

    def test_bad_config_file_value(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text("[partition]\nslack = nan\n[run]\nseeds = 0\n",
                            encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli(["partition", "--config", cfg_file, "--out", out]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError"
        assert "bad --slack nan" in record["message"]

    @pytest.mark.parametrize("ini, names", [
        ("[generate]\nalhpa = 0.1\n", "config [generate] alhpa: unknown key"),
        ("[genrate]\nalpha = 0.1\n", "config [genrate]: unknown section"),
        ("[DEFAULT]\nalpha = 0.1\n", "config [DEFAULT]: unknown section"),
        ("[run]\nemit_trajectories = banana\n", "config [run] emit_trajectories: "),
        ("[generate]\norder = bogus\n", "config [generate] order: "),
        ("[generate]\norder = nd\n", "config [generate] order: "),
        ("[generate]\nalpha = abc\n", "config [generate] alpha: "),
        ("[generate]\nalpha = 5%\n", "config [generate] alpha: "),
        ("[dataset]\nsource = bogus\n", "config [dataset] source: "),
        ("[run]\nvariants = full,bogus\n", "config [run] variants: "),
        ("[dataset]\nn_per_class = 0\n", "config [dataset] n_per_class: "),
        ("[dataset]\nn_ood = 0\n", "config [dataset] n_ood: "),
        ("alpha = 0.1\n", "cannot parse config file"),
    ])
    def test_bad_config_file_entry(self, tmp_path, capsys, ini, names):
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text(ini, encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli(["run", "--config", cfg_file, "--out", out]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError"
        assert names in record["message"]
        assert [p.name for p in out.iterdir()] == ["error.json"]


def _table(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n"


_gen = np.random.default_rng(4)
_f1 = np.round(_gen.normal(size=45), 6) + np.repeat([0.0, 3.0, 6.0], [20, 20, 5])
SHAPE_TABLES = {
    # no feature at all: the data give k = 0
    "label_only": (_table(["target"], [[c] for c in [0] * 10 + [1] * 10 + [2] * 4]),
                   "TooFewDims"),
    # 6 features, but a train split of 2 + 2 rows
    "few_rows": (_table([f"f{j}" for j in range(6)] + ["target"],
                        [[*np.round(_gen.normal(size=6), 6), c]
                         for c in [0, 0, 0, 1, 1, 1, 2, 2]]), "TooFewDims"),
    # two features, one twice the other: numerical rank 1
    "rank_one": (_table(["f1", "f2", "target"],
                        [[v, 2 * v, c] for v, c in zip(_f1, [0] * 20 + [1] * 20 + [2] * 5)]),
                 "TooFewDims"),
}


class TestDataShapeExitCodes:
    """A table that cannot give the latent dims taken from it is a data
    problem (exit 3); an explicit --k it cannot serve stays a setting (2)."""

    def run_table(self, tmp_path, command, table, extra=()):
        data = tmp_path / "t.csv"
        data.write_text(SHAPE_TABLES[table][0], encoding="utf-8")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficientWarning)
            code = run_cli([command, "--data", data, "--label-col", "target",
                            "--ood-rule", "class_equals:2", "--out", out, *extra])
        return code, json.loads((out / "error.json").read_text())

    @pytest.mark.parametrize("command", ["run", "score", "partition"])
    @pytest.mark.parametrize("table", sorted(SHAPE_TABLES))
    def test_data_shape_exits_3(self, tmp_path, capsys, command, table):
        code, record = self.run_table(tmp_path, command, table)
        assert code == 3 and record["exit_code"] == 3
        assert record["error"] == SHAPE_TABLES[table][1]

    @pytest.mark.parametrize("table, k", [("few_rows", "6"), ("rank_one", "2")])
    def test_explicit_k_stays_a_setting(self, tmp_path, capsys, table, k):
        code, record = self.run_table(tmp_path, "partition", table, ["--k", k])
        assert code == 2 and record["exit_code"] == 2


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text(
            "[dataset]\n"
            "source = csv\n"
            f"path = {WINE}\n"
            "label_col = target\n"
            "ood_rule = class_equals:2\n"
            "[run]\n"
            "variants = full\n"
            "seeds = 0,1\n"
            f"out = {tmp_path / 'from_file'}\n"
            "[generate]\n"
            "alpha = 0.1\n",
            encoding="utf-8")
        code = run_cli(["run", "--config", cfg_file, "--seeds", "2",
                        "--out", tmp_path / "override"])
        assert code == 0
        assert not (tmp_path / "from_file").exists()
        first = (tmp_path / "override" / "metrics.csv").read_text().splitlines()[0]
        payload = json.loads(first[len("# config: "):])
        assert payload["seeds"] == [2]       # flag wins
        assert payload["alpha"] == 0.1       # file value survives
        assert payload["variants"] == ["full"]

    def test_unreadable_config(self, tmp_path):
        code = run_cli(["toy", "--config", tmp_path / "missing.ini",
                        "--out", tmp_path / "t"])
        assert code == 2

    def test_csv_needs_rule(self, tmp_path):
        code = run_cli(["run", "--data", WINE, "--label-col", "target",
                        "--out", tmp_path / "r"])
        assert code == 2


def config_from(argv, ini=""):
    """build_config on `argv`, with `ini` as the --config file when given."""
    with tempfile.TemporaryDirectory() as tmp:
        if ini:
            path = Path(tmp) / "c.ini"
            path.write_text(ini, encoding="utf-8")
            argv = argv + ["--config", str(path)]
        return cli.build_config(cli.make_parser().parse_args(argv))


# one non-default value per field, as INI entries and as flags
SAME_VALUE = {
    "source": ("[dataset]\nsource = csv\npath = x.csv\n", ["--data", "x.csv"]),
    "data_path": ("[dataset]\nsource = csv\npath = x.csv\n", ["--data", "x.csv"]),
    "label_col": ("[dataset]\nlabel_col = y\n", ["--label-col", "y"]),
    "ood_rule": ("[dataset]\nood_rule = class_equals:2\n", ["--ood-rule", "class_equals:2"]),
    "n_per_class": ("[dataset]\nn_per_class = 7\n", ["--n-per-class", "7"]),
    "n_ood": ("[dataset]\nn_ood = 7\n", ["--n-ood", "7"]),
    "k": ("[projection]\nk = 3\n", ["--k", "3"]),
    "slack": ("[partition]\nslack = 0.25\n", ["--slack", "0.25"]),
    "cap": ("[partition]\ncap = 12\n", ["--cap", "12"]),
    "order": ("[generate]\norder = dis_first\n", ["--order", "dn"]),
    "alpha": ("[generate]\nalpha = 0.2\n", ["--alpha", "0.2"]),
    "max_iter": ("[generate]\nmax_iter = 9\n", ["--max-iter", "9"]),
    "stop_quantile": ("[generate]\nstop_quantile = 0.9\n", ["--stop-quantile", "0.9"]),
    "cfi_lambda": ("[cfi]\nlambda = 0.3\n", ["--cfi-lambda", "0.3"]),
    "variants": ("[run]\nvariants = sd, cfi\n", ["--variants", "sd, cfi"]),
    "seeds": ("[run]\nseeds = 4,2\n", ["--seeds", "4,2"]),
    "train_fraction": ("[run]\ntrain_fraction = 0.5\n", ["--train-fraction", "0.5"]),
    "out": ("[run]\nout = elsewhere\n", ["--out", "elsewhere"]),
    "emit_trajectories": ("[run]\nemit_trajectories = on\n", ["--emit-trajectories"]),
}
TEXTS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "0", "-1", "1", "1.5", "nan", "inf", "-inf", "1e400",
                     "0,1", "full,cfi", "yes", "off", "nd", "dis_first", "csv", "5%"]))


class TestConfigSchema:
    def test_every_field_has_an_ini_key_and_flag(self):
        assert set(SAME_VALUE) == {f.name for f in fields(cli.RunConfig)}

    @pytest.mark.parametrize("name", sorted(SAME_VALUE))
    def test_ini_key_and_flag_agree(self, name):
        ini, argv = SAME_VALUE[name]
        from_file = config_from(["run"], ini).resolved()
        assert from_file == config_from(["run"] + argv).resolved()
        assert from_file[name] != cli.RunConfig().resolved()[name]

    @pytest.mark.parametrize("word, value", [("1", True), ("Yes", True), ("on", True),
                                             ("false", False), ("0", False), ("OFF", False)])
    def test_boolean_words(self, word, value):
        cfg = config_from(["run"], f"[run]\nemit_trajectories = {word}\n")
        assert cfg.emit_trajectories is value

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(fields(cli.RunConfig)), TEXTS)
    def test_any_text_is_a_config_or_a_config_error(self, f, text):
        section, key = f.metadata["section"], f.metadata.get("key", f.name)
        flag = cli._flag(f)
        attempts = [(["run"], f"[{section}]\n{key} = {text}\n")]
        if flag and f.name != "emit_trajectories":
            attempts.append((["run", f"{flag}={text}"], ""))
        for argv, ini in attempts:
            try:
                cfg = config_from(argv, ini)
            except ConfigError:
                continue
            assert isinstance(cfg, cli.RunConfig)


def _oracle_traj_rows(fit, results, variant):
    """The trajectory rows as built trace by trace, one NLL solve per trace."""
    rows = []
    W = fit.projection.loadings
    zn, zd = list(fit.partition.z_n), list(fit.partition.z_d)
    for i, res in enumerate(results):
        for trace in res.trajectories:
            Z = trace.points @ W
            ln = fit.model.non_dis.nll(Z[:, zn])
            t = res.target_class if res.target_class is not None else 0
            ld = fit.model.dis_per_class[t].nll(Z[:, zd])
            for step in range(trace.points.shape[0]):
                rows.append((i, variant, trace.phase, step,
                             *trace.points[step].tolist(),
                             float(ln[step]), float(ld[step])))
    return rows


def _rows_of(chunks):
    """The rows of `Columns` chunks, each cell the Python scalar `.tolist()`
    gives: the values that `write_csv` prints."""
    return [row for chunk in chunks for row in zip(*[c.tolist() for c in chunk])]


# k=2 has a single cardinality, so the partition normalization fallback fires
class TestTrajRowsAgainstOracle:
    """Batched trajectory rows: every cell but the two NLLs is the oracle's,
    of the same Python type, so it prints the same; the NLLs agree within
    1e-12 relative (one solve per Gaussian instead of one per trace)."""

    @pytest.mark.parametrize("source", ["toy", "csv"])
    def test_matches_per_trace_oracle(self, source):
        cfg = (cli.RunConfig(n_per_class=300, n_ood=30, k=2) if source == "toy" else
               cli.RunConfig(source="csv", data_path=str(WINE), label_col="target",
                             ood_rule="class_equals:2"))
        fit = cli.fit_pipeline(cfg, 0, keep=True)
        # ID rows start below their thresholds: they give one-point traces
        X = np.concatenate([fit.ood, fit.train.features[:20]])
        targets = np.arange(len(X)) % 2
        for variant in ("full", "sg", "sn", "sd"):
            results = batch_generate(X, targets, variant=variant, model=fit.model,
                                     projection=fit.projection, cfg=cfg.generation())
            traces = [t for r in results for t in r.trajectories]
            assert min(len(t.points) for t in traces) == 1
            assert {r.target_class for r in results} == {0, 1}
            got = _rows_of(cli._traj_rows(fit.model, fit.projection, results, variant))
            want = _oracle_traj_rows(fit, results, variant)
            assert len(got) == len(want) == sum(len(t.points) for t in traces)
            for g, w in zip(got, want):
                assert g[:-2] == w[:-2]
                assert [type(v) for v in g] == [type(v) for v in w]
                assert np.allclose(g[-2:], w[-2:], rtol=1e-12, atol=0)

    def test_no_traces_give_no_rows(self):
        cfg = cli.RunConfig(n_per_class=300, n_ood=30, k=2)
        fit = cli.fit_pipeline(cfg, 0, keep=True)
        ood = fit.ood
        clf = train_softmax_classifier(
            [(fit.train.features[:50], fit.train.class_label[:50])], [0], epochs=1)
        cfi = batch_generate(ood, argmax_targets(clf[0], ood), variant="cfi",
                             classifiers=clf, cfi_cfg=cfg.cfi(), record=False)
        failed = batch_generate(ood, np.full(len(ood), 9), model=fit.model,
                                projection=fit.projection, cfg=cfg.generation())
        assert all(r.failed for r in failed)
        for results in ([], cfi, failed):
            assert _rows_of(cli._traj_rows(fit.model, fit.projection, results, "x")) == []


class TestRunDeterminism:
    def test_run_rerun_byte_identical(self, tmp_path):
        args = ["run", "--data", WINE, "--label-col", "target",
                "--ood-rule", "class_equals:2", "--seeds", "3",
                "--variants", "full,cfi"]
        rerun_identical(args, tmp_path / "r")


def _csv_line(row):
    """csv.writer's line for `row` with LF line ends, and each cell holding a
    CR quoted too, which csv.writer leaves bare with an LF line terminator."""
    cr = {i: cell for i, cell in enumerate(row) if isinstance(cell, str) and "\r" in cell}
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        [f"@cr{i}@" if i in cr else cell for i, cell in enumerate(row)])
    line = buf.getvalue()
    for i, cell in cr.items():
        line = line.replace(f"@cr{i}@", '"' + cell.replace('"', '""') + '"', 1)
    return line


def _csv_writer_bytes(header, rows, cfg):
    """What `write_csv` must write: csv.writer on every row, CR cells quoted."""
    lines = [f"# config: {cli._provenance(cfg)}\n", _csv_line(header)]
    return "".join(lines + [_csv_line(row) for row in rows]).encode("utf-8")


CELLS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16,
                     np.float64(0.1), np.float64(-1e-7), np.float32(0.1), np.int64(-3),
                     np.bool_(True), None, "", "None", "a,b", 'q"t', "cr\r", "lf\n"]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(alphabet=',"\r\n aNone1.e-x', max_size=6),
)


def write_wine(path, bom=False, label_last=False, first_feature=None):
    """The wine-like table with a UTF-8 BOM, the label column moved last, or
    the first feature renamed to a quoted `first_feature`."""
    text = WINE.read_text(encoding="utf-8")
    if label_last:
        text = "".join(",".join(line.split(",")[1:] + line.split(",")[:1]) + "\n"
                       for line in text.splitlines())
    if first_feature is not None:
        text = text.replace("alcohol", '"' + first_feature + '"', 1)
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8"))
    return path


def wine_run(tmp_path, data):
    return run_cli(["run", "--data", data, "--label-col", "target",
                    "--ood-rule", "class_equals:2", "--seeds", "0",
                    "--variants", "full", "--out", tmp_path / "r"])


def read_back(path):
    """Rows of a written CSV as csv.reader parses its bytes, CRs kept."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if not row[0].startswith("# config")]


class TestHeaderNames:
    """Header names of the data file reach the output headers intact."""

    def test_bom_before_the_label_column(self, tmp_path):
        assert wine_run(tmp_path, write_wine(tmp_path / "bom.csv", bom=True)) == 0
        assert read_back(tmp_path / "r" / "counterfactuals_seed0.csv")[0][8] == "orig_alcohol"

    def test_bom_before_a_feature_column(self, tmp_path):
        data = write_wine(tmp_path / "bom.csv", bom=True, label_last=True)
        assert wine_run(tmp_path, data) == 0
        header = read_back(tmp_path / "r" / "counterfactuals_seed0.csv")[0]
        assert header[8] == "orig_alcohol" and header[-1] == "delta_proline"
        for path in (tmp_path / "r").iterdir():
            assert "\ufeff" not in path.read_text(encoding="utf-8"), path.name

    def test_cr_in_a_name_reads_back_at_header_width(self, tmp_path):
        assert wine_run(tmp_path, write_wine(tmp_path / "cr.csv", first_feature="a\rb")) == 0
        rows = read_back(tmp_path / "r" / "counterfactuals_seed0.csv")
        assert rows[0][8] == "orig_a\rb" and len(rows[0]) == 8 + 3 * 13
        assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}


def _close(a: str, b: str) -> bool:
    """Two numeric cells within 1e-10 of max(1, |a|); other cells equal."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return abs(x - y) <= 1e-10 * max(1.0, abs(x))


class TestMetamorphic:
    """Relations between two commands' outputs that hold on any input.

    Scaling one feature column by 1024, a power of two, commutes with the
    standardizer's mean, deviation and square root, so `run` makes the same
    partitions and scores, and that column's raw cells scale exactly.
    Permuting the feature columns permutes the raw cells and leaves the
    rest equal up to float reduction order. `toy`'s custom-metric AUROC is
    the AUROC of `score`'s `l_total` split by `ood_flag`."""

    def test_a_column_scaled_by_1024(self, tmp_path, capsys):
        rows = list(csv.reader(WINE.read_text(encoding="utf-8").splitlines()))
        j = rows[0].index("alcohol")
        for row in rows[1:]:
            row[j] = repr(1024 * float(row[j]))
        scaled = tmp_path / "scaled.csv"
        scaled.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        for data, out in ((WINE, "orig"), (scaled, "scaled")):
            assert run_cli(["run", "--data", data, "--label-col", "target", "--ood-rule",
                            "class_equals:2", "--seeds", "0,1", "--out", tmp_path / out]) == 0

        def both(name):
            return read_back(tmp_path / "orig" / name), read_back(tmp_path / "scaled" / name)

        for seed in (0, 1):
            orig, new = both(f"partition_seed{seed}.csv")
            assert orig == new
        orig, new = both("metrics.csv")
        l1 = orig[0].index("l1")
        assert len(orig) == 11 and [r[:l1] + r[l1 + 1:] for r in orig] == \
            [r[:l1] + r[l1 + 1:] for r in new]
        for seed in (0, 1):
            orig, new = both(f"counterfactuals_seed{seed}.csv")
            cols = [orig[0].index(f"{side}_alcohol") for side in ("orig", "cf", "delta")]
            assert len(orig) == len(new) > 1 and orig[0] == new[0]
            for a, b in zip(orig[1:], new[1:]):
                assert [float(b[c]) for c in cols] == [1024 * float(a[c]) for c in cols]
                assert [v for c, v in enumerate(a) if c not in cols] == \
                    [v for c, v in enumerate(b) if c not in cols]

    def test_permuted_feature_columns(self, tmp_path, capsys):
        rows = list(csv.reader(WINE.read_text(encoding="utf-8").splitlines()))
        label = rows[0].index("target")
        features = [j for j in range(len(rows[0])) if j != label]
        order = [label, *np.random.default_rng(3).permutation(features).tolist()]
        assert order[1:] != features
        permuted = tmp_path / "permuted.csv"
        permuted.write_text("".join(",".join(row[j] for j in order) + "\n" for row in rows),
                            encoding="utf-8")
        for data, out in ((WINE, "orig"), (permuted, "permuted")):
            assert run_cli(["run", "--data", data, "--label-col", "target", "--ood-rule",
                            "class_equals:2", "--seeds", "0,1", "--out", tmp_path / out]) == 0

        def both(name):
            return read_back(tmp_path / "orig" / name), read_back(tmp_path / "permuted" / name)

        for seed in (0, 1):
            orig, new = both(f"partition_seed{seed}.csv")
            assert [r[:2] + r[4:] for r in orig] == [r[:2] + r[4:] for r in new]
            assert all(map(_close, sum(orig, []), sum(new, [])))
        orig, new = both("metrics.csv")
        assert len(orig) == len(new) == 11
        assert all(map(_close, sum(orig, []), sum(new, [])))
        for seed in (0, 1):
            orig, new = both(f"counterfactuals_seed{seed}.csv")
            assert len(orig) == len(new) > 1 and sorted(orig[0]) == sorted(new[0])
            where = [new[0].index(name) for name in orig[0]]
            for a, b in zip(orig[1:], new[1:]):
                assert all(_close(x, b[c]) for x, c in zip(a, where)), (a, b)

    def test_toy_custom_metric_is_the_auroc_of_score_l_total(self, tmp_path, capsys):
        common = ["--seeds", "0", "--n-per-class", "300", "--n-ood", "200"]
        assert run_cli(["toy", *common, "--out", tmp_path / "t"]) == 0
        assert run_cli(["score", *common, "--out", tmp_path / "s"]) == 0
        [custom] = [r for r in read_back(tmp_path / "t" / "toy_auroc.csv")
                    if r[:2] == ["Custom metric", "0"]]
        scores = read_back(tmp_path / "s" / "scores.csv")
        l_total = np.array([float(r[scores[0].index("l_total")]) for r in scores[1:]])
        ood = np.array([r[scores[0].index("ood_flag")] == "1" for r in scores[1:]])
        assert ood.any() and not ood.all()
        assert float(custom[2]) == auroc(-l_total[~ood], -l_total[ood])


class TestWriteCsvBytes:
    """`write_csv` writes the bytes csv.writer writes, for any cells and row
    shapes, except that a cell holding a CR is quoted."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda width: st.tuples(
        st.just(width),
        # mostly full-width tuples, and some ragged rows
        st.lists(st.one_of(*[st.lists(CELLS, min_size=width, max_size=width).map(tuple)] * 3,
                           st.lists(CELLS, min_size=0, max_size=width + 1)),
                 min_size=1, max_size=12))))
    def test_matches_csv_writer(self, case):
        width, rows = case
        header = [f"c{j}" for j in range(width)]
        cfg = cli.RunConfig()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            cli.write_csv(path, header, iter(rows), cfg)
            assert path.read_bytes() == _csv_writer_bytes(header, rows, cfg)

    @pytest.mark.parametrize("header,rows", [
        (["only"], [("",), ("x",), (1.5,)]),
        *[(["a", "b"], [(1.0, 2.0), (cell, 3)]) for cell in
          ('q"t', "cr\r", "lf\n", "a,b", None, "", "None", 5e-324, -0.0, np.float32(0.1))],
        (["a", "b"], [(1.0, 2.0)] * 300 + [(1.0, 'q"t')] + [(3, None)] * 300),
        (["a", "b"], [(1.0, 2.0), ("x\r", 1), [1, 2], (1, 2, 3), (0.1,)]),
        (["a\rb", "c"], [("\r", None), ('q"\r', "\r\n"), ("\r,", 2.5)]),
    ])
    def test_edge_tables(self, tmp_path, header, rows):
        cfg = cli.RunConfig()
        cli.write_csv(tmp_path / "t.csv", header, rows, cfg)
        assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(header, rows, cfg)

    def test_cr_cells_are_quoted(self, tmp_path):
        header, rows = ["a\rb", "c"], [("x\ry", 1), ('q"\r', "\r\n"), ("\r", None)]
        cli.write_csv(tmp_path / "t.csv", header, rows, cli.RunConfig())
        body = (tmp_path / "t.csv").read_bytes().split(b"\n", 1)[1]
        assert body == b'"a\rb",c\n"x\ry",1\n"q""\r","\r\n"\n"\r",\n'
        assert read_back(tmp_path / "t.csv") == [
            ["a\rb", "c"], ["x\ry", "1"], ['q"\r', "\r\n"], ["\r", ""]]


def _oracle_counterfactual_rows(results, variant):
    """The counterfactual rows as built cell by cell, one list per row."""
    rows = []
    for i, res in enumerate(results):
        base = [i, variant, res.target_class if res.target_class is not None else "",
                res.error or ""]
        losses = [res.losses_before.get("non_dis", ""), res.losses_before.get("dis", ""),
                  res.losses_after.get("non_dis", ""), res.losses_after.get("dis", "")]
        rows.append(base + losses + res.x_original.tolist()
                    + res.x_counterfactual.tolist() + res.delta.tolist())
    return rows


def test_counterfactual_rows_match_cell_by_cell_rows(tmp_path):
    # an UnknownClass error cell holds "not in [0, 2)": its comma must be quoted
    cfg = cli.RunConfig(n_per_class=300, n_ood=30, k=2)
    fit = cli.fit_pipeline(cfg, 0, keep=True)
    ood = fit.ood
    targets = np.where(np.arange(len(ood)) % 3 == 0, 5, np.arange(len(ood)) % 2)
    clf = train_softmax_classifier(
        [(fit.train.features[:50], fit.train.class_label[:50])], [0], epochs=1)
    runs = [("OOD CF", batch_generate(ood, targets, model=fit.model,
                                      projection=fit.projection, cfg=cfg.generation())),
            ("CFI", batch_generate(ood, targets, variant="cfi", classifiers=clf,
                                   cfi_cfg=cfg.cfi(), record=False)),
            ("empty", [])]
    assert any(r.failed for r in runs[0][1]) and not all(r.failed for r in runs[0][1])
    header = [f"c{j}" for j in range(8 + 3 * len(fit.feature_names))]
    got = [row for name, results in runs for row in cli._counterfactual_rows(results, name)]
    want = [row for name, results in runs for row in _oracle_counterfactual_rows(results, name)]
    assert [list(row) for row in got] == want
    cli.write_csv(tmp_path / "cf.csv", header, iter(got), cfg)
    blob = (tmp_path / "cf.csv").read_bytes()
    assert blob == _csv_writer_bytes(header, want, cfg)
    assert b'"UnknownClass: target class 5 not in [0, 2)"' in blob


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite(tmp_path, value):
    # JSON has no NaN or infinity: the bare token would make the file invalid
    with pytest.raises(NumericError, match="metrics.json: Out of range float"):
        cli.write_json(tmp_path / "metrics.json", {"std": {"l1": [0.5, value]}},
                       cli.RunConfig())
    assert not (tmp_path / "metrics.json").exists()


def test_linalg_error_exits_numeric(tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "fit_projection", singular)
    assert run_cli(["partition", "--seeds", "0", "--n-per-class", "50",
                    "--out", tmp_path / "p"]) == 4
    record = json.loads((tmp_path / "p" / "error.json").read_text())
    assert record["error"] == "NumericError" and record["exit_code"] == 4
    assert "Singular matrix" in record["message"]
    assert json.loads(capsys.readouterr().err) == record


# -- streamed rows and one seed's working set at a time -------------------------

SCORE_HEADER = ["row_id", "l_n", "l_d", "l_total", "mahalanobis", "marginal_mahalanobis",
                "ood_flag"]
# empty, one row, a few hundred rows, a chunk, one past it, and two chunks
# and a part
ROW_COUNTS = (0, 1, 256, 257, 549, cli._CSV_CHUNK_ROWS, cli._CSV_CHUNK_ROWS + 1,
              2 * cli._CSV_CHUNK_ROWS + 37)


def _score_like_columns(n):
    """`_seed_scores`-like columns with floats of every print form, and OOD flags."""
    gen = np.random.default_rng(n)
    floats = [gen.normal(size=n) * 10.0 ** gen.integers(-320, 300, size=n) for _ in range(4)]
    for col, special in zip(floats, (np.nan, np.inf, -np.inf, 5e-324)):
        col[::7] = special
    floats[0][3::7] = -0.0
    return floats, gen.random(n) < 0.5


def _unchunked_traj_rows(model, projection, results, variant):
    """Trajectory rows with each column made whole by one `.tolist()`."""
    found = [(i, res.target_class, trace)
             for i, res in enumerate(results) for trace in res.trajectories]
    if not found:
        return []
    ids, targets, traces = zip(*found)
    lengths = [len(trace.points) for trace in traces]
    U = np.concatenate([trace.points for trace in traces])
    Z = U @ projection.loadings
    zn, zd = list(model.partition.z_n), list(model.partition.z_d)
    target = np.repeat(targets, lengths)
    ld = np.empty(len(U))
    for c in set(targets):
        ld[target == c] = model.dis_per_class[c].nll(Z[target == c][:, zd])
    return list(zip(np.repeat(ids, lengths).tolist(), [variant] * len(U),
                    np.repeat([t.phase for t in traces], lengths).tolist(),
                    [s for n in lengths for s in range(n)], *U.T.tolist(),
                    model.non_dis.nll(Z[:, zn]).tolist(), ld.tolist()))


class TestStreamedRows:
    """Rows streamed `_CSV_CHUNK_ROWS` at a time write the bytes of rows whose
    columns are made whole first."""

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_scores_csv(self, tmp_path, monkeypatch, capsys, n):
        (ln, ld, mah, marg), flags = _score_like_columns(n)
        monkeypatch.setattr(cli, "fit_pipeline",
                            lambda cfg, seed: types.SimpleNamespace(ood_flag=flags))
        monkeypatch.setattr(cli, "_seed_scores", lambda fit: (ln, ld, mah, marg))
        argv = ["score", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        cfg = cli.build_config(cli.make_parser().parse_args(argv))
        cfg.k = 2
        columns = (np.arange(n), ln, ld, ln + ld, mah, marg, flags.astype(int))
        want = _csv_writer_bytes(SCORE_HEADER, zip(*[c.tolist() for c in columns]), cfg)
        assert (tmp_path / "scores.csv").read_bytes() == want
        assert capsys.readouterr().out.startswith(f"wrote {n} score rows")

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_trajectory_rows(self, tmp_path, n):
        cfg = cli.RunConfig(n_per_class=300, n_ood=30, k=2)
        fit = cli.fit_pipeline(cfg, 0)
        gen = np.random.default_rng(n)
        # traces of 1 to 100 points; three phases and both targets take turns
        lengths, left = [], n
        while left:
            lengths.append(min(left, int(gen.integers(1, 101))))
            left -= lengths[-1]
        results = [types.SimpleNamespace(target_class=i % 2, trajectories=[
            PhaseTrace(("non_dis", "dis", "joint")[i % 3], gen.normal(size=(m, 2)) * 3,
                       np.zeros(m), m - 1)]) for i, m in enumerate(lengths)]
        results.append(types.SimpleNamespace(target_class=1, trajectories=[]))
        header = cli._traj_header(fit.feature_names)
        cli.write_csv(tmp_path / "t.csv", header,
                      cli._traj_rows(fit.model, fit.projection, results, "OOD CF"), cfg)
        want = _unchunked_traj_rows(fit.model, fit.projection, results, "OOD CF")
        assert len(want) == n
        assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(header, want, cfg)


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


TOY_2E4 = ["--n-per-class", "20000", "--n-ood", "20000"]


class TestOneSeedAtATime:
    """`toy` keeps no seed's fit past that seed, and `score` drops its fit
    before the write and never holds a score column as Python objects."""

    def test_toy_peak_does_not_grow_with_seeds(self, tmp_path, capsys):
        run_cli(["toy", "--n-per-class", "200", "--seeds", "0", "--out", tmp_path / "warm"])
        one = _traced_peak(lambda: run_cli(["toy", *TOY_2E4, "--seeds", "0",
                                            "--out", tmp_path / "one"]))
        three = _traced_peak(lambda: run_cli(["toy", *TOY_2E4, "--seeds", "0,1,2",
                                              "--out", tmp_path / "three"]))
        assert three <= 1.1 * one

    def test_score_peak_near_the_fit(self, tmp_path, capsys):
        run_cli(["score", "--n-per-class", "200", "--seeds", "0", "--out", tmp_path / "warm"])
        cfg = cli.RunConfig(n_per_class=20000, n_ood=20000, k=2)
        fit = _traced_peak(lambda: cli.fit_pipeline(cfg, 0))
        score = _traced_peak(lambda: run_cli(["score", *TOY_2E4, "--seeds", "0",
                                              "--out", tmp_path / "s"]))
        assert score <= 1.35 * fit


TABLE_2E4_BYTES = 3 * 20000 * 25  # the toy table at TOY_2E4: 16 B features, 8 B label, 1 B flag


class TestLeanSeedFit:
    """A seed's fit and scoring hold no whole-table array past its last
    reader: one `toy` seed and `score` each peak within 2.5 times the
    bytes of the generated table."""

    @pytest.mark.parametrize("command", ["toy", "score"])
    def test_peak_within_table_multiple(self, tmp_path, capsys, command):
        run_cli([command, "--n-per-class", "200", "--seeds", "0", "--out", tmp_path / "warm"])
        peak = _traced_peak(lambda: run_cli([command, *TOY_2E4, "--seeds", "0",
                                             "--out", tmp_path / "t"]))
        assert peak <= 2.5 * TABLE_2E4_BYTES


def _spy_fits(monkeypatch) -> list:
    """The PipelineFit of every `cli.fit_pipeline` call, in call order."""
    fits, fit_pipeline = [], cli.fit_pipeline
    monkeypatch.setattr(cli, "fit_pipeline",
                        lambda *args, **kwargs: fits.append(fit_pipeline(*args, **kwargs))
                        or fits[-1])
    return fits


class TestKeptRawRows:
    """The first `toy` seed keeps only the raw rows its figures draw, later
    seeds and `score` keep none, and a `run` fit keeps every ID-train row
    (for CFI) and every OOD row; one `toy` seed peaks within twice the
    generated table."""

    def test_one_toy_seed_peak_within_two_tables(self, tmp_path, capsys):
        run_cli(["toy", "--n-per-class", "200", "--seeds", "0", "--out", tmp_path / "warm"])
        peak = _traced_peak(lambda: run_cli(["toy", *TOY_2E4, "--seeds", "0",
                                             "--out", tmp_path / "t"]))
        assert peak <= 2.0 * TABLE_2E4_BYTES

    def test_first_toy_seed_keeps_the_figure_rows(self, tmp_path, capsys, monkeypatch):
        fits = _spy_fits(monkeypatch)
        assert run_cli(["toy", "--n-per-class", "700", "--n-ood", "500", "--seeds", "0,1",
                        "--out", tmp_path / "t"]) == 0
        train, test = dataset.split(dataset.make_toy(700, 500, 0), dataset.SplitSpec(0.8, 0))
        # the first TOY_FIGURE_ROWS rows of each class, in split order
        n = cli.TOY_FIGURE_ROWS
        rows = np.sort(np.concatenate([np.flatnonzero(train.class_label == c)[:n]
                                       for c in (0, 1)]))
        kept = fits[0].train
        assert kept.n_rows == 2 * n < train.n_rows
        assert np.array_equal(kept.features, train.features[rows])
        assert np.array_equal(kept.class_label, train.class_label[rows])
        assert np.array_equal(fits[0].ood, test.features[test.ood_flag][:n])
        assert fits[1].train is None and fits[1].ood is None

    def test_score_fit_keeps_no_raw_row(self, tmp_path, capsys, monkeypatch):
        fits = _spy_fits(monkeypatch)
        assert run_cli(["score", "--n-per-class", "300", "--n-ood", "100", "--seeds", "0",
                        "--out", tmp_path / "s"]) == 0
        assert fits[0].train is None and fits[0].ood is None

    @pytest.mark.parametrize("variants", ["cfi", "full"])
    def test_run_fit_keeps_every_raw_row(self, tmp_path, capsys, monkeypatch, variants):
        fits = _spy_fits(monkeypatch)
        assert run_cli(["run", "--n-per-class", "700", "--n-ood", "20", "--seeds", "0",
                        "--variants", variants, "--max-iter", "5",
                        "--out", tmp_path / "r"]) == 0
        train, test = dataset.split(dataset.make_toy(700, 20, 0), dataset.SplitSpec(0.8, 0))
        assert np.array_equal(fits[0].train.features, train.features)
        assert np.array_equal(fits[0].train.class_label, train.class_label)
        assert np.array_equal(fits[0].ood, test.features[test.ood_flag])

    @pytest.mark.parametrize("command", ["run", "toy"])
    def test_one_csv_parse_per_command(self, tmp_path, capsys, monkeypatch, command):
        parsed, load_csv = [], cli.load_csv
        monkeypatch.setattr(cli, "load_csv",
                            lambda *args: parsed.append(args) or load_csv(*args))
        data = write_two_feature_csv(tmp_path / "two.csv")
        assert run_cli([command, "--data", data, "--label-col", "target",
                        "--ood-rule", "class_equals:2", "--seeds", "0,1,2",
                        "--variants", "full", "--max-iter", "5", "--out", tmp_path / "o"]) == 0
        assert len(parsed) == 1
