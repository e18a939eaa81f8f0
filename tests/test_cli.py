import csv
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodcf import cli
from oodcf.counterfactual import batch_generate, train_softmax_classifier
from oodcf.dataset import OodRule
from oodcf.density import MahalanobisScorer, MarginalMahalanobisScorer, ood_scores
from oodcf.errors import ConfigError
from oodcf.projection import project

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

    def test_provenance_header(self, tmp_path):
        run_cli(["toy", "--seeds", "0", "--n-per-class", "220", "--n-ood", "120",
                 "--out", tmp_path / "t"])
        first = (tmp_path / "t" / "toy_auroc.csv").read_text().splitlines()[0]
        assert first.startswith("# config: ")
        payload = json.loads(first[len("# config: "):])
        assert payload["seeds"] == [0]
        assert payload["n_per_class"] == 220


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
        test = fit.test
        Z = project(fit.projection, test.features)
        ln, ld = ood_scores(fit.model, Z)
        mah = MahalanobisScorer.fit(fit.Z_train, fit.train.class_label).score(Z)
        marg = MarginalMahalanobisScorer.fit(fit.Z_train).score(Z)
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
    ])
    def test_bad_flag_value(self, tmp_path, capsys, flag, argv):
        out = tmp_path / "o"
        assert run_cli(argv + ["--out", out]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError"
        assert f"bad {flag} " in record["message"]
        assert "Traceback" not in capsys.readouterr().err
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


# k=2 has a single cardinality, so the partition normalization fallback fires
@pytest.mark.filterwarnings("ignore::oodcf.errors.DegenerateNormalizationWarning")
class TestTrajRowsAgainstOracle:
    """Batched trajectory rows: every cell but the two NLLs is the oracle's,
    of the same Python type, so it prints the same; the NLLs agree within
    1e-12 relative (one solve per Gaussian instead of one per trace)."""

    @pytest.mark.parametrize("source", ["toy", "csv"])
    def test_matches_per_trace_oracle(self, source):
        cfg = (cli.RunConfig(n_per_class=300, n_ood=30, k=2) if source == "toy" else
               cli.RunConfig(source="csv", data_path=str(WINE), label_col="target",
                             ood_rule="class_equals:2"))
        fit = cli.fit_pipeline(cfg, 0)
        # ID rows start below their thresholds: they give one-point traces
        X = np.concatenate([fit.test.ood_rows().features, fit.test.id_rows().features[:20]])
        targets = np.arange(len(X)) % 2
        for variant in ("full", "sg", "sn", "sd"):
            results = batch_generate(X, variant=variant, model=fit.model,
                                     projection=fit.projection, cfg=cfg.generation(),
                                     targets=targets)
            traces = [t for r in results for t in r.trajectories]
            assert min(len(t.points) for t in traces) == 1
            assert {r.target_class for r in results} == {0, 1}
            got = list(cli._traj_rows(fit, results, variant))
            want = _oracle_traj_rows(fit, results, variant)
            assert len(got) == len(want) == sum(len(t.points) for t in traces)
            for g, w in zip(got, want):
                assert g[:-2] == w[:-2]
                assert [type(v) for v in g] == [type(v) for v in w]
                assert np.allclose(g[-2:], w[-2:], rtol=1e-12, atol=0)

    def test_no_traces_give_no_rows(self):
        cfg = cli.RunConfig(n_per_class=300, n_ood=30, k=2)
        fit = cli.fit_pipeline(cfg, 0)
        ood = fit.test.ood_rows().features
        clf = train_softmax_classifier(fit.train.features[:50],
                                       fit.train.class_label[:50], epochs=1)
        cfi = batch_generate(ood, variant="cfi", classifier=clf,
                             cfi_cfg=cfg.cfi(), record=False)
        failed = batch_generate(ood, model=fit.model, projection=fit.projection,
                                cfg=cfg.generation(), targets=np.full(len(ood), 9))
        assert all(r.failed for r in failed)
        for results in ([], cfi, failed):
            assert list(cli._traj_rows(fit, results, "x")) == []


class TestRunDeterminism:
    def test_run_rerun_byte_identical(self, tmp_path):
        args = ["run", "--data", WINE, "--label-col", "target",
                "--ood-rule", "class_equals:2", "--seeds", "3",
                "--variants", "full,cfi"]
        rerun_identical(args, tmp_path / "r")


def _csv_writer_bytes(header, rows, cfg):
    """What `write_csv` wrote before its fast path: csv.writer on every row."""
    expected = io.StringIO()
    expected.write(f"# config: {cli._provenance(cfg)}\n")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return expected.getvalue().encode("utf-8")


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


class TestWriteCsvBytes:
    """`write_csv` writes the bytes csv.writer writes, for any cells and row
    shapes; rows that need quoting take csv.writer within their chunk."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda width: st.tuples(
        st.just(width),
        # mostly full-width tuples, the rows the fast path takes
        st.lists(st.one_of(*[st.lists(CELLS, min_size=width, max_size=width).map(tuple)] * 3,
                           st.lists(CELLS, min_size=0, max_size=width + 1)),
                 min_size=1, max_size=12),
        st.booleans())))
    def test_matches_csv_writer(self, case):
        width, rows, repeat = case
        if repeat:  # more than one chunk, each mixing clean and quoted rows
            rows = rows * (2 * cli._CSV_CHUNK_ROWS // len(rows) + 1)
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
    ])
    def test_edge_tables(self, tmp_path, header, rows):
        cfg = cli.RunConfig()
        cli.write_csv(tmp_path / "t.csv", header, rows, cfg)
        assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(header, rows, cfg)


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


@pytest.mark.filterwarnings("ignore::oodcf.errors.DegenerateNormalizationWarning")
def test_counterfactual_rows_match_cell_by_cell_rows(tmp_path):
    # an UnknownClass error cell holds "not in [0, 2)": its comma must be quoted
    cfg = cli.RunConfig(n_per_class=300, n_ood=30, k=2)
    fit = cli.fit_pipeline(cfg, 0)
    ood = fit.test.ood_rows().features
    targets = np.where(np.arange(len(ood)) % 3 == 0, 5, np.arange(len(ood)) % 2)
    clf = train_softmax_classifier(fit.train.features[:50], fit.train.class_label[:50],
                                   epochs=1)
    runs = [("OOD CF", batch_generate(ood, model=fit.model, projection=fit.projection,
                                      cfg=cfg.generation(), targets=targets)),
            ("CFI", batch_generate(ood, variant="cfi", classifier=clf,
                                   cfi_cfg=cfg.cfi(), targets=targets, record=False)),
            ("empty", [])]
    assert any(r.failed for r in runs[0][1]) and not all(r.failed for r in runs[0][1])
    header = [f"c{j}" for j in range(8 + 3 * fit.train.n_features)]
    got = [row for name, results in runs for row in cli._counterfactual_rows(results, name)]
    want = [row for name, results in runs for row in _oracle_counterfactual_rows(results, name)]
    assert [list(row) for row in got] == want
    cli.write_csv(tmp_path / "cf.csv", header, iter(got), cfg)
    blob = (tmp_path / "cf.csv").read_bytes()
    assert blob == _csv_writer_bytes(header, want, cfg)
    assert b'"UnknownClass: target class 5 not in [0, 2)"' in blob


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
