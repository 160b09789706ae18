import json

import pytest

from l1conc.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATED, main
from l1conc.experiment import CSV_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFalsifyCommand:
    def test_violated_exit_code(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "falsify", "--seed", "1", "--bound", "agrawal",
            "--S", "50", "--n", "10000", "--delta", "0.05",
            "--trials", "1000", "--out", str(out),
        )
        assert code == EXIT_VIOLATED
        obj = json.loads(out.read_text())
        assert obj["rows"][0]["outcome"] == "Violated"

    def test_consistent_exit_code(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "falsify", "--seed", "1", "--bound", "weissman-union",
            "--S", "2", "--n", "100", "--delta", "0.05", "--trials", "2000",
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["rows"][0]["outcome"] == "Consistent"

    def test_missing_seed_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "falsify", "--bound", "agrawal", "--S", "10",
            "--n", "100", "--delta", "0.05",
        )
        assert code == EXIT_USAGE
        assert "seed" in err


class TestOtherCommands:
    def test_asymptotic_mean_csv(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "asymptotic-mean", "--seed", "4", "--S", "2,10",
            "--trials", "2000", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = stdout.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_tail_command(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "tail", "--seed", "4", "--S", "3", "--n", "50",
            "--threshold", "0.2,0.4", "--trials", "2000",
        )
        assert code == EXIT_OK
        assert len(json.loads(stdout)["rows"]) == 2

    def test_quantiles_with_plot_out(self, capsys, tmp_path):
        plot = tmp_path / "curve.dat"
        code, _, _ = run_cli(
            capsys, "quantiles", "--seed", "4", "--family", "limit", "--S", "10",
            "--grid", "0:3:6", "--trials", "2000", "--out", str(tmp_path / "r.json"),
            "--plot-out", str(plot),
        )
        assert code == EXIT_OK
        assert plot.read_text().startswith("# threshold cdf cdf_low cdf_high")

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "master_seed = 9\n[task]\nkind = falsify\nbound = agrawal\n"
            "S = 50\nn = 10000\ndelta = 0.05\ntrials = 1000\n"
        )
        code, stdout, _ = run_cli(capsys, "falsify", "--config", str(cfg))
        assert code == EXIT_VIOLATED

    def test_bad_config_field(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        for task, needle in (
            ("kind = falsify\ndelta = 1.5", "delta"),
            # one trial has no sample variance: the mean's interval would be NaN
            ("kind = asymptotic-mean\nS = 5\ntrials = 1",
             "task[0].trials: asymptotic-mean tasks need >= 2 trials"),
        ):
            cfg.write_text(f"master_seed = 9\n[task]\n{task}\n")
            code, _, err = run_cli(capsys, "falsify", "--config", str(cfg))
            assert code == EXIT_USAGE
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert needle in err


class TestReportCommand:
    def test_reemit_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        run_cli(
            capsys, "asymptotic-mean", "--seed", "4", "--S", "5",
            "--trials", "1000", "--out", str(out),
        )
        code, stdout, _ = run_cli(capsys, "report", "--in", str(out), "--format", "json")
        assert code == EXIT_OK
        assert stdout.encode() == out.read_bytes()

    def test_reemit_csv(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        run_cli(
            capsys, "asymptotic-mean", "--seed", "4", "--S", "5",
            "--trials", "1000", "--out", str(out),
        )
        code, stdout, _ = run_cli(capsys, "report", "--in", str(out), "--format", "csv")
        assert code == EXIT_OK
        assert stdout.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "report", "--in", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE

    def test_invalid_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "report", "--in", str(bad))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_report_missing_keys_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "partial.json"
        bad.write_text(json.dumps({"schema": 1, "version": "0.1.0"}))
        code, _, err = run_cli(capsys, "report", "--in", str(bad))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "master_seed" in err and "rows" in err
        row = {"task_id": "t", "kind": "tail", "threshold": 0.5, "point": "abc",
               "ci_low": 0.1, "ci_high": 0.9}
        for text, extra in (
            ("[1, 2]", ()),
            (json.dumps({"schema": 1, "master_seed": 1, "tasks": [], "rows": [1]}), ()),
            (json.dumps({"schema": 1, "master_seed": 1, "tasks": [], "rows": 5}), ()),
            (json.dumps({"schema": 1, "master_seed": 1, "tasks": [], "rows": [row]}),
             ("--plot-task", "t")),
        ):
            bad.write_text(text)
            code, _, err = run_cli(capsys, "report", "--in", str(bad), *extra)
            assert code == EXIT_USAGE, text
            assert err.startswith("error:") and len(err.splitlines()) == 1


TAIL = ("tail", "--seed", "4", "--S", "3", "--n", "50", "--threshold", "0.2", "--trials", "200")


class TestUsageErrors:
    def assert_usage_error(self, capsys, argv, *needles):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.splitlines()) == 1
        for needle in needles:
            assert needle in err

    def test_parser_errors_exit_1(self, capsys):
        self.assert_usage_error(capsys, ["bogus"], "bogus")
        self.assert_usage_error(capsys, [])
        self.assert_usage_error(capsys, ["falsify", "--seed", "abc"], "--seed")
        self.assert_usage_error(capsys, ["report"], "--in")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["falsify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--S", "--n", "--delta", "--threshold", "--grid", "--trials", "--D",
                     "--family", "--bound"):
            assert f" {flag} " in out

    @pytest.mark.parametrize("key,extra", [
        ("n", ("--n", "abc")),
        ("trials", ("--n", "5", "--trials", "1e4")),
        ("D", ("--family", "limit", "--D", "two")),
    ])
    def test_non_numeric_flag_is_config_error(self, capsys, key, extra):
        argv = ["tail", "--seed", "1", "--S", "3", "--threshold", "1", *extra]
        self.assert_usage_error(capsys, argv, f"task[0].{key}: cannot parse")

    @pytest.mark.parametrize("argv,key", [
        (("tail", "--family", "limit", "--S", "5", "--D", "nan", "--threshold", "1"), "D"),
        (("tail", "--family", "limit", "--S", "5", "--D", "inf", "--threshold", "1"), "D"),
        (("tail", "--family", "limit", "--S", "5", "--threshold", "0.5,nan"), "threshold"),
        (("tail", "--family", "limit", "--S", "5", "--threshold=-inf"), "threshold"),
        (("quantiles", "--family", "limit", "--S", "5", "--grid", "0:inf:3"), "grid"),
        (("quantiles", "--family", "limit", "--S", "5", "--grid=-1e308:1e308:3"), "grid"),
        (("quantiles", "--family", "limit", "--S", "5", "--grid", "0,nan"), "grid"),
        (("falsify", "--bound", "agrawal", "--S", "5", "--n", "10", "--delta", "nan"), "delta"),
    ])
    def test_non_finite_value_is_config_error(self, capsys, argv, key):
        # one error line, and no numeric warning leaks before it
        self.assert_usage_error(capsys, [argv[0], "--seed", "1", *argv[1:]],
                                f"task[0].{key}: must be finite")

    def test_non_finite_config_level_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("master_seed = 1\n[task]\nkind = quantiles\nfamily = limit\nS = 3\n"
                       "grid = 0:1:3\nband_level = nan\n")
        self.assert_usage_error(capsys, ["quantiles", "--config", str(cfg)],
                                "task[0].band_level: must be finite")

    @pytest.mark.parametrize("text,line,key", [
        ("master_seed = 1\n[task]\nkind = tail\nS = 3\nn = 5\nthreshold = 1\n"
         "trials = 100\ntrials = 200\n", 8, "trials"),
        ("master_seed = 1\nmaster_seed = 2\n[task]\nkind = asymptotic-mean\nS = 3\n",
         2, "master_seed"),
        ("master_seed = 1\n[task]\nkind = asymptotic-mean\nS = 3\nkind = tail\n",
         5, "kind"),
    ], ids=["task", "top-level", "kind"])
    def test_duplicate_key_is_config_error(self, capsys, tmp_path, text, line, key):
        # a repeated key must not silently replace the earlier value
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        self.assert_usage_error(capsys, ["tail", "--config", str(cfg)],
                                f"line {line}: duplicate key '{key}'")

    def test_unused_flag_is_config_error(self, capsys):
        self.assert_usage_error(capsys, [*TAIL, "--D", "2"], "task[0].D")
        self.assert_usage_error(capsys, [*TAIL, "--delta", "0.1"], "task[0].delta")

    def test_task_flag_with_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("master_seed = 9\n[task]\nkind = asymptotic-mean\nS = 5\ntrials = 10\n")
        self.assert_usage_error(capsys, ["asymptotic-mean", "--config", str(cfg), "--S", "7"],
                                "--S")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_flag_below_one_rejected(self, capsys, workers):
        self.assert_usage_error(capsys, [*TAIL, "--workers", workers], "--workers", workers)

    def test_workers_env_below_one_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("L1CONC_WORKERS", "0")
        self.assert_usage_error(capsys, list(TAIL), "L1CONC_WORKERS")
