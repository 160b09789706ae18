import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from l1conc import experiment, montecarlo
from l1conc.cli import EXIT_CAPACITY, EXIT_OK, EXIT_USAGE, EXIT_VIOLATED, main
from l1conc.experiment import CSV_COLUMNS

DATA = Path(__file__).resolve().parent / "data"


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

    def test_tail_counts_lattice_ties(self, capsys):
        # 0.5 and 0.9 are l1 lattice values L/(nS) at S=5, n=20; the exact
        # tails are rational sums over all outcomes (0.217793, 0.000523413)
        code, stdout, _ = run_cli(
            capsys, "tail", "--seed", "1", "--family", "multinomial", "--S", "5",
            "--n", "20", "--threshold", "0.5,0.9", "--trials", "100000",
        )
        assert code == EXIT_OK
        rows = json.loads(stdout)["rows"]
        truths = (4154067229541 / 19073486328125, 9983313569 / 19073486328125)
        assert [row["threshold"] for row in rows] == [0.5, 0.9]
        for row, truth in zip(rows, truths):
            assert row["ci_low"] <= truth <= row["ci_high"]

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


@pytest.mark.parametrize("command", ["tail", "quantiles", "falsify", "asymptotic-mean"])
def test_config_runs_every_task_whatever_the_subcommand(capsys, tmp_path, command):
    # with --config the subcommand selects nothing: the golden file's tasks
    # of every kind all run, and its Violated row sets the exit code
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, command, "--config", str(DATA / "golden.ini"),
                         "--workers", "1", "--out", str(out))
    assert code == EXIT_VIOLATED
    assert out.read_bytes() == (DATA / "golden.json").read_bytes()


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

    @pytest.mark.parametrize("workers", ["x", "2.5"])
    def test_workers_flag_not_a_count_rejected(self, capsys, workers):
        self.assert_usage_error(capsys, [*TAIL, "--workers", workers], "--workers", workers)

    def test_workers_flag_auto_uses_affinity(self, capsys, monkeypatch):
        # the flag takes 'auto' as the config key and the environment do
        code, one, err = run_cli(capsys, *TAIL, "--workers", "1")
        assert (code, err) == (EXIT_OK, "")
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2})
        seen = []

        def summarize_many(requests, master_seed, workers=1):
            seen.append(workers)
            return montecarlo.summarize_many(requests, master_seed, workers)

        monkeypatch.setattr(experiment, "summarize_many", summarize_many)
        assert run_cli(capsys, *TAIL, "--workers", "auto") == (EXIT_OK, one, "")
        assert seen == [2]

    def test_workers_env_below_one_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("L1CONC_WORKERS", "0")
        self.assert_usage_error(capsys, list(TAIL), "L1CONC_WORKERS")

    def test_workers_env_auto_uses_affinity(self, capsys, monkeypatch):
        # the environment override takes 'auto' as the config key does
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setenv("L1CONC_WORKERS", "auto")
        seen = []

        def summarize_many(requests, master_seed, workers=1):
            seen.append(workers)
            return montecarlo.summarize_many(requests, master_seed, workers)

        monkeypatch.setattr(experiment, "summarize_many", summarize_many)
        code, _, err = run_cli(capsys, *TAIL)
        assert (code, err, seen) == (EXIT_OK, "", [3])

    @pytest.mark.parametrize("cpus, expected", [(5, 5), (None, 1)])
    def test_workers_auto_without_affinity_call(self, capsys, monkeypatch, tmp_path, cpus,
                                                expected):
        # macOS and Windows have no os.sched_getaffinity: 'auto' counts every CPU,
        # from the config key, the flag and the environment alike
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        seen = []

        def summarize_many(requests, master_seed, workers=1):
            seen.append(workers)
            return montecarlo.summarize_many(requests, master_seed, workers)

        monkeypatch.setattr(experiment, "summarize_many", summarize_many)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("master_seed = 4\nworkers = auto\n[task]\nkind = tail\nS = 3\nn = 50\n"
                       "threshold = 0.2\ntrials = 200\n")
        assert run_cli(capsys, "tail", "--config", str(cfg))[::2] == (EXIT_OK, "")
        assert run_cli(capsys, *TAIL, "--workers", "auto")[::2] == (EXIT_OK, "")
        monkeypatch.setenv("L1CONC_WORKERS", "auto")
        assert run_cli(capsys, *TAIL)[::2] == (EXIT_OK, "")
        assert seen == [expected] * 3

    def test_n_beyond_int64_lattice_rejected(self, capsys):
        self.assert_usage_error(capsys, ["tail", "--seed", "1", "--S", "3", "--n", str(10**21),
                                         "--threshold", "0.5", "--trials", "10"], "2·S·n")


def test_oversized_grid_is_capacity_error(capsys):
    # 8·10^18 bytes exceed any address space, so the allocation fails at once
    code, out, err = run_cli(capsys, "quantiles", "--seed", "1", "--family", "limit", "--S", "5",
                             "--grid", f"0:1:{10**18}", "--trials", "10")
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


# The runtime needs NumPy alone: with SciPy made unimportable, the console
# entry point still writes the golden report at 1 and 2 workers, the exact
# oracle still runs, and no scipy module gets loaded.  A fresh interpreter is
# needed because this test process has SciPy loaded.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from l1conc import exact_tail_small
from l1conc.cli import main
data, out = sys.argv[1], sys.argv[2]
for workers in ("1", "2"):
    code = main(["falsify", "--config", data + "/golden.ini", "--workers", workers,
                 "--out", out])
    with open(out, "rb") as got, open(data + "/golden.json", "rb") as want:
        print(code, got.read() == want.read())
exact_tail_small([0.5, 0.5], 10, 0.2)
print(sorted(name for name, module in sys.modules.items()
             if name.startswith("scipy") and module is not None))
"""


def test_runs_with_scipy_unimportable(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = [sys.executable, "-c", WITHOUT_SCIPY, str(DATA), str(tmp_path / "g.json")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{EXIT_VIOLATED} True"] * 2 + ["[]"]
