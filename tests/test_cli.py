import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from l1conc import experiment, montecarlo
from l1conc.cli import EXIT_CAPACITY, EXIT_OK, EXIT_USAGE, EXIT_VIOLATED, main
from l1conc.experiment import COLUMNS

DATA = Path(__file__).resolve().parent / "data"


# (argv, key, error): a non-finite value of a task key, and the error that
# names it; the ends of a grid whose span overflows are finite, so only the
# span is refused
NON_FINITE_VALUES = [
    (("tail", "--family", "limit", "--S", "5", "--D", "nan", "--threshold", "1"), "D",
     "task[0].D must be a finite real number in (0, inf), got 'nan'"),
    (("tail", "--family", "limit", "--S", "5", "--D", "inf", "--threshold", "1"), "D",
     "task[0].D must be a finite real number in (0, inf), got 'inf'"),
    (("tail", "--family", "limit", "--S", "5", "--threshold", "0.5,nan"), "threshold",
     "task[0].threshold must be a finite real number in (-inf, inf), got 'nan'"),
    (("tail", "--family", "limit", "--S", "5", "--threshold=-inf"), "threshold",
     "task[0].threshold must be a finite real number in (-inf, inf), got '-inf'"),
    (("quantiles", "--family", "limit", "--S", "5", "--grid", "0:inf:3"), "grid",
     "task[0].grid must be a finite real number in (-inf, inf), got 'inf'"),
    (("quantiles", "--family", "limit", "--S", "5", "--grid=-1e308:1e308:3"), "grid",
     "task[0].grid: must be finite"),
    (("quantiles", "--family", "limit", "--S", "5", "--grid", "0,nan"), "grid",
     "task[0].grid must be a finite real number in (-inf, inf), got 'nan'"),
    (("falsify", "--bound", "agrawal", "--S", "5", "--n", "10", "--delta", "nan"), "delta",
     "task[0].delta must be a finite real number in (0, 1], got 'nan'"),
]


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

    def test_missing_seed_reported_with_every_bad_flag(self, capsys):
        # flags pass the config validator: one error line names them all
        code, _, err = run_cli(capsys, "falsify", "--bound", "agrawal", "--S", "10",
                               "--n", "x", "--delta", "2")
        assert code == EXIT_USAGE
        assert err == ("error: master_seed: required (seeds are never auto-generated); "
                       "task[0].n: cannot parse 'x'; task[0].delta must be a finite real "
                       "number in (0, 1], got '2'\n")


class TestOtherCommands:
    def test_asymptotic_mean_csv(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "asymptotic-mean", "--seed", "4", "--S", "2,10",
            "--trials", "2000", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = stdout.splitlines()
        assert lines[0] == ",".join(COLUMNS)
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

    def test_tiny_D_counts_no_exceedance(self, capsys):
        # 1 / 1e-310 overflows, but the finite inputs are checked, not that
        # quotient: no D·Z reaches 1 here, so the point is 0, as the API gives
        code, stdout, _ = run_cli(capsys, "tail", "--seed", "1", "--family", "limit", "--S", "5",
                                  "--D", "1e-310", "--threshold", "1")
        assert code == EXIT_OK
        [row] = json.loads(stdout)["rows"]
        source = montecarlo.DeviationSource("limit", 5, D=1e-310)
        assert row["point"] == 0.0 == montecarlo.estimate_tail_probability(
            source, 1.0, row["trials"], 1).point

    def test_huge_D_mean_row_stays_finite(self, capsys):
        # the mean row scales the D = 1 moments by D, so D² never overflows
        code, stdout, _ = run_cli(capsys, "asymptotic-mean", "--seed", "1", "--S", "2",
                                  "--trials", "10", "--D", "1e200")
        assert code == EXIT_OK
        [row] = json.loads(stdout)["rows"]
        assert (row["ci_low"], row["ci_high"]) == (1.5635207112121378e+199,
                                                   5.074329706724749e+199)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_mean_row_refused(self, capsys, tmp_path, monkeypatch, fmt):
        # D·E[Z] overflows to inf, which strict JSON cannot hold: the task is
        # refused before any draw, with exit 1, one error line and no report
        def summarize_many(*args, **kw):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(experiment, "summarize_many", summarize_many)
        out = tmp_path / f"r.{fmt}"
        code, stdout, err = run_cli(capsys, "asymptotic-mean", "--seed", "1", "--S", "10",
                                    "--trials", "10", "--D", "1.7e308", "--format", fmt,
                                    "--out", str(out))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "not finite" in err and stdout == ""
        assert not out.exists()

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


@pytest.mark.parametrize("top", ["", "master_seed = x\n"], ids=["no-seed-line", "bad-seed-line"])
def test_seed_flag_overrides_config_seed(capsys, tmp_path, top):
    # --seed supplies or replaces the file's master seed before validation
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{top}[task]\nkind = tail\nS = 3\nn = 50\nthreshold = 0.2\ntrials = 200\n")
    code, stdout, err = run_cli(capsys, "tail", "--config", str(cfg), "--seed", "5")
    assert (code, err) == (EXIT_OK, "")
    report = json.loads(stdout)
    assert report["master_seed"] == 5
    assert {row["seed"] for row in report["rows"]} == {5}


# one task of each kind as the flags of its subcommand
ONE_TASK_FLAGS = {
    "tail": {"S": "3", "n": "50", "threshold": "0.2,0.4", "trials": "500"},
    "quantiles": {"family": "limit", "S": "5", "grid": "0:3:4", "trials": "500"},
    "falsify": {"bound": "devroye", "S": "5", "n": "100", "delta": "0.1", "trials": "200"},
    "asymptotic-mean": {"S": "2,10", "D": "2", "trials": "200"},
}


@pytest.mark.parametrize("kind", list(ONE_TASK_FLAGS))
def test_flags_and_config_write_the_same_report(capsys, tmp_path, kind):
    # flags and a config file reach the same validator and the same run
    keys = ONE_TASK_FLAGS[kind]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"master_seed = 7\n[task]\nkind = {kind}\n"
                   + "".join(f"{key} = {value}\n" for key, value in keys.items()))
    flags = [arg for key, value in keys.items() for arg in (f"--{key}", value)]
    from_flags = run_cli(capsys, kind, "--seed", "7", *flags, "--workers", "1")
    from_file = run_cli(capsys, kind, "--config", str(cfg), "--workers", "1")
    assert from_flags == from_file
    assert from_flags[0] == EXIT_OK and from_flags[2] == ""


def test_golden_task7_replays_from_flags(capsys):
    # a row depends on its own task alone: golden task7 run from flags gives
    # its rows and echo but for the task id
    code, stdout, err = run_cli(capsys, "falsify", "--S", "10", "--n", "100", "--bound",
                                "weissman-exact", "--delta", "0.05,0.5", "--trials", "2000",
                                "--seed", "20261018")
    assert (code, err) == (EXIT_OK, "")
    golden = json.loads((DATA / "golden.json").read_text())
    got = json.loads(stdout)

    def others(row):
        return {key: value for key, value in row.items() if key not in ("task_id", "id")}

    assert [others(row) for row in got["rows"]] == [
        others(row) for row in golden["rows"] if row["task_id"] == "task7"]
    assert len(got["rows"]) == 2
    [task] = got["tasks"]
    assert others(task) == others(next(t for t in golden["tasks"] if t["id"] == "task7"))


@pytest.mark.parametrize("command", ["tail", "quantiles", "falsify", "asymptotic-mean"])
def test_config_runs_every_task_whatever_the_subcommand(capsys, tmp_path, command):
    # with --config the subcommand selects nothing: the golden file's tasks
    # of every kind all run, and its Violated row sets the exit code
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, command, "--config", str(DATA / "golden.ini"),
                         "--workers", "1", "--out", str(out))
    assert code == EXIT_VIOLATED
    assert out.read_bytes() == (DATA / "golden.json").read_bytes()


def _golden_with(edit):
    report = json.loads((DATA / "golden.json").read_text())
    edit(report)
    return report


# (saved report, the path its error line names): a saved report that is not
# one the runner could write, in a task echo or a row
SAVED_FAULTS = [
    pytest.param({"schema": 1, "master_seed": 1, "tasks": [1, "x"], "rows": []}, "tasks[0]",
                 id="tasks-not-objects"),
    pytest.param(_golden_with(lambda r: r["tasks"][0].update(S=[1])), "tasks[0].S", id="S-1"),
    pytest.param(_golden_with(lambda r: r["tasks"][0].update(delta=[0.1])), "tasks[0].delta",
                 id="delta-on-tail"),
    pytest.param(_golden_with(lambda r: r["tasks"][0].update(trials="x")), "tasks[0].trials",
                 id="trials-text"),
    pytest.param(_golden_with(lambda r: r["tasks"][0].update(grid=[0.9, 0.5])), "tasks[0].grid",
                 id="grid-on-tail"),
    pytest.param(_golden_with(lambda r: r["tasks"][3].update(grid=[0.6, 0.5])), "tasks[3].grid",
                 id="grid-descending"),
    pytest.param(_golden_with(lambda r: r["tasks"][2].update(grid="0:1:1000000000")),
                 "tasks[2].grid", id="grid-span-text"),
    pytest.param(_golden_with(lambda r: r["tasks"][0].pop("D")), "tasks[0].D", id="D-missing"),
    pytest.param(_golden_with(lambda r: r["tasks"][2].update(D=2)), "tasks[2].D", id="D-int"),
    pytest.param(_golden_with(lambda r: r["tasks"][0].update(id="task7")), "tasks[0].id",
                 id="id-moved"),
    pytest.param(_golden_with(lambda r: r["tasks"].__setitem__(0, 1)), "tasks[0]",
                 id="task-a-number"),
    pytest.param(_golden_with(lambda r: r["rows"][0].update(task_id="task9")),
                 "rows[0].task_id", id="row-of-no-task"),
    pytest.param(_golden_with(lambda r: r["rows"][0].update(n=21)), "rows[0].n", id="row-n"),
    pytest.param(_golden_with(lambda r: r["rows"][0].update(seed=1)), "rows[0].seed",
                 id="row-seed"),
    # a row is the row its task makes: only its sample cells are taken as
    # saved, and a falsify row's outcome is the verdict its interval gives
    pytest.param(_golden_with(lambda r: r["rows"][13].update(outcome="Consistent")),
                 "rows[13].outcome", id="outcome-flipped"),
    pytest.param(_golden_with(lambda r: r["rows"][0].update(S=7)), "rows[0].S", id="row-S"),
    pytest.param(_golden_with(lambda r: r["rows"].pop(0)), "rows: the report holds 19",
                 id="row-deleted"),
    pytest.param(_golden_with(lambda r: r["rows"].append(r["rows"][0])),
                 "rows: the report holds 21", id="row-repeated"),
    pytest.param(_golden_with(lambda r: r["rows"][0].update(extra=1)), "rows[0].extra",
                 id="row-extra-key"),
    pytest.param(_golden_with(lambda r: r["rows"][13].update(family="Devroye")),
                 "rows[13].family", id="row-bound-family"),
    pytest.param(_golden_with(lambda r: r["rows"][13].update(delta=0.9)), "rows[13].delta",
                 id="row-delta"),
    pytest.param(_golden_with(lambda r: r["tasks"][0].update(threshold=[0.1, 0.2])),
                 "rows[0].threshold", id="task-thresholds"),
]


class TestReportCommand:
    @pytest.mark.parametrize("saved,path", SAVED_FAULTS)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_reemit_refuses_what_the_runner_cannot_write(self, capsys, tmp_path, saved, path,
                                                         fmt):
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(saved))
        code, stdout, err = run_cli(capsys, "report", "--in", str(bad), "--format", fmt)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"error: {path}"), err

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
        assert stdout.splitlines()[0] == ",".join(COLUMNS)

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "plot"])
    def test_reemit_non_finite_refused(self, capsys, tmp_path, fmt, token):
        # json.load takes the bare tokens that json.dumps used to write
        saved = tmp_path / "r.json"
        saved.write_text('{"schema": 1, "master_seed": 1, "tasks": [], '
                         f'"rows": [{{"task_id": "t", "kind": "tail", "point": {token}}}]}}')
        out = tmp_path / f"again.{fmt}"
        choice = ("--plot-task", "t") if fmt == "plot" else ("--format", fmt)
        code, stdout, err = run_cli(capsys, "report", "--in", str(saved), *choice,
                                    "--out", str(out))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "rows[0].point" in err and stdout == ""
        assert not out.exists()

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
            (json.dumps({"schema": 1, "master_seed": 1, "tasks": [],
                         "rows": [{**row, "kind": ["tail"]}]}), ("--plot-task", "t")),
            (json.dumps({"schema": 1, "master_seed": 1, "tasks": [],
                         "rows": [{**row, "point": 10**400}]}), ("--plot-task", "t")),
            (json.dumps({"schema": 1, "master_seed": 1, "tasks": [],
                         "rows": [{**row, "point": "inf"}]}), ("--plot-task", "t")),
        ):
            bad.write_text(text)
            code, _, err = run_cli(capsys, "report", "--in", str(bad), *extra)
            assert code == EXIT_USAGE, text
            assert err.startswith("error:") and len(err.splitlines()) == 1
        # a saved sample cell must be a finite float; a report of no tasks
        # makes no rows, so any row of it is refused, whatever its kind
        for column, value, needle in (("point", "abc", "rows[0].point"),
                                      ("kind", ["tail"], "rows: "),
                                      ("point", 10**400, "rows[0].point"),
                                      ("point", "inf", "rows[0].point")):
            bad.write_text(json.dumps({"schema": 1, "master_seed": 1, "tasks": [],
                                       "rows": [{**row, "point": 0.5, column: value}]}))
            for fmt in ("json", "csv"):
                code, stdout, err = run_cli(capsys, "report", "--in", str(bad), "--format", fmt)
                assert code == EXIT_USAGE, (column, value, fmt)
                assert err.startswith("error:") and len(err.splitlines()) == 1
                assert needle in err and stdout == ""

    def test_reemit_refuses_a_bad_seed_or_version(self, capsys, tmp_path):
        # a saved master seed is a 64-bit word and a saved version a string;
        # a report holding anything else is refused, not re-emitted
        bad = tmp_path / "r.json"
        for fields, needle in (({"master_seed": "abc", "version": [1]}, "version"),
                               ({"master_seed": "abc"}, "master_seed"),
                               ({"master_seed": -5}, "master_seed"),
                               ({"master_seed": 2**64}, "master_seed"),
                               ({"version": [1]}, "version")):
            bad.write_text(json.dumps({"schema": 1, "master_seed": 1, "tasks": [], "rows": [],
                                       **fields}))
            code, stdout, err = run_cli(capsys, "report", "--in", str(bad))
            assert (code, stdout) == (EXIT_USAGE, ""), fields
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert needle in err, err
        # the golden report passes both checks and re-emits byte for byte
        code, stdout, _ = run_cli(capsys, "report", "--in", str(DATA / "golden.json"))
        assert code == EXIT_VIOLATED
        assert stdout.encode() == (DATA / "golden.json").read_bytes()


BIG = str(10**400)
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

    @pytest.mark.parametrize("argv,message", [(case[0], case[2]) for case in NON_FINITE_VALUES],
                             ids=[f"argv{i}-{case[1]}" for i, case in enumerate(NON_FINITE_VALUES)])
    def test_non_finite_value_is_config_error(self, capsys, argv, message):
        # one error line naming the key and its interval, and no numeric
        # warning leaks before it
        self.assert_usage_error(capsys, [argv[0], "--seed", "1", *argv[1:]], message)

    def test_non_finite_config_level_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("master_seed = 1\n[task]\nkind = quantiles\nfamily = limit\nS = 3\n"
                       "grid = 0:1:3\nband_level = nan\n")
        self.assert_usage_error(capsys, ["quantiles", "--config", str(cfg)],
                                "task[0].band_level must be a finite real number in (0, 1), "
                                "got 'nan'")

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

    @staticmethod
    def record_workers(monkeypatch):
        # the worker counts run_experiment hands to summarize_many
        seen = []

        def summarize_many(requests, master_seed, workers=1):
            seen.append(workers)
            return montecarlo.summarize_many(requests, master_seed, workers)

        monkeypatch.setattr(experiment, "summarize_many", summarize_many)
        return seen

    def test_workers_default_uses_affinity(self, capsys, monkeypatch):
        # with no --workers a run uses every CPU this process may run on
        code, one, err = run_cli(capsys, *TAIL, "--workers", "1")
        assert (code, err) == (EXIT_OK, "")
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2})
        seen = self.record_workers(monkeypatch)
        assert run_cli(capsys, *TAIL) == (EXIT_OK, one, "")
        assert seen == [2]

    @pytest.mark.parametrize("cpus, expected", [(5, 5), (None, 1)])
    def test_workers_default_without_affinity_call(self, capsys, monkeypatch, tmp_path, cpus,
                                                   expected):
        # macOS and Windows have no os.sched_getaffinity: the default counts
        # every CPU, from flags and from a config alike
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        seen = self.record_workers(monkeypatch)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("master_seed = 4\n[task]\nkind = tail\nS = 3\nn = 50\n"
                       "threshold = 0.2\ntrials = 200\n")
        assert run_cli(capsys, "tail", "--config", str(cfg))[::2] == (EXIT_OK, "")
        assert run_cli(capsys, *TAIL)[::2] == (EXIT_OK, "")
        assert seen == [expected] * 2

    def test_workers_flag_auto_rejected(self, capsys):
        # the default already uses every usable CPU; --workers only caps it
        self.assert_usage_error(capsys, [*TAIL, "--workers", "auto"], "--workers", "'auto'")

    def test_workers_config_key_rejected(self, capsys, tmp_path):
        # a run's worker count is capped by --workers, not by the config
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("master_seed = 4\nworkers = 2\n[task]\nkind = tail\nS = 3\nn = 50\n"
                       "threshold = 0.2\ntrials = 200\n")
        self.assert_usage_error(capsys, ["tail", "--config", str(cfg)],
                                "workers: unknown top-level key")

    def test_workers_env_not_read(self, capsys, monkeypatch):
        code, one, err = run_cli(capsys, *TAIL)
        assert (code, err) == (EXIT_OK, "")
        monkeypatch.setenv("L1CONC_WORKERS", "0")
        assert run_cli(capsys, *TAIL) == (EXIT_OK, one, "")

    def test_trials_from_2_62_rejected(self, capsys):
        # the job list for this many trials would never fit in memory, so
        # the request fails before any draw
        self.assert_usage_error(capsys, ["tail", "--seed", "1", "--S", "3", "--n", "10",
                                         "--threshold", "0.5", "--trials", str(2**62)],
                                "trials")

    @pytest.mark.parametrize("seed", [-5, 2**64])
    def test_master_seed_out_of_range_rejected(self, capsys, tmp_path, seed):
        # from the config, from --seed over a config with no tasks, and from
        # --seed with task flags: one error line, and no report is written
        cfg, empty, out = tmp_path / "exp.cfg", tmp_path / "empty.cfg", tmp_path / "r.json"
        cfg.write_text(f"master_seed = {seed}\n[task]\nkind = asymptotic-mean\nS = 5\n")
        empty.write_text("master_seed = 1\n")
        for argv in (["asymptotic-mean", "--config", str(cfg)],
                     ["asymptotic-mean", "--config", str(empty), "--seed", str(seed)],
                     [*TAIL[:1], "--seed", str(seed), *TAIL[3:]]):
            self.assert_usage_error(capsys, [*argv, "--out", str(out)], "error: master_seed")
            assert not out.exists()

    def test_n_beyond_int64_lattice_rejected(self, capsys):
        # an n below 2^64 reaches the source's lattice guard; from 2^64 on,
        # the parser refuses it as outside the domain of n
        for n, needle in ((2**62, "2·S·n"), (10**21, "task[0].n")):
            self.assert_usage_error(capsys, ["tail", "--seed", "1", "--S", "3", "--n", str(n),
                                             "--threshold", "0.5", "--trials", "10"], needle)

    @pytest.mark.parametrize("argv, needle", [
        (["falsify", "--bound", "devroye", "--S", BIG, "--n", "100"], "task[0].S"),
        (["falsify", "--bound", "weissman-union", "--S", BIG, "--n", "100"], "task[0].S"),
        (["falsify", "--bound", "weissman-exact", "--S", str(2**64), "--n", "100"], "task[0].S"),
        (["falsify", "--bound", "agrawal", "--S", "5", "--n", BIG], "n must be"),
        (["asymptotic-mean", "--S", f"5,{BIG}"], "task[0].S"),
    ], ids=["devroye-S", "weissman-union-S", "weissman-exact-S", "agrawal-n", "mean-S"])
    def test_integer_beyond_a_float_rejected(self, capsys, argv, needle):
        # each value overflows a float in its bound or E[Z] formula, so the
        # task or its BoundSpec refuses it before any draw
        delta = ["--delta", "0.1"] if argv[0] == "falsify" else []
        self.assert_usage_error(capsys, [*argv, *delta, "--seed", "1", "--trials", "100"], needle)

    def test_non_utf8_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"master_seed = 1\n[task]\nkind = tail\nS = 3\nn = 5\n"
                        b"threshold = 0.1\xff\n")
        self.assert_usage_error(capsys, ["tail", "--config", str(cfg)], str(cfg), "UTF-8")


def test_oversized_grid_is_capacity_error(capsys):
    # 8·10^18 bytes exceed any address space, so the allocation fails at once;
    # from 2^60 points on, NumPy could not even size the array
    for count in (10**18, 2**60, 2**64, 10**400):
        code, out, err = run_cli(capsys, "quantiles", "--seed", "1", "--family", "limit",
                                 "--S", "5", "--grid", f"0:1:{count}", "--trials", "10")
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
