import json
import multiprocessing

import pytest

from l1conc import montecarlo
from l1conc.errors import ConfigError
from l1conc.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    Report,
    emit_plot_data,
    emit_report,
    parse_config,
    report_from_dict,
    run_experiment,
)

MINIMAL_FALSIFY = """
master_seed = 7
[task]
kind = falsify
bound = agrawal
S = 50
n = 10000
delta = 0.05
trials = 1000
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL_FALSIFY)
        assert cfg.master_seed == 7
        task = cfg.tasks[0]
        assert task.kind == "falsify"
        assert task.trials == 1000
        assert task.ci_level == 0.95
        assert task.D == 1.0
        assert task.family == "multinomial"

    def test_default_trials(self):
        cfg = parse_config("master_seed = 1\n[task]\nkind = asymptotic-mean\nS = 5\n")
        assert cfg.tasks[0].trials == 10_000

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config("[task]\nkind = asymptotic-mean\nS = 5\n")

    def test_bad_delta_names_field(self):
        bad = MINIMAL_FALSIFY.replace("delta = 0.05", "delta = 1.5")
        with pytest.raises(ConfigError, match=r"task\[0\].delta"):
            parse_config(bad)

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("master_seed = 1\nthis is not a key value pair\n")

    def test_duplicate_key_rejected_within_a_block_only(self):
        with pytest.raises(ConfigError, match="line 10: duplicate key 'trials'"):
            parse_config(MINIMAL_FALSIFY + "trials = 200\n")
        # the same key in two blocks belongs to two tasks
        cfg = parse_config(MINIMAL_FALSIFY + MINIMAL_FALSIFY.split("\n", 2)[2])
        assert [t.trials for t in cfg.tasks] == [1000, 1000]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(MINIMAL_FALSIFY + "bogus = 3\n")

    def test_multiple_errors_reported_together(self):
        bad = "master_seed = 1\n[task]\nkind = falsify\nS = 1\ndelta = 2.0\nn = 10\nbound = agrawal\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        msg = str(exc.value)
        assert "task[0].S" in msg and "task[0].delta" in msg

    def test_sweep_longer_than_stream_rows_rejected(self):
        # a task owns 4096 streams; row 4096 would reuse the next task's row 0
        deltas = ",".join(["0.05"] * 4097)
        with pytest.raises(ConfigError, match=r"task\[0\]\.delta"):
            parse_config(MINIMAL_FALSIFY.replace("delta = 0.05", f"delta = {deltas}"))
        S = ",".join(["5"] * 4097)
        with pytest.raises(ConfigError, match=r"task\[0\]\.S"):
            parse_config(f"master_seed = 1\n[task]\nkind = asymptotic-mean\nS = {S}\n")
        assert len(parse_config(f"master_seed = 1\n[task]\nkind = asymptotic-mean\n"
                                f"S = {S[2:]}\n").tasks[0].S_values) == 4096

    @pytest.mark.parametrize("task,key", [
        ("kind = tail\nS = 3\nn = 50\nthreshold = 0.2\nD = 2", "D"),
        ("kind = tail\nfamily = dirichlet\nS = 3\nn = 50\nthreshold = 0.2\nD = 2", "D"),
        ("kind = tail\nfamily = limit\nS = 3\nn = 50\nthreshold = 0.2", "n"),
        ("kind = tail\nS = 3\nn = 50\nthreshold = 0.2\ngrid = 0:1:3", "grid"),
        ("kind = tail\nS = 3\nn = 50\nthreshold = 0.2\nbound = agrawal", "bound"),
        ("kind = tail\nS = 3\nn = 50\nthreshold = 0.2\ndelta = 0.1", "delta"),
        ("kind = falsify\nbound = agrawal\nS = 3\nn = 50\ndelta = 0.1\nthreshold = 0.2",
         "threshold"),
        ("kind = quantiles\nfamily = limit\nS = 3\ngrid = 0:1:3\nci_level = 0.9", "ci_level"),
        ("kind = asymptotic-mean\nS = 3\nband_level = 0.1", "band_level"),
    ])
    def test_unused_key_rejected(self, task, key):
        with pytest.raises(ConfigError, match=rf"task\[0\]\.{key}: not used by"):
            parse_config(f"master_seed = 1\n[task]\n{task}\n")

    def test_required_keys(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("master_seed = 1\n[task]\nkind = falsify\n")
        for key in ("S", "n", "bound", "delta"):
            assert f"task[0].{key}: required" in str(exc.value)

    def test_workers_auto_uses_affinity(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        cfg = parse_config("master_seed = 1\nworkers = auto\n")
        assert cfg.workers == 3

    def test_comments_and_grid(self):
        cfg = parse_config(
            "# experiment\nmaster_seed = 3\n[task]\nkind = quantiles\n"
            "family = limit\nS = 10\ngrid = 0:2:5\ntrials = 100\n"
        )
        assert cfg.tasks[0].grid == [0.0, 0.5, 1.0, 1.5, 2.0]


class TestRunExperiment:
    def test_empty_task_list(self):
        report = run_experiment(ExperimentConfig(master_seed=1, tasks=[]))
        assert report.rows == []

    def test_falsify_row(self):
        report = run_experiment(parse_config(MINIMAL_FALSIFY))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["outcome"] == "Violated"
        assert row["family"] == "Agrawal"
        assert row["epsilon"] == pytest.approx(0.0244774, abs=1e-6)

    def test_worker_count_invariance(self, monkeypatch):
        # every task kind; 8 chunks in all, so workers > 1 uses a pool
        text = (
            "master_seed = 11\n"
            "[task]\nkind = falsify\nbound = weissman-union\nS = 5\nn = 100\n"
            "delta = 0.1,0.01\ntrials = 500\n"
            "[task]\nkind = tail\nS = 3\nn = 12\nthreshold = 0.25,0.5\ntrials = 3000\n"
            "[task]\nkind = asymptotic-mean\nS = 2,10\ntrials = 20000\n"
            "[task]\nkind = quantiles\nfamily = limit\nS = 10\ngrid = 0:3:7\ntrials = 2000\n"
        )
        pools = []

        class CountingPool(montecarlo.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
        outputs = []
        for workers, expected_pools in ((1, []), (2, [2]), (3, [3])):
            pools.clear()
            cfg = parse_config(text)
            cfg.workers = workers
            outputs.append(emit_report(run_experiment(cfg), "json"))
            assert pools == expected_pools
            assert multiprocessing.active_children() == []  # workers joined
        assert outputs[0] == outputs[1] == outputs[2]
        pools.clear()
        cfg = parse_config(MINIMAL_FALSIFY)  # a single chunk runs in this process
        cfg.workers = 2
        run_experiment(cfg)
        assert pools == []

    def test_asymptotic_mean_matches_closed_form(self):
        cfg = parse_config("master_seed = 5\n[task]\nkind = asymptotic-mean\nS = 10\ntrials = 50000\n")
        row = run_experiment(cfg).rows[0]
        assert row["epsilon"] == pytest.approx(1.196827, abs=1e-6)
        assert abs(row["point"] - row["epsilon"]) < 0.02


class TestEmitReport:
    def test_empty_csv_is_header_only(self):
        report = run_experiment(ExperimentConfig(master_seed=1, tasks=[]))
        text = emit_report(report, "csv").decode()
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_row_fields(self):
        report = run_experiment(parse_config(MINIMAL_FALSIFY))
        lines = emit_report(report, "csv").decode().splitlines()
        assert len(lines) == 2
        cells = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert cells["outcome"] in ("Violated", "Consistent", "Inconclusive")
        assert cells["task_id"] == "task0"
        assert cells["seed"] == "7"

    def test_json_round_trip_byte_identical(self):
        report = run_experiment(parse_config(MINIMAL_FALSIFY))
        blob = emit_report(report, "json")
        again = emit_report(report_from_dict(json.loads(blob)), "json")
        assert blob == again

    def test_schema_field_present(self):
        report = run_experiment(ExperimentConfig(master_seed=1, tasks=[]))
        obj = json.loads(emit_report(report, "json"))
        assert obj["schema"] == 1
        assert "version" in obj

    def test_unknown_format_rejected(self):
        report = run_experiment(ExperimentConfig(master_seed=1, tasks=[]))
        with pytest.raises(ConfigError):
            emit_report(report, "xml")


class TestEmitPlotData:
    def test_quantiles_columns(self):
        cfg = parse_config(
            "master_seed = 3\n[task]\nkind = quantiles\nfamily = limit\nS = 10\n"
            "grid = 0:3:5\ntrials = 2000\n"
        )
        report = run_experiment(cfg)
        text = emit_plot_data(report, "task0").decode()
        lines = text.splitlines()
        assert lines[0] == "# threshold cdf cdf_low cdf_high"
        assert len(lines) == 6
        assert all(len(line.split()) == 4 for line in lines[1:])

    def test_mean_sweep_columns(self):
        cfg = parse_config("master_seed = 3\n[task]\nkind = asymptotic-mean\nS = 2,10,50\ntrials = 2000\n")
        report = run_experiment(cfg)
        lines = emit_plot_data(report, "task0").decode().splitlines()
        assert lines[0] == "# S mean expected"
        assert len(lines) == 4

    def test_falsify_sweep_columns(self):
        cfg = parse_config(
            "master_seed = 3\n[task]\nkind = falsify\nbound = agrawal\nS = 10\n"
            "n = 1000\ndelta = 0.1,0.05,0.01\ntrials = 500\n"
        )
        report = run_experiment(cfg)
        lines = emit_plot_data(report, "task0").decode().splitlines()
        assert lines[0] == "# delta point ci_low ci_high claimed"
        assert len(lines) == 4

    def test_unknown_task_rejected(self):
        report = run_experiment(ExperimentConfig(master_seed=1, tasks=[]))
        with pytest.raises(ConfigError):
            emit_plot_data(report, "nope")
