import csv
import io
import json
import threading
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import norm

from l1conc import montecarlo
from l1conc.bounds import BoundFamily, BoundSpec, evaluate_bound
from l1conc.errors import ConfigError
from l1conc.experiment import (
    COLUMNS,
    ExperimentConfig,
    Report,
    _cell_rows,
    _task_cells,
    emit_plot_data,
    emit_report,
    parse_config,
    report_from_dict,
    run_experiment,
)
from l1conc.montecarlo import (
    DeviationSource,
    SampleRequest,
    classify_verdict,
    summarize_many,
    tail_estimate_from_count,
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
        assert task["kind"] == "falsify"
        assert task["trials"] == 1000
        assert task["ci_level"] == 0.95
        assert task["D"] == 1.0
        assert task["family"] == "multinomial"

    def test_default_trials(self):
        cfg = parse_config("master_seed = 1\n[task]\nkind = asymptotic-mean\nS = 5\n")
        assert cfg.tasks[0]["trials"] == 10_000

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
        assert [t["trials"] for t in cfg.tasks] == [1000, 1000]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(MINIMAL_FALSIFY + "bogus = 3\n")

    def test_multiple_errors_reported_together(self):
        bad = "master_seed = 1\n[task]\nkind = falsify\nS = 1\ndelta = 2.0\nn = 10\nbound = agrawal\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        msg = str(exc.value)
        assert "task[0].S" in msg and "task[0].delta" in msg

    def test_every_bad_key_reported_in_order(self):
        # each parser stops at its key's first fault; the collectors go on
        # to every other key and task
        bad = ("master_seed = 1.5\n"
               "[task]\nkind = quantiles\nS = 3,x\nn = 10\ngrid = a:1:5\ntrials = 0\n"
               "[task]\nkind = falsify\nS = 3\nn = 100\nbound = nope\ndelta = 0.1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert str(exc.value) == (
            "master_seed: cannot parse '1.5'; task[0].S: cannot parse 'x'; "
            "task[0].grid: cannot parse 'a'; "
            "task[0].trials must be an integer >= 1 and < 2^62, got '0'; "
            "task[1].bound: unknown bound family 'nope'")

    def test_bad_master_seed_reported_with_every_other_bad_key(self):
        # the parser reads the seed against the domain of a 64-bit word, so a
        # seed outside it is one more fault of the config's one error
        for seed in ("-5", str(2**64)):
            with pytest.raises(ConfigError) as exc:
                parse_config(f"master_seed = {seed}\n[task]\nkind = asymptotic-mean\nS = 1\n")
            assert str(exc.value) == (
                f"master_seed must be an integer >= 0 and < 2^64, got {seed!r}; "
                "task[0].S must be an integer >= 2 and < 2^64, got '1'")
        # a config built through the API is checked by the runner
        with pytest.raises(ConfigError, match="master_seed must be an integer"):
            run_experiment(ExperimentConfig(master_seed=-5, tasks=[]))

    def test_sweep_longer_than_4096_values_runs(self):
        # sweeps have no length cap, and their rows come in order; every cell
        # here is one law, so all read the sample of task 0's first S
        S = ",".join(["5"] * 4097)
        rows = run_experiment(parse_config(
            f"master_seed = 1\n[task]\nkind = asymptotic-mean\nS = {S}\ntrials = 2\n"
            "[task]\nkind = asymptotic-mean\nS = 5\ntrials = 2\n")).rows
        assert [row["task_id"] for row in rows[4095:]] == ["task0", "task0", "task1"]
        assert rows[4096]["point"] == rows[4097]["point"] == rows[0]["point"]
        deltas = ",".join(["0.05"] * 4097)
        config = parse_config(f"master_seed = 1\n[task]\nkind = falsify\nbound = agrawal\n"
                              f"S = 2\nn = 10\ndelta = {deltas}\ntrials = 100\n")
        assert len(run_experiment(config).rows) == 4097

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

    def test_comments_and_grid(self):
        cfg = parse_config(
            "# experiment\nmaster_seed = 3\n[task]\nkind = quantiles\n"
            "family = limit\nS = 10\ngrid = 0:2:5\ntrials = 100\n"
        )
        assert cfg.tasks[0]["grid"] == [0.0, 0.5, 1.0, 1.5, 2.0]


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
        # every task kind; 7 chunks in all, so workers > 1 uses a pool
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
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 64)
        outputs = []
        threads = threading.active_count()
        for workers, expected_pools in ((1, []), (2, [2]), (3, [3])):
            pools.clear()
            cfg = parse_config(text)
            cfg.workers = workers
            outputs.append(emit_report(run_experiment(cfg), "json"))
            assert pools == expected_pools
            assert threading.active_count() == threads  # the pool's threads joined
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

    @pytest.mark.parametrize("level", [0.5, 0.95, 0.99, 0.999999])
    def test_asymptotic_mean_critical_value_is_normal_quantile(self, level):
        cfg = parse_config("master_seed = 5\n[task]\nkind = asymptotic-mean\nS = 10\n"
                           f"trials = 100\nci_level = {level}\n")
        task = cfg.tasks[0]
        [(request, rows)] = _task_cells(task, cfg.master_seed)
        # mean 0 and standard error exactly 1 put ci_high at the critical value
        t = request.trials
        summary = montecarlo.SampleSummary(np.zeros(0), np.zeros(0), t, 0.0, float(t * (t - 1)))
        [row] = _cell_rows(task, rows, summary)
        # the standard library's quantile, within an ulp or two of SciPy's
        z = NormalDist().inv_cdf(0.5 + task["ci_level"] / 2.0)
        assert row["ci_high"] == z == pytest.approx(norm.ppf(0.5 + task["ci_level"] / 2.0),
                                                    rel=1e-15)


def _law_tail(source, trials, seed, threshold, ci_level=0.95):
    # the tail estimate of one threshold on the sample of the law alone
    [summary] = summarize_many([SampleRequest(source, trials, thresholds=(threshold,))], seed)
    return tail_estimate_from_count(threshold, int(summary.at_least[0]), trials, ci_level)


def _law_draws(source, trials, seed):
    # the raw draws of the law's own sample, in chunk order
    chunks = montecarlo._map_chunks(montecarlo._draw_chunk, [SampleRequest(source, trials)],
                                    seed, 1)
    return np.concatenate(list(chunks))


def _laws_drawn(monkeypatch, text):
    # the laws a run's sample reduction draws, each with its requests (one per
    # trial count, longest first), and the run's report
    seen = []

    def recording(fn, requests, master_seed, workers):
        seen.append(list(requests))
        return map_chunks(fn, requests, master_seed, workers)

    map_chunks = montecarlo._map_chunks
    monkeypatch.setattr(montecarlo, "_map_chunks", recording)
    report = run_experiment(parse_config(text))
    [requests] = seen
    return requests, report


class TestFalsifySweep:
    # a 3-delta falsify task behind a tail task of another law
    TEXT = ("master_seed = 13\n"
            "[task]\nkind = tail\nS = 3\nn = 12\nthreshold = 0.25\ntrials = 200\n"
            "[task]\nkind = falsify\nbound = agrawal\nS = 3\nn = 100\n"
            "delta = 0.9,0.5,0.1\ntrials = 3000\n")

    def test_one_request_per_task(self, monkeypatch):
        laws, _ = _laws_drawn(monkeypatch, self.TEXT)
        [falsify] = [law for law in laws if law.source.n == 100]
        [request] = falsify.requests
        assert len(request.thresholds) == 3 and falsify.stream == 0

    def test_counts_non_increasing_in_epsilon(self):
        rows = [row for row in run_experiment(parse_config(self.TEXT)).rows
                if row["kind"] == "falsify"]
        assert [row["delta"] for row in rows] == [0.9, 0.5, 0.1]
        ranked = sorted(rows, key=lambda row: row["epsilon"])
        counts = [round(row["point"] * row["trials"]) for row in ranked]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1] > 0  # the epsilons really separate the counts

    def test_rows_equal_single_spec_falsification(self):
        cfg = parse_config(self.TEXT)
        task = cfg.tasks[1]
        rows = [row for row in run_experiment(cfg).rows if row["kind"] == "falsify"]
        source = DeviationSource("multinomial", 3, n=100)
        for row, delta in zip(rows, task["delta"], strict=True):
            epsilon = evaluate_bound(BoundSpec(task["bound"], task["n"], 3, delta)).epsilon
            est = _law_tail(source, task["trials"], cfg.master_seed, epsilon)
            assert (row["epsilon"], row["point"], row["ci_low"], row["ci_high"],
                    row["outcome"]) == (epsilon, est.point, est.ci_low, est.ci_high,
                                        classify_verdict(est, delta))


def test_falsify_row_is_the_tail_row_at_its_epsilon():
    # a falsify task, then a tail task of the same law at its epsilons
    epsilons = [evaluate_bound(BoundSpec(BoundFamily.WEISSMAN_EXACT, 100, 5, delta)).epsilon
                for delta in (0.9, 0.5)]
    text = ("master_seed = 23\n"
            "[task]\nkind = falsify\nbound = weissman-exact\nS = 5\nn = 100\n"
            "delta = 0.9,0.5\ntrials = 2000\n"
            "[task]\nkind = tail\nS = 5\nn = 100\ntrials = 2000\n"
            f"threshold = {','.join(map(repr, epsilons))}\n")
    rows = run_experiment(parse_config(text)).rows
    falsify, tail = rows[:2], rows[2:]
    assert [row["epsilon"] for row in falsify] == epsilons
    assert [row["outcome"] for row in tail] == [None, None]
    keys = ("threshold", "point", "ci_low", "ci_high")
    for f_row, t_row in zip(falsify, tail, strict=True):
        assert [f_row[key] for key in keys] == [t_row[key] for key in keys]
    assert tail[0]["point"] > tail[1]["point"] > 0


class TestSharedLaw:
    # four tasks of one law (multinomial, S = 5, n = 100, 20000 trials, two
    # chunks): two falsify bounds, a tail and a quantiles task
    FIRST = ("[task]\nkind = falsify\nbound = weissman-exact\nS = 5\nn = 100\n"
             "delta = 0.9,0.5\ntrials = 20000\n")
    TEXT = ("master_seed = 19\n" + FIRST
            + "[task]\nkind = falsify\nbound = agrawal\nS = 5\nn = 100\n"
            "delta = 0.9,0.5,0.1\ntrials = 20000\n"
            "[task]\nkind = tail\nS = 5\nn = 100\nthreshold = 0.15,0.3\ntrials = 20000\n"
            "[task]\nkind = quantiles\nS = 5\nn = 100\ngrid = 0.1,0.2\ntrials = 20000\n")

    def test_tasks_of_one_law_send_one_request(self, monkeypatch):
        # one law is drawn, holding each task's own request in config order
        [law], report = _laws_drawn(monkeypatch, self.TEXT)
        assert (law.trials, law.stream) == (20000, 0)
        epsilons = tuple(row["epsilon"] for row in report.rows if row["kind"] == "falsify")
        assert [(r.trials, r.thresholds, r.grid) for r in law.requests] == [
            (20000, epsilons[:2], ()), (20000, epsilons[2:], ()), (20000, (0.15, 0.3), ()),
            (20000, (), (0.1, 0.2))]

    def test_first_task_rows_unchanged(self):
        alone = run_experiment(parse_config("master_seed = 19\n" + self.FIRST)).rows
        assert run_experiment(parse_config(self.TEXT)).rows[:2] == alone

    def test_later_tasks_read_the_first_task_stream(self):
        # every task reads the law's own sample, as the first one does
        cfg = parse_config(self.TEXT)
        rows = run_experiment(cfg).rows
        task = cfg.tasks[1]
        source = DeviationSource("multinomial", 5, n=100)
        agrawal = [row for row in rows if row["task_id"] == "task1"]
        for row, delta in zip(agrawal, task["delta"], strict=True):
            epsilon = evaluate_bound(BoundSpec(task["bound"], task["n"], 5, delta)).epsilon
            est = _law_tail(source, task["trials"], cfg.master_seed, epsilon)
            assert (row["epsilon"], row["point"], row["ci_low"], row["ci_high"],
                    row["outcome"]) == (epsilon, est.point, est.ci_low, est.ci_high,
                                        classify_verdict(est, delta))
        assert 0 < agrawal[-1]["point"] < agrawal[0]["point"] < 1
        tail = [row for row in rows if row["task_id"] == "task2"]
        for row, threshold in zip(tail, (0.15, 0.3), strict=True):
            est = _law_tail(source, 20000, cfg.master_seed, threshold)
            assert (row["point"], row["ci_low"], row["ci_high"]) == (
                est.point, est.ci_low, est.ci_high)
        x = _law_draws(source, 20000, cfg.master_seed)
        assert [row["point"] for row in rows if row["task_id"] == "task3"] == [
            (x <= g).sum() / 20000 for g in (0.1, 0.2)]

    def test_other_laws_stay_separate(self, monkeypatch):
        text = ("master_seed = 19\n" + self.FIRST
                + self.FIRST.replace("trials = 20000", "trials = 3000")
                + self.FIRST.replace("[task]\n", "[task]\nfamily = dirichlet\n")
                + "[task]\nkind = tail\nfamily = limit\nS = 5\nthreshold = 1\ntrials = 500\n"
                "[task]\nkind = tail\nfamily = limit\nS = 5\nD = 2\nthreshold = 1\n"
                "trials = 700\n"
                "[task]\nkind = asymptotic-mean\nS = 5,5,10\ntrials = 500\n")
        laws, _ = _laws_drawn(monkeypatch, text)
        # family and S part laws; D and trials do not: the 3000-trial task
        # reads the first 3000 draws of the 20000-trial multinomial sample,
        # task 4 (D = 2, 700 trials) and the mean sweep's S = 5 cells read
        # the S = 5 limit sample, drawn at 700 trials; its S = 10 is new
        assert [(law.source.family, law.source.S, law.trials, law.stream)
                for law in laws] == [("multinomial", 5, 20000, 0),
                                     ("dirichlet", 5, 20000, 0),
                                     ("limit", 5, 700, 0),
                                     ("limit", 10, 500, 0)]
        # each law holds its cells' own requests, longest first, at their own
        # D and thresholds
        assert [[(r.trials, r.source.D, len(r.thresholds)) for r in law.requests]
                for law in laws] == [
            [(20000, 1.0, 2), (3000, 1.0, 2)], [(20000, 1.0, 2)],
            [(700, 2.0, 1), (500, 1.0, 1), (500, 1.0, 0), (500, 1.0, 0)], [(500, 1.0, 0)]]
        assert [r.thresholds for r in laws[2].requests[:2]] == [(1.0,), (1.0,)]

    def test_worker_count_invariance(self):
        outputs = []
        for workers in (1, 2):
            cfg = parse_config(self.TEXT)
            cfg.workers = workers
            outputs.append(emit_report(run_experiment(cfg), "json"))
        assert outputs[0] == outputs[1]


def test_rows_alone_equal_rows_beside_a_longer_task_of_their_law():
    # the Agrawal cell (50, 10^4) at 10,000 trials reads the first 10,000
    # draws of the 20,000 that a proven-bound task of its law draws, and its
    # rows are those it writes alone, byte for byte
    agrawal = ("[task]\nkind = falsify\nbound = agrawal\nS = 50\nn = 10000\n"
               "delta = 0.1,0.05,0.01\ntrials = 10000\n")
    longer = ("[task]\nkind = falsify\nbound = weissman-exact\nS = 50\nn = 10000\n"
              "delta = 0.1,0.01\ntrials = 20000\n")
    alone = run_experiment(parse_config("master_seed = 7\n" + agrawal))
    beside = run_experiment(parse_config("master_seed = 7\n" + longer + agrawal))
    assert json.dumps([{**row, "task_id": "task0"} for row in beside.rows[2:]]) == \
        json.dumps(alone.rows)
    assert [row["outcome"] for row in alone.rows] == ["Violated"] * 3


def test_a_task_in_front_leaves_the_rows_of_another_law_unchanged():
    # a Dirichlet tail task in front of a multinomial one draws its own law,
    # so the multinomial row is the one that task writes alone
    multinomial = "[task]\nkind = tail\nS = 10\nn = 100\nthreshold = 0.4\ntrials = 5000\n"
    dirichlet = multinomial.replace("[task]\n", "[task]\nfamily = dirichlet\n")
    [alone] = run_experiment(parse_config("master_seed = 5\n" + multinomial)).rows
    rows = run_experiment(parse_config("master_seed = 5\n" + dirichlet + multinomial)).rows
    assert rows[1] == {**alone, "task_id": "task1"}
    assert 0 < alone["point"] < 0.1 and rows[0]["family"] == "dirichlet"


class TestLimitLaw:
    # one limit law (S = 50, 20000 trials, two chunks) at D = 1, then at D = 2
    FIRST = "[task]\nkind = asymptotic-mean\nS = 50\ntrials = 20000\n"
    MEAN_AT_2 = FIRST.replace("S = 50\n", "S = 50\nD = 2\n")
    TEXT = ("master_seed = 23\n" + FIRST
            + "[task]\nkind = tail\nfamily = limit\nS = 50\nD = 2\nthreshold = 5,6.5\n"
            "trials = 20000\n"
            "[task]\nkind = quantiles\nfamily = limit\nS = 50\nD = 2\ngrid = 5,6,7\n"
            "trials = 20000\n" + MEAN_AT_2)

    def test_every_D_sends_one_request(self, monkeypatch):
        # one law is drawn, holding every cell's own request at its task's D,
        # the mean cell at D = 2 too
        [law], _ = _laws_drawn(monkeypatch, self.TEXT)
        assert (law.trials, law.stream) == (20000, 0)
        assert [(r.source.D, r.thresholds, r.grid) for r in law.requests] == [
            (1.0, (), ()), (2.0, (5.0, 6.5), ()), (2.0, (), (5.0, 6.0, 7.0)), (2.0, (), ())]

    def test_first_task_rows_unchanged(self):
        alone = run_experiment(parse_config("master_seed = 23\n" + self.FIRST)).rows
        assert run_experiment(parse_config(self.TEXT)).rows[:1] == alone

    def test_later_tasks_read_twice_the_D_1_sample(self):
        rows = run_experiment(parse_config(self.TEXT)).rows
        z = 2 * _law_draws(DeviationSource("limit", 50), 20000, 23)
        tail = [row for row in rows if row["task_id"] == "task1"]
        assert [round(row["point"] * 20000) for row in tail] == [
            int((z >= t).sum()) for t in (5, 6.5)]
        cdf = [row["point"] for row in rows if row["task_id"] == "task2"]
        assert cdf == [(z <= g).sum() / 20000 for g in (5, 6, 7)]
        assert 0 < cdf[0] < cdf[-1] < 1

    def test_mean_scales_exactly_by_a_power_of_two(self):
        # the D = 2 mean row reads the D = 1 moments times 2 and 4, which is
        # exactly what the same task draws alone (scaling by 2 rounds nothing)
        rows = run_experiment(parse_config(self.TEXT)).rows
        alone = run_experiment(parse_config("master_seed = 23\n" + self.MEAN_AT_2)).rows
        [first, later] = [row for row in rows if row["kind"] == "asymptotic-mean"]
        assert [later[key] for key in ("point", "ci_low", "ci_high")] == [
            2 * first[key] for key in ("point", "ci_low", "ci_high")]
        assert {**later, "task_id": "task0"} == alone[0]

    def test_worker_count_invariance_at_other_D(self):
        # at D = 1.5 the thresholds and grid points are divided by 1.5 where
        # each chunk is reduced, and the mean row multiplies the moments by it
        text = self.TEXT.replace("D = 2", "D = 1.5")
        outputs = []
        for workers in (1, 2):
            cfg = parse_config(text)
            cfg.workers = workers
            outputs.append(emit_report(run_experiment(cfg), "json"))
        assert outputs[0] == outputs[1]


class TestEmitReport:
    def test_empty_csv_is_header_only(self):
        report = run_experiment(ExperimentConfig(master_seed=1, tasks=[]))
        text = emit_report(report, "csv").decode()
        assert text == ",".join(COLUMNS) + "\n"

    def test_csv_row_fields(self):
        report = run_experiment(parse_config(MINIMAL_FALSIFY))
        lines = emit_report(report, "csv").decode().splitlines()
        assert len(lines) == 2
        cells = dict(zip(COLUMNS, lines[1].split(",")))
        assert cells["outcome"] in ("Violated", "Consistent", "Inconclusive")
        assert cells["task_id"] == "task0"
        assert cells["seed"] == "7"

    def test_csv_quotes_cells_holding_commas(self):
        row = {"task_id": "a,b", "kind": "tail", "point": [1, 2]}
        text = emit_report(Report(master_seed=1, tasks=[], rows=[row]), "csv").decode()
        header, cells = csv.reader(io.StringIO(text))
        assert len(cells) == len(COLUMNS) == 15
        got = dict(zip(header, cells))
        assert (got["task_id"], got["kind"], got["point"], got["seed"]) == (
            "a,b", "tail", "[1, 2]", "")

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
