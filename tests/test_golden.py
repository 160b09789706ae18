"""Pinned reports: a fixed config must keep producing the same bytes.

``data/golden.ini`` covers every task kind, every source family and every
multinomial chunk method, with multinomial thresholds on the l1 lattice.  Its JSON and CSV reports are
stored beside it; regenerate them only when a change is meant to alter the
draws or the report format.  Each row depends on its own task and the master
seed alone, so it replays from its task's echo, and moving tasks about
changes no row.  The Python API draws each law from the same key, so it
gives every tail, quantiles and falsify row as well.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from l1conc import montecarlo
from l1conc.bounds import BoundFamily, BoundSpec
from l1conc.experiment import (
    TASK_KEYS,
    TASK_KINDS,
    emit_report,
    parse_config,
    read_blocks,
    run_experiment,
)
from l1conc.montecarlo import (
    DeviationSource,
    estimate_quantile_curve,
    estimate_tail_probability,
    falsify_bound,
)

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def config():
    return parse_config((DATA / "golden.ini").read_text())


@pytest.mark.parametrize("workers", [1, 2])
def test_report_bytes_match_golden(config, workers):
    report = run_experiment(replace(config, workers=workers))
    assert emit_report(report, "json") == (DATA / "golden.json").read_bytes()
    assert emit_report(report, "csv") == (DATA / "golden.csv").read_bytes()


def _chunk_method(S: int, n: int) -> str:
    if n <= montecarlo._COUNTING_RATIO * S:
        return "counted"
    if S >= montecarlo._POISSON_MIN_S and n <= montecarlo._POISSON_MAX_RATIO * S * S:
        return "poissonized"
    return "chained"


def test_golden_covers_every_kind_and_family(config):
    assert {t["kind"] for t in config.tasks} == {"tail", "quantiles", "falsify",
                                                  "asymptotic-mean"}
    assert {t["family"] for t in config.tasks} == {"multinomial", "dirichlet", "limit"}
    # and one multinomial law of each chunk method, read from its cutoffs
    methods = [_chunk_method(S, t["n"]) for t in config.tasks if t["family"] == "multinomial"
               for S in t["S"]]
    assert set(methods) == {"counted", "poissonized", "chained"}, methods


def test_a_task_is_its_config_keys_and_its_echo(config):
    # a parsed task holds its id, its kind and every task key: each key its
    # block sets at its parsed value, each other at its default (a family at
    # its kind's first); the report echoes the task as it is
    _, blocks = read_blocks((DATA / "golden.ini").read_text())
    for i, (task, block) in enumerate(zip(config.tasks, blocks, strict=True)):
        assert set(task) == {"id", "kind", *TASK_KEYS}
        assert (task["id"], task["kind"]) == (f"task{i}", block["kind"])
        unset = {key: spec.default for key, spec in TASK_KEYS.items() if key not in block}
        unset["family"] = block.get("family", TASK_KINDS[block["kind"]].families[0])
        assert {key: task[key] for key in unset} == unset
    report = run_experiment(replace(config, workers=1))
    assert json.loads(json.dumps(report.tasks)) == config.tasks


def test_rows_hold_plain_python_values(config):
    for row in run_experiment(replace(config, workers=1)).rows:
        for key, value in row.items():
            assert type(value) in (type(None), str, int, float), (key, type(value))


def _rows_by_task(rows):
    by_task = {}
    for row in rows:
        by_task.setdefault(row["task_id"], []).append({**row, "task_id": None})
    return by_task


def _echo_config(seed, echo):
    # a one-task config holding every key the echoed task's kind and family use
    lines = [f"master_seed = {seed}", "[task]", f"kind = {echo['kind']}"]
    for key, spec in TASK_KEYS.items():
        value = echo[key]
        if isinstance(value, list):
            value = ",".join(map(repr, value)) or None
        if echo["kind"] in spec.kinds and echo["family"] in spec.families and value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def test_every_row_replays_from_its_task_echo():
    golden = json.loads((DATA / "golden.json").read_text())
    by_task = _rows_by_task(golden["rows"])
    for echo in golden["tasks"]:
        alone = run_experiment(parse_config(_echo_config(golden["master_seed"], echo)))
        assert _rows_by_task(alone.rows)["task0"] == by_task[echo["id"]], echo["id"]


def test_reversed_task_order_changes_no_row():
    head, *blocks = (DATA / "golden.ini").read_text().split("[task]\n")
    report = run_experiment(parse_config(head + "".join(f"[task]\n{b}" for b in blocks[::-1])))
    golden = _rows_by_task(json.loads((DATA / "golden.json").read_text())["rows"])
    last = len(blocks) - 1
    assert {f"task{last - int(task_id[4:])}": rows
            for task_id, rows in _rows_by_task(report.rows).items()} == golden


def test_every_tail_quantiles_and_falsify_row_replays_from_the_api():
    # the API's default stream is the law's key, as the runner's is, so one
    # call per cell gives the row's point and interval
    golden = json.loads((DATA / "golden.json").read_text())
    seed, by_task = golden["master_seed"], _rows_by_task(golden["rows"])
    replayed = 0
    for task in golden["tasks"]:
        if task["kind"] == "asymptotic-mean":  # no estimator of the API writes a mean row
            continue
        [S] = task["S"]
        source = DeviationSource(task["family"], S, n=task["n"], D=task["D"])
        if task["kind"] == "tail":
            estimates = [estimate_tail_probability(source, t, task["trials"], seed,
                                                   ci_level=task["ci_level"])
                         for t in task["threshold"]]
            got = [(e.point, e.ci_low, e.ci_high) for e in estimates]
        elif task["kind"] == "quantiles":
            curve = estimate_quantile_curve(source, task["grid"], task["trials"], seed,
                                            band_level=task["band_level"])
            half = curve.dkw_halfwidth
            got = [(cdf, max(0.0, cdf - half), min(1.0, cdf + half))
                   for cdf in curve.cdf_estimates.tolist()]
        else:
            verdicts = [falsify_bound(BoundSpec(BoundFamily(task["bound"]),
                                                task["n"], S, delta),
                                      task["trials"], seed, family=task["family"],
                                      ci_level=task["ci_level"])
                        for delta in task["delta"]]
            got = [(v.estimate.point, v.estimate.ci_low, v.estimate.ci_high) for v in verdicts]
            assert [v.outcome for v in verdicts] == [r["outcome"] for r in by_task[task["id"]]]
        want = [(r["point"], r["ci_low"], r["ci_high"]) for r in by_task[task["id"]]]
        assert got == want, task["id"]
        replayed += len(got)
    assert replayed == 17
