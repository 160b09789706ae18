"""Pinned reports: a fixed config must keep producing the same bytes.

``data/golden.ini`` covers every task kind and every source family, with
multinomial thresholds on the l1 lattice.  Its JSON and CSV reports are
stored beside it; regenerate them only when a change is meant to alter the
draws or the report format.  Each row depends on its own task and the master
seed alone, so it replays from its task's echo, and moving tasks about
changes no row.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from l1conc.experiment import TASK_KEYS, emit_report, parse_config, run_experiment

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def config():
    return parse_config((DATA / "golden.ini").read_text())


@pytest.mark.parametrize("workers", [1, 2])
def test_report_bytes_match_golden(config, workers):
    report = run_experiment(replace(config, workers=workers))
    assert emit_report(report, "json") == (DATA / "golden.json").read_bytes()
    assert emit_report(report, "csv") == (DATA / "golden.csv").read_bytes()


def test_golden_covers_every_kind_and_family(config):
    assert {t.kind for t in config.tasks} == {"tail", "quantiles", "falsify",
                                               "asymptotic-mean"}
    assert {t.family for t in config.tasks} == {"multinomial", "dirichlet", "limit"}


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
