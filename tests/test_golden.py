"""Pinned reports: a fixed config must keep producing the same bytes.

``data/golden.ini`` covers every task kind and every source family, with
multinomial thresholds on the l1 lattice.  Its JSON and CSV reports are
stored beside it; regenerate them only when a change is meant to alter the
draws or the report format.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from l1conc.experiment import emit_report, parse_config, run_experiment

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
