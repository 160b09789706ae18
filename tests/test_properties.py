"""Property-based tests of the config parser, the report round trip, the
batch samplers, the chunk scheduler and the exact oracle."""

import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1conc import montecarlo
from l1conc.cli import main
from l1conc.deviation import l1_deviation
from l1conc.errors import ConfigError
from l1conc.experiment import (
    CSV_COLUMNS,
    FINITE_N,
    REQUIRED_KEYS,
    TASK_KEYS,
    TASK_KINDS,
    Report,
    emit_report,
    parse_config,
)
from l1conc.montecarlo import (
    SOURCE_FAMILIES,
    DeviationSource,
    SampleRequest,
    exact_tail_small,
    summarize_many,
)
from l1conc.sampling import (
    SIMPLEX_SUM_TOL,
    StreamKey,
    sample_dirichlet_batch,
    sample_multinomial_batch,
)

FAMILIES_OF = {
    "tail": SOURCE_FAMILIES,
    "quantiles": SOURCE_FAMILIES,
    "falsify": FINITE_N,
    "asymptotic-mean": ("limit",),
}


# fewest trials each kind accepts; other kinds take 1
MIN_TRIALS = {"falsify": 100, "asymptotic-mean": 2}


def used(kind: str, family: str, key: str) -> bool:
    spec = TASK_KEYS[key]
    return kind in spec.kinds and family in spec.families


def floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw).map(repr)


def comma_list(values):
    return st.lists(values, min_size=1, max_size=4).map(",".join)


def unit_interval():
    return floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def grids(draw):
    if draw(st.booleans()):
        lo = draw(st.floats(-100.0, 100.0))
        width = draw(st.floats(0.01, 100.0))
        return f"{lo!r}:{lo + width!r}:{draw(st.integers(2, 50))}"
    points = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6, unique=True))
    return ",".join(map(repr, sorted(points)))


def value_text(kind: str, key: str):
    """Text of a valid value of ``key`` on a ``kind`` task."""
    return {
        "bound": st.sampled_from(["weissman-union", "WeissmanExact", "devroye", "agrawal"]),
        "S": comma_list(st.integers(2, 500).map(str)) if kind == "asymptotic-mean"
        else st.integers(2, 500).map(str),
        "n": st.integers(1, 10**6).map(str),
        "delta": comma_list(floats(0.0, 1.0, exclude_min=True)),
        "threshold": comma_list(floats(-10.0, 10.0)),
        "grid": grids(),
        "trials": st.integers(MIN_TRIALS.get(kind, 1), 10**7).map(str),
        "D": floats(1e-6, 1e6),
        "ci_level": unit_interval(),
        "band_level": unit_interval(),
    }[key]


@st.composite
def valid_tasks(draw, kind=None):
    """A ``key -> text`` block that parses, drawn from the key table."""
    kind = kind or draw(st.sampled_from(TASK_KINDS))
    family = draw(st.sampled_from(FAMILIES_OF[kind]))
    task = {"kind": kind, "family": family}
    required = set(REQUIRED_KEYS[kind]) | ({"n"} if family in FINITE_N else set())
    for key in TASK_KEYS:
        if key != "family" and used(kind, family, key) and (
                key in required or draw(st.booleans())):
            task[key] = draw(value_text(kind, key))
    return task


def config_text(seed: int, tasks: list[dict]) -> str:
    blocks = ["[task]\n" + "".join(f"{k} = {v}\n" for k, v in t.items()) for t in tasks]
    return f"master_seed = {seed}\n" + "".join(blocks)


def echo_to_block(echo: dict) -> dict:
    """The config block of a task echo: every set key its task uses."""
    block = {"kind": echo["kind"]}
    for key in TASK_KEYS:
        value = echo[key]
        if value not in (None, []) and used(echo["kind"], echo["family"], key):
            block[key] = ",".join(map(repr, value)) if isinstance(value, list) else value
    return block


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), tasks=st.lists(valid_tasks(), min_size=1, max_size=3))
def test_config_echo_round_trip(seed, tasks):
    echoes = [t.echo() for t in parse_config(config_text(seed, tasks)).tasks]
    again = parse_config(config_text(seed, [echo_to_block(e) for e in echoes]))
    assert [t.echo() for t in again.tasks] == echoes


UNUSED = [(kind, family, key) for kind in TASK_KINDS for family in SOURCE_FAMILIES
          for key in TASK_KEYS if not used(kind, family, key)]


@pytest.mark.parametrize("kind,family,key", UNUSED)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_unused_key_is_config_error(kind, family, key, data):
    task = data.draw(valid_tasks(kind))
    task["family"] = family
    task[key] = data.draw(value_text(kind, key))
    with pytest.raises(ConfigError, match=rf"task\[0\]\.{key}: not used by"):
        parse_config(config_text(1, [task]))


cells = st.one_of(st.none(), st.integers(-2**62, 2**62), st.text(max_size=8),
                  st.floats(allow_nan=False))
rows = st.fixed_dictionaries({c: cells for c in CSV_COLUMNS})
task_echoes = st.dictionaries(st.text(max_size=6), st.one_of(cells, st.lists(cells, max_size=3)),
                              max_size=4)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**63), tasks=st.lists(task_echoes, max_size=3),
       rows=st.lists(rows, max_size=4), fmt=st.sampled_from(["json", "csv"]))
def test_report_reemit_byte_identical(seed, tasks, rows, fmt):
    report = Report(master_seed=seed, tasks=tasks, rows=rows)
    with tempfile.TemporaryDirectory() as tmp:
        saved, out = Path(tmp, "r.json"), Path(tmp, "out")
        saved.write_bytes(emit_report(report, "json"))
        code = main(["report", "--in", str(saved), "--format", fmt, "--out", str(out)])
        assert code in (0, 10)
        assert out.read_bytes() == emit_report(report, fmt)


keys = st.builds(StreamKey, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))


@settings(max_examples=100, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=8)
       .filter(lambda w: sum(w) > 0),
       n=st.integers(0, 10**6), size=st.integers(1, 40), key=keys)
def test_multinomial_rows_nonnegative_and_sum_to_n(weights, n, size, key):
    p = np.asarray(weights) / sum(weights)
    counts = sample_multinomial_batch(p, n, size, key)
    assert counts.shape == (size, len(weights))
    assert np.all(counts >= 0) and np.all(counts.sum(axis=1) == n)


@settings(max_examples=100, deadline=None)
@given(alpha=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
       size=st.integers(1, 40), key=keys)
def test_dirichlet_rows_on_simplex(alpha, size, key):
    x = sample_dirichlet_batch(alpha, size, key)
    assert x.shape == (size, len(alpha))
    assert np.all(x >= 0) and np.all(np.abs(x.sum(axis=1) - 1.0) <= SIMPLEX_SUM_TOL)


SCHEDULER_CHUNK = 16  # small chunks, so cheap requests still span several

sources = st.one_of(
    st.builds(DeviationSource, st.sampled_from(["multinomial", "dirichlet"]),
              st.integers(2, 6), n=st.integers(1, 50)),
    st.builds(DeviationSource, st.just("limit"), st.integers(2, 20), D=st.floats(0.5, 3.0)),
)
levels = st.lists(st.floats(0.0, 3.0), max_size=4)
requests = st.builds(SampleRequest, sources, st.integers(1, 5 * SCHEDULER_CHUNK),
                     st.integers(0, 1000), levels.map(tuple), levels.map(sorted).map(tuple))


@settings(max_examples=40, deadline=None)
@given(batch=st.lists(requests, min_size=1, max_size=4), seed=st.integers(0, 2**32),
       workers=st.sampled_from([1, 2]))
def test_summarize_many_equals_one_request_at_a_time(batch, seed, workers):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "CHUNK_SIZE", SCHEDULER_CHUNK)
        got = summarize_many(batch, seed, workers)
        want = [summarize_many([r], seed)[0] for r in batch]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.at_least, w.at_least) and np.array_equal(g.at_most, w.at_most)
        assert (g.count, g.mean, g.m2) == (w.count, w.mean, w.m2)


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(any),
       n=st.integers(1, 8), data=st.data())
def test_exact_oracle_equals_brute_force(weights, n, data):
    p = np.asarray(weights, dtype=float) / sum(weights)
    outcomes = [c for c in itertools.product(range(n + 1), repeat=len(p)) if sum(c) == n]
    stats = [l1_deviation(np.asarray(c) / float(n), p) for c in outcomes]
    # an attained value is an exact tie; a level in [0, 2.1] is usually none
    threshold = data.draw(st.one_of(st.sampled_from(stats), st.floats(0.0, 2.1)))
    want = sum(math.factorial(n) // math.prod(map(math.factorial, c))
               * math.prod(q ** k for q, k in zip(p.tolist(), c))
               for c, stat in zip(outcomes, stats) if stat >= threshold)
    assert exact_tail_small(p, n, float(threshold)) == pytest.approx(want, abs=1e-12)
