"""Property-based tests of the config parser and cell builder, the report
round trip, the batch samplers, the multinomial chunks of each method, the
chunk scheduler, the exact oracle, the Clopper-Pearson interval and the
domain of every public integer and real argument."""

import contextlib
import io
import itertools
import json
import operator
import re
import math
import numbers
import tempfile
from copy import deepcopy
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaincinv
from scipy.stats import binom

from l1conc import montecarlo
from l1conc.asymptotic import anticoncentration_threshold, expected_Z, sample_Z_batch
from l1conc.bounds import BoundFamily, BoundSpec, agrawal_epsilon, devroye_valid, evaluate_bound
from l1conc.cli import main
from l1conc.errors import CapacityError, ConfigError, ValidationError
from l1conc.experiment import (
    COLUMNS,
    FINITE_N,
    TASK_KEYS,
    TASK_KINDS,
    Report,
    Sample,
    _task_cells,
    build_task,
    emit_report,
    parse_config,
    task_block,
)
from l1conc.montecarlo import (
    SOURCE_FAMILIES,
    DeviationSource,
    SampleRequest,
    clopper_pearson,
    dkw_halfwidth,
    draw_samples,
    estimate_quantile_curve,
    estimate_tail_probability,
    exact_tail_small,
    falsify_bound,
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
    kind = kind or draw(st.sampled_from(list(TASK_KINDS)))
    family = draw(st.sampled_from(FAMILIES_OF[kind]))
    task = {"kind": kind, "family": family}
    required = set(TASK_KINDS[kind].required) | ({"n"} if family in FINITE_N else set())
    for key in TASK_KEYS:
        if key != "family" and used(kind, family, key) and (
                key in required or draw(st.booleans())):
            task[key] = draw(value_text(kind, key))
    return task


def config_text(seed: int, tasks: list[dict]) -> str:
    blocks = ["[task]\n" + "".join(f"{k} = {v}\n" for k, v in t.items()) for t in tasks]
    return f"master_seed = {seed}\n" + "".join(blocks)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), tasks=st.lists(valid_tasks(), min_size=1, max_size=3))
def test_config_echo_round_trip(seed, tasks):
    echoes = parse_config(config_text(seed, tasks)).tasks
    again = parse_config(config_text(seed, [task_block(e) for e in echoes]))
    assert again.tasks == echoes


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


# integers at and beyond every limit a task meets: 2^62 (trials), 2^63 (the
# int64 lattice), 2^64 (a counter word) and the range of a float
huge = st.one_of(st.integers(-3, 2**66), st.integers(-10**400, 10**400),
                 st.sampled_from([2**62, 2**63, 2**64 - 1, 2**64, 10**308, 10**400]))


def wild_text(kind: str, key: str):
    """Text of any value of ``key``: a valid one, huge integers or any float."""
    wild = st.one_of(huge.map(str), st.floats().map(repr))
    if key == "S" and kind == "asymptotic-mean":
        wild = comma_list(huge.map(str))
    elif key in ("delta", "threshold"):
        wild = st.one_of(wild, comma_list(st.floats().map(repr)))
    return st.one_of(value_text(kind, key), wild)


@st.composite
def wild_tasks(draw):
    """A ``key -> text`` block of the keys a task uses, and maybe one more,
    each maybe holding a value out of its range."""
    kind = draw(st.sampled_from(list(TASK_KINDS)))
    family = draw(st.sampled_from(FAMILIES_OF[kind]))
    task = {"kind": kind, "family": family}
    required = set(TASK_KINDS[kind].required) | ({"n"} if family in FINITE_N else set())
    for key in TASK_KEYS:
        if key != "family" and used(kind, family, key) and (
                key in required or draw(st.booleans())):
            task[key] = draw(wild_text(kind, key))
    if draw(st.booleans()):  # any key, maybe one the task does not use
        key = draw(st.sampled_from([key for key in TASK_KEYS if key != "family"]))
        task[key] = draw(wild_text(kind, key))
    return task


@settings(max_examples=300, deadline=None)
@given(raw=wild_tasks())
def test_task_parser_and_cells_raise_only_documented_errors(raw):
    # a block is parsed, and one that parses is turned into its cells'
    # requests and rows, each holding every column but its sample cells;
    # nothing is drawn
    errors = []
    try:
        task = build_task(0, raw, errors)
        if not errors:
            for _, rows in _task_cells(task, 1):
                assert all(tuple(row) == COLUMNS and row["point"] is None for row in rows)
    except (ConfigError, ValidationError):
        pass


numeric_cells = st.one_of(st.none(), st.integers(-2**62, 2**62), st.floats(allow_nan=False))
text_cells = st.one_of(st.none(), st.text(max_size=8))
cells = st.one_of(numeric_cells, text_cells)
GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "golden.json").read_text())


@st.composite
def golden_edits(draw):
    """The golden report with one key of a task echo, or one cell of a row,
    deleted or set to a drawn value: any cell or list of cells, or the value
    the key holds in another golden task or row; then the edited row (None
    for a task edit) and the key."""
    report, row = deepcopy(GOLDEN), None
    if draw(st.booleans()):
        target = draw(st.sampled_from(report["tasks"]))
        key = draw(st.sampled_from([*TASK_KEYS, "id", "kind", "extra"]))
        others = [task[key] for task in GOLDEN["tasks"] if key in task]
    else:
        target = row = draw(st.sampled_from(report["rows"]))
        key = draw(st.sampled_from(list(COLUMNS)))
        others = [other[key] for other in GOLDEN["rows"]]
    if key in target and draw(st.integers(0, 9)) == 0:
        del target[key]
    else:
        values = [cells, st.lists(cells, max_size=3)] + [st.sampled_from(others)] * bool(others)
        target[key] = draw(st.one_of(values))
    return report, row, key


@settings(max_examples=150, deadline=None)
@given(edit=golden_edits(), fmt=st.sampled_from(["json", "csv"]))
def test_report_reemit_byte_identical(edit, fmt):
    # a report read back is one the runner could write: an edit to a task echo
    # or a row cell either re-emits byte for byte or is refused with exit 1
    # and one error line; a report holding an infinite float is refused in
    # either format, whether emitted from memory or re-read from a file whose
    # bare Infinity tokens json.load takes.  A row is the row its task makes
    # but for its sample cells, taken as saved if finite floats: a re-emitted
    # row edit set one of them or left the report as it was, and a sample
    # cell set to a finite float re-emits unless it moves a falsify verdict
    saved, row, key = edit
    report = Report(master_seed=saved["master_seed"], tasks=saved["tasks"], rows=saved["rows"],
                    version=saved["version"])
    text = json.dumps(saved, indent=2, sort_keys=True) + "\n"
    try:
        json.dumps(saved, allow_nan=False)
        finite = True
    except ValueError:  # an infinite float
        finite = False
    with tempfile.TemporaryDirectory() as tmp:
        path, out, err = Path(tmp, "r.json"), Path(tmp, "out"), io.StringIO()
        path.write_text(text)
        with contextlib.redirect_stderr(err):
            code = main(["report", "--in", str(path), "--format", fmt, "--out", str(out)])
        if code == 1:
            assert not out.exists()
            assert err.getvalue().startswith("error:") and len(err.getvalue().splitlines()) == 1
        else:
            assert code in (0, 10) and err.getvalue() == ""
            assert out.read_bytes() == (text.encode() if fmt == "json" else emit_report(report, fmt))
    if row is not None and code != 1:
        assert key in Sample._fields or saved == GOLDEN
    if (row is not None and key in Sample._fields and type(row.get(key)) is float
            and math.isfinite(row[key]) and (row["kind"] != "falsify" or key == "point")):
        assert code in (0, 10)
    if not finite:
        assert code == 1
        with pytest.raises(ConfigError, match="not finite"):
            emit_report(report, fmt)


words = st.integers(0, 2**64 - 1)
keys = st.builds(StreamKey, words, words, words, words)


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
    if sum(alpha) < 1 - SIMPLEX_SUM_TOL:  # every gamma of a row could underflow to 0
        with pytest.raises(ValidationError, match="sum"):
            sample_dirichlet_batch(alpha, size, key)
        return
    x = sample_dirichlet_batch(alpha, size, key)
    assert x.shape == (size, len(alpha))
    assert np.all(x >= 0) and np.all(np.abs(x.sum(axis=1) - 1.0) <= SIMPLEX_SUM_TOL)


@settings(max_examples=100, deadline=None)
@given(S=st.integers(2, 64), size=st.integers(1, 300), key=keys, data=st.data())
def test_counted_multinomial_L_on_its_lattice(S, size, key, data):
    # n <= 5·S tallies categories, in blocks of 2^15 // (n + S) rows; L is
    # twice the excess above the mean, least when the counts differ by at
    # most 1 (r of them one above n // S) and most when one category holds n
    n = data.draw(st.integers(1, montecarlo._COUNTING_RATIO * S), label="n")
    L = montecarlo._multinomial_L(key, S, n, size)
    r = n % S
    assert L.dtype == np.int64 and np.all(L % 2 == 0)
    assert np.all((2 * r * (S - r) <= L) & (L <= 2 * n * (S - 1)))
    assert np.array_equal(montecarlo._multinomial_L(key, S, n, size), L)


@st.composite
def multinomial_laws(draw):
    """(S, n) in one of the three regimes of ``_multinomial_L``, each as likely."""
    counting, ratio, least = (montecarlo._COUNTING_RATIO, montecarlo._POISSON_MAX_RATIO,
                              montecarlo._POISSON_MIN_S)
    regime = draw(st.sampled_from(["counted", "poissonized", "chained"]))
    if regime == "counted":
        S = draw(st.integers(2, 64))
        return S, draw(st.integers(1, counting * S))
    if regime == "poissonized":
        S = draw(st.integers(least, 64))
        return S, draw(st.integers(counting * S + 1, ratio * S * S))
    if draw(st.booleans()):  # below the least S of the band
        S = draw(st.integers(2, least - 1))
        return S, draw(st.integers(counting * S + 1, 128 * S))
    S = draw(st.integers(least, 64))
    return S, draw(st.integers(ratio * S * S + 1, 2 * ratio * S * S))


@settings(max_examples=100, deadline=None)
@given(mu=st.floats(1.0, 1000.0), data=st.data())
def test_guide_lookup_equals_searchsorted(mu, data):
    # Poisson counts read through the guide table equal the plain search of
    # the CDF, at 0, at 1 − 2^-53, at the edge j/m of every guide cell, at
    # every breakpoint of the CDF and its two float neighbours, and at drawn
    # uniforms
    cdf, guide, mixed = table = montecarlo._poisson_table(mu)
    m = guide.size
    assert m & (m - 1) == 0 and mixed.size == m
    inside = cdf[cdf < 1.0]
    drawn = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=64), label="u")
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], np.arange(m) / m, inside,
                        np.nextafter(inside, 0.0), np.nextafter(inside, 1.0), drawn])
    u = u[u < 1.0]
    want = np.searchsorted(cdf, u, side="right")
    assert np.array_equal(montecarlo._poisson_counts(u.copy(), *table), want)


@settings(max_examples=60, deadline=None)
@given(law=multinomial_laws(), key=keys)
def test_multinomial_L_has_its_law_in_every_regime(law, key):
    # L is even (twice the excess above the mean), at most 2n(S − 1) (one
    # category holds n), and its mean over 3000 rows lies within 6 standard
    # errors (a false alarm about once in 5·10^8 examples) of
    # E[L] = S·E|S·c − n|, c ~ Binomial(n, 1/S), the chain's law
    S, n = law
    size = 3000
    L = montecarlo._multinomial_L(key, S, n, size)
    assert L.dtype == np.int64 and np.all(L % 2 == 0)
    assert np.all((0 <= L) & (L <= 2 * n * (S - 1)))
    k = np.arange(n + 1)
    mean = S * float(binom.pmf(k, n, 1 / S) @ np.abs(S * k - n))
    margin = 6 * L.std(ddof=1) / math.sqrt(size) + 1e-9 * mean
    assert abs(L.mean() - mean) <= margin, (S, n, L.mean(), mean, margin)


@st.composite
def chunk_sources(draw):
    """A source of each chunk method as likely: counted, Poissonized and
    chained multinomial laws, Dirichlet and limit."""
    method = draw(st.sampled_from(["multinomial", "dirichlet", "limit"]))
    if method == "multinomial":
        S, n = draw(multinomial_laws())
        return DeviationSource("multinomial", S, n=n)
    if method == "dirichlet":
        return DeviationSource("dirichlet", draw(st.integers(2, 64)), n=draw(st.integers(1, 10**4)))
    return DeviationSource("limit", draw(st.integers(2, 200)))


@settings(max_examples=60, deadline=None)
@given(source=chunk_sources(), seed=words, chunk=words,
       stream=st.integers(0, 2**62 - 1), m=st.integers(1, montecarlo.CHUNK_SIZE))
def test_chunk_is_a_prefix_of_the_full_chunk(source, seed, chunk, stream, m):
    # a chunk of m rows is the first m rows of the same chunk drawn whole,
    # so requests of one law with other trial counts can read one sample
    request = SampleRequest(source, montecarlo.CHUNK_SIZE, stream)
    full = montecarlo._draw_chunk(request, seed, chunk, montecarlo.CHUNK_SIZE)
    assert montecarlo._draw_chunk(request, seed, chunk, m).tobytes() == full[:m].tobytes()


@settings(max_examples=100, deadline=None)
@given(S=st.integers(2, 300), size=st.integers(1, 200), key=keys, j=st.integers(-30, 30),
       D=st.floats(1e-9, 1e9))
def test_limit_draws_scale_with_D(S, size, key, j, D):
    # the runner draws a limit law at D = 1 and reads every D off that sample:
    # D times a draw is the draw at D, exactly for a power of two
    G = key.generator().standard_normal((size, S))
    total = np.clip(G - G.mean(-1, keepdims=True), 0.0, None).sum(-1)
    z = sample_Z_batch(S, size, key)
    assert np.array_equal(2.0**j * z, total * (2.0**j / math.sqrt(S)))
    # sum·(D/sqrt(S)) and D·(sum·(1/sqrt(S))) differ by five roundings, so by at most 5 ulp
    want = total * (D / math.sqrt(S))
    assert np.all(np.abs(D * z - want) <= 5 * np.spacing(want))


SCHEDULER_CHUNK = 16  # small chunks, so cheap requests still span several

sources = st.one_of(
    st.builds(DeviationSource, st.sampled_from(["multinomial", "dirichlet"]),
              st.integers(2, 6), n=st.integers(1, 50)),
    st.builds(DeviationSource, st.just("limit"), st.integers(2, 20), D=st.floats(0.5, 3.0)),
)
levels = st.lists(st.floats(0.0, 3.0), max_size=4)
trial_counts = st.integers(1, 5 * SCHEDULER_CHUNK)
requests = st.builds(SampleRequest, sources, trial_counts,
                     st.integers(0, 1000), levels.map(tuple),
                     levels.map(sorted).map(tuple))


@settings(max_examples=40, deadline=None)
@given(batch=st.lists(requests, min_size=1, max_size=4), seed=st.integers(0, 2**32),
       workers=st.sampled_from([1, 2]), data=st.data())
def test_summarize_many_equals_one_request_at_a_time(batch, seed, workers, data):
    # a request's law may come back at another D (limit only) or scale, with
    # other points and, maybe, other trials; the batch draws each law once,
    # in any request order, at its longest request's trials
    for request in list(batch):
        if data.draw(st.booleans(), label="repeat"):
            D = data.draw(st.floats(0.5, 3.0), label="D") if request.source.n is None else 1.0
            source = replace(request.source, D=D, scale=data.draw(st.floats(0.25, 4.0)))
            trials = data.draw(st.one_of(st.just(request.trials), trial_counts), label="trials")
            batch.append(request._replace(source=source, trials=trials,
                                          thresholds=data.draw(levels.map(tuple)),
                                          grid=data.draw(levels.map(sorted).map(tuple))))
    batch = data.draw(st.permutations(batch), label="batch")
    laws = {(r.source.family, r.source.S, r.source.n, r.stream) for r in batch}
    drawn = []

    def recording(fn, requests, master_seed, workers):
        drawn.append(len(requests))
        return map_chunks(fn, requests, master_seed, workers)

    map_chunks = montecarlo._map_chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "CHUNK_SIZE", SCHEDULER_CHUNK)
        mp.setattr(montecarlo, "_map_chunks", recording)
        got = summarize_many(batch, seed, workers)
        want = [summarize_many([r], seed)[0] for r in batch]
    assert drawn == [len(laws)] + [1] * len(batch)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.at_least, w.at_least) and np.array_equal(g.at_most, w.at_most)
        assert (g.count, g.mean, g.m2) == (w.count, w.mean, w.m2)


@settings(max_examples=200, deadline=None)
@given(S=st.integers(1, 4), n=st.integers(1, 8), data=st.data())
def test_exact_oracle_equals_brute_force(S, n, data):
    outcomes = [c for c in itertools.product(range(n + 1), repeat=S) if sum(c) == n]
    lattice = [sum(abs(S * k - n) for k in c) for c in outcomes]  # l1 = L / (n S)
    # attained values are exact ties, and a decimal such as "0.9" must count
    # its lattice value; other floats in [0, 2.1] are usually no tie
    threshold = data.draw(st.one_of(
        st.sampled_from(lattice).map(lambda L: L / (n * S)),
        st.integers(0, 21).map(lambda k: float(f"{k // 10}.{k % 10}")),
        st.floats(0.0, 2.1)))
    want = Fraction(sum(math.factorial(n) // math.prod(map(math.factorial, c))
                        for c, L in zip(outcomes, lattice) if L / (n * S) >= threshold), S ** n)
    assert exact_tail_small(np.full(S, 1 / S), n, threshold) == pytest.approx(
        float(want), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(trials=st.integers(1, 10**6),
       level=st.one_of(st.floats(0.5, 1 - 1e-9), st.floats(1 - 1e-7, 1 - 1e-9)),
       data=st.data())
def test_clopper_pearson_contains_scipy_and_is_monotone(trials, level, data):
    # levels near 1 are drawn often: there 1 − alpha/2 rounds by up to 5e-9
    # relative of alpha/2, and the interval must still contain SciPy's
    # the few counts at either end, where the tails are steepest, and any count
    k = data.draw(st.one_of(st.integers(0, min(trials, 3)), st.integers(0, trials),
                            st.integers(max(0, trials - 3), trials)))
    lo, hi = clopper_pearson(k, trials, level)
    assert 0.0 <= lo <= k / trials <= hi <= 1.0
    alpha = 1 - level
    if k > 0:
        assert lo <= betaincinv(k, trials - k + 1, alpha / 2)
    if k < trials:
        assert hi >= betaincinv(k + 1, trials - k, 1 - alpha / 2)
        next_lo, next_hi = clopper_pearson(k + 1, trials, level)
        assert next_lo >= lo and next_hi >= hi


class Drawn(Exception):
    """Raised in place of the first draw, or the first stream set up."""


def _drawn(*args, **kwargs):
    raise Drawn


@contextlib.contextmanager
def _no_draws():
    # every draw and stream set-up raises Drawn, one chunk covers any trial
    # count, and the exact oracle's cap is small
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_draw_chunk", "_reduce_chunk"):
            mp.setattr(montecarlo, name, _drawn)
        mp.setattr(montecarlo, "CHUNK_SIZE", 2**62)
        mp.setattr(montecarlo, "MAX_EXACT_WORK", 10**6)
        mp.setattr(StreamKey, "generator", _drawn)
        yield


_GENERATOR = StreamKey.generator
_SOURCE = DeviationSource("multinomial", 3, n=10)
_SPEC = BoundSpec(BoundFamily.AGRAWAL, 100, 5, 0.1)


class IntegerArgument(NamedTuple):
    """A public integer argument: ``call(value)`` passes ``value`` for it and
    valid values for every other argument, and it admits the integers
    [lo, hi), hi None for no upper end."""

    name: str
    lo: int
    hi: int | None
    call: Callable


INTEGER_ARGUMENTS = [
    # a finite-n source also needs 2·S·n < 2^63, so its domains here are
    # what that leaves at n = 1, S = 2 and S = n
    IntegerArgument("source-limit-S", 2, 2**64, lambda v: DeviationSource("limit", v)),
    IntegerArgument("source-S", 2, 2**62, lambda v: DeviationSource("multinomial", v, n=1)),
    IntegerArgument("source-n", 1, 2**61, lambda v: DeviationSource("dirichlet", 2, n=v)),
    IntegerArgument("source-S-is-n", 2, 2**31, lambda v: DeviationSource("multinomial", v, n=v)),
    *(IntegerArgument(f"bound-{name}", lo, 2**64, lambda v, name=name: [
        evaluate_bound(BoundSpec(family, **{"n": 100, "S": 5, name: v}, delta=0.1))
        for family in BoundFamily]) for name, lo in (("n", 1), ("S", 2))),
    *(IntegerArgument(f"key-{name}", 0, 2**64, lambda v, name=name: StreamKey(
        **{"master_seed": 1, name: v})) for name in ("master_seed", "stream", "row", "chunk",
                                                      "law")),
    IntegerArgument("key-segment", 0, 2**32, lambda v: _GENERATOR(StreamKey(1), v)),
    IntegerArgument("summarize-trials", 1, 2**62,
                    lambda v: summarize_many([SampleRequest(_SOURCE, v)], 1)),
    IntegerArgument("summarize-stream", 0, 2**62,
                    lambda v: summarize_many([SampleRequest(_SOURCE, 10, v)], 1)),
    IntegerArgument("draw-trials", 1, 2**62, lambda v: draw_samples(_SOURCE, v, 1)),
    IntegerArgument("draw-stream", 0, 2**62, lambda v: draw_samples(_SOURCE, 10, 1, stream=v)),
    IntegerArgument("draw-workers", 1, None, lambda v: draw_samples(_SOURCE, 10, 1, workers=v)),
    IntegerArgument("tail-trials", 1, 2**62,
                    lambda v: estimate_tail_probability(_SOURCE, 0.5, v, 1)),
    IntegerArgument("tail-stream", 0, 2**62,
                    lambda v: estimate_tail_probability(_SOURCE, 0.5, 10, 1, stream=v)),
    IntegerArgument("curve-trials", 1, 2**62,
                    lambda v: estimate_quantile_curve(_SOURCE, [0.5], v, 1)),
    IntegerArgument("curve-workers", 1, None,
                    lambda v: estimate_quantile_curve(_SOURCE, [0.5], 10, 1, workers=v)),
    IntegerArgument("falsify-trials", 100, 2**62, lambda v: falsify_bound(_SPEC, v, 1)),
    IntegerArgument("falsify-stream", 0, 2**62,
                    lambda v: falsify_bound(_SPEC, 100, 1, stream=v)),
    IntegerArgument("clopper-pearson-trials", 1, 2**62, lambda v: clopper_pearson(0, v)),
    IntegerArgument("clopper-pearson-successes", 0, 11, lambda v: clopper_pearson(v, 10)),
    IntegerArgument("dkw-trials", 1, 2**62, lambda v: dkw_halfwidth(v, 0.05)),
    IntegerArgument("exact-n", 1, 2**64, lambda v: exact_tail_small([0.5, 0.5], v, 0.5)),
    IntegerArgument("agrawal-n", 1, 2**64, lambda v: agrawal_epsilon(v, 0.1)),
    IntegerArgument("devroye-S", 2, 2**64, lambda v: devroye_valid(v, 0.1)),
    IntegerArgument("expected-Z-S", 2, 2**64, expected_Z),
    IntegerArgument("anticoncentration-S", 2, 2**64,
                    lambda v: anticoncentration_threshold(v, 0.1)),
    IntegerArgument("limit-batch-S", 2, 2**64, lambda v: sample_Z_batch(v, 1, StreamKey(1))),
    IntegerArgument("limit-batch-size", 1, 2**62, lambda v: sample_Z_batch(5, v, StreamKey(1))),
    IntegerArgument("multinomial-batch-n", 0, 2**63,
                    lambda v: sample_multinomial_batch([0.5, 0.5], v, 1, StreamKey(1))),
    IntegerArgument("multinomial-batch-size", 1, 2**62,
                    lambda v: sample_multinomial_batch([0.5, 0.5], 1, v, StreamKey(1))),
    IntegerArgument("dirichlet-batch-size", 1, 2**62,
                    lambda v: sample_dirichlet_batch([0.5, 0.5], v, StreamKey(1))),
]


def integer_values(lo: int, hi: int | None):
    """Values at and one past each end of [lo, hi), ±10^400, NumPy integers
    at those ends and whose products wrap, floats and None."""
    ends = [lo - 1, lo] + ([] if hi is None else [hi - 1, hi])
    numpy_ends = [kind(v) for v in ends for kind in (np.int64, np.uint64)
                  if np.iinfo(kind).min <= v <= np.iinfo(kind).max]
    wrapping = [np.int64(2**40), np.int64(2**62), np.uint64(2**63), np.uint64(2**64 - 1)]
    return st.one_of(st.sampled_from(ends + [10**400, -10**400]),
                     st.sampled_from(numpy_ends + wrapping), st.integers(lo - 3, lo + 3),
                     st.floats(), st.just(float(lo)), st.none())


def _accepted(arg: IntegerArgument, value) -> bool:
    # True once the value passes every check: the call returns, reaches a
    # draw or a stream set-up, or meets the exact oracle's cap
    try:
        arg.call(value)
    except (Drawn, CapacityError):
        return True
    except ValidationError:
        return False
    return True


@pytest.mark.parametrize("arg", INTEGER_ARGUMENTS, ids=[a.name for a in INTEGER_ARGUMENTS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_arguments_admit_their_domain_alone(arg, data):
    # every draw and stream set-up raises Drawn, one chunk covers any trial
    # count, and the exact oracle's cap is small, so an accepted value
    # returns at once; a refused value must raise ValidationError before it
    # draws, and no other exception may escape
    value = data.draw(integer_values(arg.lo, arg.hi), label="value")
    with _no_draws():
        for edge in [arg.lo] + ([] if arg.hi is None else [arg.hi - 1]):
            assert _accepted(arg, edge), edge
        admitted = (isinstance(value, numbers.Integral) and arg.lo <= int(value)
                    and (arg.hi is None or int(value) < arg.hi))
        assert _accepted(arg, value) == admitted


@pytest.mark.parametrize("arg", INTEGER_ARGUMENTS, ids=[a.name for a in INTEGER_ARGUMENTS])
@pytest.mark.parametrize("value", [False, True])
def test_integer_arguments_refuse_bools(arg, value):
    # a bool is an Integral, but no integer argument takes one, even in its domain
    with _no_draws():
        assert not _accepted(arg, value)


class RealArgument(NamedTuple):
    """A public real argument: ``call(value)`` passes ``value`` for it and
    valid values for every other argument, and it admits the floats of
    ``interval``, written as its error message prints it."""

    name: str
    interval: str
    call: Callable


REAL_ARGUMENTS = [
    *(RealArgument(f"bound-delta-{family.value}", "(0, 1]", lambda v, family=family:
                   evaluate_bound(BoundSpec(family, 100, 5, v))) for family in BoundFamily),
    RealArgument("agrawal-delta", "(0, 1]", lambda v: agrawal_epsilon(100, v)),
    RealArgument("devroye-delta", "[0, inf)", lambda v: devroye_valid(5, v)),
    RealArgument("anticoncentration-delta", "(0, 1)",
                 lambda v: anticoncentration_threshold(50, v)),
    RealArgument("source-D", "(0, inf)", lambda v: DeviationSource("limit", 5, D=v)),
    *(RealArgument(f"source-scale-{family}", "(0, inf)", lambda v, family=family, n=n:
                   DeviationSource(family, 5, n=n, scale=v))
      for family, n in (("limit", None), ("multinomial", 10), ("dirichlet", 10))),
    RealArgument("clopper-pearson-level", "(0, 1)", lambda v: clopper_pearson(1, 10, v)),
    RealArgument("tail-threshold", "(-inf, inf)",
                 lambda v: estimate_tail_probability(_SOURCE, v, 10, 1)),
    RealArgument("tail-ci-level", "(0, 1)",
                 lambda v: estimate_tail_probability(_SOURCE, 0.5, 10, 1, ci_level=v)),
    RealArgument("curve-band-level", "(0, 1)",
                 lambda v: estimate_quantile_curve(_SOURCE, [0.5], 10, 1, band_level=v)),
    RealArgument("dkw-band-level", "(0, 1)", lambda v: dkw_halfwidth(10, v)),
    RealArgument("falsify-ci-level", "(0, 1)", lambda v: falsify_bound(_SPEC, 100, 1, ci_level=v)),
    RealArgument("exact-threshold", "(-inf, inf)",
                 lambda v: exact_tail_small([0.5, 0.5], 4, v)),
]

# how an end compares with the values it admits: an open end is strictly
# beyond them, a closed end may equal them
_END = {"(": operator.lt, ")": operator.lt, "[": operator.le, "]": operator.le}


def interval_ends(interval: str) -> tuple[float, float]:
    return tuple(float(end) for end in interval[1:-1].split(","))


def admitted_edges(interval: str) -> list[float]:
    """The least and the greatest float of ``interval``."""
    lo, hi = interval_ends(interval)
    return [lo if interval[0] == "[" else math.nextafter(lo, hi),
            hi if interval[-1] == "]" else math.nextafter(hi, lo)]


def real_values(interval: str):
    """Floats at and one step past each end of ``interval``, NaN, ±inf,
    ±10^400, NumPy floats, fractions, decimals, integers, strings and None."""
    lo, hi = interval_ends(interval)
    ends = [x for end in (lo, hi) for x in (end, math.nextafter(end, -math.inf),
                                            math.nextafter(end, math.inf))]
    with np.errstate(over="ignore", under="ignore"):  # a double's end rounds in float32
        numpy_ends = [kind(x) for x in ends for kind in (np.float64, np.float32)]
    specials = [math.nan, math.inf, -math.inf, 10**400, -10**400, Fraction(1, 2),
                Decimal("0.5"), "0.5", str(lo), None, True]
    return st.one_of(st.sampled_from(ends + specials), st.sampled_from(numpy_ends),
                     st.integers(-3, 3), st.floats())


def _refusal(call, value) -> str | None:
    # None once the value passes every check: the call returns, reaches a
    # draw or a stream set-up, or meets the exact oracle's cap; else the
    # ValidationError's text
    try:
        call(value)
    except (Drawn, CapacityError):
        return None
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("arg", REAL_ARGUMENTS, ids=[a.name for a in REAL_ARGUMENTS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_real_arguments_admit_their_domain_alone(arg, data):
    # an accepted value returns at once; a refused value must raise a
    # ValidationError naming the interval before it draws, and no other
    # exception may escape
    value = data.draw(real_values(arg.interval), label="value")
    lo, hi = interval_ends(arg.interval)
    with _no_draws():
        for edge in admitted_edges(arg.interval):
            assert _refusal(arg.call, edge) is None, edge
        try:
            x = float(value) if isinstance(value, numbers.Real) else math.nan
        except OverflowError:  # an integer beyond any float
            x = math.nan
        admitted = _END[arg.interval[0]](lo, x) and _END[arg.interval[-1]](x, hi)
        refusal = _refusal(arg.call, value)
        assert (refusal is None) == admitted
        assert refusal is None or f"a finite real number in {arg.interval}" in refusal


@pytest.mark.parametrize("call", [
    lambda: agrawal_epsilon(100, math.nan),
    lambda: devroye_valid(5, math.nan),
    lambda: BoundSpec(BoundFamily.AGRAWAL, 10, 5, "0.1"),
    lambda: DeviationSource("limit", 5, D="2"),
    lambda: clopper_pearson(1, 10, None),
    lambda: exact_tail_small([0.5, 0.5], 4, "0.1"),
    lambda: BoundSpec("devroye", 10, 5, 0.1),
], ids=["agrawal-nan", "devroye-nan", "bound-string-delta", "source-string-D",
        "clopper-pearson-none", "exact-string-threshold", "bound-unknown-family"])
def test_malformed_real_or_family_raises_validation_error(call):
    # each once returned nan or False, or raised a bare TypeError or ValueError
    with pytest.raises(ValidationError) as exc:
        call()
    assert type(exc.value) is ValidationError


def test_tested_ends_of_delta_hold():
    assert devroye_valid(2, 0.0) is True
    assert agrawal_epsilon(100, 1.0) == 0.0
    message = "delta must be a finite real number in (0, 1)"
    with pytest.raises(ValidationError, match=re.escape(message)):
        anticoncentration_threshold(50, 1.0)
    with pytest.raises(ValidationError, match="unknown bound family 'devroye'"):
        BoundSpec("devroye", 10, 5, 0.1)
    assert BoundSpec("Devroye", 10, 5, 0.1).family is BoundFamily.DEVROYE


# a task block per kind, and the real keys it reads: (kind, key, interval)
REAL_TASKS = {
    "falsify": {"kind": "falsify", "S": "5", "n": "100", "bound": "agrawal", "delta": "0.1"},
    "tail": {"kind": "tail", "family": "limit", "S": "5", "threshold": "1"},
    "quantiles": {"kind": "quantiles", "family": "limit", "S": "5", "grid": "0,1"},
}
REAL_KEYS = [("falsify", "delta", "(0, 1]"), ("falsify", "ci_level", "(0, 1)"),
             ("tail", "threshold", "(-inf, inf)"), ("tail", "D", "(0, inf)"),
             ("quantiles", "grid", "(-inf, inf)"), ("quantiles", "band_level", "(0, 1)")]


def outside_edges(interval: str) -> list[float]:
    """The floats nearest ``interval`` outside it."""
    lo, hi = interval_ends(interval)
    return [lo if interval[0] == "(" else math.nextafter(lo, -math.inf),
            hi if interval[-1] == ")" else math.nextafter(hi, math.inf)]


def _build_real(kind: str, key: str, value: float) -> tuple[dict, list]:
    # the task of kind's block with key set to repr(value), and its errors
    errors = []
    return build_task(0, {**REAL_TASKS[kind], key: repr(value)}, errors), errors


@pytest.mark.parametrize("kind,key,interval", REAL_KEYS, ids=[key for _, key, _ in REAL_KEYS])
def test_parser_reads_real_keys_in_their_domain_alone(kind, key, interval):
    # the least and greatest floats of the interval parse to themselves;
    # the nearest floats outside it, NaN and ±inf are refused, each by one
    # error naming the key, its interval and its text
    for edge in admitted_edges(interval):
        task, errors = _build_real(kind, key, edge)
        assert errors == [], edge
        value = task[key]
        assert value == ([edge] if isinstance(value, list) else edge)
    for bad in outside_edges(interval) + [math.nan, math.inf, -math.inf]:
        _, errors = _build_real(kind, key, bad)
        assert errors == [f"task[0].{key} must be a finite real number in {interval}, "
                          f"got {repr(bad)!r}"]
