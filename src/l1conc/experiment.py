"""Experiment configs, the task runner, and report serialization.

The config format is a flat key-value text file with repeated ``[task]``
blocks; see ``parse_config``.  A parsed task is a dict of its config keys,
each holding its parsed value or its default, and a report echoes it as it
is.  Reports serialize to CSV or canonical JSON, and identical configs with
the same master seed produce byte-identical reports regardless of worker
count.  A saved report is read back only if each task echo is what
``build_task`` makes of its ``task_block`` and its rows are the rows its
tasks make: ``_task_cells`` fixes every column but the three sample cells,
which are taken as saved, and a falsify row's outcome must be the verdict
its saved interval gives.
"""

import csv
import io
import json
import math
from collections import namedtuple
from copy import copy, deepcopy
from dataclasses import dataclass
from functools import partial
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .asymptotic import expected_Z
from .bounds import BoundFamily, BoundSpec, evaluate_bound
from .errors import DOMAINS, INTERVALS, CapacityError, ConfigError, ValidationError, integer, real
from .montecarlo import (
    FALSIFY_MIN_TRIALS,
    FINITE_N,
    SOURCE_FAMILIES,
    DeviationSource,
    SampleRequest,
    classify_verdict,
    dkw_halfwidth,
    summarize_many,
    tail_estimate_from_count,
    _usable_cpus,
)

SCHEMA_VERSION = 1

# a task kind's rules: the keys it requires (a finite-n family also requires
# ``n``), the families it runs on, default first, its fewest trials, and its
# plot data, the column names and the row keys they hold
TaskKind = namedtuple("TaskKind", "required families min_trials plot")
_CURVE = ("threshold", "point", "ci_low", "ci_high")
TASK_KINDS = {
    "tail": TaskKind(("S", "threshold"), SOURCE_FAMILIES, 1, (_CURVE, _CURVE)),
    "quantiles": TaskKind(("S", "grid"), SOURCE_FAMILIES, 1,
                          (("threshold", "cdf", "cdf_low", "cdf_high"), _CURVE)),
    "falsify": TaskKind(("S", "bound", "delta"), FINITE_N, FALSIFY_MIN_TRIALS,
                        (("delta", "point", "ci_low", "ci_high", "claimed"),
                         ("delta", "point", "ci_low", "ci_high", "delta"))),
    "asymptotic-mean": TaskKind(("S",), ("limit",), 2,
                                (("S", "mean", "expected"), ("S", "point", "epsilon"))),
}

# a row's columns in CSV order
COLUMNS = ("task_id", "kind", "family", "S", "n", "delta", "D", "threshold", "epsilon", "point",
           "ci_low", "ci_high", "outcome", "trials", "seed")
# a row's sample cells: the only columns its task and the master seed do not fix
Sample = namedtuple("Sample", "point ci_low ci_high")

# a task holds a family's own value ("WeissmanUnion"), so its echo parses back
_BOUND_ALIASES = {"weissman-union": BoundFamily.WEISSMAN_UNION.value,
                  "weissman-exact": BoundFamily.WEISSMAN_EXACT.value,
                  **{family.value.lower(): family.value for family in BoundFamily}}


@dataclass
class ExperimentConfig:
    master_seed: int
    tasks: list[dict]  # each as build_task returns it
    workers: int | None = None  # a cap on the threads; None = every usable CPU


@dataclass
class Report:
    """Aggregated experiment output."""

    master_seed: int
    tasks: list[dict]
    rows: list[dict]
    version: str = __version__


# ---------------------------------------------------------------------------
# config parsing


def _parse_scalar(kind, text, path):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{path}: cannot parse {text!r}")


def _parse_number(kind, check, domains, name, text, path):
    # a number of the domain of the quantity ``name`` in errors.DOMAINS or INTERVALS
    value = _parse_scalar(kind, text, path)
    try:
        return check(value, path, domains[name])
    except ValidationError as exc:
        raise ConfigError(f"{exc}, got {text!r}")


_parse_integer = partial(_parse_number, int, integer, DOMAINS)
_parse_real = partial(_parse_number, float, real, INTERVALS)
_parse_threshold = partial(_parse_real, "threshold")  # a threshold, or a grid point


def _parse_list(parse, text, path):
    return [parse(part.strip(), path) for part in text.split(",")]


def _parse_grid(text, path):
    if ":" not in text:
        return _parse_list(_parse_threshold, text, path)
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{path}: grid must be 'lo:hi:count' or a comma list")
    lo, hi = (_parse_threshold(part, path) for part in parts[:2])
    count = _parse_scalar(int, parts[2], path)
    if count < 2 or hi <= lo:
        raise ConfigError(f"{path}: grid needs hi > lo and count >= 2")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{path}: must be finite")
    if count >= 2**60:  # 2^63 bytes of float64, NumPy's array size limit
        raise CapacityError(f"{path}: {count} grid points exceed any array")
    return [float(x) for x in np.linspace(lo, hi, count)]


def _parse_bound(text, path):
    key = text.strip().lower()
    if key not in _BOUND_ALIASES:
        raise ConfigError(f"{path}: unknown bound family {text!r}")
    return _BOUND_ALIASES[key]


class TaskKey(NamedTuple):
    """A ``[task]`` key: its parser ``(text, path) -> value``, which raises
    ``ConfigError`` naming ``path`` at the first fault it finds, the value a
    task holds where the key is unset, and the task kinds and families whose
    rows it changes; anywhere else it is an error."""

    parse: Callable
    default: object = None
    kinds: tuple = tuple(TASK_KINDS)
    families: tuple = SOURCE_FAMILIES


# every task key except ``kind``: config blocks and the CLI's task flags are
# parsed by this table into a task; the family's default is its kind's first
TASK_KEYS = {
    "family": TaskKey(lambda text, path: text),
    "bound": TaskKey(_parse_bound, None, ("falsify",)),
    "S": TaskKey(partial(_parse_list, partial(_parse_integer, "S")), []),
    "n": TaskKey(partial(_parse_integer, "n"), families=FINITE_N),
    "delta": TaskKey(partial(_parse_list, partial(_parse_real, "delta")), [], ("falsify",)),
    "threshold": TaskKey(partial(_parse_list, _parse_threshold), [], ("tail",)),
    "grid": TaskKey(_parse_grid, [], ("quantiles",)),
    "trials": TaskKey(partial(_parse_integer, "trials"), 10_000),
    "D": TaskKey(partial(_parse_real, "D"), 1.0, families=("limit",)),
    "ci_level": TaskKey(partial(_parse_real, "level"), 0.95,
                        ("falsify", "tail", "asymptotic-mean")),
    "band_level": TaskKey(partial(_parse_real, "level"), 0.05, ("quantiles",)),
}


def build_task(index: int, raw: dict, errors: list) -> dict:
    """Validate one ``[task]`` block of ``key -> text`` into a task: a dict
    of its ``id``, ``kind`` and every ``TASK_KEYS`` key, each holding its
    parsed value or its default.  Every problem is appended to ``errors``
    as ``task[index].<key>: ...``."""
    path = f"task[{index}]"
    kind = raw.get("kind")
    task = {"id": f"task{index}", "kind": kind,
            **{key: copy(spec.default) for key, spec in TASK_KEYS.items()}}
    if kind not in TASK_KINDS:
        errors.append(f"{path}.kind: must be one of {', '.join(TASK_KINDS)}")
        return task
    rules = TASK_KINDS[kind]
    family = task["family"] = raw.get("family", rules.families[0])
    if family not in SOURCE_FAMILIES:
        errors.append(f"{path}.family: unknown distribution family {family!r}")
        return task

    for key, text in raw.items():
        spec = TASK_KEYS.get(key)
        if key == "kind":
            pass
        elif spec is None:
            errors.append(f"{path}.{key}: unknown key")
        elif kind not in spec.kinds:
            errors.append(f"{path}.{key}: not used by {kind} tasks")
        elif family not in spec.families:
            errors.append(f"{path}.{key}: not used by the {family} family")
        else:
            try:
                task[key] = spec.parse(text, f"{path}.{key}")
            except ConfigError as exc:
                errors.append(str(exc))

    for key in rules.required + (("n",) if family in FINITE_N else ()):
        if key not in raw:
            errors.append(f"{path}.{key}: required for {kind} tasks on the {family} family")

    if family not in rules.families:
        errors.append(f"{path}.family: {kind} tasks run on the "
                      f"{' or '.join(rules.families)} family")
    if len(task["S"]) > 1 and kind != "asymptotic-mean":
        errors.append(f"{path}.S: only asymptotic-mean tasks accept an S sweep")
    grid = task["grid"]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        errors.append(f"{path}.grid: must be strictly ascending")
    if task["trials"] < rules.min_trials:
        errors.append(f"{path}.trials: {kind} tasks need >= {rules.min_trials} trials")
    if kind == "asymptotic-mean" and task["S"]:
        # a mean row holds D times the sample mean, its interval and E[Z];
        # each stays below 2^9·D·E[Z], since a draw at D = 1 is below
        # 14·sqrt(S) < 50·E[Z] (NumPy's normals are below 14 in magnitude)
        # and the interval's half-width is below 8.3 standard errors
        S = max(task["S"])
        if not math.isfinite(2.0**10 * task["D"] * expected_Z(S)):
            errors.append(f"{path}.D: too large; the mean row at S = {S} could hold values "
                          "that are not finite")
    return task


def task_block(task: dict) -> dict:
    """The ``key -> text`` block ``build_task`` parses back into ``task``: its
    ``kind`` and every other key not at its default, a list as its items'
    reprs joined by commas, a string as it is, anything else by its repr."""
    text = {list: lambda value: ",".join(map(repr, value)), str: str}
    return {key: text.get(type(task[key]), repr)(task[key]) for key in ("kind", *TASK_KEYS)
            if key == "kind" or task[key] != TASK_KEYS[key].default}


def read_blocks(text: str) -> tuple[dict, list[dict]]:
    """The top-level ``key -> text`` pairs of a config and its ``[task]``
    blocks, each ``key -> text``.  A syntax error or a repeated key raises
    ``ConfigError`` naming its line."""
    pairs, blocks = {}, []
    target = pairs
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[task]":
            target = {}
            blocks.append(target)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value' or '[task]'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        target[key] = value.strip()
    return pairs, blocks


def build_config(pairs: dict, blocks: list[dict]) -> ExperimentConfig:
    """Validate top-level pairs and task blocks of plain text, from a config
    file or the CLI's flags alike, and raise one ``ConfigError`` naming every
    invalid field path.  A grid of more points than any array holds raises
    ``CapacityError``."""
    errors = [f"{key}: unknown top-level key" for key in pairs if key != "master_seed"]
    try:
        if "master_seed" not in pairs:
            raise ConfigError("master_seed: required (seeds are never auto-generated)")
        master_seed = _parse_integer("word", pairs["master_seed"], "master_seed")
    except ConfigError as exc:
        errors.append(str(exc))

    tasks = [build_task(i, raw, errors) for i, raw in enumerate(blocks)]
    if errors:
        raise ConfigError("; ".join(errors))
    return ExperimentConfig(master_seed=master_seed, tasks=tasks)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the flat key-value config format: ``read_blocks``,
    then ``build_config``."""
    return build_config(*read_blocks(text))


# ---------------------------------------------------------------------------
# execution


def _task_cells(task: dict, seed: int) -> list[tuple[SampleRequest, list[dict]]]:
    """``(request, rows)`` for every cell of a task: the sample the cell
    needs, and its report rows with every column but the sample cells: a
    mean row, one CDF row per grid point, or one tail row per threshold (a
    falsify row's threshold is its bound's epsilon).  A task has a cell per
    S; only asymptotic-mean tasks sweep S, so every other task is one cell,
    counted on one sample.  A request names the law at its default stream
    0, so its draws do not depend on the task's place in the config.  Every
    cell is sent at its task's own D: its points are counted divided by D,
    and its summary's moments are the law's, so its variance never holds D²."""
    base = {**dict.fromkeys(COLUMNS), "task_id": task["id"], "kind": task["kind"],
            "family": task["family"], "n": task["n"], "D": task["D"],
            "trials": task["trials"], "seed": seed}
    cells = []
    for S in task["S"]:
        # the parser leaves delta empty, so evaluations too, unless falsify
        evaluations = [evaluate_bound(BoundSpec(task["bound"], task["n"], S, delta))
                       for delta in task["delta"]]
        thresholds = tuple(e.epsilon for e in evaluations) or tuple(task["threshold"])
        source = DeviationSource(task["family"], S, n=task["n"], D=task["D"])
        request = SampleRequest(source, task["trials"], thresholds=thresholds,
                                grid=tuple(task["grid"]))
        if task["kind"] == "asymptotic-mean":
            rows = [{**base, "S": S, "epsilon": task["D"] * expected_Z(S)}]
        else:  # only a quantiles task has a grid
            rows = [{**base, "S": S, "threshold": t} for t in task["grid"] or thresholds]
        for row, evaluation in zip(rows, evaluations):  # falsify rows only
            spec = evaluation.spec
            row.update(family=spec.family.value, delta=spec.delta, epsilon=evaluation.epsilon)
        cells.append((request, rows))
    return cells


def _cell_rows(task: dict, rows: list[dict], summary) -> list[dict]:
    """A cell's ``rows`` with their sample cells read from the summary of its
    sample.  A summary's moments are the law's, so a mean row multiplies
    them by the task's D."""
    trials = task["trials"]
    if task["kind"] == "asymptotic-mean":
        z_crit = NormalDist().inv_cdf(0.5 + task["ci_level"] / 2.0)
        mean = task["D"] * float(summary.mean)
        se = task["D"] * math.sqrt(summary.variance) / math.sqrt(trials)
        samples = [Sample(mean, mean - z_crit * se, mean + z_crit * se)]
    elif task["kind"] == "quantiles":
        half = dkw_halfwidth(trials, task["band_level"])
        samples = [Sample(cdf, max(0.0, cdf - half), min(1.0, cdf + half))
                   for cdf in (summary.at_most / trials).tolist()]
    else:
        estimates = [tail_estimate_from_count(row["threshold"], int(k), trials, task["ci_level"])
                     for row, k in zip(rows, summary.at_least)]
        samples = [Sample(est.point, est.ci_low, est.ci_high) for est in estimates]
    return [_with_sample(row, sample) for row, sample in zip(rows, samples, strict=True)]


def _with_sample(row: dict, sample: Sample) -> dict:
    """A copy of ``row`` holding ``sample``; a falsify row's outcome is then
    the verdict its own interval gives at its delta."""
    row = {**row, **sample._asdict()}
    if row["kind"] == "falsify":
        row["outcome"] = classify_verdict(sample, row["delta"])
    return row


def run_experiment(config: ExperimentConfig) -> Report:
    """Execute every task and aggregate results into a Report.

    The master seed is checked before any draw.  Every cell of every task is
    one request to one ``summarize_many`` call, so a run starts at most one
    thread pool, of at most ``config.workers`` threads, by default every
    usable CPU; it draws each law once, whatever the D of its cells, and
    each cell's summary holds the law's own moments.  A row depends only on
    its own task and the master seed, never on the other tasks, the worker
    count or scheduling.  The report echoes each task as a copy of it.
    """
    seed = integer(config.master_seed, "master_seed", DOMAINS["word"], ConfigError)
    workers = _usable_cpus() if config.workers is None else config.workers
    cells = [(task, *cell) for task in config.tasks for cell in _task_cells(task, seed)]
    summaries = summarize_many([request for _, request, _ in cells], seed, workers)
    return Report(
        master_seed=seed,
        tasks=deepcopy(config.tasks),
        rows=[row for (task, _, rows), summary in zip(cells, summaries)
              for row in _cell_rows(task, rows, summary)],
    )


# ---------------------------------------------------------------------------
# serialization


def report_from_dict(obj: dict) -> Report:
    """A saved report, or a ``ConfigError`` naming its first fault (see the module docstring)."""
    if not isinstance(obj, dict):
        raise ConfigError("a report must be a JSON object")
    if obj.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported report schema {obj.get('schema')!r}")
    missing = [key for key in ("master_seed", "tasks", "rows") if key not in obj]
    if missing:
        raise ConfigError(f"report lacks {', '.join(missing)}")
    if not (isinstance(obj["tasks"], list) and isinstance(obj["rows"], list)):
        raise ConfigError("report tasks and rows must be lists")
    if not all(isinstance(row, dict) for row in obj["rows"]):
        raise ConfigError("every report row must be an object")
    version = obj.get("version", __version__)
    if not isinstance(version, str):
        raise ConfigError(f"report version must be a string, got {version!r}")
    seed = integer(obj["master_seed"], "master_seed", DOMAINS["word"], ConfigError)
    tasks = [_check_task(i, task) for i, task in enumerate(obj["tasks"])]
    for i, row in enumerate(obj["rows"]):
        for column in Sample._fields:
            if type(row.get(column)) is not float or not math.isfinite(row[column]):
                raise ConfigError(f"rows[{i}].{column}: {row.get(column)!r} is not a finite float")
    made = [row for task in tasks for _, rows in _task_cells(task, seed) for row in rows]
    if len(made) != len(obj["rows"]):
        raise ConfigError(f"rows: the report holds {len(obj['rows'])}, "
                          f"but its tasks make {len(made)}")
    for i, (row, template) in enumerate(zip(obj["rows"], made)):
        for column in sorted(row.keys() ^ template.keys()):
            raise ConfigError(f"rows[{i}].{column}: "
                              f"{'unknown key' if column in row else 'missing'}")
        for column, value in _with_sample(template, Sample(*map(row.get, Sample._fields))).items():
            if repr(row[column]) != repr(value):  # repr tells 2 from 2.0
                raise ConfigError(f"rows[{i}].{column}: holds {row[column]!r}, "
                                  f"but its task makes {value!r}")
    return Report(master_seed=seed, tasks=obj["tasks"], rows=obj["rows"], version=version)


def _check_task(i: int, task) -> dict:
    path = f"tasks[{i}]"
    if not isinstance(task, dict):
        raise ConfigError(f"{path} must be an object, got {task!r}")
    for key in sorted(task.keys() ^ {"id", "kind", *TASK_KEYS}):
        raise ConfigError(f"{path}.{key}: {'unknown key' if key in task else 'missing'}")
    for key, spec in TASK_KEYS.items():
        if isinstance(spec.default, list) and not isinstance(task[key], list):  # no grid span
            raise ConfigError(f"{path}.{key} must be a list, got {task[key]!r}")
    errors = []
    built = build_task(i, task_block(task), errors)  # which the echo must equal
    errors += [f"task[{i}].{key}: holds {task[key]!r}, but its block builds {value!r}"
               for key, value in built.items() if repr(task[key]) != repr(value)]
    if errors:  # build_task's own message, at the report's path
        raise ConfigError(errors[0].replace(f"task[{i}]", path, 1))
    return task


def _check_finite(value, path: str):
    # refuse the first non-finite float in a JSON-like value, naming its path
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} = {value!r} is not finite; a report holds finite numbers only")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}[{i}]")


def emit_report(report: Report, fmt: str = "json") -> bytes:
    """Serialize a report to canonical JSON or the fixed-column CSV schema.
    A report holds finite numbers only: strict JSON has no token for
    infinity or NaN, so a non-finite float anywhere in it is refused, in
    either format."""
    obj = {"schema": SCHEMA_VERSION, "version": report.version,
           "master_seed": report.master_seed, "tasks": report.tasks, "rows": report.rows}
    _check_finite(obj, "report")
    if fmt == "json":
        return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    if fmt == "csv":
        out = io.StringIO()
        # floats go out by repr, None as an empty cell; a comma is quoted
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows([row.get(c) for c in COLUMNS] for row in report.rows)
        return out.getvalue().encode()
    raise ConfigError(f"unknown report format {fmt!r}")


def emit_plot_data(report: Report, task_id: str) -> bytes:
    """Whitespace-separated numeric columns for one task's curve, with a
    comment header naming the columns.  Like ``emit_report``, it refuses a
    non-finite float; a curve cell must be a real number, and a string, or
    an integer beyond any float, is refused too."""
    rows = [r for r in report.rows if r.get("task_id") == task_id]
    if not rows:
        raise ConfigError(f"no rows for task {task_id!r}")
    _check_finite(rows, f"task {task_id!r} rows")
    kind = rows[0].get("kind")
    if not isinstance(kind, str) or kind not in TASK_KINDS:
        raise ConfigError(f"task {task_id!r} has no plottable curve")
    names, keys = TASK_KINDS[kind].plot
    lines = ["# " + " ".join(names)]
    for row in rows:
        values = [row.get(k) for k in keys]
        if any(v is None for v in values):
            raise ConfigError(f"task {task_id!r} rows lack curve data")
        try:
            lines.append(" ".join(repr(real(v, "cell", "(-inf, inf)")) for v in values))
        except ValidationError:
            raise ConfigError(f"task {task_id!r} has a non-numeric curve cell")
    return ("\n".join(lines) + "\n").encode()
