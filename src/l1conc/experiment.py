"""Experiment configs, the task runner, and report serialization.

The config format is a flat key-value text file with repeated ``[task]``
blocks; see ``parse_config``.  Reports serialize to CSV or canonical JSON,
and identical configs with the same master seed produce byte-identical
reports regardless of worker count.
"""

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .asymptotic import expected_Z
from .bounds import BoundFamily, BoundSpec, evaluate_bound
from .errors import ConfigError
from .montecarlo import (
    SOURCE_FAMILIES,
    DeviationSource,
    SampleRequest,
    classify_verdict,
    dkw_halfwidth,
    summarize_many,
    tail_estimate_from_count,
)

SCHEMA_VERSION = 1

TASK_KINDS = ("tail", "quantiles", "falsify", "asymptotic-mean")

FINITE_N = ("multinomial", "dirichlet")

CSV_COLUMNS = (
    "task_id", "kind", "family", "S", "n", "delta", "D", "threshold",
    "epsilon", "point", "ci_low", "ci_high", "outcome", "trials", "seed",
)

# task echoes write a family's own value ("WeissmanUnion"), so each parses back
_BOUND_ALIASES = {
    "weissman-union": BoundFamily.WEISSMAN_UNION,
    "weissman-exact": BoundFamily.WEISSMAN_EXACT,
    **{family.value.lower(): family for family in BoundFamily},
}

WORKERS_ENV_VAR = "L1CONC_WORKERS"


@dataclass
class TaskConfig:
    task_id: str
    kind: str
    family: str = "multinomial"
    bound: BoundFamily | None = None
    S_values: list[int] = field(default_factory=list)
    n: int | None = None
    deltas: list[float] = field(default_factory=list)
    thresholds: list[float] = field(default_factory=list)
    grid: list[float] = field(default_factory=list)
    trials: int = 10_000
    D: float = 1.0
    ci_level: float = 0.95
    band_level: float = 0.05

    def echo(self) -> dict:
        out = {"id": self.task_id, "kind": self.kind}
        for key, spec in TASK_KEYS.items():
            value = getattr(self, spec.attr)
            if isinstance(value, BoundFamily):
                value = value.value
            out[key] = list(value) if isinstance(value, list) else value
        return out


@dataclass
class ExperimentConfig:
    master_seed: int
    tasks: list[TaskConfig]
    workers: int | None = None  # None = resolve from environment, default 1


@dataclass
class Report:
    """Aggregated experiment output."""

    master_seed: int
    tasks: list[dict]
    rows: list[dict]
    version: str = __version__


def bound_family_from_name(name: str) -> BoundFamily:
    key = name.strip().lower()
    if key not in _BOUND_ALIASES:
        raise ConfigError(f"unknown bound family {name!r}")
    return _BOUND_ALIASES[key]


# ---------------------------------------------------------------------------
# config parsing


def _parse_scalar(kind, text, path, errors):
    try:
        return kind(text)
    except ValueError:
        errors.append(f"{path}: cannot parse {text!r}")
        return None


def _parse_finite(text, path, errors):
    value = _parse_scalar(float, text, path, errors)
    if value is not None and not math.isfinite(value):
        errors.append(f"{path}: must be finite")
        return None
    return value


def _parse_list(parse, text, path, errors):
    out = []
    for part in text.split(","):
        v = parse(part.strip(), path, errors)
        if v is None:
            return []
        out.append(v)
    return out


def _parse_grid(text, path, errors):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            errors.append(f"{path}: grid must be 'lo:hi:count' or a comma list")
            return []
        lo = _parse_finite(parts[0], path, errors)
        hi = _parse_finite(parts[1], path, errors)
        count = _parse_scalar(int, parts[2], path, errors)
        if None in (lo, hi, count):
            return []
        if count < 2 or hi <= lo:
            errors.append(f"{path}: grid needs hi > lo and count >= 2")
            return []
        if not math.isfinite(hi - lo):
            errors.append(f"{path}: must be finite")
            return []
        return [float(x) for x in np.linspace(lo, hi, count)]
    return _parse_list(_parse_finite, text, path, errors)


def _parse_bound(text, path, errors):
    try:
        return bound_family_from_name(text)
    except ConfigError as exc:
        errors.append(f"{path}: {exc}")


class TaskKey(NamedTuple):
    """A ``[task]`` key: the TaskConfig attribute it sets, its parser
    ``(text, path, errors) -> value or None``, and the task kinds and
    families whose rows it changes; anywhere else it is an error."""

    attr: str
    parse: Callable
    kinds: tuple = TASK_KINDS
    families: tuple = SOURCE_FAMILIES


# every task key except ``kind``: config blocks and the CLI's task flags are
# parsed by this table, and the report's task echo is written from it
TASK_KEYS = {
    "family": TaskKey("family", lambda text, path, errors: text),
    "bound": TaskKey("bound", _parse_bound, ("falsify",)),
    "S": TaskKey("S_values", partial(_parse_list, partial(_parse_scalar, int))),
    "n": TaskKey("n", partial(_parse_scalar, int), families=FINITE_N),
    "delta": TaskKey("deltas", partial(_parse_list, _parse_finite), ("falsify",)),
    "threshold": TaskKey("thresholds", partial(_parse_list, _parse_finite), ("tail",)),
    "grid": TaskKey("grid", _parse_grid, ("quantiles",)),
    "trials": TaskKey("trials", partial(_parse_scalar, int)),
    "D": TaskKey("D", _parse_finite, families=("limit",)),
    "ci_level": TaskKey("ci_level", _parse_finite, ("falsify", "tail", "asymptotic-mean")),
    "band_level": TaskKey("band_level", _parse_finite, ("quantiles",)),
}

# keys each kind requires; finite-n families also require ``n``
REQUIRED_KEYS = {
    "tail": ("S", "threshold"),
    "quantiles": ("S", "grid"),
    "falsify": ("S", "bound", "delta"),
    "asymptotic-mean": ("S",),
}


def build_task(index: int, raw: dict, errors: list) -> TaskConfig:
    """Validate one ``[task]`` block of ``key -> (lineno, text)``, appending
    every problem to ``errors`` as ``task[index].<key>: ...``."""
    path = f"task[{index}]"
    task = TaskConfig(task_id=f"task{index}", kind="")
    kind = raw.get("kind", (0, None))[1]
    if kind not in TASK_KINDS:
        errors.append(f"{path}.kind: must be one of {', '.join(TASK_KINDS)}")
        return task
    task.kind = kind
    task.family = raw.get("family", (0, "limit" if kind == "asymptotic-mean" else task.family))[1]
    if task.family not in SOURCE_FAMILIES:
        errors.append(f"{path}.family: unknown distribution family {task.family!r}")
        return task

    for key, (_, text) in raw.items():
        spec = TASK_KEYS.get(key)
        if key == "kind":
            pass
        elif spec is None:
            errors.append(f"{path}.{key}: unknown key")
        elif kind not in spec.kinds:
            errors.append(f"{path}.{key}: not used by {kind} tasks")
        elif task.family not in spec.families:
            errors.append(f"{path}.{key}: not used by the {task.family} family")
        else:
            value = spec.parse(text, f"{path}.{key}", errors)
            if value is not None:
                setattr(task, spec.attr, value)

    for key in REQUIRED_KEYS[kind] + (("n",) if task.family in FINITE_N else ()):
        if key not in raw:
            errors.append(f"{path}.{key}: required for {kind} tasks on the {task.family} family")

    if kind == "asymptotic-mean" and task.family != "limit":
        errors.append(f"{path}.family: asymptotic-mean tasks use the limit family")
    if kind == "falsify" and task.family == "limit":
        errors.append(f"{path}.family: falsify tasks need a finite-n family")
    if any(s < 2 for s in task.S_values):
        errors.append(f"{path}.S: every value must be >= 2")
    elif len(task.S_values) > 1 and kind != "asymptotic-mean":
        errors.append(f"{path}.S: only asymptotic-mean tasks accept an S sweep")
    if task.n is not None and task.n < 1:
        errors.append(f"{path}.n: must be >= 1")
    for d in task.deltas:
        if not (0.0 < d <= 1.0):
            errors.append(f"{path}.delta: value {d} outside (0, 1]")
    if task.grid and any(b <= a for a, b in zip(task.grid, task.grid[1:])):
        errors.append(f"{path}.grid: must be strictly ascending")
    if task.trials < 1:
        errors.append(f"{path}.trials: must be >= 1")
    if kind == "falsify" and task.trials < 100:
        errors.append(f"{path}.trials: falsify tasks need >= 100 trials")
    if kind == "asymptotic-mean" and task.trials < 2:
        errors.append(f"{path}.trials: asymptotic-mean tasks need >= 2 trials")
    if task.D <= 0:
        errors.append(f"{path}.D: must be > 0")
    for key in ("ci_level", "band_level"):
        if not (0.0 < getattr(task, key) < 1.0):
            errors.append(f"{path}.{key}: must lie in (0, 1)")
    return task


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the flat key-value config format.

    Syntax errors and repeated keys report a line number; semantic errors
    report every invalid field path at once.
    """
    globals_: dict = {}
    raw_tasks: list[dict] = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[task]":
            current = {}
            raw_tasks.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value' or '[task]'")
        key, _, value = line.partition("=")
        key = key.strip()
        target = globals_ if current is None else current
        if key in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        target[key] = (lineno, value.strip())

    errors: list[str] = []
    for key in globals_:
        if key not in ("master_seed", "workers"):
            errors.append(f"{key}: unknown top-level key")
    if "master_seed" not in globals_:
        errors.append("master_seed: required (seeds are never auto-generated)")
        master_seed = 0
    else:
        master_seed = _parse_scalar(int, globals_["master_seed"][1], "master_seed", errors) or 0
        if master_seed < 0:
            errors.append("master_seed: must be >= 0")
    workers = None
    if "workers" in globals_:
        workers = _parse_workers(globals_["workers"][1], "workers", errors)

    tasks = [build_task(i, raw, errors) for i, raw in enumerate(raw_tasks)]
    if errors:
        raise ConfigError("; ".join(errors))
    return ExperimentConfig(master_seed=master_seed, tasks=tasks, workers=workers)


def _parse_workers(text, path, errors):
    # an integer >= 1, or 'auto' for the CPUs this process may run on (where
    # the OS has no affinity call, such as macOS and Windows, all of them)
    if text == "auto":
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    workers = _parse_scalar(int, text, path, errors)
    if workers is not None and workers < 1:
        errors.append(f"{path}: must be >= 1 or 'auto', got {text!r}")
        return None
    return workers


def resolve_workers(config: ExperimentConfig) -> int:
    """Config (or ``--workers``) value wins; otherwise the environment
    override, parsed as the config key is; otherwise 1.  A count below 1
    from any source is an error."""
    workers, errors = config.workers, []
    if workers is None:
        text = os.environ.get(WORKERS_ENV_VAR)
        workers = _parse_workers(text, WORKERS_ENV_VAR, errors) if text else 1
    elif workers < 1:
        errors.append(f"workers (config or --workers): must be >= 1, got {workers}")
    if errors:
        raise ConfigError("; ".join(errors))
    return workers


# ---------------------------------------------------------------------------
# execution


def _row(task: TaskConfig, seed: int, **kw) -> dict:
    return {**dict.fromkeys(CSV_COLUMNS), "task_id": task.task_id, "kind": task.kind,
            "family": task.family, "n": task.n, "D": task.D, "trials": task.trials,
            "seed": seed, **kw}


def _source_for(task: TaskConfig, S: int) -> DeviationSource:
    return DeviationSource(family=task.family, S=S, n=task.n, D=task.D)


def _cell_rows(task: TaskConfig, seed: int, S: int, thresholds, evaluations,
               summary) -> list[dict]:
    """The report rows of one cell of ``task`` at dimension ``S``, read from
    the summary of its sample: a mean row, one CDF row per grid point, or one
    tail row per threshold.  A falsify cell is a tail cell at its bounds'
    epsilons, each row then classified against its delta."""
    if task.kind == "asymptotic-mean":
        z_crit = NormalDist().inv_cdf(0.5 + task.ci_level / 2.0)
        mean = float(summary.mean)
        se = math.sqrt(summary.variance) / math.sqrt(task.trials)
        return [_row(task, seed, S=S, epsilon=task.D * expected_Z(S),
                     point=mean, ci_low=mean - z_crit * se, ci_high=mean + z_crit * se)]
    if task.kind == "quantiles":
        half = dkw_halfwidth(task.trials, task.band_level)
        return [_row(task, seed, S=S, threshold=g, point=cdf,
                     ci_low=max(0.0, cdf - half), ci_high=min(1.0, cdf + half))
                for g, cdf in zip(task.grid, (summary.at_most / task.trials).tolist())]
    estimates = [tail_estimate_from_count(threshold, int(k), task.trials, task.ci_level)
                 for threshold, k in zip(thresholds, summary.at_least)]
    rows = [_row(task, seed, S=S, threshold=est.threshold, point=est.point,
                 ci_low=est.ci_low, ci_high=est.ci_high) for est in estimates]
    for row, est, evaluation in zip(rows, estimates, evaluations):  # falsify rows only
        spec = evaluation.spec
        row.update(family=spec.family.value, delta=spec.delta, epsilon=evaluation.epsilon,
                   outcome=classify_verdict(est, spec.delta))
    return rows


def _task_cells(task: TaskConfig, task_index: int, seed: int) -> list:
    """``(request, rows)`` for every cell of a task: the samples the cell
    needs, drawn from stream ``task_index`` at the cell's row, and the
    function that turns their summary into report rows.  A task has a cell
    per S, at row r for the r-th S; only asymptotic-mean tasks sweep S, so
    every other task is one cell at row 0, and its thresholds (a falsify
    task's epsilons), grid points or deltas are all counted on that one
    sample.  A cell of the same law and trials count as an earlier cell
    reads that cell's sample instead (see ``_law`` and ``run_experiment``)."""
    cells = []
    for r, S in enumerate(task.S_values):
        # the parser leaves deltas empty, so evaluations too, unless falsify
        evaluations = [evaluate_bound(BoundSpec(task.bound, task.n, S, delta))
                       for delta in task.deltas]
        thresholds = tuple(e.epsilon for e in evaluations) or tuple(task.thresholds)
        request = SampleRequest(_source_for(task, S), task.trials, task_index, thresholds,
                                tuple(task.grid), r)
        cells.append((request, partial(_cell_rows, task, seed, S, thresholds, evaluations)))
    return cells


def _law(request: SampleRequest) -> tuple:
    """The law a cell's request samples, and the multiplier ``c`` the cell
    applies to that law's sample.  A limit sample is Z at D = 1 times
    ``D · scale`` (``sample_Z_batch`` multiplies by ``D / sqrt(S)`` last), so
    a limit law is its S; a finite-n law is its whole source."""
    source = request.source
    if source.family == "limit":
        return ("limit", source.S, request.trials), source.D * source.scale
    return (source, request.trials), 1.0


def run_experiment(config: ExperimentConfig) -> Report:
    """Execute every task and aggregate results into a Report.

    Cells of one law (see ``_law``) read one sample: the request of the
    first such cell in config order, at that cell's multiplier ``c0``, with
    the thresholds and grid points of every such cell appended, and each
    cell reads its own slice of the counts.  A later cell with multiplier
    ``c`` appends its points divided by ``c / c0`` and reads the mean and
    ``m2`` times ``c / c0`` and its square; the first cell of a law, and
    every cell at its multiplier, divides and multiplies by 1, exactly.
    The samples of every law are summarized in one ``summarize_many`` call,
    so a run starts at most one thread pool.  The report content depends
    only on the config and master seed, never on the worker count or
    scheduling.
    """
    workers = resolve_workers(config)
    cells = [cell for i, task in enumerate(config.tasks)
             for cell in _task_cells(task, i, config.master_seed)]
    laws, views = {}, []  # law -> its shared request; (law, c / c0, slices, rows) per cell
    for request, rows in cells:
        law, c = _law(request)
        shared = laws.setdefault(law, request._replace(thresholds=(), grid=()))
        ratio = c / _law(shared)[1]
        thresholds = tuple(x / ratio for x in request.thresholds)
        grid = tuple(x / ratio for x in request.grid)
        t, g = len(shared.thresholds), len(shared.grid)
        views.append((law, ratio, slice(t, t + len(thresholds)), slice(g, g + len(grid)), rows))
        laws[law] = shared._replace(thresholds=shared.thresholds + thresholds,
                                    grid=shared.grid + grid)
    summaries = dict(zip(laws, summarize_many(laws.values(), config.master_seed, workers)))

    def view(law, ratio, at_least, at_most):
        summary = summaries[law]
        return replace(summary, at_least=summary.at_least[at_least],
                       at_most=summary.at_most[at_most], mean=summary.mean * ratio,
                       m2=summary.m2 * ratio**2)

    return Report(
        master_seed=config.master_seed,
        tasks=[t.echo() for t in config.tasks],
        rows=[row for law, ratio, at_least, at_most, rows in views
              for row in rows(view(law, ratio, at_least, at_most))],
    )


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: Report) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "version": report.version,
        "master_seed": report.master_seed,
        "tasks": report.tasks,
        "rows": report.rows,
    }


def report_from_dict(obj: dict) -> Report:
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
    return Report(
        master_seed=obj["master_seed"],
        tasks=obj["tasks"],
        rows=obj["rows"],
        version=obj.get("version", __version__),
    )


def emit_report(report: Report, fmt: str = "json") -> bytes:
    """Serialize a report to canonical JSON or the fixed-column CSV schema."""
    if fmt == "json":
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True)
        return (text + "\n").encode()
    if fmt == "csv":
        out = io.StringIO()
        # floats go out by repr, None as an empty cell; a comma is quoted
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([row.get(c) for c in CSV_COLUMNS] for row in report.rows)
        return out.getvalue().encode()
    raise ConfigError(f"unknown report format {fmt!r}")


_PLOT_COLUMNS = {
    "quantiles": (("threshold", "cdf", "cdf_low", "cdf_high"),
                  ("threshold", "point", "ci_low", "ci_high")),
    "tail": (("threshold", "point", "ci_low", "ci_high"),
             ("threshold", "point", "ci_low", "ci_high")),
    "falsify": (("delta", "point", "ci_low", "ci_high", "claimed"),
                ("delta", "point", "ci_low", "ci_high", "delta")),
    "asymptotic-mean": (("S", "mean", "expected"),
                        ("S", "point", "epsilon")),
}


def emit_plot_data(report: Report, task_id: str) -> bytes:
    """Whitespace-separated numeric columns for one task's curve, with a
    comment header naming the columns."""
    rows = [r for r in report.rows if r.get("task_id") == task_id]
    if not rows:
        raise ConfigError(f"no rows for task {task_id!r}")
    kind = rows[0].get("kind")
    if kind not in _PLOT_COLUMNS:
        raise ConfigError(f"task {task_id!r} has no plottable curve")
    names, keys = _PLOT_COLUMNS[kind]
    lines = ["# " + " ".join(names)]
    for row in rows:
        values = [row.get(k) for k in keys]
        if any(v is None for v in values):
            raise ConfigError(f"task {task_id!r} rows lack curve data")
        try:
            lines.append(" ".join(repr(float(v)) for v in values))
        except (TypeError, ValueError):
            raise ConfigError(f"task {task_id!r} has a non-numeric curve cell")
    return ("\n".join(lines) + "\n").encode()
