"""Experiment configs, the task runner, and report serialization.

The config format is a flat key-value text file with repeated ``[task]``
blocks; see ``parse_config``.  Reports serialize to CSV or canonical JSON,
and identical configs with the same master seed produce byte-identical
reports regardless of worker count.
"""

import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from . import __version__
from .asymptotic import expected_Z
from .bounds import BoundFamily, BoundSpec
from .errors import ConfigError
from .montecarlo import (
    DeviationSource,
    estimate_quantile_curve,
    falsify_bound,
    summarize_samples,
    tail_estimate_from_count,
)

SCHEMA_VERSION = 1

TASK_KINDS = ("tail", "quantiles", "falsify", "asymptotic-mean")

CSV_COLUMNS = (
    "task_id", "kind", "family", "S", "n", "delta", "D", "threshold",
    "epsilon", "point", "ci_low", "ci_high", "outcome", "trials", "seed",
)

_BOUND_ALIASES = {
    "weissman-union": BoundFamily.WEISSMAN_UNION,
    "weissmanunion": BoundFamily.WEISSMAN_UNION,
    "weissman-exact": BoundFamily.WEISSMAN_EXACT,
    "weissmanexact": BoundFamily.WEISSMAN_EXACT,
    "devroye": BoundFamily.DEVROYE,
    "agrawal": BoundFamily.AGRAWAL,
}

WORKERS_ENV_VAR = "L1CONC_WORKERS"

# a task's rows draw from streams ``task_index << ROW_BITS | row``
ROW_BITS = 12


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
        return {
            "id": self.task_id,
            "kind": self.kind,
            "family": self.family,
            "bound": self.bound.value if self.bound else None,
            "S": list(self.S_values),
            "n": self.n,
            "delta": list(self.deltas),
            "threshold": list(self.thresholds),
            "grid": list(self.grid),
            "trials": self.trials,
            "D": self.D,
            "ci_level": self.ci_level,
            "band_level": self.band_level,
        }


@dataclass
class ExperimentConfig:
    master_seed: int
    tasks: list[TaskConfig]
    workers: int | None = None  # None = resolve from environment, default 1


@dataclass
class Report:
    """Aggregated experiment output.

    ``runtime_seconds`` is informational only and deliberately excluded from
    serialization so identical runs emit identical bytes.
    """

    master_seed: int
    tasks: list[dict]
    rows: list[dict]
    version: str = __version__
    runtime_seconds: float | None = None


def bound_family_from_name(name: str) -> BoundFamily:
    key = name.strip().lower()
    if key not in _BOUND_ALIASES:
        raise ConfigError(f"unknown bound family {name!r}")
    return _BOUND_ALIASES[key]


# ---------------------------------------------------------------------------
# config parsing


def _parse_scalar(text, kind, path, errors):
    try:
        return kind(text)
    except ValueError:
        errors.append(f"{path}: cannot parse {text!r}")
        return None


def _parse_list(text, kind, path, errors):
    out = []
    for part in text.split(","):
        v = _parse_scalar(part.strip(), kind, path, errors)
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
        lo = _parse_scalar(parts[0], float, path, errors)
        hi = _parse_scalar(parts[1], float, path, errors)
        count = _parse_scalar(parts[2], int, path, errors)
        if None in (lo, hi, count):
            return []
        if count < 2 or hi <= lo:
            errors.append(f"{path}: grid needs hi > lo and count >= 2")
            return []
        return [float(x) for x in np.linspace(lo, hi, count)]
    return _parse_list(text, float, path, errors)


_TASK_KEYS = {
    "kind", "family", "bound", "S", "n", "delta", "threshold", "grid",
    "trials", "D", "ci_level", "band_level",
}


def build_task(index: int, raw: dict, errors: list) -> TaskConfig:
    path = f"task[{index}]"
    task = TaskConfig(task_id=f"task{index}", kind="")
    for key in raw:
        if key not in _TASK_KEYS:
            errors.append(f"{path}.{key}: unknown key")

    def val(key):
        return raw[key][1] if key in raw else None

    kind = val("kind")
    if kind not in TASK_KINDS:
        errors.append(f"{path}.kind: must be one of {', '.join(TASK_KINDS)}")
        return task
    task.kind = kind

    if val("family") is not None:
        task.family = val("family")
    elif kind == "asymptotic-mean":
        task.family = "limit"
    if kind == "asymptotic-mean" and task.family != "limit":
        errors.append(f"{path}.family: asymptotic-mean tasks use the limit family")
    if task.family not in ("multinomial", "dirichlet", "limit"):
        errors.append(f"{path}.family: unknown distribution family {task.family!r}")

    if val("bound") is not None:
        try:
            task.bound = bound_family_from_name(val("bound"))
        except ConfigError as exc:
            errors.append(f"{path}.bound: {exc}")

    if val("S") is not None:
        task.S_values = _parse_list(val("S"), int, f"{path}.S", errors)
    if not task.S_values:
        errors.append(f"{path}.S: required")
    elif any(s < 2 for s in task.S_values):
        errors.append(f"{path}.S: every value must be >= 2")
    elif len(task.S_values) > 1 and kind != "asymptotic-mean":
        errors.append(f"{path}.S: only asymptotic-mean tasks accept an S sweep")

    if val("n") is not None:
        task.n = _parse_scalar(val("n"), int, f"{path}.n", errors)
        if task.n is not None and task.n < 1:
            errors.append(f"{path}.n: must be >= 1")
    if task.family in ("multinomial", "dirichlet") and task.n is None:
        errors.append(f"{path}.n: required for finite-n families")

    if val("delta") is not None:
        task.deltas = _parse_list(val("delta"), float, f"{path}.delta", errors)
        for d in task.deltas:
            if not (0.0 < d <= 1.0):
                errors.append(f"{path}.delta: value {d} outside (0, 1]")
    for key, values in (("S", task.S_values), ("delta", task.deltas)):
        if len(values) > 1 << ROW_BITS:
            errors.append(f"{path}.{key}: a sweep has at most {1 << ROW_BITS} values")
    if val("threshold") is not None:
        task.thresholds = _parse_list(val("threshold"), float, f"{path}.threshold", errors)
    if val("grid") is not None:
        task.grid = _parse_grid(val("grid"), f"{path}.grid", errors)
        if task.grid and any(b <= a for a, b in zip(task.grid, task.grid[1:])):
            errors.append(f"{path}.grid: must be strictly ascending")

    if val("trials") is not None:
        t = _parse_scalar(val("trials"), int, f"{path}.trials", errors)
        if t is not None:
            task.trials = t
    if task.trials < 1:
        errors.append(f"{path}.trials: must be >= 1")
    if val("D") is not None:
        d = _parse_scalar(val("D"), float, f"{path}.D", errors)
        if d is not None:
            task.D = d
    if task.D <= 0:
        errors.append(f"{path}.D: must be > 0")
    for key in ("ci_level", "band_level"):
        if val(key) is not None:
            v = _parse_scalar(val(key), float, f"{path}.{key}", errors)
            if v is not None:
                setattr(task, key, v)
        if not (0.0 < getattr(task, key) < 1.0):
            errors.append(f"{path}.{key}: must lie in (0, 1)")

    if kind == "falsify":
        if task.bound is None:
            errors.append(f"{path}.bound: required for falsify tasks")
        if not task.deltas:
            errors.append(f"{path}.delta: required for falsify tasks")
        if task.trials < 100:
            errors.append(f"{path}.trials: falsify tasks need >= 100 trials")
        if task.family == "limit":
            errors.append(f"{path}.family: falsify tasks need a finite-n family")
    elif kind == "tail":
        if not task.thresholds:
            errors.append(f"{path}.threshold: required for tail tasks")
    elif kind == "quantiles":
        if not task.grid:
            errors.append(f"{path}.grid: required for quantiles tasks")
    return task


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the flat key-value config format.

    Syntax errors report a line number; semantic errors report every invalid
    field path at once.
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
        target = globals_ if current is None else current
        target[key.strip()] = (lineno, value.strip())

    errors: list[str] = []
    for key in globals_:
        if key not in ("master_seed", "workers"):
            errors.append(f"{key}: unknown top-level key")
    if "master_seed" not in globals_:
        errors.append("master_seed: required (seeds are never auto-generated)")
        master_seed = 0
    else:
        master_seed = _parse_scalar(globals_["master_seed"][1], int, "master_seed", errors) or 0
        if master_seed < 0:
            errors.append("master_seed: must be >= 0")
    workers = None
    if "workers" in globals_:
        text_w = globals_["workers"][1]
        if text_w == "auto":
            workers = len(os.sched_getaffinity(0))
        else:
            workers = _parse_scalar(text_w, int, "workers", errors)
            if workers is not None and workers < 1:
                errors.append("workers: must be >= 1 or 'auto'")

    tasks = [build_task(i, raw, errors) for i, raw in enumerate(raw_tasks)]
    if errors:
        raise ConfigError("; ".join(errors))
    return ExperimentConfig(master_seed=master_seed, tasks=tasks, workers=workers)


def resolve_workers(config: ExperimentConfig) -> int:
    """Config value wins; otherwise the environment override; otherwise 1."""
    if config.workers is not None:
        return config.workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV_VAR}: cannot parse {env!r}")
    return 1


# ---------------------------------------------------------------------------
# execution


def _row(task: TaskConfig, seed: int, **kw) -> dict:
    base = {
        "task_id": task.task_id,
        "kind": task.kind,
        "family": task.family,
        "S": None,
        "n": task.n,
        "delta": None,
        "D": task.D,
        "threshold": None,
        "epsilon": None,
        "point": None,
        "ci_low": None,
        "ci_high": None,
        "outcome": None,
        "trials": task.trials,
        "seed": seed,
    }
    base.update(kw)
    return base


def _source_for(task: TaskConfig, S: int) -> DeviationSource:
    return DeviationSource(
        family=task.family,
        S=S,
        n=None if task.family == "limit" else task.n,
        D=task.D,
    )


def _run_task(task: TaskConfig, task_index: int, master_seed: int, workers: int) -> list[dict]:
    stream_base = task_index << ROW_BITS
    rows: list[dict] = []
    S = task.S_values[0]
    if task.kind == "falsify":
        for r, delta in enumerate(task.deltas):
            spec = BoundSpec(family=task.bound, n=task.n, S=S, delta=delta)
            verdict = falsify_bound(
                spec, task.trials, master_seed,
                family=task.family, ci_level=task.ci_level,
                stream=stream_base | r, workers=workers,
            )
            est = verdict.estimate
            rows.append(_row(
                task, master_seed,
                family=verdict.spec.family.value, S=S, delta=delta,
                threshold=est.threshold, epsilon=verdict.evaluation.epsilon,
                point=est.point, ci_low=est.ci_low, ci_high=est.ci_high,
                outcome=verdict.outcome,
            ))
    elif task.kind == "tail":
        summary = summarize_samples(_source_for(task, S), task.trials, master_seed,
                                    thresholds=task.thresholds, stream=stream_base,
                                    workers=workers)
        for threshold, k in zip(task.thresholds, summary.at_least):
            est = tail_estimate_from_count(threshold, int(k), task.trials, task.ci_level)
            rows.append(_row(
                task, master_seed, S=S, threshold=threshold,
                point=est.point, ci_low=est.ci_low, ci_high=est.ci_high,
            ))
    elif task.kind == "quantiles":
        curve = estimate_quantile_curve(_source_for(task, S), task.grid, task.trials,
                                        master_seed, band_level=task.band_level,
                                        stream=stream_base, workers=workers)
        half = curve.dkw_halfwidth
        for g, cdf in zip(task.grid, curve.cdf_estimates):
            rows.append(_row(
                task, master_seed, S=S, threshold=float(g), point=float(cdf),
                ci_low=max(0.0, cdf - half), ci_high=min(1.0, cdf + half),
            ))
    elif task.kind == "asymptotic-mean":
        z_crit = float(norm.ppf(0.5 + task.ci_level / 2.0))
        for r, S in enumerate(task.S_values):
            summary = summarize_samples(_source_for(task, S), task.trials, master_seed,
                                        stream=stream_base | r, workers=workers)
            mean = float(summary.mean)
            se = math.sqrt(summary.variance) / math.sqrt(task.trials)
            rows.append(_row(
                task, master_seed, S=S,
                epsilon=task.D * expected_Z(S),
                point=mean, ci_low=mean - z_crit * se, ci_high=mean + z_crit * se,
            ))
    else:  # pragma: no cover
        raise ConfigError(f"unknown task kind {task.kind!r}")
    return rows


def run_experiment(config: ExperimentConfig) -> Report:
    """Execute every task and aggregate results into a Report.

    The report content depends only on the config and master seed, never on
    the worker count or scheduling.
    """
    workers = resolve_workers(config)
    start = time.monotonic()
    rows: list[dict] = []
    for i, task in enumerate(config.tasks):
        rows.extend(_run_task(task, i, config.master_seed, workers))
    return Report(
        master_seed=config.master_seed,
        tasks=[t.echo() for t in config.tasks],
        rows=rows,
        runtime_seconds=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# serialization


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def report_to_dict(report: Report) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "version": report.version,
        "master_seed": report.master_seed,
        "tasks": report.tasks,
        "rows": [{k: _jsonable(v) for k, v in row.items()} for row in report.rows],
    }


def report_from_dict(obj: dict) -> Report:
    if not isinstance(obj, dict):
        raise ConfigError("a report must be a JSON object")
    if obj.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported report schema {obj.get('schema')!r}")
    missing = [key for key in ("master_seed", "tasks", "rows") if key not in obj]
    if missing:
        raise ConfigError(f"report lacks {', '.join(missing)}")
    return Report(
        master_seed=obj["master_seed"],
        tasks=obj["tasks"],
        rows=obj["rows"],
        version=obj.get("version", __version__),
    )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report: Report, fmt: str = "json") -> bytes:
    """Serialize a report to canonical JSON or the fixed-column CSV schema."""
    if fmt == "json":
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True)
        return (text + "\n").encode()
    if fmt == "csv":
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in report.rows:
            out.write(",".join(_csv_cell(_jsonable(row.get(c))) for c in CSV_COLUMNS) + "\n")
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
        lines.append(" ".join(repr(float(_jsonable(v))) for v in values))
    return ("\n".join(lines) + "\n").encode()
