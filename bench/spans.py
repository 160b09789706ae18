"""Tracing from outside the package: wrap its public functions, keep spans in
memory, and turn them into per-module metrics.

A span is (name, start, end, parent, detail); all spans of one repetition
share its run id.  Self time is a span's duration minus that of its direct
children, which never overlap because the traced run is single-process.
"""

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, argument names kept in the span detail)
TRACED = (
    ("cli", "main", ()),
    ("experiment", "parse_config", ()),
    ("experiment", "run_experiment", ()),
    ("experiment", "emit_report", ()),
    ("montecarlo", "falsify_bound", ()),
    ("montecarlo", "estimate_tail_probability", ()),
    ("montecarlo", "estimate_quantile_curve", ()),
    ("montecarlo", "draw_samples", ("trials",)),
    ("montecarlo", "tail_estimate_from_count", ()),
    ("montecarlo", "clopper_pearson", ()),
    ("montecarlo", "dkw_halfwidth", ()),
    ("montecarlo", "exact_tail_small", ("p", "n")),
    ("bounds", "evaluate_bound", ()),
    ("sampling", "StreamKey.generator", ()),
    ("sampling", "sample_multinomial_batch", ("p", "n", "size")),
    ("sampling", "sample_dirichlet_batch", ("alpha", "size")),
    ("asymptotic", "sample_Z_batch", ("S", "size")),
    ("asymptotic", "helmert_t_apply", ()),
    ("asymptotic", "limit_Z_from_Y", ()),
)

NAME, START, END, PARENT, DETAIL = range(5)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep: tuple):
        sig = inspect.signature(fn) if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            detail = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                detail = {k: _plain(bound[k]) for k in keep}
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, detail]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if name == "experiment.emit_report":
                span[DETAIL] = {"bytes": len(result)}
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, detail) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "detail": detail}) + "\n")


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def install(tracer: Tracer) -> None:
    """Replace every traced function, under every name any l1conc module
    imported it by, with its span-recording wrapper."""
    for modname, _, _ in TRACED:
        importlib.import_module(f"l1conc.{modname}")
    modules = [m for k, m in list(sys.modules.items())
               if k == "l1conc" or k.startswith("l1conc.")]
    for modname, qualname, keep in TRACED:
        owner = sys.modules[f"l1conc.{modname}"]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(f"{modname}.{qualname}", original, keep)
        setattr(owner, attr, wrapped)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


class PoolCounter:
    """Counts process pools the Monte Carlo layer starts; no spans."""

    def __init__(self):
        import l1conc.montecarlo as mc

        self.starts = 0
        base = mc.ProcessPoolExecutor
        counter = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counter.starts += 1
                super().__init__(*args, **kwargs)

        mc.ProcessPoolExecutor = CountingPool


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans: list, chunk_size: int, floors: dict) -> dict:
    """Counts and times per module from one traced repetition."""
    child_s = [0.0] * len(spans)
    stream_s = [0.0] * len(spans)  # stream set-up inside each span
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
            if name == "sampling.StreamKey.generator":
                stream_s[parent] += end - start

    count = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    net = defaultdict(float)  # duration less stream set-up
    rows = defaultdict(int)
    trials = chunks = multi = outcomes = ipc = report_bytes = 0
    for i, (name, start, end, _, detail) in enumerate(spans):
        dur = end - start
        count[name] += 1
        total[name] += dur
        self_s[name] += dur - child_s[i]
        net[name] += dur - stream_s[i]
        if detail and "size" in detail:
            rows[name] += detail["size"]
        if name == "montecarlo.draw_samples":
            k = math.ceil(detail["trials"] / chunk_size)
            trials += detail["trials"]
            chunks += k
            if k > 1:
                multi += 1
                ipc += 8 * detail["trials"]  # float64 samples sent back by workers
        elif name == "montecarlo.exact_tail_small":
            S = len(detail["p"])
            outcomes += math.comb(detail["n"] + S - 1, S - 1)
        elif name == "experiment.emit_report":
            report_bytes += detail["bytes"]

    def ratio(a, b):
        return a / b if b else 0.0

    multinomial_s = self_s["sampling.sample_multinomial_batch"]
    dirichlet_s = self_s["sampling.sample_dirichlet_batch"]
    limit_s = net["asymptotic.sample_Z_batch"]
    exact_s = total["montecarlo.exact_tail_small"]
    return {
        "sampling.streams": count["sampling.StreamKey.generator"],
        "sampling.stream_setup_s": total["sampling.StreamKey.generator"],
        "sampling.multinomial_s": multinomial_s,
        "sampling.multinomial_rows": rows["sampling.sample_multinomial_batch"],
        "sampling.multinomial_x_floor": ratio(multinomial_s, floors["binomial"]),
        "sampling.dirichlet_s": dirichlet_s,
        "sampling.dirichlet_rows": rows["sampling.sample_dirichlet_batch"],
        "sampling.dirichlet_x_floor": ratio(dirichlet_s, floors["gamma"]),
        "asymptotic.limit_s": limit_s,
        "asymptotic.limit_rows": rows["asymptotic.sample_Z_batch"],
        "asymptotic.limit_x_floor": ratio(limit_s, floors["normal"]),
        "asymptotic.helmert_s": total["asymptotic.helmert_t_apply"],
        "asymptotic.positive_part_s": total["asymptotic.limit_Z_from_Y"],
        "montecarlo.draw_calls": count["montecarlo.draw_samples"],
        "montecarlo.multi_chunk_calls": multi,
        "montecarlo.chunks": chunks,
        "montecarlo.trials_drawn": trials,
        "montecarlo.draw_s": total["montecarlo.draw_samples"],
        "montecarlo.draw_self_s": self_s["montecarlo.draw_samples"],
        "montecarlo.reduce_s": self_s["montecarlo.estimate_tail_probability"]
        + self_s["montecarlo.estimate_quantile_curve"],
        "montecarlo.ipc_bytes_computed": ipc,
        "montecarlo.intervals": count["montecarlo.clopper_pearson"]
        + count["montecarlo.dkw_halfwidth"],
        "montecarlo.interval_s": total["montecarlo.clopper_pearson"]
        + total["montecarlo.dkw_halfwidth"],
        "bounds.evaluations": count["bounds.evaluate_bound"],
        "bounds.evaluate_s": total["bounds.evaluate_bound"],
        "montecarlo.exact_cells": count["montecarlo.exact_tail_small"],
        "montecarlo.exact_outcomes": outcomes,
        "montecarlo.exact_s": exact_s,
        "montecarlo.exact_us_per_outcome": ratio(exact_s * 1e6, outcomes),
        "experiment.parse_s": total["experiment.parse_config"],
        "experiment.self_s": self_s["experiment.run_experiment"],
        "experiment.emit_s": total["experiment.emit_report"],
        "experiment.report_bytes": report_bytes,
        "cli.self_s": self_s["cli.main"],
    }


# ---------------------------------------------------------------------------
# raw-variate floors


def variate_floors(spans: list, chunk_size: int) -> dict:
    """Seconds to draw, straight from Philox, as many binomial, gamma and
    normal variates as the traced samplers drew, at the same parameters.

    Each parameter set is timed on at most one chunk of rows and scaled to
    the rows actually drawn.
    """
    jobs = defaultdict(int)  # (variate, shape parameter, S) -> rows drawn
    for name, _, _, _, d in spans:
        if name == "sampling.sample_multinomial_batch":
            jobs["binomial", d["n"], len(d["p"])] += d["size"]
        elif name == "sampling.sample_dirichlet_batch":
            jobs["gamma", d["alpha"][0], len(d["alpha"])] += d["size"]
        elif name == "asymptotic.sample_Z_batch":
            jobs["normal", None, d["S"]] += d["size"]

    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    floors = {"binomial": 0.0, "gamma": 0.0, "normal": 0.0}
    for (kind, param, S), rows in jobs.items():
        r = min(rows, chunk_size)
        t0 = time.perf_counter()
        if kind == "binomial":
            rng.binomial(param, 1.0 / S, size=(r, S - 1))
        elif kind == "gamma":
            rng.standard_gamma(param, size=(r, S))
        else:
            rng.standard_normal((r, S - 1))
        floors[kind] += (time.perf_counter() - t0) * rows / r
    return floors
