"""The three benchmark workloads: inputs made from a seed, one run of each
through the package's public entry points, and the correctness checks.

``make_inputs`` runs in the orchestrator and needs no l1conc import; the
rest runs in a repetition process after ``src/`` is on ``sys.path``.
"""

import hashlib
import json
import math
import random
import time
from pathlib import Path

# Worker count of the untraced end-to-end run of each workload.
WORKERS = {"falsify-grid": 2, "limit-law": 2, "exact-oracle": 1}

# falsify-grid: a proven-bound grid whose cells each need two chunks (so
# every such draw at 2 workers starts a pool), beside the Agrawal cells that
# the paper shows violated.
GRID_BOUNDS = ("weissman-union", "weissman-exact", "devroye")
GRID_S = (2, 5, 10, 50)
GRID_N = (100, 1000, 10000)
GRID_DELTAS = (0.1, 0.01)
GRID_TRIALS = 20000
AGRAWAL_DELTAS = (0.1, 0.05, 0.01)
AGRAWAL_TRIALS = 10000
DIRICHLET_TRIALS = 20000

# limit-law: few draws of many chunks each.
LIMIT_MEAN_S = (2, 10, 50, 200)
LIMIT_TRIALS = 1 << 17
# 1 - 1e-6 keeps the coverage check's false-alarm rate near one in a million
# rows; at the default 0.95 one row in twenty would miss by chance.
LIMIT_MEAN_CI = 0.999999
QUANTILE_S = 50
QUANTILE_GRID = "0:12:121"
TAIL_S = 200
TAIL_DELTAS = (0.1, 0.05, 0.01)

# exact-oracle: (S, n) cells small enough to enumerate a few times a run.
ORACLE_CELLS = ((3, 150), (3, 250), (5, 20), (10, 8))
ORACLE_THRESHOLD_FACTORS = (0.8, 1.0, 1.2)
ORACLE_TRIALS = 10**5
# band level of the DKW check: a 5.4-sigma half-width at 1e5 trials
ORACLE_BAND = 1e-6


def limit_mean(S: int, D: float) -> float:
    """Closed-form mean D*sqrt((S-1)/(2*pi)) of the limit variable."""
    return D * math.sqrt((S - 1.0) / (2.0 * math.pi))


def anticoncentration(S: int, delta: float) -> float:
    return math.sqrt(2.0 * (S - 1.0) / math.pi) - math.sqrt(2.0 * math.log(2.0 / delta))


def make_inputs(name: str, seed: int) -> dict:
    """Everything a repetition needs, as plain JSON; equal seeds give equal inputs."""
    rng = random.Random(seed)
    master_seed = rng.getrandbits(32)
    if name == "falsify-grid":
        return _falsify_grid(master_seed)
    if name == "limit-law":
        return _limit_law(master_seed)
    if name == "exact-oracle":
        return _exact_oracle(master_seed, rng)
    raise ValueError(f"unknown workload {name!r}")


def _task(**kv) -> str:
    return "[task]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())


def _falsify_grid(master_seed: int) -> dict:
    deltas = ",".join(map(str, AGRAWAL_DELTAS))
    blocks = [_task(kind="falsify", bound="agrawal", S=50, n=10000, delta=deltas,
                    trials=AGRAWAL_TRIALS)]
    trials = len(AGRAWAL_DELTAS) * AGRAWAL_TRIALS
    for bound in GRID_BOUNDS:
        for S in GRID_S:
            for n in GRID_N:
                blocks.append(_task(kind="falsify", bound=bound, S=S, n=n,
                                    delta=",".join(map(str, GRID_DELTAS)),
                                    trials=GRID_TRIALS))
                trials += len(GRID_DELTAS) * GRID_TRIALS
    blocks.append(_task(kind="falsify", family="dirichlet", bound="agrawal", S=50,
                        n=10000, delta=0.05, trials=DIRICHLET_TRIALS))
    trials += DIRICHLET_TRIALS
    config = f"master_seed = {master_seed}\n\n" + "\n".join(blocks)
    return {"kind": "cli", "command": "falsify", "config": config, "trials": trials,
            "exit_code": 10}


def _limit_law(master_seed: int) -> dict:
    thresholds = ",".join(repr(anticoncentration(TAIL_S, d)) for d in TAIL_DELTAS)
    blocks = [
        _task(kind="asymptotic-mean", S=",".join(map(str, LIMIT_MEAN_S)),
              trials=LIMIT_TRIALS, ci_level=LIMIT_MEAN_CI),
        _task(kind="quantiles", family="limit", S=QUANTILE_S, D=2, grid=QUANTILE_GRID,
              trials=LIMIT_TRIALS),
        _task(kind="tail", family="limit", S=TAIL_S, D=2, threshold=thresholds,
              trials=LIMIT_TRIALS),
    ]
    trials = (len(LIMIT_MEAN_S) + 2) * LIMIT_TRIALS
    config = f"master_seed = {master_seed}\n\n" + "\n".join(blocks)
    return {"kind": "cli", "command": "asymptotic-mean", "config": config,
            "trials": trials, "exit_code": 0}


def _exact_oracle(master_seed: int, rng: random.Random) -> dict:
    cells = []
    for S, n in ORACLE_CELLS:
        # thresholds around the asymptotic mean of the l1 deviation, jittered
        # by the seed but kept in place so the enumeration work stays level
        m = math.sqrt(2.0 * (S - 1.0) / (math.pi * n))
        thresholds = [m * f * (1.0 + rng.uniform(-0.05, 0.05))
                      for f in ORACLE_THRESHOLD_FACTORS]
        cells.append({"S": S, "n": n, "thresholds": thresholds})
    trials = ORACLE_TRIALS * sum(len(c["thresholds"]) for c in cells)
    return {"kind": "api", "master_seed": master_seed, "cells": cells,
            "trials": trials}


# ---------------------------------------------------------------------------
# repetition side: runs after l1conc is importable


def prepare(inputs: dict, workdir: Path) -> None:
    """The set-up a user pays before the first result: parse the config."""
    if inputs["kind"] == "cli":
        from l1conc.experiment import parse_config

        path = workdir / "config.ini"
        path.write_text(inputs["config"])
        parse_config(path.read_text())
    else:
        from l1conc.montecarlo import DeviationSource

        for cell in inputs["cells"]:
            DeviationSource("multinomial", cell["S"], n=cell["n"])


def run(inputs: dict, workers: int, workdir: Path) -> dict:
    """One run of the workload; returns its timings, report digest and checks."""
    if inputs["kind"] == "cli":
        return _run_cli(inputs, workers, workdir)
    return _run_api(inputs, workers)


def _run_cli(inputs: dict, workers: int, workdir: Path) -> dict:
    from l1conc import cli

    out = workdir / f"report-{workers}.json"
    argv = [inputs["command"], "--config", str(workdir / "config.ini"),
            "--workers", str(workers), "--out", str(out)]
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    data = out.read_bytes()
    rows = json.loads(data)["rows"]
    checks = [("exit_code", code == inputs["exit_code"])]
    if inputs["command"] == "falsify":
        checks += _falsify_checks(rows)
    else:
        checks += _limit_checks(rows)
    return {"wall_s": wall, "mc_s": wall, "trials": inputs["trials"],
            "digest": hashlib.sha256(data).hexdigest(), "checks": checks}


def _falsify_checks(rows: list) -> list:
    checks = []
    for row in rows:
        tag = f"{row['task_id']}:{row['family']}:S={row['S']}:n={row['n']}:d={row['delta']}"
        if row["family"] == "Agrawal" and row["S"] == 50:
            checks.append((tag, row["outcome"] == "Violated" and row["point"] >= 0.5))
        elif row["family"] != "Agrawal":
            checks.append((tag, row["outcome"] != "Violated"))
    return checks


def _limit_checks(rows: list) -> list:
    checks = []
    cdf = []
    for row in rows:
        if row["kind"] == "asymptotic-mean":
            want = limit_mean(row["S"], row["D"])
            checks.append((f"mean:S={row['S']}", row["ci_low"] <= want <= row["ci_high"]))
        elif row["kind"] == "tail":
            delta = next(d for d in TAIL_DELTAS
                         if anticoncentration(TAIL_S, d) == row["threshold"])
            sigma = math.sqrt(delta * (1.0 - delta) / row["trials"])
            checks.append((f"anticoncentration:d={delta}",
                           row["point"] >= 1.0 - delta - 3.0 * sigma))
        elif row["kind"] == "quantiles":
            cdf.append(row["point"])
    ok = len(cdf) == int(QUANTILE_GRID.split(":")[2]) and all(
        0.0 <= a <= b <= 1.0 for a, b in zip(cdf, cdf[1:]))
    checks.append(("quantiles:monotone-cdf", ok))
    return checks


def _run_api(inputs: dict, workers: int) -> dict:
    import numpy as np

    from l1conc.montecarlo import DeviationSource, estimate_tail_probability, exact_tail_small

    seed = inputs["master_seed"]
    exact, mc = [], []
    t0 = time.perf_counter()
    for cell in inputs["cells"]:
        p = np.full(cell["S"], 1.0 / cell["S"])
        exact.extend(exact_tail_small(p, cell["n"], t) for t in cell["thresholds"])
    t1 = time.perf_counter()
    for i, cell in enumerate(inputs["cells"]):
        source = DeviationSource("multinomial", cell["S"], n=cell["n"])
        mc.extend(estimate_tail_probability(source, t, ORACLE_TRIALS, seed,
                                            stream=i, workers=workers)
                  for t in cell["thresholds"])
    t2 = time.perf_counter()
    half = math.sqrt(math.log(2.0 / ORACLE_BAND) / (2.0 * ORACLE_TRIALS))
    checks, values = [], []
    labels = [(c["S"], c["n"], t) for c in inputs["cells"] for t in c["thresholds"]]
    for (S, n, t), e, est in zip(labels, exact, mc):
        checks.append((f"oracle:S={S}:n={n}:t={t:.6f}", abs(est.point - e) <= half))
        values.append([repr(e), repr(est.point), repr(est.ci_low), repr(est.ci_high)])
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    return {"wall_s": t2 - t0, "mc_s": t2 - t1, "oracle_s": t1 - t0,
            "trials": inputs["trials"], "digest": digest, "checks": checks}
