"""Command-line front end.

Exit codes: 0 = ran, all bound checks Consistent; 10 = at least one Violated
verdict; 1 = usage or config error; 2 = capacity error.
"""

import argparse
import json
import sys

from .errors import CapacityError, ConfigError, ValidationError
from .experiment import (
    TASK_KINDS,
    ExperimentConfig,
    build_task,
    emit_plot_data,
    emit_report,
    parse_config,
    report_from_dict,
    run_experiment,
)
from .montecarlo import VIOLATED

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_VIOLATED = 10

# the task keys a run command takes as flags; their values reach build_task
# as text, so a bad flag fails exactly like the same key in a config file
TASK_FLAGS = {
    "S": "dimension, or comma list for asymptotic-mean sweeps",
    "n": "sample size for finite-n families",
    "delta": "failure probability, or comma list (falsify)",
    "threshold": "deviation threshold(s) for tail tasks",
    "grid": "CDF grid: 'lo:hi:count' or comma list (quantiles)",
    "trials": "Monte Carlo trials (default 10000)",
    "D": "box scale of the limit family (default 1)",
    "family": "distribution family: multinomial, dirichlet or limit",
    "bound": "weissman-union, weissman-exact, devroye or agrawal (falsify)",
}


class _Parser(argparse.ArgumentParser):
    """Turns usage errors into ConfigError, so they exit 1 like config errors."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_run_flags(sub):
    sub.add_argument("--config", help="config file; excludes the task flags")
    sub.add_argument("--seed", type=int, help="master seed (mandatory, never auto-generated)")
    for name, text in TASK_FLAGS.items():
        sub.add_argument(f"--{name}", help=text)
    sub.add_argument("--workers", type=int, help="parallel workers (default 1 or env)")
    sub.add_argument("--format", choices=["csv", "json"], default="json")
    sub.add_argument("--out", help="report output path (default stdout)")
    sub.add_argument("--plot-out", help="also write plot data for the task here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="l1conc",
        description="Monte Carlo verification of l1 concentration bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TASK_KINDS:
        _add_run_flags(sub.add_parser(name, help=f"run a {name} experiment"))
    rep = sub.add_parser("report", help="re-emit a saved JSON report")
    rep.add_argument("--in", dest="input", required=True, help="saved JSON report")
    rep.add_argument("--format", choices=["csv", "json"], default="json")
    rep.add_argument("--out", help="output path (default stdout)")
    rep.add_argument("--plot-task", help="emit plot data for this task id instead")
    return parser


def _config_from_flags(args, flags: dict) -> ExperimentConfig:
    if args.seed is None:
        raise ConfigError("--seed is required (seeds are never auto-generated)")
    errors: list[str] = []
    task = build_task(0, {"kind": (0, args.command), **flags}, errors)
    if errors:
        raise ConfigError("; ".join(errors))
    return ExperimentConfig(master_seed=args.seed, tasks=[task], workers=args.workers)


def _write(data: bytes, path: str | None):
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _run(args) -> int:
    flags = {key: (0, value) for key in TASK_FLAGS if (value := getattr(args, key)) is not None}
    if args.config and flags:
        raise ConfigError(f"--config cannot be combined with task flags: --{', --'.join(flags)}")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
        if args.workers is not None:
            config.workers = args.workers
        if args.seed is not None:
            config.master_seed = args.seed
    else:
        config = _config_from_flags(args, flags)
    report = run_experiment(config)
    _write(emit_report(report, args.format), args.out)
    if args.plot_out:
        _write(emit_plot_data(report, config.tasks[0].task_id), args.plot_out)
    violated = any(row.get("outcome") == VIOLATED for row in report.rows)
    return EXIT_VIOLATED if violated else EXIT_OK


def _reemit(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ConfigError(f"{args.input}: not a JSON report ({exc})")
    report = report_from_dict(obj)
    if args.plot_task:
        _write(emit_plot_data(report, args.plot_task), args.out)
    else:
        _write(emit_report(report, args.format), args.out)
    violated = any(row.get("outcome") == VIOLATED for row in report.rows)
    return EXIT_VIOLATED if violated else EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "report":
            return _reemit(args)
        return _run(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ConfigError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
