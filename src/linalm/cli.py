"""Command-line benchmark runner.

    linalm solve --problem bpdn --method lalm --epochs 1000 --out run.csv

Flags override values from an optional JSON config file: one flat object
whose keys are the field names of ``SolverConfig`` and ``ExperimentConfig``
(``rho_y``, ``step_mode``, ``record_every``, ``problem_opts``, ...) plus
``epochs``, the flag's name for ``max_epochs``. Exit status is nonzero when
instance construction or the solver fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import ExperimentConfig, run
from .lalm import SolverConfig

_SOLVER_KEYS = tuple(f.name for f in dataclasses.fields(SolverConfig)
                     if f.name != "max_epochs")
_RUN_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig)
                  if f.name != "solver") + ("epochs",)


def build_parser():
    parser = argparse.ArgumentParser(prog="linalm")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("solve", help="run one method on one instance")
    p.add_argument("--problem", help="bpdn | qcqp | minimax | tiny:<kind> | FILE.json")
    p.add_argument("--method", choices=("lalm", "blalm", "pdyn"))
    p.add_argument("--seed", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--rho-y", dest="rho_y", type=float)
    p.add_argument("--rho-z", dest="rho_z", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--blocks", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--eta0", type=float)
    p.add_argument("--config", help="JSON file keyed by SolverConfig and "
                   "ExperimentConfig field names (rho_y, step_mode, ...) and epochs")
    p.add_argument("--out", help="trace CSV path")
    return parser


def _merged_options(args):
    opts = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object, "
                             f"not a {type(loaded).__name__}")
        opts.update(loaded)
    for key, val in vars(args).items():
        if key not in ("command", "config") and val is not None:
            opts[key] = val
    return opts


def config_from_options(opts):
    unknown = set(opts) - set(_SOLVER_KEYS) - set(_RUN_KEYS)
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    if "problem" not in opts or "method" not in opts:
        raise ValueError("--problem and --method are required (flag or config file)")
    solver = SolverConfig(max_epochs=opts.get("epochs", 100_000),
                          **{k: opts[k] for k in _SOLVER_KEYS if k in opts})
    return ExperimentConfig(solver=solver, **{
        k: opts[k] for k in _RUN_KEYS if k in opts and k != "epochs"})


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_options(_merged_options(args))
        result = run(config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rec = result.result.trace[-1]
    print(f"wrote {result.path} ({result.result.epochs} epochs, "
          f"final feasibility {rec.feas:.3e}, KKT stationarity {rec.kkt_stat:.3e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
