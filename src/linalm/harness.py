"""Experiment driver: instance construction, reference resolution, method
dispatch, rate fitting, and CSV trace emission."""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Optional, Union, get_type_hints

import numpy as np

from . import blalm, instances, lalm, pdyn
from .lalm import SolverConfig, check_types
from .model import kkt_residual
from .trace import write_trace_csv

CACHE_ENV_VAR = "LINALM_CACHE_DIR"
DEFAULT_CACHE_DIR = ".linalm_cache"
# KKT residual a long-run reference must reach, run and cached alike, and
# its epoch cap; the slowest reference measured took about 4.3e5 epochs.
_REFERENCE_KKT = 1e-10
_REFERENCE_EPOCHS = 1_000_000

METHODS = ("lalm", "blalm", "pdyn")
PROBLEMS = ("bpdn", "qcqp", "minimax")
# The problem_opts keys each generated problem accepts, with their types;
# its seed is ExperimentConfig.seed. Tiny and file instances accept none.
_PROBLEM_OPTS = {
    name: {k: v for k, v in get_type_hints(make).items() if k not in ("seed", "return")}
    for name, make in (("bpdn", instances.BpdnSpec), ("qcqp", instances.QcqpSpec),
                       ("minimax", instances.random_minimax_1d))
}


@dataclass
class ExperimentConfig:
    """One benchmark run: a method, an instance, and solver parameters.

    ``problem`` is one of 'bpdn', 'qcqp', 'minimax', 'tiny:<kind>', or a
    path to a serialized instance JSON file. ``problem_opts`` carries
    instance-size overrides, the keys ``_PROBLEM_OPTS`` names for the problem.
    ``reference`` is 'auto' (the hand value for tiny instances, a cached
    ``long_run_reference`` for every other one) or 'none'. The
    epoch budget is ``solver.max_epochs``. Every field's type is checked
    here, at construction.
    """

    method: str
    problem: str
    solver: SolverConfig = dataclass_field(default_factory=SolverConfig)
    seed: int = 0
    blocks: Optional[int] = None
    out: Union[str, os.PathLike, None] = None
    reference: str = "auto"
    problem_opts: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        check_types(vars(self), get_type_hints(ExperimentConfig))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.reference not in ("auto", "none"):
            raise ValueError("reference must be 'auto' or 'none'")


@dataclass
class RunResult:
    path: Path
    result: object
    reference: Optional[instances.ReferenceSolution]


def build_problem(config):
    """Construct the ProblemInstance named by the config; ``run`` partitions it."""
    name, opts, seed = config.problem, config.problem_opts, config.seed
    accepted = _PROBLEM_OPTS.get(name, {})
    unknown = sorted(set(opts) - set(accepted))
    if unknown:
        raise ValueError(f"problem {name!r} does not accept problem_opts "
                         f"{unknown}; it accepts {list(accepted)}")
    check_types(opts, accepted)
    if name.startswith("tiny:"):
        prob, _ = instances.tiny_reference(name.split(":", 1)[1])
    elif name == "bpdn":
        prob = instances.gen_bpdn(instances.BpdnSpec(seed=seed, **opts))
    elif name == "qcqp":
        prob = instances.gen_qcqp(instances.QcqpSpec(seed=seed, **opts))
    elif name == "minimax":
        _, prob = instances.random_minimax_1d(seed=seed, **opts)
    elif name.endswith(".json"):
        prob = instances.load_instance(name)
    else:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEMS}, "
                         "'tiny:<kind>', or an instance JSON path")
    return prob


def cache_dir():
    return Path(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR))


def resolve_reference(prob, config, clock=None):
    """Reference solution per the config policy: None for 'none', the hand
    triple for a tiny instance, and otherwise ``long_run_reference``, cached
    under ``cache_dir()``, whatever the instance's dimension."""
    if config.reference == "none":
        return None
    if prob.meta.get("kind") == "tiny" and prob.f0_star is not None:
        _, ref = instances.tiny_reference(prob.meta["tiny"])
        return ref
    return long_run_reference(prob, cache=cache_dir(), clock=clock)


def long_run_reference(prob, cache=None, clock=None):
    """High-accuracy reference from a long backtracking solver run.

    Runs the full-vector solver until every KKT residual component is at
    most 1e-10 (``_REFERENCE_KKT``) or 10^6 epochs (``_REFERENCE_EPOCHS``)
    are spent, and caches the result on disk keyed by the
    instance content hash. An unmet target gives a warning and the best
    point found, with its residual recorded. A malformed cached entry, or
    one whose residual is above the target, is recomputed and replaced;
    entries are renamed into place from a temporary file, never partial.
    """
    path = None
    if cache is not None:
        path = Path(cache) / f"{instances.instance_digest(prob)}.json"
        try:
            data = json.loads(path.read_text())
            if data["residual"] <= _REFERENCE_KKT:
                return instances.ReferenceSolution(
                    np.array(data["x"]), np.array(data["y"]), np.array(data["z"]),
                    data["f0"], data["provenance"], data["residual"])
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            pass  # no entry, a malformed one, or no recorded residual

    cfg = SolverConfig(beta=1.0, step_mode="backtracking",
                       max_epochs=_REFERENCE_EPOCHS, tol=_REFERENCE_KKT,
                       record_every=10)
    res = lalm.solve(prob.with_f0_star(None), cfg, x0=prob.meta.get("x0"),
                     clock=clock)
    kkt = kkt_residual(res.w, prob)
    residual = max(kkt)
    if residual > _REFERENCE_KKT:
        warnings.warn(f"reference run stopped at KKT residual {residual:.3e} "
                      f"(target {_REFERENCE_KKT:.1e}); using best point found")
    ref = instances.ReferenceSolution(res.w.x, res.w.y, res.w.z,
                                      float(prob.f0(res.w.x)), "long-run",
                                      residual=residual)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump({"x": ref.x.tolist(), "y": ref.y.tolist(),
                           "z": ref.z.tolist(), "f0": ref.f0,
                           "provenance": ref.provenance,
                           "residual": ref.residual}, fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return ref


def run(config, clock=None):
    """Build the instance, resolve its reference, run the method, write CSV.

    The reference is keyed on the instance without blalm's ``config.blocks``
    partition, which is made first, so that a bad block count costs no solve.
    Returns a RunResult carrying the CSV path, the SolveResult, and the
    resolved reference (if any). ``clock`` overrides the wall-clock source
    for the trace, making repeated runs byte-identical.
    """
    prob = build_problem(config)
    split = (prob.with_blocks(config.blocks)
             if config.method == "blalm" and config.blocks is not None else prob)
    reference = resolve_reference(prob, config, clock=clock)
    prob = split.with_f0_star(None if reference is None else reference.f0)

    x0 = prob.meta.get("x0")
    if config.method == "lalm":
        result = lalm.solve(prob, config.solver, x0=x0, clock=clock)
    elif config.method == "blalm":
        result = blalm.solve(prob, config.solver, x0=x0, seed=config.seed,
                             clock=clock)
    else:
        result = pdyn.solve(prob, config.solver, x0=x0, clock=clock)
    out = config.out or f"{config.method}_{_slug(config.problem)}.csv"
    path = write_trace_csv(result.trace, out)
    return RunResult(Path(path), result, reference)


def _slug(name):
    return name.replace(":", "_").replace("/", "_").replace(".json", "")


def rate_fit(trace, column, window):
    """Decay-rate fit for one trace column over an epoch window.

    Keeps records with window[0] <= epoch <= window[1] and a finite positive
    value in ``column``; a slope near -1 on the log-log scale corresponds to
    O(1/k) decay. The slope is the least-squares one of log(value) against
    log(epoch). Requires at least 10 usable samples.
    """
    lo, hi = window
    epochs, values = [], []
    for rec in trace:
        val = getattr(rec, column)
        if rec.epoch < lo or rec.epoch > hi or val is None:
            continue
        if val > 0 and np.isfinite(val):
            epochs.append(rec.epoch)
            values.append(val)
    if len(values) < 10:
        raise ValueError(f"need at least 10 positive samples in the window, "
                         f"found {len(values)}")
    return float(np.polyfit(np.log(epochs), np.log(values), 1)[0])
