"""Time to tolerance and time per epoch of the linalm solvers.

One run takes a workload, a seed and a measuring time. It builds the
workload's instances from the seed (timed as ``setup_s``), solves them with
the public ``lalm`` / ``blalm`` / ``pdyn`` ``solve`` functions in a fixed
plan sized to the measuring time, and re-checks every result independently with
``kkt_residual`` on a point whose residual and constraint values it
recomputes from ``x``. A solve is one operation; it fails when it raises
``SolverError`` / ``ValueError``, exhausts its epoch budget, or misses the
tolerance on the re-check.

With tracing off the run reports the end-to-end metrics. With tracing on it
solves a fixed plan (each solver on the first few instances), every solve
twice: untraced, then traced with wrappers on the library's layer
boundaries. The pair must agree bitwise, which shows that the wrappers do
not perturb the solve; the time difference is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import linalm
from linalm import SolverError
from linalm.model import PrimalDualPoint, kkt_residual

from perfbench import workloads
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
# Solves not started this many times ``--seconds`` after the first one are
# counted as failed instead of run, so a much slower program still ends.
CUTOFF = 2.5


@dataclasses.dataclass
class Solve:
    """Outcome of one solve: wall time, work done, and the re-check."""

    label: str
    wall: float
    epochs: int = 0
    residual: float = float("nan")
    tol: float = 0.0
    stopped_early: bool = False
    error: str | None = None
    x: np.ndarray | None = None

    @property
    def reached(self):
        return self.error is None and bool(self.residual <= self.tol)

    @property
    def claim_refuted(self):
        """The solver stopped at tolerance but the re-check says otherwise."""
        return self.error is None and self.stopped_early and not self.reached

    @property
    def finite(self):
        return self.x is None or bool(np.all(np.isfinite(self.x)))


def recheck(res, prob):
    """Largest KKT component at the returned point, with the residual and
    constraint values recomputed from x rather than taken from the solver."""
    x = res.w.x
    point = PrimalDualPoint(x, res.w.y, res.w.z, prob.affine.residual(x),
                            prob.constraint_values(x))
    return float(max(kkt_residual(point, prob)))


def timed_solve(run, case, sampler_seed, callback=None):
    """(result or exception text, wall seconds) of one solve call."""
    start = perf_counter()
    try:
        res = run.solve(case, sampler_seed, callback)
    except (SolverError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}", perf_counter() - start
    return res, perf_counter() - start


def evaluate(run, case, outcome, wall):
    if isinstance(outcome, str):
        return Solve(run.label, wall, tol=run.tol, error=outcome)
    return Solve(run.label, wall, epochs=outcome.epochs,
                 residual=recheck(outcome, case.prob), tol=run.tol,
                 stopped_early=outcome.stopped_early, x=outcome.w.x)


def run_setup(workload, seed, n):
    """Set the workload's ``n`` instances up SETUP_REPEATS times.

    Returns (cases, generation failures, seconds per set-up).
    """
    times, cases = [], None
    for _ in range(SETUP_REPEATS):
        cases = None  # let the previous copy go before timing the next one
        start = perf_counter()
        cases, failures = workload.setup(seed, n)
        times.append(perf_counter() - start)
    return cases, failures, times


def warm_up(workload, cases):
    """One two-epoch solve per solver, so first-call costs stay out of timing."""
    for run in workload.runs:
        short = dataclasses.replace(
            run, config=dataclasses.replace(run.config, max_epochs=2, tol=0.0))
        timed_solve(short, cases[0], 0)


def measure(workload, cases, seed, seconds):
    """Solve the workload's fixed plan.

    Each baseline once on the first case, then every gated solver in turn on
    each case, so the solvers share the machine's slow and fast spells
    alike. A solve not started before the cut-off counts as failed.

    Returns {label: [Solve]}.
    """
    plan = [(run, 0) for run in workload.baselines] + [
        (run, i) for i in range(len(cases)) for run in workload.solvers]
    done = {run.label: [] for run in workload.runs}
    cutoff = perf_counter() + CUTOFF * seconds
    for run, i in plan:
        if perf_counter() > cutoff:
            solve = Solve(run.label, 0.0, tol=run.tol, error="not started "
                          f"within {CUTOFF:g} x --seconds")
        else:
            outcome, wall = timed_solve(run, cases[i], workloads.sampler_seed(seed, i))
            solve = evaluate(run, cases[i], outcome, wall)
        done[run.label].append(solve)
    return done


def measure_traced(workload, cases, seed, tracer):
    """The fixed traced plan: untraced and traced twin of every solve.

    Returns (untraced solves, traced solves, mismatches, blalm iteration
    seconds).
    """
    plain, traced, mismatches, iter_s = {}, {}, [], []
    for i in range(workload.trace_instances):
        for run in workload.runs:
            case, sseed = cases[i], workloads.sampler_seed(seed, i)
            outcome, wall = timed_solve(run, case, sseed)
            a = evaluate(run, case, outcome, wall)
            stamps = []
            callback = ((lambda k, state: stamps.append(perf_counter()))
                        if run.label == "blalm" else None)
            with tracer.installed(), tracer.solve_span(run.label, keep=(i == 0)):
                outcome, wall = timed_solve(run, case, sseed, callback)
            b = evaluate(run, case, outcome, wall)
            iter_s.extend(np.diff(stamps))
            plain.setdefault(run.label, []).append(a)
            traced.setdefault(run.label, []).append(b)
            same_x = (a.x is None and b.x is None) or (
                a.x is not None and b.x is not None
                and a.x.tobytes() == b.x.tobytes())
            if a.epochs != b.epochs or a.error != b.error or not same_x:
                mismatches.append(f"{run.label} on instance {i}: epochs "
                                  f"{a.epochs} vs {b.epochs}, same x: {same_x}")
    return plain, traced, mismatches, iter_s


# ---------------------------------------------------------------------------
# metrics


def time_to_tol(solves):
    """Mean wall seconds over the solves that reached tolerance: the batch's
    solve time per instance. Epochs to tolerance vary up to sixfold between
    instances, and over a run's few dozen instances the mean varies about
    half as much from seed to seed as the median does."""
    hits = [s.wall for s in solves if s.reached]
    return statistics.fmean(hits) if hits else None


def ms_per_epoch(solves):
    """Median over returned solves of wall milliseconds per epoch."""
    vals = [1e3 * s.wall / s.epochs for s in solves if s.epochs]
    return statistics.median(vals) if vals else None


def end_to_end(workload, done, setup_times):
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
    }
    for label in ("lalm", "blalm"):
        ttt, mpe = time_to_tol(done[label]), ms_per_epoch(done[label])
        if ttt is None or mpe is None:
            raise RuntimeError(f"no {label} solve reached tolerance on "
                               f"{workload.name}; time to tolerance is undefined")
        metrics[f"{label}.time_to_tol_s"] = (ttt, "s")
        metrics[f"{label}.ms_per_epoch"] = (mpe, "ms")
    return metrics


# Per-layer self times listed in BENCHMARK.json, as (metric, span name).
_SELF_TIMES = (
    ("model.oracle_s", ("model.oracle_value", "model.oracle_grad")),
    ("model.tracker_commit_s", ("model.tracker_commit",)),
    ("model.tracker_delta_value_s", ("model.tracker_delta_value",)),
    ("model.tracker_block_grad_s", ("model.tracker_block_grad",)),
    ("model.tracker_rebase_s", ("model.tracker_rebase",)),
    ("model.prox_s", ("model.prox",)),
    ("model.kkt_residual_s", ("model.kkt_residual",)),
    ("trace.snapshot_self_s", ("trace.snapshot",)),
    ("auglag.smooth_grad_s", ("auglag.smooth_grad",)),
    ("auglag.smooth_value_s", ("auglag.smooth_value",)),
    ("auglag.smooth_grad_block_s", ("auglag.smooth_grad_block",)),
    ("auglag.scalar_penalty_s", ("auglag.scalar_penalty",)),
    ("lalm.backtrack_s", ("lalm.backtrack",)),
    ("blalm.block_gradient_s", ("blalm.block_gradient",)),
    ("blalm.backtrack_block_s", ("blalm.backtrack_block",)),
    ("blalm.apply_block_s", ("blalm.apply_block",)),
    ("blalm.refresh_s", ("blalm.refresh",)),
)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, tracer, plain, traced, iter_s):
    """Per-layer metrics of the traced plan, with the bases of every ratio.

    Solve-level times are totals over the plan's traced lalm and blalm
    solves; per-epoch counts divide by their total epochs and leave out the
    oracle calls made while recording (``MetricsRecorder.snapshot``), which
    come back apart with pdyn's figures: only qcqp-p200-dense runs pdyn, and
    every metric must be measured on every workload. Set-up spans
    (generation and power iteration) are per generated instance.
    ``trace.unattributed_s`` holds the self time of the spans no metric
    names (the solver loops, multiplier steps and descent tests).
    """
    solvers = [r.label for r in workload.solvers]
    solves = [s for label in solvers for s in traced[label]]
    epochs = sum(s.epochs for s in solves)

    def self_s(*names):
        return sum(tracer.self_s(n, o) for n in names for o in solvers)

    def calls(name):
        return sum(tracer.calls(name, o) for o in solvers)

    def counter(key):
        return sum(tracer.counter(key, o) for o in solvers)

    def per_epoch(key, snapshot):
        """Calls of span ``key`` (or counter ``key``) per epoch, outside the
        snapshot or within it."""
        total = calls(key) if key.startswith("model.") else counter(key)
        inside = counter(f"snapshot:{key}")
        return _ratio(inside if snapshot else total - inside, epochs)

    def epochs_of(label):
        return sum(s.epochs for s in traced.get(label, []))

    solve_s = sum(tracer.incl_s(f"{label}.solve", label) for label in solvers)
    generated = tracer.calls("instances.gen", "setup")
    m = {
        "instances.gen_s": (_ratio(tracer.incl_s("instances.gen", "setup"),
                                   generated), "s"),
        "model.operator_norm_sq_s": (
            _ratio(tracer.self_s("model.operator_norm_sq", "setup"), generated), "s"),
        "model.oracle_value_calls_per_epoch": (
            per_epoch("model.oracle_value", False), "count"),
        "model.oracle_grad_calls_per_epoch": (
            per_epoch("model.oracle_grad", False), "count"),
        "model.matvec_bytes_per_epoch": (per_epoch("matvec_bytes", False), "bytes"),
        "model.tracker_commit_calls": (calls("model.tracker_commit"), "count"),
        "auglag.smooth_grad_calls": (calls("auglag.smooth_grad"), "count"),
        "auglag.scalar_penalty_calls": (calls("auglag.scalar_penalty"), "count"),
    }
    for metric, names in _SELF_TIMES:
        m[metric] = (self_s(*names), "s")

    for label, per in (("lalm", "epoch"), ("blalm", "iter")):
        trials = tracer.counter("backtrack_trials", label)
        accepted = tracer.counter("backtrack_calls", label)
        evaluated = trials + accepted
        den = epochs_of(label) if per == "epoch" else accepted
        m[f"{label}.epochs_to_tol"] = (_median_epochs(traced.get(label)), "count")
        m[f"{label}.backtrack_trials_per_{per}"] = (_ratio(trials, den), "count")
        m[f"{label}.backtrack_accept_ratio"] = (_ratio(accepted, evaluated), "ratio")
        m[f"{label}.backtrack_accepted"] = (accepted, "count")
        m[f"{label}.backtrack_evaluated"] = (evaluated, "count")

    iter_ms = 1e3 * np.asarray(iter_s) if iter_s else np.zeros(1)
    m["blalm.iter_ms.p50"] = (float(np.percentile(iter_ms, 50)), "ms")
    m["blalm.iter_ms.p99"] = (float(np.percentile(iter_ms, 99)), "ms")
    lalm_mpe, blalm_mpe = ms_per_epoch(plain["lalm"]), ms_per_epoch(plain["blalm"])
    m["blalm.epoch_cost_ratio"] = (_ratio(blalm_mpe, lalm_mpe), "ratio")
    bases = {"blalm.epoch_cost_ratio": (
        f"blalm {blalm_mpe:.4f} ms/epoch", f"lalm {lalm_mpe:.4f} ms/epoch (untraced twins)")}

    extra = {
        "recording: oracle value calls per epoch": (
            per_epoch("model.oracle_value", True), "count"),
        "recording: oracle grad calls per epoch": (
            per_epoch("model.oracle_grad", True), "count"),
        "recording: matvec bytes per epoch (computed)": (
            per_epoch("matvec_bytes", True), "bytes"),
    }
    if "pdyn" in plain:
        extra.update({
            "pdyn.epochs_to_tol": (_median_epochs(traced["pdyn"]), "count"),
            "pdyn.step_s": (tracer.self_s("pdyn.step", "pdyn"), "s"),
            "pdyn.direction_s": (tracer.self_s("pdyn.direction", "pdyn"), "s"),
            "pdyn.phi_calls_per_epoch": (
                _ratio(tracer.calls("pdyn.phi", "pdyn"), epochs_of("pdyn")), "count"),
            "pdyn.time_to_tol_s (untraced)": (time_to_tol(plain["pdyn"]), "s"),
            "pdyn.ms_per_epoch (untraced)": (ms_per_epoch(plain["pdyn"]), "ms"),
        })

    snapshot_s = sum(tracer.incl_s("trace.snapshot", o) for o in solvers)
    untraced_s = sum(s.wall for label in solvers for s in plain[label])
    m["trace.snapshot_calls"] = (calls("trace.snapshot"), "count")
    m["trace.snapshot_s"] = (snapshot_s, "s")
    m["trace.snapshot_share"] = (_ratio(snapshot_s, solve_s), "ratio")
    m["trace.solve_s"] = (solve_s, "s")
    m["trace.untraced_solve_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (solve_s - untraced_s, "s")
    m["trace.unattributed_s"] = (
        solve_s - sum(m[metric][0] for metric, _ in _SELF_TIMES), "s")
    bases["trace.snapshot_share"] = (f"trace.snapshot_s {snapshot_s:.4f} s",
                                     f"trace.solve_s {solve_s:.4f} s")
    for label in ("lalm", "blalm"):
        bases[f"{label}.backtrack_accept_ratio"] = (
            f"accepted {m[f'{label}.backtrack_accepted'][0]:.0f}",
            f"evaluated {m[f'{label}.backtrack_evaluated'][0]:.0f}")
    return m, bases, extra


def _median_epochs(solves):
    """Median epochs run; a solve that missed tolerance ran its whole budget."""
    return float(statistics.median(s.epochs for s in solves)) if solves else 0.0


# ---------------------------------------------------------------------------
# report


def environment(cases):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        for line in out.splitlines():
            key, _, val = line.partition(" ")
            if key in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE") and val.strip():
                caches[key] = int(val.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    per_case = cases[0].working_set_bytes
    mib = 1 << 20
    lines = [
        f"env python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, {blas.get('name', 'blas')} "
        f"{blas.get('version', 'unknown')}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
        f"env nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
        + ", ".join(f"{k.split('_')[0].title()} {v / mib:.0f} MiB"
                    for k, v in caches.items()),
        f"working set (computed) {per_case / 1e6:.1f} MB per instance, "
        f"{len(cases)} instances, {per_case * len(cases) / 1e6:.1f} MB in all",
        "a dense quadratic matvec does 2 flops per 8 bytes read: 0.25 flop/byte "
        "(computed); no roofline ratio is given, since a working set below "
        "the L3 size is not a bandwidth measurement",
    ]
    return lines


def solver_lines(workload, done):
    lines = []
    for run in workload.runs:
        solves = done[run.label]
        failed = sum(not s.reached for s in solves)
        ttt, mpe = time_to_tol(solves), ms_per_epoch(solves)
        lines.append(
            f"{run.label}: {len(solves)} solves, {failed} failed, "
            f"time_to_tol_s mean {_fmt(ttt)} s (n={len(solves) - failed}), "
            f"ms_per_epoch median {_fmt(mpe)} ms, "
            f"epochs median {_median_epochs(solves):.0f}, tol {run.tol:g}")
        for s in solves:
            if not s.reached:
                lines.append(f"  {run.label} failed: "
                             + (s.error or f"max KKT {s.residual:.3e} after "
                                f"{s.epochs} epochs"))
    return lines


def layer_table(workload, tracer, solve_s):
    """Self time of every span per solver; the shares add up to the solve time."""
    solvers = [r.label for r in workload.solvers]
    names = sorted({n for (o, n) in tracer.totals if o in solvers})
    lines = [f"{'span (self time, s)':32s}" + "".join(f"{s:>11s}" for s in solvers)
             + f"{'share':>8s}"]
    total = 0.0
    for name in names:
        vals = [tracer.self_s(name, s) for s in solvers]
        total += sum(vals)
        label = name + (" (solver loop)" if name.endswith(".solve") else "")
        lines.append(f"{label:32s}" + "".join(f"{v:11.4f}" for v in vals)
                     + f"{_ratio(sum(vals), solve_s):8.1%}")
    lines.append(f"{'sum of self times':32s}{total:11.4f} s = traced solve time "
                 f"{solve_s:.4f} s")
    return lines


def _fmt(v):
    return "n/a" if v is None else f"{v:.4f}"


def run(workload, seed, seconds, trace, out_dir=None, echo=print):
    """One benchmark run; returns the result object printed as JSON."""
    if trace:
        tracer = Tracer()
        with tracer.installed():
            cases, gen_failures, setup_times = run_setup(
                workload, seed, workload.trace_instances)
    else:
        cases, gen_failures, setup_times = run_setup(
            workload, seed, workload.instances(seconds))
    for line in environment(cases):
        echo(line)
    for text in gen_failures:
        echo(f"generation failed, counted as a failed operation: {text}")
    warm_up(workload, cases)

    if not trace:
        done = measure(workload, cases, seed, seconds)
        for line in solver_lines(workload, done):
            echo(line)
        metrics = end_to_end(workload, done, setup_times)
        mismatches, bases, runs = [], {}, [done]
    else:
        plain, done, mismatches, iter_s = measure_traced(workload, cases, seed, tracer)
        metrics, bases, extra = per_layer(workload, tracer, plain, done, iter_s)
        for name, (value, unit) in extra.items():
            echo(f"{name} = {_fmt(value)} {unit}")
        runs = [plain, done]
        echo("untraced twins:")
        for line in solver_lines(workload, plain):
            echo("  " + line)
        echo("traced:")
        for line in solver_lines(workload, done):
            echo("  " + line)
        for line in layer_table(workload, tracer, metrics["trace.solve_s"][0]):
            echo(line)
        if out_dir is not None:
            path = tracer.write_spans(
                Path(out_dir) / f"spans-{workload.name}-seed{seed}.jsonl.gz")
            echo(f"spans of the first traced solve per solver: {path}")
        for text in mismatches:
            echo(f"MISMATCH between traced and untraced solve: {text}")

    for name, (value, unit) in metrics.items():
        echo(f"{name} = {value:.6g} {unit}")
    for name, (num, den) in bases.items():
        echo(f"ratio {name} = {metrics[name][0]:.4g} = {num} / {den}")

    solves = [s for group in runs for label in group for s in group[label]]
    refuted = [s for s in solves if s.claim_refuted]
    for s in refuted:
        echo(f"{s.label} stopped at tolerance but the re-check gives "
             f"{s.residual:.3e} > {s.tol:g}")
    correct = not mismatches and not refuted and all(s.finite for s in solves)
    return {
        "correct": correct,
        "attempted": len(solves) + len(gen_failures),
        "failed": sum(not s.reached for s in solves) + len(gen_failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload in turn, each in its own process so that peak memory
    stays per workload; the exit code is the first nonzero one, if any."""
    codes = [subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                             "--workload", name, "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
             for name in workloads.NAMES]
    return next((c for c in codes if c), 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = Path(linalm.__file__).resolve().parent.parent
    if src != ROOT / "src":
        raise SystemExit(f"linalm imported from {src}, not from {ROOT / 'src'}")
    result = run(workloads.get(args.workload), args.seed, args.seconds,
                 bool(args.trace), out_dir=ROOT / ".perfbench_out")
    print(json.dumps(result), flush=True)
    return 0

