"""Parent/change A/B runs of the benchmark, from outside ``perfbench/``,
and the seed-0 check set on both trees.

    python3 tools/bench.py ab --parent REV --pairs 10 --seed 0 --seconds 50 \\
        [--workload NAME ...] [--out FILE]
    python3 tools/bench.py same --parent REV [--allow-arithmetic]

``ab`` runs the unchanged ``perfbench/run.py`` of this working tree (the
change) and of REV's committed files (the parent), which ``git archive``
unpacks into a temporary directory, so nothing is registered in ``.git``.
Each run is a fresh process at ``--trace 0``. Every pair runs each workload
on both sides, the parent first in even pairs and the change first in odd
ones. A run that exits nonzero or does not print ``"correct": true`` stops
the tool with an error and nothing is written.

Per workload and metric it prints the change/parent median ratio, both
sides' quartiles, the pairs the change won (ties count for neither side)
and a verdict, with the direction and bound of each metric read from
``BENCHMARK.json``:

* gain: the change's median is better, it won at least 9 of every 10
  pairs, and the medians differ by more than the parent's interquartile
  distance;
* regressed: the change's median is worse than the parent's by more than
  the bound;
* unresolved: the parent's interquartile distance exceeds the bound times
  its median, and not every change run beats every parent run; also any
  metric that has no bound and no gain;
* unchanged: otherwise.

``--out`` writes every run's value and the verdicts as JSON. ``ab`` uses
the standard library only and never imports linalm.

``same`` unpacks REV's committed files the same way and imports both trees'
``src/linalm`` into this process, under the names ``linalm_change`` and
``linalm_parent`` (the package imports itself only relatively). It runs the
check set (``check_set``) on each and prints, per solver and field, either
"bitwise" or the largest relative deviation over the solver's runs. Every
field of the solve is compared but the records' ``time_ms``. It exits 1 on
any difference unless ``--allow-arithmetic`` is given, for a change that
states its arithmetic changes.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# the verdict rule


def quartiles(values):
    """(first quartile, median, third quartile), interpolated inclusively."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent, change, better, bound):
    """The A/B summary of one metric from per-pair values: ``parent[k]``
    and ``change[k]`` come from pair k. ``better`` is "lower" or "higher";
    ``bound`` is the relative worsening allowed, or None."""
    lower = better == "lower"

    def beats(a, b):
        return a < b if lower else a > b

    p_q, c_q = quartiles(parent), quartiles(change)
    mp, mc = p_q[1], c_q[1]
    spread = p_q[2] - p_q[0]
    wins = sum(beats(c, p) for p, c in zip(parent, change))
    if mp:
        worse_by = (mc - mp if lower else mp - mc) / abs(mp)
    else:
        worse_by = float("inf") if beats(mp, mc) else 0.0
    if beats(mc, mp) and 10 * wins >= 9 * len(parent) and abs(mc - mp) > spread:
        verdict = "gain"
    elif bound is None:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    elif spread > bound * abs(mp) and not all(beats(c, p) for c in change
                                              for p in parent):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"ratio": mc / mp if mp else None, "parent_quartiles": list(p_q),
            "change_quartiles": list(c_q), "wins": wins, "pairs": len(parent),
            "bound": bound, "better": better, "verdict": verdict,
            "parent": list(parent), "change": list(change)}


# ---------------------------------------------------------------------------
# running the benchmark


def run_once(tree, workload, seed, seconds):
    """One ``perfbench/run.py`` run in ``tree``: (result object, env lines).
    Refuses a run that fails or is not correct."""
    cmd = [sys.executable, str(Path(tree) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise RuntimeError(f"{workload} run in {tree} is not correct: {lines[-1]}")
    return result, [line for line in lines if line.startswith("env ")]


def run_pairs(change_tree, parent_tree, workloads, seed, seconds, pairs,
              progress=None):
    """Every run of ``pairs`` alternating pairs: returns {side: {workload:
    [result, ...]}} and the env lines of each side's first run."""
    runs = {"parent": {w: [] for w in workloads}, "change": {w: [] for w in workloads}}
    env = {}
    trees = {"parent": parent_tree, "change": change_tree}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result, env_lines = run_once(trees[side], workload, seed, seconds)
                runs[side][workload].append(result)
                env.setdefault(side, env_lines)
                if progress is not None:
                    progress(k, workload, side, result)
    return runs, env


def summarize(runs, spec):
    """Per workload: each metric's ``compare`` summary and each side's
    failed/attempted operations, with directions and bounds from ``spec``,
    the parsed BENCHMARK.json."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec.get("per_layer", [])}
    out = {}
    for workload, parent_runs in runs["parent"].items():
        change_runs = runs["change"][workload]
        names = [n for n in parent_runs[0]["metrics"]
                 if all(n in r["metrics"] for r in parent_runs + change_runs)]
        metrics = {}
        for name in names:
            metrics[name] = compare(
                [r["metrics"][name]["value"] for r in parent_runs],
                [r["metrics"][name]["value"] for r in change_runs],
                better.get(name, "lower"), bounds.get(name))
            metrics[name]["unit"] = parent_runs[0]["metrics"][name]["unit"]
        out[workload] = {
            "metrics": metrics,
            "failed": {side: [sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)]
                       for side, rs in (("parent", parent_runs), ("change", change_runs))},
        }
    return out


def report(summary):
    """The summary as text lines, one row per workload and metric."""
    lines = [f"{'workload':16s} {'metric':22s} {'ratio':>7s} "
             f"{'parent q1/q2/q3':>26s} {'change q1/q2/q3':>26s} "
             f"{'wins':>6s}  verdict"]
    for workload, part in summary.items():
        for name, m in part["metrics"].items():
            ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}"
            lines.append(
                f"{workload:16s} {name:22s} {ratio:>7s} "
                + " ".join(f"{'/'.join(f'{v:.4g}' for v in m[q]):>26s}"
                           for q in ("parent_quartiles", "change_quartiles"))
                + f" {m['wins']:>3d}/{m['pairs']:<2d}  {m['verdict']}")
        failed = part["failed"]
        lines.append(f"{workload:16s} failed operations: parent "
                     f"{failed['parent'][0]}/{failed['parent'][1]}, change "
                     f"{failed['change'][0]}/{failed['change'][1]}")
    return lines


def _git(*args, repo=ROOT):
    return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_tree(repo, rev, dest):
    """Unpack the files committed at ``rev`` in ``repo`` into ``dest``,
    from ``git archive``: a plain directory, registered nowhere in ``.git``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=repo,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                else {}))


def ab(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        export_tree(ROOT, parent, tree)
        runs, env = run_pairs(
            ROOT, tree, workloads, args.seed, args.seconds, args.pairs,
            progress=lambda k, w, side, r: print(
                f"pair {k}: {w} {side} done", file=sys.stderr, flush=True))
    summary = summarize(runs, spec)
    for line in report(summary):
        print(line)
    if args.out:
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        Path(args.out).write_text(json.dumps({
            "parent": parent, "change": _git("rev-parse", "HEAD")
            + (" with uncommitted changes" if dirty else ""),
            "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
            "order": "parent first in even pairs, change first in odd pairs",
            "env": env, "workloads": summary}, indent=1) + "\n")
    return 0


# ---------------------------------------------------------------------------
# the seed-0 check set on two trees


def load_library(src, name):
    """Import the package in directory ``src`` as the top-level module
    ``name``; relative imports inside it resolve to its own files. Modules
    an earlier import left under that name are dropped first."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, Path(src) / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _instance_seeds(seed, n):
    """perfbench's instance seeds of a run seed (``Workload.instance_seeds``)."""
    import numpy as np
    return [int(c.generate_state(1)[0])
            for c in np.random.SeedSequence(seed).spawn(n)]


def _sampler_seed(seed, k):
    """perfbench's blalm sampler seed on instance k (``sampler_seed``)."""
    import numpy as np
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# The gated workloads' settings, as perfbench/workloads.py gives them
# (tests/test_bench_tool.py compares the two): per workload, the instances
# of the check set, the generator's spec and every solver as (label,
# config, blocks or None, start from the instance's meta x0).
CHECK_WORKLOADS = {
    "qcqp-p200-dense": (2, ("QcqpSpec", {"m": 10, "p": 200}), (
        ("lalm", {"beta": 0.1, "rho_y": 0.1, "rho_z": 0.1, "max_epochs": 2500,
                  "record_every": 1, "tol": 1e-6}, None, False),
        ("blalm", {"beta": 0.1, "rho_y": 0.1 / 20, "rho_z": 0.1 / 20,
                   "max_epochs": 500, "record_every": 1, "tol": 1e-6}, 20, False),
        ("pdyn", {"beta": 0.1, "max_epochs": 4000, "record_every": 1,
                  "tol": 1e-4}, None, False))),
    "bpdn-batch": (4, ("BpdnSpec", {"rows": 50, "cols": 100, "sparsity": 5}), (
        ("lalm", {"beta": 1.0, "rho_y": 1.0, "rho_z": 1.0, "max_epochs": 20_000,
                  "record_every": 10, "tol": 1e-6}, None, True),
        ("blalm", {"beta": 1.0, "rho_z": 0.1, "max_epochs": 5000,
                   "record_every": 10, "tol": 1e-6}, 10, True))),
}


def _fields(res):
    """Every compared field of a SolveResult: the final point, the ergodic
    point, eta, epochs, the stop flag and each record field but time_ms."""
    out = {name: getattr(res.w, name) for name in ("x", "y", "z", "r", "fvals")}
    out.update(ergodic_x=res.ergodic_x, eta=res.eta, epochs=res.epochs,
               stopped_early=res.stopped_early)
    for name in vars(res.trace[0]):
        if name != "time_ms":
            out[f"trace.{name}"] = [getattr(rec, name) for rec in res.trace]
    return out


def _solve(lib, solver, prob, config, **kwargs):
    mod = getattr(lib, solver)
    return _fields(mod.solve(prob, lib.SolverConfig(**config), **kwargs))


def check_set(lib, seed=0):
    """The check set on library ``lib``: (solver label, thunk returning the
    run's fields) for 22 runs. The gated workloads' first
    instances of ``seed`` (2 QCQPs with lalm, blalm and pdyn, 4 BPDNs with
    lalm and blalm), and analytic steps, which no workload takes: lalm,
    blalm on 4 blocks and fixed-step pdyn on two m=3, p=12 QCQPs, and lalm
    and blalm on the equality-constrained tiny reference."""
    runs = []
    for count, (spec, opts), solvers in CHECK_WORKLOADS.values():
        gen = lib.gen_qcqp if spec == "QcqpSpec" else lib.gen_bpdn
        for k, s in enumerate(_instance_seeds(seed, count)):
            prob = gen(getattr(lib, spec)(**opts, seed=s))
            for label, config, blocks, from_x0 in solvers:
                kwargs = {"x0": prob.meta["x0"]} if from_x0 else {}
                if blocks is not None:
                    kwargs["seed"] = _sampler_seed(seed, k)
                runs.append((label, partial(
                    _solve, lib, label,
                    prob if blocks is None else prob.with_blocks(blocks),
                    config, **kwargs)))
    analytic = {"beta": 1.0, "step_mode": "analytic", "max_epochs": 300,
                "record_every": 10}
    for s in (0, 1):
        prob = lib.gen_qcqp(lib.QcqpSpec(m=3, p=12, seed=s))
        for label, p, config in (
                ("lalm", prob, analytic), ("blalm", prob.with_blocks(4), analytic),
                ("pdyn", prob, {**analytic, "beta": 0.1, "eta0": 50.0})):
            runs.append((f"{label}-analytic", partial(_solve, lib, label, p, config)))
    prob = lib.tiny_reference("equality-qp")[0]
    for label, p in (("lalm", prob), ("blalm", prob.with_blocks(2))):
        runs.append((f"{label}-analytic", partial(_solve, lib, label, p, analytic)))
    return runs


def _flat(value):
    """A field as a flat list of Python scalars."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [v for item in value for v in _flat(item)]
    return [value]


def deviation(a, b):
    """0.0 when two fields are the same bits, else the largest relative
    deviation |a - b| / max(|a|, |b|) over their numbers, and at least the
    smallest float (inf where the two differ in length, in type or in a
    non-number)."""
    a, b = _flat(a), _flat(b)
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for u, v in zip(a, b):
        if type(u) is not type(v):
            return float("inf")
        if type(u) in (int, float):
            if float(u).hex() != float(v).hex():
                scale = max(abs(u), abs(v))
                rel = abs(u - v) / scale if scale else 0.0
                worst = max(worst, rel if rel == rel else float("inf"),
                            float.fromhex("0x1p-1074"))
        elif u != v:
            return float("inf")
    return worst


def compare_libraries(change, parent, runs_of):
    """{solver: {field: largest deviation}} of ``runs_of(lib)``'s runs on
    the two libraries, run by run in the same order."""
    out = {}
    for (solver, run_c), (_, run_p) in zip(runs_of(change), runs_of(parent)):
        got, want = run_c(), run_p()
        fields = out.setdefault(solver, {})
        for name in want.keys() | got.keys():
            dev = (deviation(got[name], want[name]) if name in got and name in want
                   else float("inf"))
            fields[name] = max(fields.get(name, 0.0), dev)
    return out


def same_report(table):
    """The table as text lines, one per solver and field."""
    return [f"{solver:16s} {name:20s} "
            + ("bitwise" if dev == 0.0 else f"{dev:.3g}")
            for solver, fields in table.items() for name, dev in sorted(fields.items())]


def same(args, repo=ROOT, runs_of=check_set):
    parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}", repo=repo)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        export_tree(repo, parent, tree)
        change_lib = load_library(Path(repo) / "src" / "linalm", "linalm_change")
        parent_lib = load_library(tree / "src" / "linalm", "linalm_parent")
        table = compare_libraries(change_lib, parent_lib, runs_of)
    for line in same_report(table):
        print(line)
    differs = any(dev for fields in table.values() for dev in fields.values())
    print("differs from the parent" if differs else "bitwise equal to the parent")
    return 1 if differs and not args.allow_arithmetic else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("ab", help="alternating parent/change pairs")
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--workload", action="append",
                   help="a workload of BENCHMARK.json (repeatable; default all)")
    p.add_argument("--out", help="write the runs and verdicts here as JSON")
    p = sub.add_parser("same", help="the seed-0 check set on this tree and a parent")
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--allow-arithmetic", action="store_true",
                   help="exit 0 when a field differs")
    args = parser.parse_args(argv)
    if args.command == "same":
        return same(args)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    try:
        return ab(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
