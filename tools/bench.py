"""Parent/change A/B runs of the benchmark, from outside ``perfbench/``.

    python3 tools/bench.py ab --parent REV --pairs 10 --seed 0 --seconds 50 \\
        [--workload NAME ...] [--out FILE]

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

``--out`` writes every run's value and the verdicts as JSON. The tool uses
the standard library only and never imports linalm.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
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


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
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
    args = parser.parse_args(argv)
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
