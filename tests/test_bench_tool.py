"""``tools/bench.py``: the verdict rule, the alternating pair order and the
refusal of an incorrect run, driven against stub ``perfbench/run.py``
scripts that print fixed lines, and the parent tree unpacked from a
throwaway git repository."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# Prints the next of its tree's values.json entries as one result line,
# after one env line, and logs "<tree> <workload>" to $STUB_LOG.
_STUB = """\
import json, os, sys
from pathlib import Path
tree = Path(__file__).resolve().parents[1]
workload = sys.argv[sys.argv.index("--workload") + 1]
with open(os.environ["STUB_LOG"], "a") as fh:
    fh.write(f"{tree.name} {workload}\\n")
calls = tree / "calls"
k = len(calls.read_text()) if calls.exists() else 0
calls.write_text("x" * (k + 1))
value, correct = json.loads((tree / "values.json").read_text())[k]
print("env stub " + tree.name)
print(json.dumps({"correct": correct, "attempted": 3, "failed": 0,
                  "metrics": {"blalm.ms_per_epoch": {"value": value, "unit": "ms"}}}))
"""


def stub_tree(tmp_path, name, values):
    tree = tmp_path / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(_STUB)
    (tree / "values.json").write_text(json.dumps(values))
    return tree


@pytest.mark.parametrize("parent, change, better, bound, verdict", [
    # 10 of 10 pairs won, medians 2 apart with a parent IQR of 0.5
    ([10, 10.5, 10, 10.5] * 2 + [10, 10.5], [8, 8.5] * 5, "lower", 0.25, "gain"),
    # 8 of 10 won: no gain, and within the bound
    ([10.0] * 10, [9.0] * 8 + [11.0] * 2, "lower", 0.25, "unchanged"),
    # every pair won, but by less than the parent's IQR (4)
    ([8, 12] * 5, [7.5, 11.5] * 5, "lower", 0.5, "unchanged"),
    # 50% worse against a 25% bound
    ([10.0] * 10, [15.0] * 10, "lower", 0.25, "regressed"),
    # parent IQR/median 0.4 > bound 0.25: the change cannot be called unchanged
    ([6, 10, 14] * 3 + [10], [10.5] * 10, "lower", 0.25, "unresolved"),
    # ... unless every change run beats every parent run; the medians are
    # still closer than the parent's IQR, so that is no gain
    ([6, 10, 14] * 3 + [10], [5.9] * 10, "lower", 0.25, "unchanged"),
    # a higher-is-better metric, and one with no bound
    ([1.0] * 10, [1.5] * 10, "higher", 0.1, "gain"),
    ([1.0] * 10, [0.5] * 10, "higher", 0.1, "regressed"),
    ([1.0] * 10, [1.0] * 10, "lower", None, "unresolved"),
])
def test_compare_gives_the_documented_verdict(parent, change, better, bound, verdict):
    assert bench.compare(parent, change, better, bound)["verdict"] == verdict


def test_compare_counts_wins_per_pair_and_ties_for_neither():
    out = bench.compare([10, 10, 10, 10], [9, 10, 11, 9], "lower", 0.25)
    assert out["wins"] == 2 and out["pairs"] == 4
    assert out["ratio"] == pytest.approx(9.5 / 10)
    assert out["parent_quartiles"] == [10, 10, 10]


def test_ab_pairs_alternate_their_order_and_summarize(tmp_path, monkeypatch):
    log = tmp_path / "log"
    monkeypatch.setenv("STUB_LOG", str(log))
    parent = stub_tree(tmp_path, "parent", [[1.0, True]] * 4)
    change = stub_tree(tmp_path, "change", [[0.8, True]] * 4)
    runs, env = bench.run_pairs(change, parent, ["w"], seed=0, seconds=1.0, pairs=2)
    assert log.read_text().split("\n")[:-1] == [
        "parent w", "change w", "change w", "parent w"]
    assert env == {"parent": ["env stub parent"], "change": ["env stub change"]}
    spec = {"end_to_end": [{"name": "blalm.ms_per_epoch", "better": "lower",
                            "bound": 0.25}]}
    summary = bench.summarize(runs, spec)["w"]
    metric = summary["metrics"]["blalm.ms_per_epoch"]
    assert metric["verdict"] == "gain" and metric["wins"] == 2
    assert metric["ratio"] == pytest.approx(0.8) and metric["unit"] == "ms"
    assert summary["failed"] == {"parent": [0, 6], "change": [0, 6]}
    assert any("gain" in line for line in bench.report({"w": summary}))


def test_ab_refuses_a_run_that_is_not_correct(tmp_path, monkeypatch):
    monkeypatch.setenv("STUB_LOG", str(tmp_path / "log"))
    parent = stub_tree(tmp_path, "parent", [[1.0, True]])
    change = stub_tree(tmp_path, "change", [[0.8, False]])
    with pytest.raises(RuntimeError, match="not correct"):
        bench.run_pairs(change, parent, ["w"], seed=0, seconds=1.0, pairs=1)


def test_ab_parent_tree_is_unpacked_from_git_archive(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               *args], cwd=repo, check=True, capture_output=True,
                              text=True).stdout

    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    git("init", "-q")
    (repo / "perfbench" / "run.py").write_text("print('parent')\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "perfbench" / "run.py").write_text("print('change')\n")
    worktrees = git("worktree", "list")
    dest = tmp_path / "parent"
    bench.export_tree(repo, "HEAD", dest)
    assert (dest / "perfbench" / "run.py").read_text() == "print('parent')\n"
    assert not (dest / ".git").exists()
    assert git("worktree", "list") == worktrees


# ---------------------------------------------------------------------------
# same: the check set on two trees


def stub_library(root, values):
    """A package tree root/src/linalm whose ``core.values()`` returns
    ``values``, imported by ``__init__`` relatively, as the library does."""
    pkg = root / "src" / "linalm"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .core import values\n")
    (pkg / "core.py").write_text(f"def values():\n    return {values!r}\n")
    return pkg


def stub_runs(lib):
    return [("solver", lambda: dict(lib.values()))]


def test_same_compares_two_imported_trees_field_by_field(tmp_path):
    change = bench.load_library(
        stub_library(tmp_path / "c", {"x": [1.0, 2.0], "epochs": 3, "flag": None}),
        "stub_change")
    parent = bench.load_library(
        stub_library(tmp_path / "p", {"x": [1.0, 2.0 + 2e-12], "epochs": 3,
                                      "flag": None}), "stub_parent")
    assert change.values()["x"] == [1.0, 2.0]      # each tree its own files
    table = bench.compare_libraries(change, parent, stub_runs)
    assert table["solver"]["epochs"] == table["solver"]["flag"] == 0.0
    assert table["solver"]["x"] == pytest.approx(1e-12, rel=1e-3)
    lines = bench.same_report(table)
    assert "solver           epochs               bitwise" in lines
    assert any(line.split()[1:] == ["x", "1e-12"] for line in lines)


@pytest.mark.parametrize("a, b, dev", [
    (0.0, -0.0, 2.0 ** -1074),        # other bits, equal values: still differs
    (float("nan"), float("nan"), 0.0),
    (float("nan"), 1.0, float("inf")),
    ([1.0, None], [1.0, 0.5], float("inf")),
    ([1.0], [1.0, 2.0], float("inf")),
    ("lalm", "blalm", float("inf")),
    ([220, True], [200, True], 0.0909),
    (True, False, float("inf")),
])
def test_deviation_of_non_numbers_and_signed_zeros(a, b, dev):
    assert bench.deviation(a, b) == pytest.approx(dev, rel=1e-3)


def test_same_exits_nonzero_on_a_difference_unless_allowed(tmp_path, capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    repo = tmp_path / "repo"
    core = stub_library(repo, {"x": [1.0]}) / "core.py"
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")

    def run(allow):
        args = bench.argparse.Namespace(parent="HEAD", allow_arithmetic=allow)
        return bench.same(args, repo=repo, runs_of=stub_runs)

    assert run(False) == 0
    assert "solver           x                    bitwise" in capsys.readouterr().out
    core.write_text("def values():\n    return {'x': [1.5]}\n")
    assert run(False) == 1 and run(True) == 0
    assert "differs from the parent" in capsys.readouterr().out


def test_check_set_settings_are_the_gated_workloads(monkeypatch):
    # the check set copies perfbench/workloads.py's settings, read here
    # without editing it: each workload's solvers with their configs,
    # blocks and start points, and its instances' generator specs
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads
    from linalm import SolverConfig, instances

    for name, (_, (spec, opts), solvers) in bench.CHECK_WORKLOADS.items():
        workload = workloads.get(name)
        assert [(run.label, run.config, run.n_blocks, run.from_meta_x0)
                for run in workload.solvers + workload.baselines] == \
            [(label, SolverConfig(**config), blocks, x0)
             for label, config, blocks, x0 in solvers]
        seed = bench._instance_seeds(0, 1)[0]
        assert seed == workload.instance_seeds(0, 5)[0]
        gen = instances.gen_qcqp if spec == "QcqpSpec" else instances.gen_bpdn
        want = gen(getattr(instances, spec)(**opts, seed=seed)).meta
        assert workload.generate(seed).meta == want
    assert bench._sampler_seed(0, 3) == workloads.sampler_seed(0, 3)


def test_check_set_oracle_instance_is_the_conftest_one():
    # the check set's narrow oracle-stack runs solve the instance the tests
    # build, whose smooth stack is a FunctionStack
    import numpy as np
    import linalm
    from conftest import qcqp_with_oracle_constraint
    from linalm.model import FunctionStack, smooth_stack

    got = bench.with_oracle_constraint(
        linalm, linalm.gen_qcqp(linalm.QcqpSpec(m=3, p=12, seed=1)))
    want = qcqp_with_oracle_constraint(m=3, p=12, seed=1)
    assert isinstance(smooth_stack(got), FunctionStack)
    for x in (np.zeros(12), np.linspace(-1.0, 1.0, 12)):
        assert got.constraint_values(x).tobytes() == want.constraint_values(x).tobytes()
        assert got.f0(x) == want.f0(x)
    assert [(c.fn.lipschitz, c.grad_bound) for c in got.constraints] == \
        [(c.fn.lipschitz, c.grad_bound) for c in want.constraints]
