"""Self-test of the benchmark at the smallest sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
from pathlib import Path

import pytest

from linalm import auglag, blalm, model
from linalm.model import PowerIterationError

from perfbench import bench, workloads
from perfbench.tracing import Tracer

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def quiet(_line):
    pass


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(name):
    workload = workloads.get(name, small=True)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.run(workload, seed=0, seconds=0.3, trace=trace, echo=quiet)
        assert result["correct"]
        assert result["attempted"] >= len(workload.solvers)
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_does_not_perturb_the_solves(name):
    workload = workloads.get(name, small=True)
    tracer = Tracer()
    plain, traced, mismatches, _ = bench.measure_traced(
        workload, workload.setup(1, workload.trace_instances)[0], 1, tracer)
    assert not mismatches
    for run in workload.runs:
        pairs = list(zip(plain[run.label], traced[run.label]))
        assert len(pairs) == workload.trace_instances
        for a, b in pairs:
            assert a.epochs == b.epochs > 0
            assert a.x.tobytes() == b.x.tobytes()
        assert tracer.calls(f"{run.label}.solve", run.label) == len(pairs)
    # every wrapper is gone again
    for fn in (auglag.scalar_penalty, blalm.descent_holds,
               model.QuadraticTracker.commit, blalm.BlockState.refresh):
        assert not hasattr(fn, "__wrapped__")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_unreachable_tolerance_counts_as_failure(name):
    workload = workloads.get(name, small=True)
    strict = tuple(dataclasses.replace(
        run, config=dataclasses.replace(run.config, tol=1e-30, max_epochs=20))
        for run in workload.solvers)
    workload = dataclasses.replace(workload, solvers=strict)
    done = bench.measure(workload, workload.setup(0, 1)[0], 0, 0.1)
    solves = [s for run in strict for s in done[run.label]]
    assert solves and all(not s.reached for s in solves)
    with pytest.raises(RuntimeError, match="reached tolerance"):
        bench.end_to_end(workload, done, [1.0])


def test_plan_depends_on_the_arguments_only():
    workload = workloads.get("bpdn-batch", small=True)
    n = workload.instances(0.3)
    assert n == int(0.3 / workload.pass_s)
    done = bench.measure(workload, workload.setup(0, n)[0], 0, 60.0)
    assert {label: len(solves) for label, solves in done.items()} == {
        run.label: n for run in workload.solvers}
    # the instances of a short run are the first ones of a longer run
    assert workload.instance_seeds(0, n) == workload.instance_seeds(0, n + 3)[:n]


def test_unstarted_solves_past_the_cutoff_fail():
    workload = workloads.get("bpdn-batch", small=True)
    done = bench.measure(workload, workload.setup(0, 3)[0], 0, 0.0)
    solves = [s for run in workload.solvers for s in done[run.label]]
    assert len(solves) == 6 and sum(s.error is not None for s in solves) >= 5


def test_recording_oracle_calls_are_counted_apart():
    workload = workloads.get("qcqp-p200-dense", small=True)
    tracer = Tracer()
    cases, _ = workload.setup(0, 1)
    workload = dataclasses.replace(workload, trace_instances=1)
    plain, traced, _, iter_s = bench.measure_traced(workload, cases, 0, tracer)
    metrics, _, extra = bench.per_layer(workload, tracer, plain, traced, iter_s)
    epochs = sum(s.epochs for run in workload.solvers for s in traced[run.label])
    inside = sum(tracer.counter("snapshot:model.oracle_grad", r.label)
                 for r in workload.solvers)
    assert inside > 0
    total = sum(tracer.calls("model.oracle_grad", r.label) for r in workload.solvers)
    assert metrics["model.oracle_grad_calls_per_epoch"][0] == pytest.approx(
        (total - inside) / epochs)
    assert extra["recording: oracle grad calls per epoch"][0] == pytest.approx(
        inside / epochs)


def test_generation_failure_is_counted_not_replaced():
    workload = workloads.get("bpdn-batch", small=True)
    good = workload.generate
    bad_seed = workload.instance_seeds(0, 3)[1]

    def generate(seed):
        if seed == bad_seed:
            raise PowerIterationError("did not converge", 1.0)
        return good(seed)

    cases, failures = dataclasses.replace(workload, generate=generate).setup(0, 3)
    assert len(cases) == 2 and len(failures) == 1
    assert str(bad_seed) in failures[0]
