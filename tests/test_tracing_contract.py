"""The library names the benchmark's tracer wraps, and the reports it reads.

``perfbench/tracing.py`` wraps library functions and methods by name, from
outside the package, and reads a few values solvers report. A renamed or
moved name breaks ``perfbench/run.py --trace 1``, and the perfbench
self-test is not part of this suite, so the contract is checked here.
"""

from pathlib import Path

import numpy as np

from linalm import SolverConfig, blalm, lalm, pdyn
from linalm.instances import BpdnSpec, QcqpSpec, gen_bpdn, gen_qcqp

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracing

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _name, _nbytes in tracing._targets()
               if attr not in vars(owner)]
    assert not missing


def test_traced_solves_run_and_restore_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    cfg = SolverConfig(beta=0.1, max_epochs=3, record_every=1)
    problems = (gen_qcqp(QcqpSpec(m=2, p=6, seed=0)),
                gen_bpdn(BpdnSpec(rows=4, cols=6, sparsity=2, seed=0)))
    tracer = Tracer()
    with tracer.installed():
        for prob in problems:
            for label, run in (
                    ("lalm", lambda: lalm.solve(prob, cfg)),
                    ("blalm", lambda: blalm.solve(prob.with_blocks(3), cfg))):
                with tracer.solve_span(label, keep=False):
                    assert np.all(np.isfinite(run().w.x))
    for label in ("lalm", "blalm"):
        # read from backtrack_primal's 6-tuple and BlockState.last_trials
        assert tracer.counter("backtrack_calls", label) > 0
        # computed bytes read tracker.fn.Q / tracker.fn.A
        assert tracer.counter("matvec_bytes", label) > 0
    assert not hasattr(lalm.backtrack_primal, "__wrapped__")
    assert not hasattr(blalm.BlockState.apply_block, "__wrapped__")


def test_traced_pdyn_solve_records_its_spans_and_restores_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    # gen_qcqp's instances are box-constrained QCQPs without equalities
    prob = gen_qcqp(QcqpSpec(m=2, p=6, seed=0))
    tracer = Tracer()
    with tracer.installed():
        with tracer.solve_span("pdyn", keep=False):
            res = pdyn.solve(prob, SolverConfig(beta=0.1, max_epochs=3,
                                                record_every=1))
    assert np.all(np.isfinite(res.w.x))
    for name in ("pdyn.step", "pdyn.direction", "pdyn.phi"):
        assert tracer.calls(name, "pdyn") > 0, name
    for name in ("step", "direction", "_phi", "descent_holds"):
        assert not hasattr(getattr(pdyn, name), "__wrapped__"), name
