"""The benchmark's workloads: instances made from a seed, and the solves run
on them.

A workload turns ``--seed`` into a batch of problem instances through the
public generators in ``linalm.instances`` and names the solvers it runs on
every instance, each with the settings of one solve and the KKT tolerance
that solve must reach. The library only ever sees the generated instances.

Why these workloads (the ``why`` lines in BENCHMARK.json say it in one line):

* ``qcqp-p200-dense``: 3.5 MB per instance, cache resident, recording every
  epoch, so the per-epoch ``kkt_residual`` in ``MetricsRecorder.snapshot``
  does much of the work. The only workload that runs ``pdyn``.
* ``bpdn-batch``: 50x100 arrays, so per-call Python overhead in ``auglag``
  and ``blalm`` dominates. No quadratic trackers: a QCQP tracker change
  should show no change here.
* ``qcqp-p1000``: 11 dense 1000x1000 PSD matrices (88 MB computed). Dense
  matvecs dominate and recording every 10 epochs is a small share, so
  oracle-call and tracker-commit changes show most here. It is run by hand
  only and is not listed in BENCHMARK.json: one lalm solve takes about 25 s,
  so a 30-60 s run holds a single lalm and a single blalm solve, and over ten
  seeds on a 2-core VM their interquartile range reached 0.2-0.26 of the
  median.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from linalm import BpdnSpec, QcqpSpec, SolverConfig, blalm, instances, lalm, pdyn
from linalm.model import PowerIterationError

_SOLVE = {"lalm": lalm, "blalm": blalm, "pdyn": pdyn}


@dataclass(frozen=True)
class SolverRun:
    """One solver with the settings and tolerance of each of its solves."""

    label: str
    config: SolverConfig
    n_blocks: int | None = None
    from_meta_x0: bool = False

    @property
    def tol(self):
        return self.config.tol

    def solve(self, case, sampler_seed, callback=None):
        """Call the solver's public ``solve`` as the library usage does."""
        kwargs = {} if callback is None else {"callback": callback}
        if self.from_meta_x0:
            kwargs["x0"] = case.x0
        if self.label == "blalm":
            return blalm.solve(case.blocked[self.n_blocks], self.config,
                               seed=sampler_seed, **kwargs)
        return _SOLVE[self.label].solve(case.prob, self.config, **kwargs)


@dataclass
class Case:
    """One generated instance plus its block-partitioned copies."""

    prob: object
    blocked: dict = field(default_factory=dict)

    @property
    def x0(self):
        return self.prob.meta["x0"]

    @property
    def working_set_bytes(self):
        """Bytes of the arrays the smooth oracles read (computed, not measured)."""
        fns = [self.prob.g] + [con.fn for con in self.prob.constraints]
        return sum(v.nbytes for fn in fns for v in vars(fn).values()
                   if isinstance(v, np.ndarray))


@dataclass(frozen=True)
class Workload:
    """A seeded batch of instances and the fixed plan of solves run on it.

    An untraced run solves each baseline once on the first instance, then
    runs every gated solver in turn on each instance. The number of instances
    follows from ``--seconds`` and ``pass_s``, the mean seconds of one
    instance's gated solves on a 2-core x86-64 VM, so the plan depends on the
    arguments only, never on how fast the code under test runs.
    """

    name: str
    generate: object          # instance seed -> ProblemInstance
    solvers: tuple            # gated solvers, solved on every instance
    baselines: tuple          # reported only, solved once on the first instance
    pass_s: float             # seconds of one instance's gated solves
    baseline_s: float         # seconds of the baseline solves
    trace_instances: int = 1  # instances solved by every solver in a traced run

    @property
    def runs(self):
        return self.solvers + self.baselines

    def instances(self, seconds):
        """Instances in a run of ``seconds``: its solves take about that long."""
        return max(self.trace_instances,
                   int((seconds - self.baseline_s) / self.pass_s))

    def instance_seeds(self, seed, n):
        """``n`` independent instance seeds derived from the run seed; the
        first k of them do not depend on ``n``."""
        children = np.random.SeedSequence(seed).spawn(n)
        return [int(c.generate_state(1)[0]) for c in children]

    def setup(self, seed, n):
        """Everything before the first solve: generation and block copies.

        Returns (cases, failures). An instance whose generator raises
        PowerIterationError (its power iteration for a Lipschitz constant did
        not converge) is left out and reported as a failed operation, never
        replaced by another draw.
        """
        cases, failures = [], []
        for s in self.instance_seeds(seed, n):
            try:
                case = Case(self.generate(s))
            except PowerIterationError as exc:
                failures.append(f"instance seed {s}: {type(exc).__name__}: {exc}")
                continue
            for run in self.runs:
                if run.n_blocks is not None:
                    case.blocked[run.n_blocks] = case.prob.with_blocks(run.n_blocks)
            cases.append(case)
        return cases, failures


def sampler_seed(seed, k):
    """blalm's block-sampling seed on a run's k-th instance."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _qcqp(p):
    # Looked up on the module at call time, so a traced set-up can wrap it.
    return lambda s: instances.gen_qcqp(QcqpSpec(m=10, p=p, seed=s))


def _bpdn(rows, cols, sparsity):
    return lambda s: instances.gen_bpdn(
        BpdnSpec(rows=rows, cols=cols, sparsity=sparsity, seed=s))


def _qcqp_solvers(record_every, max_epochs):
    beta = 0.1
    return (
        SolverRun("lalm", SolverConfig(beta=beta, rho_y=beta, rho_z=beta,
                                       max_epochs=max_epochs,
                                       record_every=record_every, tol=1e-6)),
        SolverRun("blalm", SolverConfig(beta=beta, rho_y=beta / 20, rho_z=beta / 20,
                                        max_epochs=max_epochs // 5,
                                        record_every=record_every, tol=1e-6),
                  n_blocks=20),
    )


_PDYN = (SolverRun("pdyn", SolverConfig(beta=0.1, max_epochs=4000, record_every=1,
                                        tol=1e-4)),)

_BPDN_SOLVERS = (
    SolverRun("lalm", SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0,
                                   max_epochs=20_000, record_every=10, tol=1e-6),
              from_meta_x0=True),
    SolverRun("blalm", SolverConfig(beta=1.0, rho_z=0.1, max_epochs=5000,
                                    record_every=10, tol=1e-6),
              n_blocks=10, from_meta_x0=True),
)


def _all(small):
    if small:
        return (
            Workload("qcqp-p200-dense", _qcqp(30), _qcqp_solvers(1, 2500), _PDYN,
                     pass_s=0.05, baseline_s=0.0, trace_instances=2),
            Workload("bpdn-batch", _bpdn(10, 20, 2), _BPDN_SOLVERS, (),
                     pass_s=0.02, baseline_s=0.0, trace_instances=2),
            Workload("qcqp-p1000", _qcqp(40), _qcqp_solvers(10, 5000), (),
                     pass_s=0.05, baseline_s=0.0),
        )
    return (
        Workload("qcqp-p200-dense", _qcqp(200), _qcqp_solvers(1, 2500), _PDYN,
                 pass_s=1.6, baseline_s=4.0, trace_instances=2),
        Workload("bpdn-batch", _bpdn(50, 100, 5), _BPDN_SOLVERS, (),
                 pass_s=0.6, baseline_s=0.0, trace_instances=16),
        Workload("qcqp-p1000", _qcqp(1000), _qcqp_solvers(10, 5000), (),
                 pass_s=30.0, baseline_s=0.0),
    )


def get(name, small=False):
    """The named workload; ``small`` gives the self-test's reduced sizes."""
    for w in _all(small):
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; choose from "
                   f"{', '.join(w.name for w in _all(False))}")


NAMES = tuple(w.name for w in _all(False))
