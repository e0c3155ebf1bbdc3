"""Every solver follows its iteration as ``reference_iteration`` writes it
out from scratch, iterate by iterate, through the solver's ``callback``.

The library keeps incremental trackers, reuses trial products and values
the penalty in its own form; the reference evaluates every oracle afresh
and the paper's piecewise penalty. So the two agree to roundoff, and in
backtracking mode they also make the same accept/reject decisions: a
flipped decision moves eta by a factor of 1.5, far outside the tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_iteration as ref
from linalm import blalm, lalm, pdyn
from linalm.instances import (BpdnSpec, QcqpSpec, gen_bpdn, gen_qcqp,
                              random_minimax_1d)
from linalm.lalm import SolverConfig
from linalm.model import AffineConstraint, ProblemInstance, even_blocks

# Largest relative deviation admitted, max|lib - ref| / max(1, max|ref|),
# over every iterate and eta. Measured over the cases below and seeds 3-5:
# at most 6.1e-15 for lalm and blalm, and 2.0e-13 for pdyn's queues, which
# sum constraint values that the stack and the oracles round apart.
TOL = 1e-12


def instance(kind, seed, rows, n_blocks=4, p=12, m=3):
    """A generated QCQP or BPDN instance in n_blocks blocks, with ``rows``
    random equality rows that a point inside the box satisfies."""
    prob = (gen_qcqp(QcqpSpec(m=m, p=p, seed=seed)) if kind == "qcqp" else
            gen_bpdn(BpdnSpec(rows=6, cols=p, sparsity=2, seed=seed)))
    affine = None
    if rows:
        rng = np.random.default_rng(seed + 100)
        A = rng.normal(size=(rows, prob.dim))
        affine = AffineConstraint(A, A @ rng.uniform(-0.5, 0.5, size=prob.dim))
    return ProblemInstance(prob.g, prob.h, prob.dim, affine, prob.constraints,
                           even_blocks(prob.dim, n_blocks))


def start(prob, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1, 1, size=prob.dim), rng.normal(size=prob.affine.rows),
            rng.uniform(0, 1, size=prob.m))


def deviation(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if want.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


def assert_follows(seen, reference, labels):
    """Each recorded state equals the reference's next one within TOL."""
    assert seen
    for k, (got, want) in enumerate(zip(seen, reference), start=1):
        for label, a, b in zip(labels, got, want):
            dev = deviation(a, b)
            assert dev <= TOL, f"{label} deviates by {dev:.2e} at iteration {k}"


def check_lalm(prob, cfg, x0, y0, z0):
    seen = []
    lalm.solve(prob, cfg, x0, y0, z0, callback=lambda k, w: seen.append(
        (w.x.copy(), w.y.copy(), w.z.copy())))
    assert len(seen) == cfg.max_epochs
    assert_follows(seen, ref.lalm(prob, cfg, x0, y0, z0), "xyz")


def check_blalm(prob, cfg, x0, y0, z0, seed):
    seen = []
    blalm.solve(prob, cfg, x0, y0, z0, seed=seed, callback=lambda k, s: seen.append(
        (s.x.copy(), s.y.copy(), s.z.copy(), s.eta.copy())))
    assert len(seen) == cfg.max_epochs * len(prob.blocks)
    assert_follows(seen, ref.blalm(prob, cfg, x0, y0, z0, seed),
                   ("x", "y", "z", "eta"))


def check_pdyn(prob, cfg, x0):
    seen = []
    pdyn.solve(prob, cfg, x0, callback=lambda k, s: seen.append(
        (s.x.copy(), s.lam.copy(), s.eta)))
    assert len(seen) == cfg.max_epochs
    assert_follows(seen, ref.pdyn(prob, cfg, x0), ("x", "lam", "eta"))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), rows=st.sampled_from([0, 2]),
       n_blocks=st.integers(1, 4), m=st.integers(1, 3),
       beta=st.floats(0.05, 2.0), delta=st.sampled_from([0.0, 0.5]))
def test_analytic_iterations_follow_the_reference(seed, rows, n_blocks, m, beta,
                                                  delta):
    # analytic mode takes every first candidate: no discrete decision
    prob = instance("qcqp", seed, rows, n_blocks, p=10, m=m)
    x0, y0, z0 = start(prob, seed)
    cfg = SolverConfig(beta=beta, delta=delta, step_mode="analytic", max_epochs=40)
    check_lalm(prob, cfg, x0, y0, z0)
    check_blalm(prob, SolverConfig(beta=beta, delta=delta, step_mode="analytic",
                                   max_epochs=60 // n_blocks), x0, y0, z0, seed)
    if not rows:
        check_pdyn(prob, SolverConfig(step_mode="analytic", eta0=50.0,
                                      max_epochs=40), x0)


@pytest.mark.parametrize("kind", ["qcqp", "bpdn"])
@pytest.mark.parametrize("rows", [0, 3], ids=["norows", "rows"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backtracking_iterations_follow_the_reference(kind, rows, seed):
    prob = instance(kind, seed, rows)
    x0, y0, z0 = start(prob, seed)
    check_lalm(prob, SolverConfig(beta=0.5, max_epochs=300), x0, y0, z0)
    check_blalm(prob, SolverConfig(beta=0.5, max_epochs=100), x0, y0, z0, seed)
    if kind == "qcqp" and not rows:
        check_pdyn(prob, SolverConfig(max_epochs=300), x0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimax_iterations_follow_the_reference(seed):
    # epigraph constraints are no quadratics: their trackers re-evaluate
    # the oracles and value a block candidate as f(x) + (f(x_new) - f(x))
    _, prob = random_minimax_1d(m=3, seed=seed)
    prob = prob.with_blocks(2)
    x0, y0, z0 = start(prob, seed)
    check_lalm(prob, SolverConfig(beta=0.5, max_epochs=200), x0, y0, z0)
    check_blalm(prob, SolverConfig(beta=0.5, max_epochs=100), x0, y0, z0, seed)
