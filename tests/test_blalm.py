import cProfile
import pstats
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_iteration as ref
from conftest import nan_away_from_origin, qcqp_with_oracle_constraint
from linalm import auglag, blalm, lalm, model
from linalm.blalm import BlockState
from linalm.instances import (TINY_KINDS, BpdnSpec, QcqpSpec, gen_bpdn,
                              gen_qcqp, random_minimax_1d, tiny_reference)
from linalm.lalm import SolverConfig, SolverError
from linalm.model import (AffineConstraint, InequalityConstraint, LinearFunction,
                          PrimalDualPoint, ProblemInstance, QuadraticFunction,
                          ZeroProx, even_blocks, operator_norm_sq, smooth_stack)
from linalm.trace import MetricsRecorder
from test_reference_iteration import check_blalm, check_lalm


def make_state(prob, seed=0, **cfg_kwargs):
    cfg = SolverConfig(**cfg_kwargs)
    return BlockState(prob, cfg, seed=seed)


def draws(state, epochs):
    """The block indices of ``epochs`` epochs of ``state``'s sampler."""
    return [i for _ in range(epochs) for i in state.draw_epoch()]


def block_run(prob, cfg, seed=0, **start):
    """A blalm solve through its callback: the slice of every iteration's
    block, drawn from the sampler's stream, and the (point, eta) after it,
    each a copy, preceded by the start."""
    x0 = start.get("x0")
    x0 = np.zeros(prob.dim) if x0 is None else x0
    seen = [(PrimalDualPoint.at(prob, x0, start.get("y0"), start.get("z0")), None)]
    res = blalm.solve(prob, cfg, seed=seed, callback=lambda k, s: seen.append(
        (PrimalDualPoint.of(s), s.eta.copy())), **start)
    n, rng = len(prob.blocks), np.random.default_rng(seed)
    drawn = [prob.blocks[i] for _ in range(res.epochs) for i in rng.integers(n, size=n)]
    assert len(drawn) == len(seen) - 1
    return drawn, seen


def with_equalities(kind, seed):
    """A generated 12-variable QCQP or BPDN instance with three random
    equality rows added to its inequality constraints, in four blocks."""
    prob = (gen_qcqp(QcqpSpec(m=3, p=12, seed=seed)) if kind == "qcqp" else
            gen_bpdn(BpdnSpec(rows=6, cols=12, sparsity=2, seed=seed)))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, prob.dim))
    affine = AffineConstraint(A, A @ rng.uniform(-0.5, 0.5, size=prob.dim))
    return ProblemInstance(prob.g, prob.h, prob.dim, affine, prob.constraints,
                           even_blocks(prob.dim, 4))


def test_block_norms_are_computed_in_analytic_mode_only(norm_count):
    # only analytic step bounds read a block's squared equality-column norm
    prob = with_equalities("qcqp", 0)
    # the constraints' norms, computed now so that they are not counted
    assert all(con.grad_bound > 0 for con in prob.constraints)
    want = np.array([operator_norm_sq(prob.affine.A[:, sl]) for sl in prob.blocks])
    norm_count.clear()
    cfg = SolverConfig(beta=0.1, max_epochs=3)
    blalm.solve(prob, cfg)
    assert norm_count == []
    blalm.solve(prob, replace(cfg, step_mode="analytic"))
    assert norm_count == [(3, 3)] * len(prob.blocks)
    # lalm's one full-width block reads the instance's ||A||^2, computed once
    norm_count.clear()
    for _ in range(2):
        lalm.solve(prob, replace(cfg, step_mode="analytic"))
    assert norm_count == [(3, 3)]
    # the analytic bounds that read them follow the reference iteration
    # (tests/test_reference_iteration.py)
    assert make_state(prob, beta=0.1).block_norm_sq is None
    assert make_state(prob, beta=0.1, step_mode="analytic").block_norm_sq.tobytes() \
        == want.tobytes()


# ---------------------------------------------------------------------------
# construction errors


def test_requires_partition():
    prob = gen_qcqp(QcqpSpec(m=2, p=6, seed=0))
    with pytest.raises(ValueError, match="partition"):
        blalm.solve(prob, SolverConfig(max_epochs=1))


def test_rejects_nonseparable_h():
    class Coupled(ZeroProx):
        def block(self, sl):
            return None

    prob = ProblemInstance(QuadraticFunction(np.eye(4), np.ones(4)),
                           Coupled(), dim=4, blocks=even_blocks(4, 2))
    with pytest.raises(ValueError, match="separable"):
        blalm.solve(prob, SolverConfig(max_epochs=1))
    # lalm's one block is the full width: it steps with h's own prox and
    # ignores the partition the instance carries
    res = lalm.solve(prob, SolverConfig(max_epochs=20))
    np.testing.assert_allclose(res.w.x, -1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# sampler


def test_draw_epoch_single_block_leaves_the_rng_alone():
    prob = gen_qcqp(QcqpSpec(m=2, p=6, seed=0)).with_blocks(1)
    state = make_state(prob)
    before = state.rng.bit_generator.state
    assert all(state.draw_epoch() == (0,) for _ in range(10))
    assert state.rng.bit_generator.state == before


def test_draw_epoch_deterministic_replay():
    prob = gen_qcqp(QcqpSpec(m=2, p=10, seed=0)).with_blocks(5)
    a = make_state(prob, seed=42)
    b = make_state(prob, seed=42)
    assert draws(a, 20) == draws(b, 20)


def test_draw_epoch_keeps_the_scalar_draw_stream():
    # an epoch is n draws: the sequence n scalar integers(n) calls give, and
    # the one a draw-at-a-time sampler gave on seed 42 with 5 blocks
    prob = gen_qcqp(QcqpSpec(m=2, p=10, seed=0)).with_blocks(5)
    rng = np.random.default_rng(42)
    got = draws(make_state(prob, seed=42), 4)
    assert len(make_state(prob).draw_epoch()) == 5
    assert got == [int(rng.integers(5)) for _ in range(20)]
    assert got == [0, 3, 3, 2, 2, 4, 0, 3, 1, 0, 2, 4, 3, 3, 3, 3, 2, 0, 4, 2]


def test_draw_epoch_uniform_frequencies():
    prob = gen_qcqp(QcqpSpec(m=2, p=20, seed=0)).with_blocks(10)
    state = make_state(prob, seed=7)
    picks = np.array(draws(state, 10_000))
    freq = np.bincount(picks, minlength=10) / picks.size
    assert np.all(freq >= 0.09) and np.all(freq <= 0.11)


# ---------------------------------------------------------------------------
# incremental maintenance


def test_residual_increments_match_full_recompute(rng):
    # the residual a narrow solve maintains by A_i dx, checked against a
    # from-scratch A x - b after each of 10 002 block iterations
    A = AffineConstraint(rng.normal(size=(7, 30)), rng.normal(size=7))
    prob = ProblemInstance(QuadraticFunction(np.eye(30), np.zeros(30),
                                             lipschitz=1.0),
                           ZeroProx(), dim=30, affine=A,
                           blocks=even_blocks(30, 6))
    errs = []

    def check(k, state):
        exact = A.residual(state.x)
        errs.append(np.linalg.norm(state.r - exact) / max(np.linalg.norm(exact), 1.0))

    blalm.solve(prob, SolverConfig(max_epochs=1667, record_every=1667),
                x0=rng.normal(size=30), callback=check)
    assert len(errs) == 10_002 and max(errs) <= 1e-9


def test_zero_delta_keeps_residual_and_values():
    # at the minimizer 0 of g, with every constraint inactive there, z = 0
    # and b = 0, each block's gradient is zero: every step moves nothing,
    # and the residual stays and the constraint values to roundoff
    qcqp = gen_qcqp(QcqpSpec(m=3, p=10, seed=1))
    A = np.random.default_rng(1).normal(size=(2, 10))
    prob = ProblemInstance(QuadraticFunction(np.eye(10), np.zeros(10), lipschitz=1.0),
                           qcqp.h, 10, AffineConstraint(A, np.zeros(2)),
                           qcqp.constraints, even_blocks(10, 5))
    _, seen = block_run(prob, SolverConfig(max_epochs=4))
    (w0, _), *after = seen
    assert np.all(w0.fvals < 0) and len(after) == 20
    for w, _ in after:
        np.testing.assert_array_equal(w.x, w0.x)
        np.testing.assert_array_equal(w.r, w0.r)
        np.testing.assert_allclose(w.fvals, w0.fvals, atol=1e-15)


def test_identity_affine_single_coordinate():
    # with A = I and b = 0 a block iteration moves one coordinate of x, and
    # of the residual r = x, by the same amount
    A = AffineConstraint(np.eye(3), np.zeros(3))
    prob = ProblemInstance(QuadraticFunction(np.eye(3), np.zeros(3)),
                           ZeroProx(), dim=3, affine=A,
                           blocks=even_blocks(3, 3))
    drawn, seen = block_run(prob, SolverConfig(max_epochs=5), x0=np.array([1., 2., 3.]))
    for sl, (before, _), (after, _) in zip(drawn, seen, seen[1:]):
        others = np.ones(3, dtype=bool)
        others[sl] = False
        np.testing.assert_array_equal(after.x[others], before.x[others])
        np.testing.assert_array_equal(after.r[others], before.r[others])
        np.testing.assert_allclose(after.r - before.r, after.x - before.x,
                                   rtol=0, atol=1e-15)


def test_constraint_increments_match_full_evaluation(rng):
    prob = gen_qcqp(QcqpSpec(m=4, p=12, seed=3)).with_blocks(4)
    _, seen = block_run(prob, SolverConfig(max_epochs=50),
                        x0=rng.uniform(-1, 1, size=prob.dim))
    assert len(seen) == 201
    for w, _ in seen:
        np.testing.assert_allclose(w.fvals, prob.constraint_values(w.x),
                                   atol=1e-10)


def test_apply_block_reuses_only_the_accepted_trial_deltas(rng):
    # a stacked tracker commits with the value deltas of the accepted trial
    # (with one block: the state its trial refreshed at the candidate); from
    # eta0 = 1 the first visits reject trials
    for n in (4, 1):
        prob = gen_qcqp(QcqpSpec(m=3, p=12, seed=5)).with_blocks(n)
        _, seen = block_run(prob, SolverConfig(eta0=1.0, max_epochs=20 // n),
                            seed=int(rng.integers(100)))
        assert seen[-1][1].min() > 1.0
        for w, _ in seen:
            np.testing.assert_allclose(w.fvals, prob.constraint_values(w.x),
                                       rtol=1e-12, atol=1e-10)


def pass_instance(kind):
    """with_equalities(kind, 3), for 'qcqp-norows'/'qcqp-noineq' without its
    equality rows/inequality constraints, for 'qcqp-bare' without both."""
    prob = with_equalities(kind.split("-")[0], 3)
    rows = None if kind in ("qcqp-norows", "qcqp-bare") else prob.affine
    ineq = () if kind in ("qcqp-noineq", "qcqp-bare") else prob.constraints
    return ProblemInstance(prob.g, prob.h, prob.dim, rows, ineq, prob.blocks)


# analytic steps need a gradient bound, which the BPDN constraint lacks
@pytest.mark.parametrize("kind, mode", [
    ("qcqp", "backtracking"), ("qcqp", "analytic"), ("bpdn", "backtracking"),
    *((kind, mode) for kind in ("qcqp-norows", "qcqp-noineq", "qcqp-bare")
      for mode in ("backtracking", "analytic"))])
def test_iteration_pass_equals_reference_formulas_with_equality_rows(kind, mode):
    # every iterate of lalm and of blalm on four blocks follows the reference
    # iteration, with equality rows, inequality constraints, both or neither
    prob = pass_instance(kind)
    assert (prob.affine.is_empty, prob.m == 0) == (
        kind in ("qcqp-norows", "qcqp-bare"), kind in ("qcqp-noineq", "qcqp-bare"))
    rng = np.random.default_rng(4)
    x0, y0, z0 = (rng.uniform(-1, 1, size=prob.dim),
                  rng.normal(size=prob.affine.rows), rng.uniform(0, 1, size=prob.m))
    cfg = SolverConfig(beta=0.7, step_mode=mode, max_epochs=12)
    check_lalm(prob, cfg, x0, y0, z0)
    check_blalm(prob, replace(cfg, max_epochs=3), x0, y0, z0, seed=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["qcqp", "bpdn"]),
       epochs=st.integers(1, 9))
def test_commit_reusing_trial_products_equals_commit_recomputing_them(seed, kind,
                                                                      epochs):
    prob = with_equalities(kind, seed % 1000)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, size=prob.dim)
    z0 = rng.uniform(0, 1, size=prob.m)
    # the accepted step brings its A_i dx and tracker products along; a
    # control tracker and residual, handed each dx anew (the block's new
    # value less its old one), compute their own, and reach the same bits;
    # the solve's first refresh comes after epoch 9
    n = len(prob.blocks)
    draws = np.random.default_rng(seed).integers(n, size=(epochs, n)).ravel()
    control, r = smooth_stack(prob).tracker(x0), prob.affine.residual(x0)
    x = x0.copy()

    def check(k, state):
        sl = prob.blocks[draws[k - 1]]
        dx = state.x[sl] - x[sl]
        delta, products = control.delta_value(sl, dx)
        control.commit(sl, control.value + delta, products)
        r[:] += prob.affine.A[:, sl] @ dx
        x[sl] = state.x[sl]
        assert [state.tracker.value.tobytes(), state.tracker.image.tobytes(),
                state.r.tobytes()] == [control.value.tobytes(),
                                       control.image.tobytes(), r.tobytes()]
        np.testing.assert_allclose(state.r, prob.affine.residual(state.x),
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(state.fvals, prob.constraint_values(state.x),
                                   rtol=1e-10, atol=1e-10)

    res = blalm.solve(prob, SolverConfig(beta=0.5, max_epochs=epochs), x0=x0,
                      z0=z0, seed=seed, callback=check)
    assert res.epochs == epochs


def test_affine_constraint_increment_is_linear():
    # f(x) = a'x - d updates by the block inner product
    fn = LinearFunction(np.arange(1.0, 7.0), -1.0)
    prob = ProblemInstance(QuadraticFunction(np.eye(6), np.zeros(6)),
                           ZeroProx(), dim=6,
                           constraints=[InequalityConstraint(fn)],
                           blocks=even_blocks(6, 3))
    drawn, seen = block_run(prob, SolverConfig(max_epochs=5), x0=np.ones(6))
    for sl, (before, _), (after, _) in zip(drawn, seen, seen[1:]):
        dx = after.x[sl] - before.x[sl]
        assert after.fvals[0] - before.fvals[0] == \
            pytest.approx(fn.a[sl] @ dx, abs=1e-12)


# ---------------------------------------------------------------------------
# per-block step sizes


def test_block_backtracking_curvature_counts():
    # separable quadratic: block curvatures 3 and 7; acceptance exactly at
    # eta_i >= L_i gives ceil(log1.5(L_i)) multiplications from seed 1
    Q = np.diag([3.0, 3.0, 7.0, 7.0])
    prob = ProblemInstance(QuadraticFunction(Q, np.zeros(4), lipschitz=7.0),
                           ZeroProx(), dim=4, blocks=even_blocks(4, 2))
    # a block's eta moves at its first visit only, after which it is >= L_i
    drawn, seen = block_run(prob, SolverConfig(eta0=1.0, max_epochs=5),
                            x0=np.ones(4))
    for i, L_i, want in ((0, 3.0, 3), (1, 7.0, 5)):
        first = drawn.index(prob.blocks[i]) + 1
        assert [eta[i] for _, eta in seen[1:first]] == [1.0] * (first - 1)
        eta = seen[first][1][i]
        assert [later[i] for _, later in seen[first:]] == [eta] * (len(seen) - first)
        assert eta == pytest.approx(1.5 ** want)
        assert eta >= L_i and eta / 1.5 < L_i


def test_block_backtracking_accepts_at_seed():
    prob = ProblemInstance(
        QuadraticFunction(np.diag([2.0, 2.0]), np.zeros(2), lipschitz=2.0),
        ZeroProx(), dim=2, blocks=even_blocks(2, 1))
    res = blalm.solve(prob, SolverConfig(eta0=5.0, max_epochs=3), x0=np.ones(2))
    assert res.eta == 5.0


def test_exhausted_block_backtracking_abort_carries_trace_from_epoch_0():
    prob = ProblemInstance(nan_away_from_origin(), ZeroProx(), dim=2,
                           blocks=even_blocks(2, 2))
    with pytest.raises(SolverError, match="backtracking failed") as info:
        blalm.solve(prob, SolverConfig(max_epochs=10))
    assert info.value.records[0].epoch == 0


def test_nonfinite_oracle_value_abort_carries_trace_from_epoch_0():
    # analytic mode takes every candidate: the first step leaves the origin,
    # where the objective is NaN while the iterate stays finite
    prob = ProblemInstance(nan_away_from_origin(), ZeroProx(), dim=2,
                           blocks=even_blocks(2, 2))
    cfg = SolverConfig(step_mode="analytic", max_epochs=20)
    with pytest.raises(SolverError, match="non-finite") as info:
        blalm.solve(prob, cfg)
    assert info.value.records[0].epoch == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_iterate_abort_carries_trace_from_epoch_0():
    # a Lipschitz constant 1000x below the curvature makes every block step
    # overshoot
    prob = ProblemInstance(QuadraticFunction(np.diag([10.0, 10.0]), np.zeros(2),
                                             lipschitz=0.01),
                           ZeroProx(), dim=2, blocks=even_blocks(2, 2))
    cfg = SolverConfig(step_mode="analytic", max_epochs=3000, record_every=100)
    with pytest.raises(SolverError, match="non-finite") as info:
        blalm.solve(prob, cfg, x0=np.ones(2))
    assert info.value.records[0].epoch == 0


def test_analytic_block_bound_always_accepted(rng):
    # every block step at the analytic per-block bound satisfies the
    # descent test on the reference's smooth value and gradient at the
    # iteration's (y, z), without and with equality rows
    beta = 0.5
    cfg = SolverConfig(beta=beta, step_mode="analytic", max_epochs=5)
    for prob in (gen_qcqp(QcqpSpec(m=3, p=12, seed=5)).with_blocks(4),
                 with_equalities("qcqp", 5)):
        y0 = None if prob.affine.is_empty else np.zeros(prob.affine.rows)
        drawn, seen = block_run(prob, cfg, x0=rng.uniform(-10, 10, size=12),
                                y0=y0, z0=rng.uniform(0, 1, size=3))
        for sl, (w, _), (after, eta) in zip(drawn, seen, seen[1:]):
            eta_i = eta[prob.blocks.index(sl)]
            dx = after.x - w.x
            val = ref.smooth_value(prob, after.x, w.y, w.z, beta)
            bound = (ref.smooth_value(prob, w.x, w.y, w.z, beta)
                     + ref.smooth_grad(prob, w.x, w.y, w.z, beta)[sl] @ dx[sl]
                     + 0.5 * eta_i * dx @ dx)
            assert val <= bound + 1e-10 * max(1.0, abs(bound))


def test_analytic_pass_gives_no_floor_to_value_a_candidate_with():
    # analytic mode's pass makes no penalty floor and no base value; with
    # constraints present a candidate cannot be valued without that floor,
    # so candidate_value refuses instead of dropping the penalty sum
    prob = gen_qcqp(QcqpSpec(m=3, p=12, seed=5))
    vals, y, z = smooth_stack(prob)(np.zeros(prob.dim)), np.zeros(0), np.full(3, 0.5)
    _, floor, base = auglag.iteration_terms(vals, y, None, z, 1.0, False)
    assert floor is None and base is None
    with pytest.raises(ValueError, match="floor"):
        auglag.candidate_value(vals, y, None, z, 1.0, floor)


# ---------------------------------------------------------------------------
# full solves


# Instances on which lalm runs as blalm with one block, generated ones and
# the tiny references; the BPDN and minimax instances lack the constants
# analytic steps need.
_ONE_BLOCK = {
    "qcqp-rows": lambda: with_equalities("qcqp", 1),
    "qcqp": lambda: gen_qcqp(QcqpSpec(m=3, p=12, seed=1)),
    "bpdn-rows": lambda: with_equalities("bpdn", 1),
    "bpdn": lambda: gen_bpdn(BpdnSpec(rows=6, cols=12, sparsity=2, seed=1)),
    "minimax": lambda: random_minimax_1d(seed=1)[1],
    **{kind: lambda kind=kind: tiny_reference(kind)[0] for kind in TINY_KINDS},
}
_ONE_BLOCK_RUNS = [(name, mode) for name in _ONE_BLOCK
                   for mode in ("analytic", "backtracking")
                   if mode == "backtracking" or not ("bpdn" in name or name == "minimax")]


@pytest.mark.parametrize("name, mode", _ONE_BLOCK_RUNS)
def test_lalm_is_blalm_with_one_block_bit_for_bit(name, mode):
    # the same BlockState iteration on the block slice(0, dim): every
    # iterate's x, y, z and eta agree to the bit, across blalm's refreshes,
    # and so do the final point and the trace, which both record from the
    # full-width tracker; only the ergodic weights (1/eta against 1) differ
    prob = _ONE_BLOCK[name]()
    cfg = SolverConfig(beta=0.5, step_mode=mode, max_epochs=40, record_every=5)
    x0 = np.full(prob.dim, 0.3)
    skip = {"method", "time_ms", "erg_obj_gap", "erg_feas"}

    def run(solve, instance, **kwargs):
        seen = []
        res = solve(instance, cfg, x0=x0, callback=lambda k, s: seen.append(
            (k,) + tuple(a.tobytes() for a in (s.x, s.y, s.z, s.eta))), **kwargs)
        w = res.w
        return dict(
            iterates=seen, eta=res.eta, epochs=res.epochs,
            w=[a.tobytes() for a in (w.x, w.y, w.z, w.r, w.fvals)],
            trace=[{f: v for f, v in vars(rec).items() if f not in skip}
                   for rec in res.trace])

    full = run(lalm.solve, prob)
    assert len(full["iterates"]) == 40 and len(full["trace"]) == 9
    assert full == run(blalm.solve, prob.with_blocks(1), seed=7)


@pytest.mark.parametrize("name, mode", _ONE_BLOCK_RUNS)
def test_lalm_rebases_once_per_candidate_and_never_commits(monkeypatch, name,
                                                           mode):
    # a full-width trial is one rebase, which its commit reuses: after the
    # start, every candidate (one prox call) is followed by exactly one
    # tracker rebase, and no value delta or commit is ever asked for
    prob = _ONE_BLOCK[name]()
    events, depth = [], [0]

    def counted(fn, name=None):
        """fn, noting its calls as ``name`` unless made inside another
        counted call, so the recorder's prox calls do not count."""
        def call(*args, **kwargs):
            if not depth[0] and name:
                events.append(name)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    for cls in (model.QuadraticTracker, model.FullTracker):
        for attr in ("rebase", "delta_value", "commit"):
            monkeypatch.setattr(cls, attr, counted(vars(cls)[attr], attr))
    monkeypatch.setattr(type(prob.h), "prox", counted(type(prob.h).prox, "prox"))
    monkeypatch.setattr(MetricsRecorder, "snapshot",
                        counted(MetricsRecorder.snapshot))
    res = lalm.solve(prob, SolverConfig(beta=0.5, step_mode=mode, max_epochs=30))
    assert res.epochs == 30
    first = events.index("prox")
    candidates = events.count("prox")
    assert candidates >= 30 and set(events[:first]) == {"rebase"}
    assert events[first:] == ["prox", "rebase"] * candidates


def test_one_block_converges_on_tiny_scalar_qcqp():
    prob, want = tiny_reference("scalar-qcqp")
    cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=10_000,
                       record_every=1000)
    res = blalm.solve(prob.with_blocks(1), cfg, seed=1)
    assert np.linalg.norm(res.w.x - want.x) <= 1e-5


def test_converges_multiblock_qcqp():
    prob = gen_qcqp(QcqpSpec(m=3, p=10, seed=2)).with_blocks(5)
    cfg = SolverConfig(beta=0.5, max_epochs=3000, record_every=100)
    res = blalm.solve(prob, cfg, seed=0)
    assert res.trace[-1].kkt_stat <= 1e-8
    assert res.trace[-1].feas <= 1e-8


def test_exactly_one_block_changes_per_iteration():
    prob = gen_qcqp(QcqpSpec(m=2, p=12, seed=6)).with_blocks(4)
    cfg = SolverConfig(beta=0.5, max_epochs=10, record_every=10)
    prev = {"x": None}
    changed_counts = []

    def watch(k, state):
        if prev["x"] is not None:
            changed = [not np.array_equal(state.x[sl], prev["x"][sl])
                       for sl in prob.blocks]
            changed_counts.append(sum(changed))
        prev["x"] = state.x.copy()

    blalm.solve(prob, cfg, seed=3, callback=watch)
    assert max(changed_counts) <= 1


def test_seed_determinism_identical_traces():
    prob = gen_bpdn(BpdnSpec(rows=8, cols=16, sparsity=3, seed=1)).with_blocks(4)
    cfg = SolverConfig(beta=1.0, rho_z=0.25, rho_y=0.25, max_epochs=50,
                       record_every=5)
    fake_clock = lambda: 0.0
    res1 = blalm.solve(prob, cfg, seed=7, clock=fake_clock)
    res2 = blalm.solve(prob, cfg, seed=7, clock=fake_clock)
    assert res1.trace == res2.trace
    np.testing.assert_array_equal(res1.w.x, res2.w.x)


@pytest.mark.parametrize("kind", ["qcqp", "bpdn"])
def test_narrow_records_read_one_exact_evaluation(kind):
    # between refreshes a narrow tracker's values and residual drift by
    # roundoff; a record's feasibility and complementarity come from the
    # record's own evaluation at x, not from the drifted state
    prob = with_equalities(kind, 0)
    n = len(prob.blocks)
    cfg = SolverConfig(beta=1.0, max_epochs=25, record_every=1)
    points = {}
    res = blalm.solve(prob, cfg, seed=0, callback=lambda k, s: points.update(
        {k // n: PrimalDualPoint.of(s)} if k % n == 0 else {}))
    stack = model.smooth_stack(prob)
    off_refresh = [rec for rec in res.trace if rec.epoch % 10]
    assert len(off_refresh) == 23
    for rec in off_refresh:
        w = points[rec.epoch]
        vals, grads = stack.value_grad(w.x)
        exact = model.kkt_residual(
            replace(w, r=prob.affine.residual(w.x), fvals=vals[1:]), prob,
            grads=grads)
        assert (rec.feas, rec.kkt_comp) == (exact.feasibility,
                                            exact.complementarity)


def test_z_nonnegative_along_block_run():
    prob = gen_qcqp(QcqpSpec(m=4, p=10, seed=8)).with_blocks(5)
    cfg = SolverConfig(beta=0.5, max_epochs=400, record_every=100)
    mins = []
    blalm.solve(prob, cfg, seed=2,
                callback=lambda k, s: mins.append(s.z.min() if s.z.size else 0.0))
    assert min(mins) >= 0.0


@pytest.mark.parametrize("method", ["lalm", "blalm"])
@pytest.mark.parametrize("make", [
    lambda: gen_qcqp(QcqpSpec(m=2, p=8, seed=9)),
    lambda: gen_bpdn(BpdnSpec(rows=6, cols=12, sparsity=2, seed=1)),
], ids=["qcqp", "bpdn"])
def test_every_ergodic_point_lies_in_the_iterates_hull(method, make):
    # an ergodic point is a convex combination of the iterates, so each of
    # its coordinates lies between that coordinate's least and greatest
    # iterate value, up to roundoff; checked on every ergodic* array
    prob = make().with_blocks(4)
    iterates = []
    cfg = SolverConfig(beta=0.5, max_epochs=25, record_every=25)
    solve = lalm.solve if method == "lalm" else blalm.solve
    kwargs = {} if method == "lalm" else {"seed": 4}
    res = solve(prob, cfg, callback=lambda k, s: iterates.append(s.x.copy()),
                **kwargs)
    iterates = np.array(iterates)
    lo, hi = iterates.min(axis=0), iterates.max(axis=0)
    slack = 1e-12 * (1.0 + np.abs(iterates).max(axis=0))
    points = {name: value for name, value in vars(res).items()
              if name.startswith("ergodic") and value is not None}
    assert "ergodic_x" in points
    for name, x in points.items():
        assert np.all((lo - slack <= x) & (x <= hi + slack)), name


def test_default_rho_fractions_satisfy_block_bounds():
    # defaults rho = beta/n lie inside the (0, beta] validity region, and the
    # stricter beta/(2n) inequality-multiplier choice is accepted too
    cfg = SolverConfig(beta=2.0)
    rho_y, rho_z = cfg.resolve_rho(n_blocks=8)
    assert rho_y == pytest.approx(2.0 / 8) and rho_y <= 2.0 / 8
    strict = SolverConfig(beta=2.0, rho_z=2.0 / 16, rho_y=2.0 / 8)
    ry, rz = strict.resolve_rho(n_blocks=8)
    assert ry <= 2.0 / 8 and rz <= 2.0 / 16


def test_zero_partial_gradient_leaves_block_unchanged():
    # h_i = 0 and a vanishing partial gradient: the block prox step is a
    # fixed point
    Q = np.diag([1.0, 1.0, 4.0, 4.0])
    prob = ProblemInstance(QuadraticFunction(Q, np.zeros(4), lipschitz=4.0),
                           ZeroProx(), dim=4, blocks=even_blocks(4, 2))
    drawn, seen = block_run(prob, SolverConfig(eta0=1.0, max_epochs=5),
                            x0=np.array([0.0, 0.0, 1.0, -1.0]))
    assert prob.blocks[0] in drawn
    for w, _ in seen:
        assert w.x[:2].tobytes() == np.zeros(2).tobytes()


def z_step_instance(kind, rows, seed):
    """A small generated QCQP, BPDN or QCQP with an oracle constraint (a
    FunctionStack), with three random equality rows when ``rows``."""
    prob = {"qcqp": lambda: gen_qcqp(QcqpSpec(m=3, p=12, seed=seed)),
            "bpdn": lambda: gen_bpdn(BpdnSpec(rows=6, cols=12, sparsity=2, seed=seed)),
            "oracle": lambda: qcqp_with_oracle_constraint(seed=seed)}[kind]()
    affine = None
    if rows:
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(3, prob.dim))
        affine = AffineConstraint(A, A @ rng.uniform(-0.5, 0.5, size=prob.dim))
    return ProblemInstance(prob.g, prob.h, prob.dim, affine, prob.constraints)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["qcqp", "bpdn", "oracle"]), rows=st.booleans(),
       method=st.sampled_from(["lalm", "blalm-1", "blalm-k"]),
       mode=st.sampled_from(["backtracking", "analytic"]),
       seed=st.integers(0, 100))
def test_z_step_is_the_four_argument_multiplier_step(kind, rows, method, mode, seed):
    # when backtracking the solvers take the z step from the clipped values
    # the accepted candidate was valued with, and in analytic mode clip the
    # committed values; either way each step is multiplier_step_z(z_prev,
    # f(x_new), rho_z, beta) of the committed values, bit for bit
    assume(kind != "bpdn" or mode == "backtracking")   # BPDN has no B_j
    prob = z_step_instance(kind, rows, seed)
    n = {"lalm": 1, "blalm-1": 1, "blalm-k": 4}[method]
    cfg = SolverConfig(beta=0.5, step_mode=mode, max_epochs=6, record_every=3)
    rho_z = cfg.resolve_rho(n)[1]
    # a start off the origin violates constraints, so w = f(x_new) is taken
    rng = np.random.default_rng(seed)
    x0, z0 = rng.uniform(-3.0, 3.0, size=prob.dim), rng.uniform(0.0, 2.0, size=prob.m)
    steps = [z0]

    def check(k, state):
        want = lalm.multiplier_step_z(steps[-1], state.fvals, rho_z, cfg.beta)
        assert state.z.tobytes() == want.tobytes()
        steps.append(state.z.copy())

    if method == "lalm":
        lalm.solve(prob, cfg, x0=x0, z0=z0, callback=check)
    else:
        blalm.solve(prob.with_blocks(n), cfg, x0=x0, z0=z0, seed=seed, callback=check)
    assert len(steps) == 6 * n + 1


def test_a_narrow_block_iteration_makes_at_most_30_profiled_calls():
    # ROADMAP item 19's guard on a narrow iteration's call overhead, which is
    # most of what a bpdn-batch blalm epoch costs: the Python and C function
    # calls cProfile counts per block iteration (29.4 when written). Two
    # solves' difference leaves out the per-solve set-up and keeps 100
    # epochs of 10 iterations with their 10 records and 10 refreshes
    prob = gen_bpdn(BpdnSpec(rows=50, cols=100, sparsity=5, seed=1)).with_blocks(10)

    def calls(epochs):
        cfg = SolverConfig(beta=1.0, rho_z=0.1, max_epochs=epochs, record_every=10)
        profile = cProfile.Profile()
        profile.runcall(blalm.solve, prob, cfg, x0=prob.meta["x0"])
        return pstats.Stats(profile).total_calls

    calls(1)   # first-call costs stay out
    assert (calls(200) - calls(100)) / 1000 <= 30
