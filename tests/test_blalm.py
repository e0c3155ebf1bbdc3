import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import nan_away_from_origin
from linalm import auglag, blalm, lalm
from linalm.blalm import BlockState
from linalm.instances import (BpdnSpec, QcqpSpec, gen_bpdn, gen_qcqp,
                              tiny_reference)
from linalm.lalm import SolverConfig, SolverError
from linalm.model import (AffineConstraint, InequalityConstraint, L1Norm,
                          LinearFunction, ProblemInstance, QuadraticFunction,
                          ZeroProx, even_blocks)


def make_state(prob, seed=0, **cfg_kwargs):
    cfg = SolverConfig(**cfg_kwargs)
    return BlockState(prob, cfg, seed=seed)


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


def state_bytes(state):
    """x, r and every array the tracker maintains, as bytes."""
    tracker = state.tracker
    arrays = [state.x, state.r, tracker.value]
    for t in getattr(tracker, "trackers", [tracker]):
        arrays += [np.asarray(getattr(t, a)) for a in ("value", "qx", "u")
                   if hasattr(t, a)]
    return [a.tobytes() for a in arrays]


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

    prob = ProblemInstance(QuadraticFunction(np.eye(4), np.zeros(4)),
                           Coupled(), dim=4, blocks=even_blocks(4, 2))
    with pytest.raises(ValueError, match="separable"):
        blalm.solve(prob, SolverConfig(max_epochs=1))


# ---------------------------------------------------------------------------
# sampler


def test_pick_block_single():
    prob = gen_qcqp(QcqpSpec(m=2, p=6, seed=0)).with_blocks(1)
    state = make_state(prob)
    assert all(state.pick_block() == 0 for _ in range(10))


def test_pick_block_deterministic_replay():
    prob = gen_qcqp(QcqpSpec(m=2, p=10, seed=0)).with_blocks(5)
    a = make_state(prob, seed=42)
    b = make_state(prob, seed=42)
    assert [a.pick_block() for _ in range(100)] == \
           [b.pick_block() for _ in range(100)]


def test_pick_block_uniform_frequencies():
    prob = gen_qcqp(QcqpSpec(m=2, p=20, seed=0)).with_blocks(10)
    state = make_state(prob, seed=7)
    draws = np.array([state.pick_block() for _ in range(100_000)])
    freq = np.bincount(draws, minlength=10) / draws.size
    assert np.all(freq >= 0.09) and np.all(freq <= 0.11)


# ---------------------------------------------------------------------------
# incremental maintenance


def test_residual_increments_match_full_recompute(rng):
    A = AffineConstraint(rng.normal(size=(7, 30)), rng.normal(size=7))
    prob = ProblemInstance(QuadraticFunction(np.eye(30), np.zeros(30),
                                             lipschitz=1.0),
                           ZeroProx(), dim=30, affine=A,
                           blocks=even_blocks(30, 6))
    state = make_state(prob)
    for _ in range(10_000):
        i = int(rng.integers(6))
        sl = prob.blocks[i]
        blk = state.x[sl] + rng.normal(size=sl.stop - sl.start) * 0.01
        state.apply_block(i, blk)
    exact = A.residual(state.x)
    err = np.linalg.norm(state.r - exact) / max(np.linalg.norm(exact), 1.0)
    assert err <= 1e-9


def test_zero_delta_keeps_residual_and_values(rng):
    prob = gen_qcqp(QcqpSpec(m=3, p=10, seed=1)).with_blocks(5)
    state = make_state(prob)
    r0, f0 = state.r.copy(), state.fvals.copy()
    state.apply_block(2, state.x[prob.blocks[2]].copy())
    np.testing.assert_array_equal(state.r, r0)
    np.testing.assert_allclose(state.fvals, f0, atol=1e-15)


def test_identity_affine_single_coordinate():
    A = AffineConstraint(np.eye(3), np.zeros(3))
    prob = ProblemInstance(QuadraticFunction(np.eye(3), np.zeros(3)),
                           ZeroProx(), dim=3, affine=A,
                           blocks=even_blocks(3, 3))
    state = make_state(prob)
    r0 = state.r.copy()
    state.apply_block(1, state.x[slice(1, 2)] + 2.0)
    np.testing.assert_allclose(state.r - r0, [0.0, 2.0, 0.0])


def test_constraint_increments_match_full_evaluation(rng):
    prob = gen_qcqp(QcqpSpec(m=4, p=12, seed=3)).with_blocks(4)
    state = make_state(prob)
    for _ in range(200):
        i = int(rng.integers(4))
        sl = prob.blocks[i]
        blk = state.x[sl] + rng.normal(size=sl.stop - sl.start) * 0.1
        state.apply_block(i, blk)
        np.testing.assert_allclose(state.fvals, prob.constraint_values(state.x),
                                   atol=1e-10)


def test_apply_block_reuses_only_the_accepted_trial_deltas(rng):
    # a stacked tracker commits with the value deltas of the accepted trial;
    # a block value from anywhere else must be evaluated afresh
    prob = gen_qcqp(QcqpSpec(m=3, p=12, seed=5)).with_blocks(4)
    state = make_state(prob)
    for _ in range(20):
        i = int(rng.integers(4))
        sl = prob.blocks[i]
        _, accepted = state.backtrack_block(i, state.block_gradient(i))
        own = rng.random() < 0.5
        state.apply_block(i, accepted if own else
                          state.x[sl] + rng.normal(size=sl.stop - sl.start))
        np.testing.assert_allclose(state.fvals, prob.constraint_values(state.x),
                                   rtol=1e-12, atol=1e-10)


# analytic steps need a gradient bound, which the BPDN constraint lacks
@pytest.mark.parametrize("kind, mode", [("qcqp", "backtracking"),
                                        ("qcqp", "analytic"),
                                        ("bpdn", "backtracking")])
def test_iteration_pass_equals_reference_formulas_with_equality_rows(kind, mode):
    # the base value (backtracking), the analytic step bound (analytic) and
    # the block gradient that block_gradient's one pass over (f, z) gives
    # equal the reference formulas at state.point() exactly; the full
    # gradient's slice agrees to roundoff, as A'v and A[:, sl]'v sum in a
    # different order
    prob = with_equalities(kind, 3)
    rng = np.random.default_rng(4)
    beta = 0.7
    state = BlockState(prob, SolverConfig(beta=beta, step_mode=mode),
                       x0=rng.uniform(-1, 1, size=prob.dim),
                       y0=rng.normal(size=prob.affine.rows),
                       z0=rng.uniform(0, 1, size=prob.m))
    assert prob.affine.rows == 3 and prob.m >= 1
    for _ in range(12):
        i = state.pick_block()
        sl = prob.blocks[i]
        eta_before = state.eta[i]
        grad = state.block_gradient(i)
        w = state.point()
        coef = auglag.scalar_penalty_deriv(w.fvals, w.z, beta)
        if state.analytic:
            assert state.eta[i] == lalm.analytic_eta(
                eta_before, coef, beta, 0.0, prob, state.block_norm_sq[i])
        else:
            assert state.smooth_value() == auglag.smooth_value(
                state.tracker.value[0], w.y, w.r,
                auglag.scalar_penalty(w.fvals, w.z, beta), beta)
        want = auglag.smooth_grad_block(state.tracker.block_grad(sl),
                                        prob.affine.A[:, sl], w.y, w.r, coef, beta)
        assert grad.tobytes() == want.tobytes()
        full = auglag.smooth_grad(state.tracker.grad(), prob.affine.A, w.y, w.r,
                                  coef, beta)
        np.testing.assert_allclose(grad, full[sl], rtol=1e-12,
                                   atol=1e-12 * np.abs(full).max())
        _, blk = state.backtrack_block(i, grad)
        state.apply_block(i, blk)
        state.y = lalm.multiplier_step_y(state.y, state.r, beta)
        state.z = lalm.multiplier_step_z(state.z, state.fvals, beta, beta)
        # apply_block ended the iteration: nothing of its pass is served
        assert state.smooth_value() is None


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["qcqp", "bpdn"]),
       steps=st.integers(1, 12))
def test_commit_reusing_trial_products_equals_commit_recomputing_them(seed, kind,
                                                                      steps):
    prob = with_equalities(kind, seed % 1000)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, size=prob.dim)
    z0 = rng.uniform(0, 1, size=prob.m)
    reuse, fresh, stale, control = (
        BlockState(prob, SolverConfig(beta=0.5), x0=x0, z0=z0) for _ in range(4))
    for _ in range(steps):
        i = int(rng.integers(len(prob.blocks)))
        sl = prob.blocks[i]
        # the accepted candidate brings its dx, A_i dx and tracker products
        # along; an equal copy of it makes the commit compute its own
        _, blk = reuse.backtrack_block(i, reuse.block_gradient(i))
        _, blk_fresh = fresh.backtrack_block(i, fresh.block_gradient(i))
        assert blk.tobytes() == blk_fresh.tobytes()
        reuse.apply_block(i, blk)
        fresh.apply_block(i, blk_fresh.copy())
        assert state_bytes(reuse) == state_bytes(fresh)
        # a block value other than the last candidate valued reuses nothing:
        # it commits as on a state that valued no candidate at all
        _, tried = stale.backtrack_block(i, stale.block_gradient(i))
        moved = tried + rng.normal(size=sl.stop - sl.start)
        stale.apply_block(i, moved)
        control.apply_block(i, moved.copy())
        assert state_bytes(stale) == state_bytes(control)
    for state in (reuse, stale):
        np.testing.assert_allclose(state.r, prob.affine.residual(state.x),
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(state.fvals, prob.constraint_values(state.x),
                                   rtol=1e-10, atol=1e-10)


def test_affine_constraint_increment_is_linear(rng):
    # f(x) = a'x - d updates by the block inner product
    fn = LinearFunction(np.arange(1.0, 7.0), -1.0)
    prob = ProblemInstance(QuadraticFunction(np.eye(6), np.zeros(6)),
                           ZeroProx(), dim=6,
                           constraints=[InequalityConstraint(fn)],
                           blocks=even_blocks(6, 3))
    state = make_state(prob)
    sl = prob.blocks[1]
    old = state.fvals.copy()
    dx = np.array([0.5, -1.0])
    state.apply_block(1, state.x[sl] + dx)
    assert state.fvals[0] - old[0] == pytest.approx(fn.a[sl] @ dx, abs=1e-12)


# ---------------------------------------------------------------------------
# per-block step sizes


def test_block_backtracking_curvature_counts():
    # separable quadratic: block curvatures 3 and 7; acceptance exactly at
    # eta_i >= L_i gives ceil(log1.5(L_i)) multiplications from seed 1
    Q = np.diag([3.0, 3.0, 7.0, 7.0])
    prob = ProblemInstance(QuadraticFunction(Q, np.zeros(4), lipschitz=7.0),
                           ZeroProx(), dim=4, blocks=even_blocks(4, 2))
    cfg = SolverConfig(eta0=1.0)
    state = BlockState(prob, cfg, x0=np.ones(4), seed=0)
    for i, L_i, want in ((0, 3.0, 3), (1, 7.0, 5)):
        grad = state.block_gradient(i)
        assert np.any(grad != 0)
        eta, _ = state.backtrack_block(i, grad)
        assert state.last_trials == want
        assert eta == pytest.approx(1.5 ** want)
        assert eta >= L_i and eta / 1.5 < L_i


def test_block_backtracking_accepts_at_seed():
    prob = ProblemInstance(
        QuadraticFunction(np.diag([2.0, 2.0]), np.zeros(2), lipschitz=2.0),
        ZeroProx(), dim=2, blocks=even_blocks(2, 1))
    state = make_state(prob, eta0=5.0)
    eta, _ = state.backtrack_block(0, state.block_gradient(0))
    assert eta == 5.0 and state.last_trials == 0


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
    # candidates at the analytic per-block bound, which block_gradient sets,
    # satisfy the descent test, without and with equality rows
    beta = 0.5
    cfg = SolverConfig(beta=beta, step_mode="analytic")
    for prob in (gen_qcqp(QcqpSpec(m=3, p=12, seed=5)).with_blocks(4),
                 with_equalities("qcqp", 5)):
        state = BlockState(prob, cfg, x0=rng.uniform(-10, 10, size=12),
                           z0=rng.uniform(0, 1, size=3), seed=0)

        def value(vals, r):
            return auglag.smooth_value(
                vals[0], state.y, r, auglag.scalar_penalty(vals[1:], state.z, beta),
                beta)

        for i in range(4):
            grad = state.block_gradient(i)
            eta_i = state.eta[i]
            sl = prob.blocks[i]
            blk = state.h_blocks[i].prox(state.x[sl] - grad / eta_i, 1.0 / eta_i)
            dx = blk - state.x[sl]
            dr = None if prob.affine.is_empty else prob.affine.A[:, sl] @ dx
            val = value(state.tracker.value + state.tracker.delta_value(sl, dx),
                        None if dr is None else state.r + dr)
            bound = (value(state.tracker.value, None if dr is None else state.r)
                     + grad @ dx + 0.5 * eta_i * dx @ dx)
            assert val <= bound + 1e-10 * max(1.0, abs(bound))


# ---------------------------------------------------------------------------
# full solves


def test_single_block_matches_full_solver_analytic():
    for kind in ("equality-qp", "scalar-qcqp"):
        prob, _ = tiny_reference(kind)
        cfg = SolverConfig(beta=1.0, rho_y=0.8, rho_z=0.8, step_mode="analytic",
                           max_epochs=100, record_every=100)
        xs_full, xs_block = [], []
        lalm.solve(prob, cfg, callback=lambda k, w: xs_full.append(w.x.copy()))
        blalm.solve(prob.with_blocks(1), cfg, seed=9,
                    callback=lambda k, s: xs_block.append(s.x.copy()))
        gap = max(np.max(np.abs(a - b)) for a, b in zip(xs_full, xs_block))
        assert gap <= 1e-12, kind


def test_single_block_matches_full_solver_backtracking():
    prob, _ = tiny_reference("scalar-bpdn")
    cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=100,
                       record_every=100)
    xs_full, xs_block = [], []
    lalm.solve(prob, cfg, callback=lambda k, w: xs_full.append(w.x.copy()))
    blalm.solve(prob.with_blocks(1), cfg, seed=1,
                callback=lambda k, s: xs_block.append(s.x.copy()))
    gap = max(np.max(np.abs(a - b)) for a, b in zip(xs_full, xs_block))
    assert gap <= 1e-12


def test_converges_on_tiny_qcqp_any_block_count():
    prob, ref = tiny_reference("scalar-qcqp")
    for n in (1,):
        cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=10_000,
                           record_every=1000)
        res = blalm.solve(prob.with_blocks(n), cfg, seed=n)
        assert np.linalg.norm(res.w.x - ref.x) <= 1e-5


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


def test_z_nonnegative_along_block_run():
    prob = gen_qcqp(QcqpSpec(m=4, p=10, seed=8)).with_blocks(5)
    cfg = SolverConfig(beta=0.5, max_epochs=400, record_every=100)
    mins = []
    blalm.solve(prob, cfg, seed=2,
                callback=lambda k, s: mins.append(s.z.min() if s.z.size else 0.0))
    assert min(mins) >= 0.0


def test_ergodic_normalizations():
    prob = gen_qcqp(QcqpSpec(m=2, p=8, seed=9)).with_blocks(4)
    cfg = SolverConfig(beta=0.5, max_epochs=25, record_every=25)
    res = blalm.solve(prob, cfg, seed=4)
    n, iters = 4, 25 * 4
    np.testing.assert_allclose(res.ergodic_x * iters,
                               res.ergodic_x_scaled * (1 + (iters - 1) / n))


def test_default_rho_fractions_satisfy_block_bounds():
    # defaults rho = beta/n lie inside the (0, beta] validity region, and the
    # stricter beta/(2n) inequality-multiplier choice is accepted too
    cfg = SolverConfig(beta=2.0)
    rho_y, rho_z = cfg.resolve_rho(n_blocks=8)
    assert rho_y == pytest.approx(2.0 / 8) and rho_y <= 2.0 / 8
    strict = SolverConfig(beta=2.0, rho_z=2.0 / 16, rho_y=2.0 / 8)
    ry, rz = strict.resolve_rho(n_blocks=8)
    assert ry <= 2.0 / 8 and rz <= 2.0 / 16


def test_trace_reports_both_ergodic_normalizations():
    prob = gen_qcqp(QcqpSpec(m=2, p=8, seed=11)).with_blocks(4)
    prob = prob.with_f0_star(-1.0)  # any reference enables the gap columns
    cfg = SolverConfig(beta=0.5, max_epochs=20, record_every=5)
    res = blalm.solve(prob, cfg, seed=0)
    for rec in res.trace[1:]:
        assert rec.erg_obj_gap is not None and rec.erg_feas is not None
        assert rec.erg_obj_gap_scaled is not None
        assert rec.erg_feas_scaled is not None


def test_zero_partial_gradient_leaves_block_unchanged():
    # h_i = 0 and a vanishing partial gradient: the block prox step is a
    # fixed point
    Q = np.diag([1.0, 1.0, 4.0, 4.0])
    prob = ProblemInstance(QuadraticFunction(Q, np.zeros(4), lipschitz=4.0),
                           ZeroProx(), dim=4, blocks=even_blocks(4, 2))
    state = BlockState(prob, SolverConfig(eta0=1.0),
                       x0=np.array([0.0, 0.0, 1.0, -1.0]), seed=0)
    grad0 = state.block_gradient(0)
    np.testing.assert_array_equal(grad0, np.zeros(2))
    eta, blk = state.backtrack_block(0, grad0)
    np.testing.assert_array_equal(blk, state.x[prob.blocks[0]])
