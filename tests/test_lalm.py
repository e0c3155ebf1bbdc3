import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (nan_away_from_origin, nan_grad_away_from_origin,
                      smooth_grad_at, smooth_value_at)
from linalm import auglag, blalm, lalm, pdyn
from linalm.blalm import BlockState
from linalm.instances import BpdnSpec, QcqpSpec, gen_bpdn, gen_qcqp, tiny_reference
from linalm.lalm import (ErgodicAccumulator, SolverConfig, SolverError,
                         analytic_eta, backtrack_primal, multiplier_step_y,
                         multiplier_step_z, prox_step)
from linalm.model import (BoxIndicator, InequalityConstraint, L1Norm,
                          LinearFunction, PrimalDualPoint, ProblemInstance,
                          QuadraticFunction, ZeroProx, even_blocks, smooth_stack)
from linalm.pdyn import PdynState


def tracker_at(w, prob):
    return smooth_stack(prob).tracker(w.x)


def quadratic_prob(curvature=3.0):
    return ProblemInstance(
        QuadraticFunction([[curvature]], [0.0], lipschitz=curvature),
        ZeroProx(), dim=1)


def candidate(w, grad, eta, prob):
    """The prox-gradient candidate that prox_step takes first."""
    _, x_new, _, trials = prox_step(w.x, grad, eta, prob.h.prox, lambda x: None,
                                    None, SolverConfig(step_mode="analytic"))
    assert trials == 0
    return x_new


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(beta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(step_mode="wild")
    with pytest.raises(ValueError):
        SolverConfig(rho_z=2.0).resolve_rho()  # above beta=1
    assert SolverConfig(beta=2.0).resolve_rho() == (2.0, 2.0)
    assert SolverConfig(beta=2.0).resolve_rho(n_blocks=4) == (0.5, 0.5)
    # every value is checked at construction, before any solve starts
    for bad in ({"rho_y": 0.0}, {"rho_z": 2.0}, {"eta0": -1.0}, {"eta0": 0.0},
                {"record_every": 0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverConfig(**bad)


@pytest.mark.parametrize("solver", [lalm, blalm])
def test_analytic_mode_refuses_nonpositive_eta0(solver):
    prob = gen_qcqp(QcqpSpec(m=2, p=4, seed=0)).with_blocks(2)
    with pytest.raises(ValueError, match="eta0"):
        solver.solve(prob, SolverConfig(step_mode="analytic", eta0=-1.0,
                                        max_epochs=5))


# ---------------------------------------------------------------------------
# step-size rules


def test_analytic_eta_hand_cases():
    prob, _ = tiny_reference("equality-qp")
    # L_F = L_g + beta ||A||^2 = 1 + 2; delta = 1 -> eta = 4 from eta_prev 0
    norm_sq = prob.affine.op_norm_sq()
    val = analytic_eta(0.0, np.zeros(0), 1.0, 1.0, prob, norm_sq)
    assert val == pytest.approx(4.0, rel=1e-6)
    # the max keeps monotonicity when the bound drops
    assert analytic_eta(10.0, np.zeros(0), 1.0, 1.0, prob, norm_sq) == 10.0
    # constant problem data: eta settles after the first iteration
    again = analytic_eta(val, np.zeros(0), 1.0, 1.0, prob, norm_sq)
    assert again == val


def test_analytic_eta_requires_constants():
    prob = gen_bpdn(BpdnSpec(rows=4, cols=6, sparsity=2, seed=0))
    with pytest.raises(ValueError, match="backtracking"):
        analytic_eta(0.0, np.zeros(1), 1.0, 0.0, prob, prob.affine.op_norm_sq())


def test_backtracking_quadratic_acceptance_count():
    # g = (L/2) x^2 with L = 3: the descent test accepts exactly when
    # eta >= L, so from eta 1 with factor 1.5 three increases are needed
    prob = quadratic_prob(3.0)
    w = PrimalDualPoint.at(prob, [1.0])
    grad = smooth_grad_at(w, 1.0, prob)
    cfg = SolverConfig(beta=1.0, eta0=1.0)
    eta, x_new, _, _, _, trials = backtrack_primal(w, grad, 1.0, cfg, prob,
                                                   tracker_at(w, prob))
    assert eta == pytest.approx(1.5 ** 3)
    assert trials == 3
    np.testing.assert_allclose(x_new, w.x - grad / eta)


def test_backtracking_accepts_at_sufficient_eta():
    prob = quadratic_prob(3.0)
    w = PrimalDualPoint.at(prob, [1.0])
    grad = smooth_grad_at(w, 1.0, prob)
    cfg = SolverConfig(beta=1.0)
    eta, _, _, _, _, trials = backtrack_primal(w, grad, 5.0, cfg, prob,
                                             tracker_at(w, prob))
    assert eta == 5.0 and trials == 0


class CountingProx(ZeroProx):
    """h = 0 on a box that is the whole space, counting prox calls (one per
    candidate), so pdyn accepts it too."""

    def __init__(self):
        self.calls = 0

    def prox(self, v, weight):
        self.calls += 1
        return super().prox(v, weight)


def _lalm_step(prob, cfg):
    w = PrimalDualPoint.at(prob, [1.0])
    grad = smooth_grad_at(w, 1.0, prob)
    eta, _, _, _, _, trials = backtrack_primal(w, grad, 1.0, cfg, prob,
                                               tracker_at(w, prob))
    return eta, trials


def _block_step(prob, cfg):
    state = BlockState(prob.with_blocks(1), cfg, x0=[1.0])
    grad = state.block_gradient(0)   # sets the analytic bound in analytic mode
    state.eta[0] = 1.0
    eta, _ = state.backtrack_block(0, grad)
    return eta, state.last_trials


def _pdyn_step(prob, cfg):
    new = pdyn.step(PdynState.start(prob, [1.0], eta=1.0), prob, cfg)
    return new.eta, None


@pytest.mark.parametrize("run", [_lalm_step, _block_step, _pdyn_step],
                         ids=["backtrack_primal", "backtrack_block", "pdyn.step"])
@pytest.mark.parametrize("mode, trials", [("backtracking", 3), ("analytic", 0)])
def test_every_solver_step_is_the_shared_prox_step(run, mode, trials):
    # g = (3/2) x^2 from eta 1 with factor 1.5: backtracking accepts at the
    # third increase, 1.5^3 >= 3; analytic mode takes the first candidate
    h = CountingProx()
    prob = ProblemInstance(QuadraticFunction([[3.0]], [0.0], lipschitz=3.0), h,
                           dim=1)
    eta, reported = run(prob, SolverConfig(beta=1.0, step_mode=mode))
    assert h.calls == trials + 1
    assert eta == pytest.approx(1.5 ** trials)
    assert reported in (None, trials)


@pytest.mark.filterwarnings("ignore:overflow")
def test_backtracking_error_on_divergent_oracle():
    bad = ProblemInstance(
        QuadraticFunction([[-1e300]], [1e300]), ZeroProx(), dim=1)
    w = PrimalDualPoint.at(bad, [1.0])
    with pytest.raises(SolverError):
        backtrack_primal(w, np.array([1e300]), 1.0, SolverConfig(), bad,
                         tracker_at(w, bad))


def test_accepted_pairs_satisfy_descent_inequality(rng):
    # post-hoc recheck of the accepted (eta, x+) pairs at 1e-10 slack
    prob = gen_bpdn(BpdnSpec(rows=6, cols=10, sparsity=2, seed=3))
    cfg = SolverConfig(beta=1.0)
    for _ in range(30):
        x = rng.normal(size=10)
        z = rng.uniform(0, 2, size=1)
        w = PrimalDualPoint.at(prob, x, z=z)
        grad = smooth_grad_at(w, 1.0, prob)
        eta, x_new, r_new, fv_new, val, _ = backtrack_primal(
            w, grad, 1.0, cfg, prob, tracker_at(w, prob))
        dx = x_new - w.x
        rhs = smooth_value_at(w, 1.0, prob) + grad @ dx + 0.5 * eta * dx @ dx
        assert val <= rhs + 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# primal and dual updates


def test_prox_step_is_gradient_step_without_h():
    prob = quadratic_prob(2.0)
    w = PrimalDualPoint.at(prob, [1.0])
    grad = smooth_grad_at(w, 1.0, prob)
    np.testing.assert_allclose(candidate(w, grad, 4.0, prob),
                               w.x - grad / 4.0)


def test_prox_step_shrinkage():
    prob = ProblemInstance(LinearFunction([0.0]), L1Norm(), dim=1)
    w = PrimalDualPoint.at(prob, [1.0])
    out = candidate(w, np.array([2.0]), 4.0, prob)
    assert out == pytest.approx([0.25])


def test_prox_step_projects_into_box():
    prob = ProblemInstance(LinearFunction([0.0]), BoxIndicator([-10.], [10.]),
                           dim=1)
    w = PrimalDualPoint.at(prob, [10.0])
    out = candidate(w, np.array([-8.0]), 4.0, prob)  # lands at 12
    assert out == pytest.approx([10.0])


@pytest.mark.parametrize("eta", [0.0, -1.0])
def test_prox_step_refuses_nonpositive_eta(eta):
    prob = quadratic_prob(2.0)
    w = PrimalDualPoint.at(prob, [1.0])
    with pytest.raises(ValueError, match="eta must be positive"):
        candidate(w, np.array([1.0]), eta, prob)


def test_multiplier_steps_hand_values():
    np.testing.assert_allclose(multiplier_step_y(np.zeros(2), np.array([2., -1.]), 1.0),
                               [2.0, -1.0])
    y = np.array([0.3, -0.4])
    np.testing.assert_allclose(multiplier_step_y(y, np.zeros(2), 0.7), y)
    assert multiplier_step_y(np.zeros(0), np.zeros(0), 1.0).shape == (0,)

    assert multiplier_step_z(np.array([0.0]), np.array([0.5]), 1.0, 1.0) == \
        pytest.approx([0.5])
    assert multiplier_step_z(np.array([1.0]), np.array([-10.0]), 1.0, 1.0) == \
        pytest.approx([0.0])
    assert multiplier_step_z(np.array([2.0]), np.array([-1.0]), 1.0, 2.0) == \
        pytest.approx([1.0])


def test_z_stays_nonnegative_when_rho_at_most_beta(rng):
    for _ in range(200):
        z = rng.uniform(0, 5, size=4)
        f = rng.normal(size=4) * 10
        beta = rng.uniform(0.5, 3)
        rho = rng.uniform(0, 1) * beta
        out = multiplier_step_z(z, f, rho, beta)
        assert np.all(out >= -1e-15)


@settings(max_examples=200, deadline=None)
@given(zf=st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(-1e9, 1e6)),
                   min_size=1, max_size=6),
       beta=st.floats(1e-6, 1e6), frac=st.floats(1e-9, 1.0))
@example(zf=[(7.294869625358969, -1e9)], beta=6.150818469601239, frac=1.0)
def test_z_is_exactly_nonnegative_for_every_rho_z_up_to_beta(zf, beta, frac):
    # rho_z = beta is the boundary case where z - rho_z * (z / beta) rounds
    z, f = (np.array(col) for col in zip(*zf))
    rho_z = beta if frac == 1.0 else frac * beta
    assert 0 < rho_z <= beta
    assert np.all(multiplier_step_z(z, f, rho_z, beta) >= 0.0)


# ---------------------------------------------------------------------------
# ergodic accumulator


def test_ergodic_weighted_average():
    acc = ErgodicAccumulator(1)
    acc.add(np.array([2.0]), 1.0)       # x1 with 1/eta0 = 1
    acc.add(np.array([4.0]), 0.5)       # x2 with 1/eta1 = 1/2
    assert acc.average() == pytest.approx([8.0 / 3.0])


def test_ergodic_constant_weights_give_mean():
    acc = ErgodicAccumulator(1)
    for v in (1.0, 2.0, 6.0):
        acc.add(np.array([v]))
    assert acc.average() == pytest.approx([3.0])
    assert acc.scaled(2.0) == pytest.approx([4.5])


def test_ergodic_single_iterate_and_empty():
    acc = ErgodicAccumulator(2)
    with pytest.raises(ValueError):
        acc.average()
    acc.add(np.array([1.0, -1.0]), 0.25)
    np.testing.assert_allclose(acc.average(), [1.0, -1.0])


@pytest.mark.parametrize("make", [
    lambda: gen_qcqp(QcqpSpec(m=3, p=7, seed=5)),
    lambda: gen_bpdn(BpdnSpec(rows=6, cols=10, sparsity=2, seed=1)),
], ids=["quadratic-stack", "function-stack"])
def test_ergodic_point_values_match_the_stack_at_the_point(rng, make):
    # the stack's values at sum/normalizer come from the summed images; the
    # sum equals sum_k weight_k * image_k bitwise and never aliases the
    # tracker's image, which a commit moves in place
    prob = make()
    stack = smooth_stack(prob)
    acc = ErgodicAccumulator(prob.dim)
    x = rng.normal(size=prob.dim)
    tracker = stack.tracker(x)
    image_sum = 0.0
    for _ in range(6):
        dx = rng.normal(size=prob.dim)
        x = x + dx
        tracker.commit(slice(0, prob.dim), dx)
        weight = rng.uniform(0.05, 3.0)
        acc.add(x, weight, stack.image(tracker))
        image_sum = image_sum + weight * np.copy(stack.image(tracker))
        for normalizer in (None, rng.uniform(0.5, 4.0)):
            x_bar, vals = acc.point(stack, normalizer)
            want = acc.average() if normalizer is None else acc.scaled(normalizer)
            assert x_bar.tobytes() == want.tobytes()
            total = acc.weight if normalizer is None else normalizer
            summed = stack.values_from_image(want, image_sum / total)
            assert np.asarray(vals).tobytes() == np.asarray(summed).tobytes()
            direct = stack(want)
            assert np.all(np.abs(vals - direct)
                          <= 1e-10 * np.maximum(1.0, np.abs(direct)))


# ---------------------------------------------------------------------------
# full solves


def test_solve_equality_qp():
    prob, ref = tiny_reference("equality-qp")
    cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=10_000,
                       record_every=500)
    res = lalm.solve(prob, cfg)
    assert np.linalg.norm(res.w.x - ref.x) <= 1e-6


def test_solve_scalar_qcqp():
    prob, ref = tiny_reference("scalar-qcqp")
    cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=10_000,
                       record_every=500)
    res = lalm.solve(prob, cfg)
    assert np.linalg.norm(res.w.x - ref.x) <= 1e-6
    assert res.w.z[0] == pytest.approx(0.5, abs=1e-6)
    assert prob.f0(res.w.x) == pytest.approx(-1.5, abs=1e-6)


def test_solve_scalar_bpdn():
    prob, ref = tiny_reference("scalar-bpdn")
    cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=10_000,
                       record_every=500)
    res = lalm.solve(prob, cfg)
    assert np.linalg.norm(res.w.x - ref.x) <= 1e-6
    assert prob.f0(res.w.x) == pytest.approx(1.0, abs=1e-6)


def test_solve_rejects_negative_z0():
    prob, _ = tiny_reference("scalar-qcqp")
    with pytest.raises(ValueError):
        lalm.solve(prob, SolverConfig(max_epochs=10), z0=[-0.1])


@pytest.mark.parametrize("solver", [lalm, blalm], ids=["lalm", "blalm"])
def test_eta_monotone_and_z_nonnegative_along_run(solver):
    # after every iteration eta (blalm: each block's eta) has not decreased
    # and z >= 0. From x0 = 5 the constraints start violated, so z grows and
    # later falls back onto its floor (rho_z = beta); from eta0 = 1 blalm's
    # block etas grow by backtracking.
    prob = gen_qcqp(QcqpSpec(m=4, p=10, seed=8)).with_blocks(5)
    cfg = SolverConfig(beta=0.5, rho_y=0.5, rho_z=0.5, eta0=1.0, max_epochs=400,
                       record_every=1)
    etas, z_mins = [], []

    def watch(k, w):
        z_mins.append(w.z.min())
        if solver is blalm:
            etas.append(w.eta.copy())

    res = solver.solve(prob, cfg, x0=np.full(prob.dim, 5.0), callback=watch)
    if solver is lalm:
        etas = [[rec.eta_max] for rec in res.trace[1:]]
    assert len(etas) == len(z_mins) == 400 * (5 if solver is blalm else 1)
    assert (np.diff(etas, axis=0) >= 0.0).all()
    assert min(z_mins) >= 0.0


def test_analytic_mode_matches_backtracking_limit():
    # analytic mode also solves the tiny instance
    prob, ref = tiny_reference("scalar-qcqp")
    cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, step_mode="analytic",
                       max_epochs=10_000, record_every=500)
    res = lalm.solve(prob, cfg)
    assert np.linalg.norm(res.w.x - ref.x) <= 1e-6


from conftest import fejer_quantities


def test_fejer_monotonicity_analytic_mode():
    # weighted distance to a verified KKT point is nonincreasing
    for kind in ("equality-qp", "scalar-qcqp"):
        prob, ref = tiny_reference(kind)
        cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, step_mode="analytic",
                           max_epochs=1000, record_every=1)
        vals = fejer_quantities(prob, ref, cfg, lalm.solve)
        assert np.all(np.diff(vals) <= 1e-9 * vals[0]), kind


def test_trace_schema_and_stopping():
    prob, ref = tiny_reference("equality-qp")
    cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=10_000,
                       record_every=100, tol=1e-9)
    res = lalm.solve(prob, cfg)
    assert res.stopped_early
    assert res.trace[0].epoch == 0
    assert res.trace[-1].obj_gap <= 1e-9
    assert res.trace[-1].feas <= 1e-9
    epochs = [r.epoch for r in res.trace]
    assert epochs == sorted(epochs)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_abort_carries_trace():
    # lying about the curvature makes the analytic step diverge
    prob = ProblemInstance(
        QuadraticFunction([[10.0]], [0.0], lipschitz=0.01), ZeroProx(), dim=1)
    cfg = SolverConfig(beta=1.0, step_mode="analytic", max_epochs=3000,
                       record_every=100)
    with pytest.raises(SolverError) as info:
        lalm.solve(prob, cfg, x0=[1.0])
    assert len(info.value.records) >= 1
    assert info.value.records[0].epoch == 0


def test_exhausted_backtracking_abort_carries_trace_from_epoch_0():
    prob = ProblemInstance(nan_away_from_origin(), ZeroProx(), dim=1)
    with pytest.raises(SolverError, match="backtracking failed") as info:
        lalm.solve(prob, SolverConfig(max_epochs=10))
    assert info.value.records[0].epoch == 0


@pytest.mark.parametrize("solver", [lalm, blalm], ids=["lalm", "blalm"])
def test_nonfinite_gradient_abort_carries_trace_from_epoch_0(solver):
    # The gradient is NaN from epoch 1 on. Off the record schedule the
    # shared step refuses it; at a recorded epoch the recorder does, before
    # the KKT residual's l1 prox rejects it with a bare ValueError or a box
    # instance records kkt_stat = nan.
    for h in (L1Norm(), BoxIndicator(-np.ones(2), np.ones(2))):
        prob = ProblemInstance(nan_grad_away_from_origin(), h, dim=2,
                               blocks=even_blocks(2, 2))
        for every in (1, 5):
            with pytest.raises(SolverError, match="gradient") as info:
                solver.solve(prob, SolverConfig(max_epochs=10, record_every=every))
            assert info.value.records[0].epoch == 0
            assert all(np.isfinite(rec.kkt_stat) for rec in info.value.records)


@pytest.mark.parametrize("solver", [lalm, blalm, pdyn],
                         ids=["lalm", "blalm", "pdyn"])
def test_solvers_reject_wrong_length_start(solver):
    prob = ProblemInstance(QuadraticFunction(np.eye(2), np.zeros(2), lipschitz=1.0),
                           BoxIndicator(-np.ones(2), np.ones(2)), dim=2,
                           blocks=even_blocks(2, 2))
    with pytest.raises(ValueError, match="x has dim 3, expected 2"):
        solver.solve(prob, SolverConfig(max_epochs=1), x0=np.zeros(3))


def test_analytic_eta_literal_bound_plus_delta():
    # unconstrained objective with gradient Lipschitz constant 5, delta 1:
    # the first bound is 6 starting from the zero sentinel
    prob = ProblemInstance(QuadraticFunction([[5.0]], [0.0], lipschitz=5.0),
                           ZeroProx(), dim=1)
    assert analytic_eta(0.0, np.zeros(0), 1.0, 1.0, prob, 0.0) == 6.0


@pytest.mark.parametrize("solver, n_blocks", [(lalm, 1), (blalm, 4)],
                         ids=["lalm", "blalm"])
def test_analytic_mode_computes_the_penalty_weights_once_per_iteration(
        monkeypatch, solver, n_blocks):
    # one pass over (f, z) gives [beta f + z]_+ for both the gradient and the
    # analytic step bound: one penalty_terms call per (block) iteration
    prob = gen_qcqp(QcqpSpec(m=3, p=12, seed=0)).with_blocks(n_blocks)
    calls = []
    terms = auglag.penalty_terms

    def counting(*args):
        calls.append(args)
        return terms(*args)

    monkeypatch.setattr(auglag, "penalty_terms", counting)
    res = solver.solve(prob, SolverConfig(beta=0.5, step_mode="analytic",
                                          max_epochs=5, record_every=1))
    assert res.epochs == 5
    assert len(calls) == 5 * n_blocks
