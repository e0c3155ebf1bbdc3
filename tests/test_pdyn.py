import numpy as np
import pytest

from conftest import nan_away_from_origin, nan_grad_away_from_origin
from linalm import pdyn
from linalm.instances import QcqpSpec, gen_qcqp, tiny_reference
from linalm.lalm import SolverConfig, SolverError
from linalm.model import (AffineConstraint, BoxIndicator, InequalityConstraint,
                          L1Norm, LinearFunction, PrimalDualPoint,
                          ProblemInstance, QuadraticFunction, ZeroProx,
                          smooth_stack)
from linalm.pdyn import PdynState, direction, step


def box_prob(g, constraints=(), lo=-10.0, hi=10.0, dim=1):
    return ProblemInstance(g, BoxIndicator(np.full(dim, lo), np.full(dim, hi)),
                           dim=dim, constraints=constraints)


# ---------------------------------------------------------------------------
# applicability


def test_rejects_equality_constraints():
    prob = ProblemInstance(QuadraticFunction([[1.0]], [0.0]), ZeroProx(), dim=1,
                           affine=AffineConstraint([[1.0]], [0.0]))
    with pytest.raises(ValueError, match="equality"):
        pdyn.solve(prob, SolverConfig(max_epochs=1))


def test_rejects_nonprojection_h():
    prob = ProblemInstance(QuadraticFunction([[1.0]], [0.0]), L1Norm(), dim=1)
    with pytest.raises(ValueError, match="indicator"):
        pdyn.solve(prob, SolverConfig(max_epochs=1))


@pytest.mark.parametrize("field, value", [("rho_y", 0.5), ("rho_z", 0.5),
                                          ("delta", 0.1)])
def test_rejects_config_fields_it_does_not_use(field, value):
    prob = box_prob(QuadraticFunction([[1.0]], [0.0], lipschitz=1.0))
    with pytest.raises(ValueError, match=field):
        pdyn.solve(prob, SolverConfig(max_epochs=1, **{field: value}))


def test_fixed_step_mode_requires_eta0():
    prob = box_prob(QuadraticFunction([[1.0]], [0.0], lipschitz=1.0))
    with pytest.raises(ValueError, match="eta0"):
        pdyn.solve(prob, SolverConfig(step_mode="analytic", max_epochs=1))


# ---------------------------------------------------------------------------
# queue updates


def test_queue_initialization_and_first_update():
    # one constraint f(x) = x - 1: f(0) = -1 gives queue 1, then max(1, 0) = 1
    fn = LinearFunction([1.0], -1.0)
    prob = box_prob(QuadraticFunction([[1.0]], [0.0], lipschitz=1.0),
                    [InequalityConstraint(fn)])
    state = PdynState.start(prob, np.zeros(1), eta=10.0)
    assert state.lam == pytest.approx([1.0])
    step(state, prob, SolverConfig(beta=1.0))
    assert state.lam == pytest.approx([1.0])


def test_queue_update_law_branches(rng):
    # lam' = max(-f, lam + f): one branch holds with equality, both as bounds
    prob = gen_qcqp(QcqpSpec(m=3, p=5, seed=0))
    cfg = SolverConfig(beta=1.0)
    state = PdynState.start(prob, rng.uniform(-1, 1, size=5), eta=50.0)
    for _ in range(30):
        fvals = prob.constraint_values(state.x)
        old = state.lam.copy()
        step(state, prob, cfg)
        for lam_new, lam_old, f in zip(state.lam, old, fvals):
            assert lam_new >= -f - 1e-12
            assert lam_new >= lam_old + f - 1e-12
            assert (abs(lam_new + f) <= 1e-12
                    or abs(lam_new - lam_old - f) <= 1e-12)


def test_fixed_point_at_interior_stationary_point():
    # inactive constraints with queues at rest (lam = -f, i.e. zero derived
    # multipliers): the step leaves an unconstrained stationary interior
    # point unchanged
    g = QuadraticFunction([[2.0]], [-2.0], lipschitz=2.0)  # min at x = 1
    fn = QuadraticFunction([[2.0]], [0.0], -100.0)         # x^2 <= 100
    prob = box_prob(g, [InequalityConstraint(fn)])
    state = PdynState.start(prob, np.array([1.0]), eta=4.0)
    assert state.lam + prob.constraint_values(state.x) == pytest.approx([0.0])
    step(state, prob, SolverConfig(beta=1.0))
    np.testing.assert_allclose(state.x, [1.0])


def test_direction_matches_multiplier_weighted_gradient(rng):
    prob = gen_qcqp(QcqpSpec(m=3, p=6, seed=1))
    state = PdynState.start(prob, rng.uniform(-2, 2, size=6), eta=10.0)
    fvals = prob.constraint_values(state.x)
    grad, z = direction(state)
    expect = prob.g.grad(state.x)
    for zj, con in zip(state.lam + fvals, prob.constraints):
        expect = expect + zj * con.fn.grad(state.x)
    np.testing.assert_allclose(grad, expect, atol=1e-12)
    np.testing.assert_allclose(z, state.lam + fvals)


@pytest.mark.parametrize("mode, eta0", [("backtracking", None), ("analytic", 60.0)])
def test_step_moves_the_state_it_is_given_with_its_tracker(rng, mode, eta0):
    # step works in place: after it, the tracker is at the state's new x, so
    # the next direction is the multiplier-weighted gradient there
    prob = gen_qcqp(QcqpSpec(m=3, p=6, seed=4))
    stack = smooth_stack(prob)
    cfg = SolverConfig(beta=1.0, step_mode=mode, eta0=eta0)
    state = PdynState.start(prob, rng.uniform(-2, 2, size=6), eta=eta0 or 10.0)
    for _ in range(5):
        x_before = state.x.copy()
        returned = step(state, prob, cfg)
        np.testing.assert_allclose(state.tracker.value, stack(state.x),
                                   rtol=1e-12, atol=1e-12)
        assert returned is None and not np.array_equal(state.x, x_before)
        grad, z = direction(state)
        expect = prob.g.grad(state.x)
        for zj, con in zip(z, prob.constraints):
            expect = expect + zj * con.fn.grad(state.x)
        np.testing.assert_allclose(grad, expect, atol=1e-12)
        np.testing.assert_allclose(z, state.lam + prob.constraint_values(state.x),
                                   atol=1e-12)


def test_solve_builds_one_point_and_one_state(monkeypatch):
    # the recorder reads the live state, which every step moves in place:
    # the result's w is the solve's one PrimalDualPoint
    built = {PrimalDualPoint: 0, PdynState: 0}

    def counting(cls):
        init = cls.__init__

        def counted(self, *args):
            built[cls] += 1
            init(self, *args)
        return counted

    for cls in built:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    res = pdyn.solve(gen_qcqp(QcqpSpec(m=2, p=6, seed=0)),
                     SolverConfig(beta=1.0, max_epochs=20, record_every=1))
    assert len(res.trace) == 21
    assert built == {PrimalDualPoint: 1, PdynState: 1}


# ---------------------------------------------------------------------------
# backtracking


def test_backtracking_quadratic_acceptance_threshold():
    # phi has curvature 3 with inactive constraints: acceptance iff eta >= 3
    g = QuadraticFunction([[3.0]], [0.0], lipschitz=3.0)
    prob = box_prob(g)
    cfg = SolverConfig(beta=1.0, eta0=1.0)
    state = PdynState.start(prob, np.array([5.0]), eta=1.0)
    step(state, prob, cfg)
    assert state.eta == pytest.approx(1.5 ** 3)
    state = PdynState.start(prob, np.array([5.0]), eta=4.0)
    step(state, prob, cfg)
    assert state.eta == 4.0


def test_exhausted_backtracking_abort_carries_trace_from_epoch_0():
    prob = box_prob(nan_away_from_origin())
    with pytest.raises(SolverError, match="backtracking failed") as info:
        pdyn.solve(prob, SolverConfig(max_epochs=10))
    assert info.value.records[0].epoch == 0


def test_nonfinite_gradient_abort_carries_trace_from_epoch_0():
    # refused at once rather than after every backtracking trial; at a
    # recorded epoch, before kkt_stat = nan goes into the trace
    prob = box_prob(nan_grad_away_from_origin())
    for every in (1, 5):
        with pytest.raises(SolverError, match="gradient") as info:
            pdyn.solve(prob, SolverConfig(max_epochs=10, record_every=every))
        assert info.value.records[0].epoch == 0
        assert all(np.isfinite(rec.kkt_stat) for rec in info.value.records)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_iterate_abort_carries_trace_from_epoch_0():
    # fixed step 1 on curvature 10 multiplies x by -9 each epoch; the box is
    # unbounded, so nothing stops it
    prob = box_prob(QuadraticFunction([[10.0]], [0.0]), lo=-np.inf, hi=np.inf)
    cfg = SolverConfig(step_mode="analytic", eta0=1.0, max_epochs=3000,
                       record_every=100)
    with pytest.raises(SolverError, match="non-finite") as info:
        pdyn.solve(prob, cfg, x0=[1.0])
    assert info.value.records[0].epoch == 0


def test_eta_monotone_along_run():
    prob = gen_qcqp(QcqpSpec(m=2, p=6, seed=2))
    cfg = SolverConfig(beta=1.0, max_epochs=200, record_every=10)
    res = pdyn.solve(prob, cfg)
    etas = [r.eta_max for r in res.trace if r.eta_max is not None]
    assert all(b >= a for a, b in zip(etas, etas[1:]))


def test_reduces_to_projected_gradient_when_feasible_inactive():
    # From a strictly feasible start the queues are lam = -f(x0), so
    # z = [lam + f]_+ = 0 and the first step is projected gradient descent
    # on the objective alone: x0 - g'(x0)/eta = (1.75, 1.75), of which the
    # box keeps the second coordinate and moves the first up to 1.8.
    g = QuadraticFunction(2.0 * np.eye(2), [-2.0, -2.0], lipschitz=2.0)
    fn = QuadraticFunction(2.0 * np.eye(2), [0.0, 0.0], -10_000.0)
    lo, hi = np.array([1.8, -10.0]), np.full(2, 10.0)
    prob = ProblemInstance(g, BoxIndicator(lo, hi), dim=2,
                           constraints=[InequalityConstraint(fn)])
    x0 = np.array([2.0, 2.0])
    state = PdynState.start(prob, x0, eta=8.0)
    assert state.z.tolist() == [0.0]
    step(state, prob, SolverConfig(beta=1.0, step_mode="analytic", eta0=8.0))
    want = np.clip(x0 - g.grad(x0) / 8.0, lo, hi)
    assert want.tolist() == [1.8, 1.75]
    assert state.x.tolist() == want.tolist()


def test_solve_tiny_qcqp_reaches_feasibility():
    prob, ref = tiny_reference("scalar-qcqp")
    cfg = SolverConfig(beta=1.0, max_epochs=100_000, record_every=100)
    res = pdyn.solve(prob, cfg)
    assert res.trace[-1].feas <= 1e-4
    assert np.linalg.norm(res.w.x - ref.x) <= 1e-3


def test_solve_deterministic_without_seed():
    prob = gen_qcqp(QcqpSpec(m=2, p=6, seed=3))
    cfg = SolverConfig(beta=1.0, max_epochs=50, record_every=5)
    clk = lambda: 0.0
    res1 = pdyn.solve(prob, cfg, clock=clk)
    res2 = pdyn.solve(prob, cfg, clock=clk)
    assert res1.trace == res2.trace
