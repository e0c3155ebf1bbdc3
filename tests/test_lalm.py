from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_iteration as ref
from conftest import (nan_away_from_origin, nan_grad_away_from_origin,
                      qcqp_with_oracle_constraint)
from linalm import auglag, blalm, lalm, pdyn
from linalm.instances import BpdnSpec, QcqpSpec, gen_bpdn, gen_qcqp, tiny_reference
from linalm.lalm import (BlockState, ErgodicAccumulator, SolverConfig, SolverError,
                         multiplier_step_y, multiplier_step_z)
from linalm.model import (BoxIndicator, FunctionStack, InequalityConstraint,
                          L1Norm, LinearFunction, OracleFunction, PrimalDualPoint,
                          ProblemInstance, QuadraticFunction, QuadraticStack,
                          ZeroProx, even_blocks, smooth_stack)


def first_step(prob, cfg, x0, **kwargs):
    """(x, eta) after lalm's first iteration from x0, as its callback sees
    them."""
    seen = []
    lalm.solve(prob, replace(cfg, max_epochs=1), x0=np.array(x0, dtype=float),
               callback=lambda k, s: seen.append((s.x.copy(), float(s.eta[0]))),
               **kwargs)
    return seen[0]


def quadratic_prob(curvature=3.0):
    return ProblemInstance(
        QuadraticFunction([[curvature]], [0.0], lipschitz=curvature),
        ZeroProx(), dim=1)


def gradient_step(prob, x0, eta):
    """x0 - grad/eta, with the gradient of the reference's smooth part."""
    x0 = np.array(x0, dtype=float)
    empty = np.zeros(0)
    return x0 - ref.smooth_grad(prob, x0, empty, empty, 1.0) / eta


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
                {"record_every": 0}, {"delta": -1}):
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
    # L_F = L_g + beta ||A||^2 = 1 + 2; delta = 1 -> eta = 4 from the zero
    # sentinel; without inequality constraints the bound is constant, so eta
    # stays there after the first iteration
    etas = []
    lalm.solve(prob, SolverConfig(beta=1.0, delta=1.0, step_mode="analytic",
                                  max_epochs=5),
               callback=lambda k, s: etas.append(float(s.eta[0])))
    assert etas[0] == pytest.approx(4.0, rel=1e-6)
    assert etas == [etas[0]] * 5


def test_analytic_eta_requires_constants():
    prob = gen_bpdn(BpdnSpec(rows=4, cols=6, sparsity=2, seed=0))
    with pytest.raises(ValueError, match="backtracking"):
        lalm.solve(prob, SolverConfig(step_mode="analytic", max_epochs=5))
    # the objective's constant is refused at construction, before any step
    g = OracleFunction(lambda x: float(x @ x), lambda x: 2.0 * x)
    prob = ProblemInstance(g, ZeroProx(), dim=3).with_blocks(1)
    with pytest.raises(ValueError,
                       match="objective lacks a gradient Lipschitz constant"):
        BlockState(prob, SolverConfig(step_mode="analytic", max_epochs=5))


def test_backtracking_quadratic_acceptance_count():
    # g = (L/2) x^2 with L = 3: the descent test accepts exactly when
    # eta >= L, so from eta 1 with factor 1.5 three increases are needed
    prob = quadratic_prob(3.0)
    x, eta = first_step(prob, SolverConfig(beta=1.0, eta0=1.0), [1.0])
    assert eta == pytest.approx(1.5 ** 3)
    np.testing.assert_allclose(x, gradient_step(prob, [1.0], eta))


def test_backtracking_accepts_at_sufficient_eta():
    prob = quadratic_prob(3.0)
    _, eta = first_step(prob, SolverConfig(beta=1.0, eta0=5.0), [1.0])
    assert eta == 5.0


class CountingProx(ZeroProx):
    """h = 0 on a box that is the whole space, counting prox calls (one per
    candidate), so pdyn accepts it too."""

    def __init__(self):
        self.calls = 0

    def prox(self, v, weight):
        self.calls += 1
        return super().prox(v, weight)


def _blalm_one_block(prob, cfg, **kwargs):
    return blalm.solve(prob.with_blocks(1), cfg, **kwargs)


# the ids name the step each solver takes
@pytest.mark.parametrize("solve", [lalm.solve, _blalm_one_block, pdyn.solve],
                         ids=["backtrack_primal", "backtrack_block", "pdyn.step"])
@pytest.mark.parametrize("mode, trials", [("backtracking", 3), ("analytic", 0)])
def test_every_solver_step_is_the_shared_prox_step(solve, mode, trials):
    # g = (3/2) x^2 from eta0 = 1 with factor 1.5: backtracking accepts at
    # the third increase, 1.5^3 >= 3; analytic mode takes the first
    # candidate. Each candidate is one prox call, after the one the epoch-0
    # record's KKT residual makes
    h = CountingProx()
    prob = ProblemInstance(QuadraticFunction([[3.0]], [0.0], lipschitz=3.0), h,
                           dim=1)
    seen = []
    solve(prob, SolverConfig(beta=1.0, step_mode=mode, eta0=1.0, max_epochs=1),
          x0=[1.0], callback=lambda k, s: seen.append((np.max(s.eta), h.calls)))
    eta, calls = seen[0]
    assert calls == 1 + trials + 1
    if mode == "backtracking":
        assert eta == pytest.approx(1.5 ** trials)


@pytest.mark.filterwarnings("ignore:overflow")
def test_backtracking_error_on_divergent_oracle():
    # from the origin the gradient is 1e300, and every candidate's value
    # overflows, so backtracking runs out of increases
    bad = ProblemInstance(
        QuadraticFunction([[-1e300]], [1e300]), ZeroProx(), dim=1)
    with pytest.raises(SolverError, match="backtracking failed"):
        lalm.solve(bad, SolverConfig(max_epochs=1), x0=[0.0])


def test_accepted_pairs_satisfy_descent_inequality(rng):
    # post-hoc recheck of the accepted (eta, x+) pairs at 1e-10 slack, with
    # the reference's smooth value and gradient at the start (y, z)
    prob = gen_bpdn(BpdnSpec(rows=6, cols=10, sparsity=2, seed=3))
    cfg = SolverConfig(beta=1.0, eta0=1.0)
    y = np.zeros(0)
    for _ in range(30):
        x = rng.normal(size=10)
        z = rng.uniform(0, 2, size=1)
        x_new, eta = first_step(prob, cfg, x, z0=z)
        dx = x_new - x
        rhs = (ref.smooth_value(prob, x, y, z, 1.0)
               + ref.smooth_grad(prob, x, y, z, 1.0) @ dx + 0.5 * eta * dx @ dx)
        assert ref.smooth_value(prob, x_new, y, z, 1.0) <= \
            rhs + 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# primal and dual updates


def test_prox_step_is_gradient_step_without_h():
    prob = quadratic_prob(2.0)
    x, eta = first_step(prob, SolverConfig(eta0=4.0), [1.0])
    assert eta == 4.0
    np.testing.assert_allclose(x, gradient_step(prob, [1.0], 4.0))


def test_prox_step_shrinkage():
    # 1 - 2/4 = 0.5, shrunk by 1/4
    prob = ProblemInstance(LinearFunction([2.0]), L1Norm(), dim=1)
    x, _ = first_step(prob, SolverConfig(eta0=4.0), [1.0])
    assert x == pytest.approx([0.25])


def test_prox_step_projects_into_box():
    prob = ProblemInstance(LinearFunction([-8.0]), BoxIndicator([-10.], [10.]),
                           dim=1)
    x, _ = first_step(prob, SolverConfig(eta0=4.0), [10.0])  # lands at 12
    assert x == pytest.approx([10.0])


def linear_objective(lipschitz):
    """g(x) = 2x declared with the given gradient Lipschitz constant."""
    g = OracleFunction(lambda x: float(2.0 * x[0]), lambda x: np.array([2.0]),
                       lipschitz=lipschitz)
    return ProblemInstance(g, ZeroProx(), dim=1)


@pytest.mark.parametrize("lipschitz, message", [
    (0.0, r"L_g \+ beta \|\|A_i\|\|\^2 \+ delta is not positive; give delta > 0"),
    (-1.0, "Lipschitz constant -1.0 is negative"),
], ids=["0.0", "-1.0"])
def test_analytic_mode_refuses_a_nonpositive_step_bound(lipschitz, message):
    # with no constraint the analytic bound is L_g + delta, no step size for
    # L_g = delta = 0; a negative L_g is no Lipschitz constant. Both are
    # refused at construction, before any step.
    with pytest.raises(ValueError, match=message):
        lalm.solve(linear_objective(lipschitz),
                   SolverConfig(step_mode="analytic", max_epochs=1))


def test_analytic_mode_steps_a_zero_curvature_objective_with_delta():
    # delta = 1 gives L_g = 0 the step size 1/(0 + 1)
    x, eta = first_step(linear_objective(0.0),
                        SolverConfig(step_mode="analytic", delta=1.0), [0.0])
    assert eta == 1.0
    assert x == pytest.approx([-2.0])


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


def test_ergodic_single_iterate_and_empty():
    acc = ErgodicAccumulator(2)
    with pytest.raises(ValueError):
        acc.average()
    with pytest.raises(ValueError, match="accumulation weight 0 must be positive"):
        acc.add(np.ones(2), weight=0)
    acc.add(np.array([1.0, -1.0]), 0.25)
    np.testing.assert_allclose(acc.average(), [1.0, -1.0])


@settings(max_examples=50, deadline=None)
@given(weights=st.lists(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
                        min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_ergodic_running_sums_are_the_weighted_sums(weights, seed):
    # the running sums are the same bits as sum_k w_k x_k and
    # sum_k w_k image_k, for unit weights and any others
    rng = np.random.default_rng(seed)
    acc = ErgodicAccumulator(5)
    x_sum, image_sum = np.zeros(5), np.zeros((3, 5))
    for weight in weights:
        x, image = rng.normal(size=5), rng.normal(size=(3, 5))
        acc.add(x, weight, image)
        x_sum = x_sum + weight * x
        image_sum = image_sum + weight * image
    assert acc._sum.tobytes() == x_sum.tobytes()
    assert acc._image.tobytes() == image_sum.tobytes()


@pytest.mark.parametrize("make, kind", [
    (lambda: gen_qcqp(QcqpSpec(m=3, p=7, seed=5)), QuadraticStack),
    (qcqp_with_oracle_constraint, FunctionStack),
], ids=["quadratic-stack", "function-stack"])
def test_ergodic_point_values_match_the_stack_at_the_point(rng, make, kind):
    # the stack's values at the weighted average come from the summed
    # images (none for a FunctionStack, which evaluates at the point); the
    # sum equals sum_k weight_k * image_k bitwise and never aliases the
    # tracker's image, which a commit moves in place
    prob = make()
    stack = smooth_stack(prob)
    assert type(stack) is kind
    acc = ErgodicAccumulator(prob.dim)
    x = rng.normal(size=prob.dim)
    tracker = stack.tracker(x)
    image_sum = 0.0
    for _ in range(6):
        dx = rng.normal(size=prob.dim)
        x = x + dx
        delta, products = tracker.delta_value(slice(0, prob.dim), dx)
        tracker.commit(slice(0, prob.dim), tracker.value + delta, products)
        weight = rng.uniform(0.05, 3.0)
        acc.add(x, weight, tracker.image)
        image_sum = image_sum + weight * np.copy(tracker.image)
        x_bar, vals = acc.point(stack)
        want = acc.average()
        assert x_bar.tobytes() == want.tobytes()
        summed = stack.values_from_image(want, image_sum / acc.weight)
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


@pytest.mark.parametrize("solver", [lalm, blalm], ids=["lalm", "blalm"])
def test_constraint_gradient_turning_nonfinite_on_l1_instance_aborts(solver):
    # L1Norm.prox does not check its input for finiteness: the shared step
    # and the recorder refuse a non-finite gradient before it gets there.
    # The inactive oracle constraint's gradient turns NaN once a coordinate
    # of x passes 2.9, partway along the path from 0 towards (2.95, 2.95).
    con = OracleFunction(lambda x: float(np.sum(x)) - 100.0,
                         lambda x: np.full_like(x, 1.0 if x.max() < 2.9 else np.nan))
    prob = ProblemInstance(QuadraticFunction(2.0 * np.eye(2), [-6.0, -6.0]),
                           L1Norm(0.1), dim=2, constraints=[InequalityConstraint(con)],
                           blocks=even_blocks(2, 2))
    for every in (1, 5):
        with pytest.raises(SolverError, match="gradient") as info:
            solver.solve(prob, SolverConfig(eta0=20.0, max_epochs=200,
                                            record_every=every))
        records = info.value.records
        assert records[0].epoch == 0
        assert len(records) > 1
        assert all(np.isfinite(rec.kkt_stat) for rec in records)


@pytest.mark.parametrize("solver", [lalm, blalm, pdyn],
                         ids=["lalm", "blalm", "pdyn"])
def test_primal_dual_point_of_detaches_every_solvers_callback_state(solver):
    # each solver's live state is read the same way: PrimalDualPoint.of
    # copies x, y, z, r and fvals, and later steps leave the copy alone
    prob = gen_qcqp(QcqpSpec(m=3, p=8, seed=0)).with_blocks(4)
    names = ("x", "y", "z", "r", "fvals")
    points, seen = [], []

    def watch(k, state):
        points.append(PrimalDualPoint.of(state))
        seen.append([np.array(getattr(state, name)) for name in names])

    res = solver.solve(prob, SolverConfig(beta=1.0, max_epochs=5), callback=watch)
    assert len(points) == 5 * (4 if solver is blalm else 1)
    assert len({w.x.tobytes() for w in points}) == len(points)
    for w, want in zip(points, seen):
        assert [getattr(w, name).tobytes() for name in names] == \
            [a.tobytes() for a in want]
        assert w.y.shape == w.r.shape == (0,) and np.all(w.z >= 0)
        np.testing.assert_allclose(w.fvals, prob.constraint_values(w.x),
                                   rtol=1e-10, atol=1e-10)
    if solver is not blalm:   # blalm refreshes its state at the end
        assert [getattr(res.w, name).tobytes() for name in names] == \
            [getattr(points[-1], name).tobytes() for name in names]


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
    _, eta = first_step(prob, SolverConfig(step_mode="analytic", delta=1.0), [1.0])
    assert eta == 6.0


@pytest.mark.parametrize("solver, n_blocks", [(lalm, 1), (blalm, 4)],
                         ids=["lalm", "blalm"])
@pytest.mark.parametrize("mode", ["analytic", "backtracking"])
def test_analytic_mode_computes_the_penalty_weights_once_per_iteration(
        monkeypatch, solver, n_blocks, mode):
    # one pass over (f, z) gives [beta f + z]_+ for both the gradient and the
    # analytic step bound, and when backtracking also the floor and the base
    # value: one penalty_terms call per (block) iteration, plus one per
    # backtracking candidate, each of which meets one descent test
    prob = gen_qcqp(QcqpSpec(m=3, p=12, seed=0)).with_blocks(n_blocks)
    calls, candidates = [], []
    terms, holds = auglag.penalty_terms, lalm.descent_holds

    def counting(*args):
        calls.append(args)
        return terms(*args)

    def counting_holds(*args):
        candidates.append(args)
        return holds(*args)

    monkeypatch.setattr(auglag, "penalty_terms", counting)
    monkeypatch.setattr(lalm, "descent_holds", counting_holds)
    res = solver.solve(prob, SolverConfig(beta=0.5, step_mode=mode,
                                          max_epochs=5, record_every=1))
    assert res.epochs == 5
    assert len(calls) == 5 * n_blocks + len(candidates)
    if mode == "backtracking":
        assert len(candidates) >= 5 * n_blocks
    else:
        assert not candidates


_NON_FINITE_STARTS = {"x0-inf": ("scalar-qcqp", {"x0": [np.inf]}),
                      "x0-nan": ("scalar-qcqp", {"x0": [np.nan]}),
                      "z0-inf": ("scalar-qcqp", {"z0": [np.inf]}),
                      "z0-nan": ("scalar-qcqp", {"z0": [np.nan]}),
                      "y0-nan": ("equality-qp", {"x0": [0.0, 1.0], "y0": [np.nan]})}


@pytest.mark.parametrize("solver, kind, start", [
    pytest.param(solver, kind, start, id=f"{solver.__name__.rpartition('.')[2]}-{case}")
    for solver in (lalm, blalm, pdyn)
    for case, (kind, start) in _NON_FINITE_STARTS.items()
    # pdyn takes x0 only, and no equality rows
    if solver is not pdyn or list(start) == ["x0"]])
def test_non_finite_start_is_refused_naming_it(solver, kind, start):
    # refused before any oracle or product runs at it: numpy's invalid-value
    # warning, an error under this suite's settings, is never reached
    prob, _ = tiny_reference(kind)
    name = list(start)[-1]
    if solver is blalm:
        prob = prob.with_blocks(prob.dim)
    with pytest.raises(ValueError, match=f"start point {name} must be finite"):
        solver.solve(prob, SolverConfig(max_epochs=5), **start)


@pytest.mark.parametrize("solver, n_blocks", [(lalm, 1), (blalm, 4)],
                         ids=["lalm", "blalm"])
def test_start_calls_no_constraint_oracle(monkeypatch, solver, n_blocks):
    # the start point takes f(x0) from the smooth stack's tracker; on a
    # quadratic stack no constraint's own oracle runs at all
    prob = gen_qcqp(QcqpSpec(m=3, p=8, seed=0)).with_blocks(n_blocks)
    fns = {id(con.fn) for con in prob.constraints}
    calls = []

    def counted(name):
        oracle = getattr(QuadraticFunction, name)

        def call(self, *args):
            if id(self) in fns:
                calls.append(name)
            return oracle(self, *args)
        return call

    for name in ("__call__", "grad"):
        monkeypatch.setattr(QuadraticFunction, name, counted(name))
    res = solver.solve(prob, SolverConfig(beta=0.1, max_epochs=3),
                       x0=np.full(prob.dim, 0.5), z0=np.ones(prob.m))
    assert res.epochs == 3 and calls == []


@pytest.mark.parametrize("solver", [lalm, pdyn], ids=["lalm", "pdyn"])
def test_record_and_next_step_share_one_gradient_oracle_call(solver):
    # the tracker keeps its last block gradient until the next commit or
    # rebase, and the record and the next step read it through one slice
    # object: on an oracle stack, one gradient call per recorded epoch
    calls = []

    def grad(x):
        calls.append(x.copy())
        return 2.0 * x - 1.0

    g = OracleFunction(lambda x: float(x @ x - np.sum(x)), grad, lipschitz=2.0)
    prob = ProblemInstance(g, BoxIndicator(-np.ones(3), np.ones(3)), dim=3)
    res = solver.solve(prob, SolverConfig(max_epochs=10, record_every=1))
    assert res.epochs == 10 and len(res.trace) == 11
    assert len(calls) == 11


def _non_finite_grad_away_from_origin():
    """g(x) = sum(x) + x'x, whose gradient is finite at the origin only and
    elsewhere has +inf, -inf and NaN entries: the first step leaves the
    origin, and every gradient after it is non-finite. Its value is NaN at
    a non-finite point, where the sum would warn."""
    bad = np.array([np.inf, -np.inf, np.nan])
    return OracleFunction(
        lambda x: float(np.sum(x) + x @ x) if np.all(np.isfinite(x)) else np.nan,
        lambda x: bad.copy() if np.any(x) else np.ones(3), lipschitz=2.0)


class NonFiniteInputCountingProx:
    """Wraps a prox, counting in one shared list, its block copies' calls
    included, the calls whose input is not finite: the candidates tried from
    a non-finite gradient."""

    def __init__(self, h, counts=None):
        self.h = h
        self.counts = [] if counts is None else counts
        self.is_indicator = h.is_indicator

    def prox(self, v, weight):
        if not np.all(np.isfinite(v)):
            self.counts.append(v)
        return self.h.prox(v, weight)

    def block(self, sl):
        return type(self)(self.h.block(sl), self.counts)

    def value(self, x):
        return self.h.value(x)


_PROXES = {"box": lambda: BoxIndicator(-np.ones(3), np.ones(3)),
           "l1": lambda: L1Norm(0.1), "zero": lambda: ZeroProx()}


@pytest.mark.parametrize("mode", ["backtracking", "analytic"])
@pytest.mark.parametrize("solver, h", [
    pytest.param(solver, h, id=f"{solver.__name__.rpartition('.')[2]}-{h}")
    for solver in (lalm, blalm, pdyn) for h in _PROXES
    if solver is not pdyn or h != "l1"])    # pdyn needs an indicator
def test_non_finite_gradient_is_refused_after_one_trial(solver, h, mode):
    # the oracle stack refuses a gradient with +inf, -inf or NaN entries
    # where it gathers it, so in either mode no candidate is formed from it;
    # the shared step's own checks, after the first rejected trial and before
    # an analytic one, stay as the backstop for stacks of other kinds
    counting = NonFiniteInputCountingProx(_PROXES[h]())
    prob = ProblemInstance(_non_finite_grad_away_from_origin(), counting, dim=3,
                           blocks=even_blocks(3, 3))
    cfg = SolverConfig(step_mode=mode, eta0=2.0, max_epochs=5, record_every=5)
    with pytest.raises(SolverError, match="non-finite gradient") as info:
        solver.solve(prob, cfg)
    assert [rec.epoch for rec in info.value.records] == [0]
    assert len(counting.counts) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solver", [lalm, blalm, pdyn], ids=["lalm", "blalm", "pdyn"])
def test_infinite_gradient_at_a_box_bound_is_refused_without_a_warning(solver):
    # the first step from the origin lands on x_0's lower bound, where the
    # gradient's infinite x_0 entry leaves dx_0 = 0, so the descent test's
    # grad.dx would compute inf * 0 and warn; the stack refuses the gradient
    # before any trial reads it
    g = OracleFunction(lambda x: float(10.0 * x[0] + x[1]),
                       lambda x: np.array([np.inf, 1.0] if np.any(x) else [10.0, 0.0]))
    prob = ProblemInstance(g, BoxIndicator(-np.ones(2), np.ones(2)), dim=2,
                           blocks=even_blocks(2, 2))
    with pytest.raises(SolverError, match="non-finite gradient") as info:
        solver.solve(prob, SolverConfig(eta0=2.0, max_epochs=10, record_every=5))
    assert [rec.epoch for rec in info.value.records] == [0]
