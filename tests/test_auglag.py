from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_iteration as ref
from linalm import auglag, lalm
from linalm.auglag import (penalty_lipschitz, scalar_penalty,
                           scalar_penalty_deriv, smooth_grad_block, smooth_value)
from linalm.instances import BpdnSpec, QcqpSpec, gen_bpdn, gen_qcqp
from linalm.lalm import SolverConfig, multiplier_step_z
from linalm.model import (BoxIndicator, InequalityConstraint, LinearFunction,
                          PrimalDualPoint, ProblemInstance, QuadraticFunction,
                          ZeroProx, operator_norm_sq, smooth_stack)

from conftest import central_diff_grad


def random_state(prob, rng, z_scale=1.0):
    if prob.h.domain is not None:
        x = rng.uniform(*prob.h.domain)
    else:
        x = rng.normal(size=prob.dim)
    y = rng.normal(size=prob.affine.rows)
    z = rng.uniform(0, z_scale, size=prob.m)
    return PrimalDualPoint.at(prob, x, y, z)


def weights(x, z, beta, prob):
    """The penalty weights [beta f(x) + z]_+ at x."""
    return scalar_penalty_deriv(prob.constraint_values(x), z, beta)


# ---------------------------------------------------------------------------
# scalar penalty


def test_scalar_penalty_branch_values():
    assert scalar_penalty(0.0, 0.0, 1.0) == 0.0
    assert scalar_penalty(1.0, 1.0, 2.0) == pytest.approx(2.0)
    assert scalar_penalty(-2.0, 1.0, 1.0) == pytest.approx(-0.5)
    # both branches agree on the switching surface
    assert scalar_penalty(-1.0, 1.0, 1.0) == pytest.approx(-0.5)


def test_scalar_penalty_continuity_at_switch_exact():
    for beta, v in ((1.0, 1.0), (2.0, 3.0), (0.5, -0.7)):
        u = -v / beta
        quad_branch = u * v + 0.5 * beta * u * u
        cap_branch = -v * v / (2 * beta)
        assert abs(quad_branch - cap_branch) <= 1e-12
        assert abs(scalar_penalty_deriv(u, v, beta)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-1e3, 1e3), beta=st.floats(1e-3, 1e3))
@example(u=0.0, beta=1.0)
def test_scalar_penalty_is_c1_across_the_switching_surface(u, beta):
    # v = -beta*u puts (u, v) on beta*u + v = 0 exactly; the quadratic
    # branch holds for larger u and the constant branch for smaller u
    v = -beta * u
    eps = np.finfo(float).eps
    # rounding of one evaluation (every term is a multiple of beta u^2),
    # floored at the smallest normal number for subnormal results
    noise = 8 * eps * beta * u * u + np.finfo(float).tiny
    quad_branch = u * v + 0.5 * beta * u * u
    cap_branch = -v * v / (2 * beta)
    assert abs(quad_branch - cap_branch) <= noise
    p0 = scalar_penalty(u, v, beta)
    assert abs(p0 - cap_branch) <= noise
    d0 = scalar_penalty_deriv(u, v, beta)
    assert d0 == 0.0
    step = 1e-5 * max(1.0, abs(u))
    for h in (step, -step):
        # the curvature is at most beta: one-sided quotients are within
        # beta*|h|/2 of the derivative, up to rounding over |h|
        quotient = (scalar_penalty(u + h, v, beta) - p0) / h
        assert abs(quotient - d0) <= beta * abs(h) + 2 * noise / abs(h)
        # the derivative is continuous: it moves by at most beta*|h|, up to
        # the rounding of u + h
        slack = 4 * eps * beta * max(1.0, abs(u))
        assert abs(scalar_penalty_deriv(u + h, v, beta) - d0) <= beta * abs(h) + slack


def _exact_penalty(u, z, beta):
    """The piecewise definition in exact rational arithmetic."""
    u, z, beta = Fraction(u), Fraction(z), Fraction(beta)
    if beta * u + z >= 0:
        return u * z + beta * u * u / 2
    return -z * z / (2 * beta)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 8), beta=st.floats(1e-3, 1e3),
       rho=st.floats(1e-3, 1.0))
def test_clipped_penalty_is_the_piecewise_penalty_to_roundoff(data, k, beta, rho):
    # each entry is a random (u, z), on the switching surface z = -beta*u,
    # or nearly active, |u| <= 1e-12
    kinds = data.draw(st.lists(st.sampled_from(["random", "surface", "active"]),
                               min_size=k, max_size=k))
    u, z = np.zeros(k), np.zeros(k)
    for j, kind in enumerate(kinds):
        if kind == "active":
            u[j] = data.draw(st.floats(-1e-12, 1e-12))
        else:
            u[j] = data.draw(st.floats(-1e6, 1e6))
        z[j] = -beta * u[j] if kind == "surface" and u[j] <= 0 else \
            data.draw(st.floats(0.0, 1e6))
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    _, clipped = auglag.penalty_terms(u, None, beta, z / -beta)
    terms = scalar_penalty(u, z, beta)
    for j in range(k):
        exact = _exact_penalty(u[j], z[j], beta)
        scale = max(abs(Fraction(u[j]) * Fraction(z[j])),
                    Fraction(beta) * Fraction(u[j]) ** 2 / 2,
                    Fraction(z[j]) ** 2 / (2 * Fraction(beta)))
        # within 3 eps of the largest term: the form's four roundings
        # (w z, w w, its beta/2 multiple and the sum) allow 2.5 eps to first
        # order; the smallest normal number covers results that underflow
        bound = 3 * eps * scale + Fraction(tiny)
        assert abs(Fraction(terms[j]) - exact) <= bound
        # a candidate's value adds the same form as two dot products
        one = smooth_value(0.0, None, None, z[j:j + 1], clipped[j:j + 1], beta)
        assert abs(Fraction(one) - exact) <= bound
    # the weights are [beta u + z]_+ as ever
    assert scalar_penalty_deriv(u, z, beta).tobytes() == \
        np.maximum(beta * u + z, 0.0).tobytes()
    # the clipped values are the z step's ascent term: multiplier_step_z is
    # max(z + rho_z w, 0) bit for bit, and given the candidate's w it
    # returns the same bits as from the values it clips
    rho_z = rho * beta
    assert np.maximum(z + rho_z * clipped, 0.0).tobytes() == \
        multiplier_step_z(z, u, rho_z, beta).tobytes() == \
        multiplier_step_z(z, None, rho_z, beta, clipped).tobytes()
    # the summed penalty follows g(x) and the affine terms
    y, r, gval = np.array([0.5, -2.0]), np.array([1e-3, 3.0]), 1.25
    want = gval
    want += float(y @ r) + 0.5 * beta * float(r @ r)
    want += float(z @ clipped) + 0.5 * beta * float(clipped @ clipped)
    assert smooth_value(gval, y, r, z, clipped, beta) == want
    assert smooth_value(0.0, None, None, z, clipped, beta) == \
        float(z @ clipped) + 0.5 * beta * float(clipped @ clipped)


def test_scalar_penalty_deriv_values():
    assert scalar_penalty_deriv(0.0, 0.0, 1.0) == 0.0
    assert scalar_penalty_deriv(1.0, 1.0, 1.0) == 2.0
    assert scalar_penalty_deriv(-2.0, 1.0, 1.0) == 0.0


def test_scalar_penalty_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        scalar_penalty(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        scalar_penalty_deriv(1.0, 1.0, -1.0)


def test_scalar_penalty_deriv_is_fd_of_penalty(rng):
    for _ in range(50):
        u, v, beta = rng.normal(), rng.normal(), rng.uniform(0.2, 3)
        num = central_diff_grad(lambda t: scalar_penalty(t[0], v, beta),
                                np.array([u]))[0]
        assert num == pytest.approx(scalar_penalty_deriv(u, v, beta), abs=1e-4)


def test_scalar_penalty_deriv_lipschitz_in_u(rng):
    # |d_u penalty(u1) - d_u penalty(u2)| <= beta |u1 - u2|
    for _ in range(100):
        u1, u2, v, beta = rng.normal(), rng.normal(), rng.normal(), rng.uniform(0.2, 3)
        d = abs(scalar_penalty_deriv(u1, v, beta) - scalar_penalty_deriv(u2, v, beta))
        assert d <= beta * abs(u1 - u2) + 1e-12


# ---------------------------------------------------------------------------
# summed penalty and augmented Lagrangian values


def scalar_prob():
    # min 0.5 x^2 with one constraint f(x) = x (affine)
    return ProblemInstance(
        QuadraticFunction([[1.0]], [0.0], lipschitz=1.0), ZeroProx(), dim=1,
        constraints=[InequalityConstraint(LinearFunction([1.0]), grad_bound=1.0)])


def penalty_sum(x, z, beta, prob):
    """The penalty sum smooth_value adds: sum_j penalty(f_j(x), z_j)."""
    return float(scalar_penalty(prob.constraint_values(x), z, beta).sum())


def auglag_value(w, beta, prob):
    """The full augmented Lagrangian: smooth_value at w, from the clipped
    values of the constraint values w caches, plus h(x)."""
    clipped = (auglag.penalty_terms(w.fvals, None, beta, w.z / -beta)[1]
               if prob.m else None)
    return smooth_value(prob.g(w.x), w.y, None if prob.affine.is_empty else w.r,
                        w.z, clipped, beta) + prob.h.value(w.x)


def test_constraint_penalty_cases(rng):
    prob = scalar_prob()
    assert penalty_sum([-1.0], [0.0], 1.0, prob) == 0.0
    # no constraints: empty sum
    plain = ProblemInstance(QuadraticFunction([[1.0]], [0.0]), ZeroProx(), dim=1)
    assert penalty_sum([0.5], np.zeros(0), 1.0, plain) == 0.0
    # two-constraint branch-wise evaluation
    vals = scalar_penalty(np.array([1.0, -2.0]), np.array([1.0, 1.0]), 1.0)
    assert vals.sum() == pytest.approx(1.0)


def test_constraint_penalty_nonpositive_when_feasible(rng):
    # feasible x and z >= 0 force a nonpositive penalty sum; about 4 in 10^4
    # uniform draws from the box quarter are feasible, so draw in batches
    prob = gen_qcqp(QcqpSpec(m=4, p=6, seed=2))
    lo, hi = prob.h.domain
    feasible = []
    while len(feasible) < 100:
        pts = rng.uniform(lo / 4, hi / 4, size=(100_000, prob.dim))
        ok = np.all([con.fn.values(pts) <= 0 for con in prob.constraints], axis=0)
        feasible.extend(pts[ok])
    for x in feasible[:100]:
        z = rng.uniform(0, 3, size=prob.m)
        assert penalty_sum(x, z, 1.0, prob) <= 1e-12


def test_auglag_value_hand_cases():
    prob = scalar_prob()
    # x=1, z=1, beta=1: 0.5 + penalty(1, 1) = 0.5 + 1.5
    w = PrimalDualPoint.at(prob, [1.0], z=[1.0])
    assert auglag_value(w, 1.0, prob) == pytest.approx(2.0)
    # no constraints at all: g + h
    plain = ProblemInstance(QuadraticFunction([[1.0]], [0.0]), ZeroProx(), dim=1)
    w = PrimalDualPoint.at(plain, [2.0])
    assert auglag_value(w, 1.0, plain) == pytest.approx(2.0)


def test_auglag_value_feasible_equals_objective():
    # feasible x, z = 0, Ax = b: multiplier and penalty terms all vanish
    from linalm.model import AffineConstraint
    prob = ProblemInstance(
        QuadraticFunction(np.eye(2), np.zeros(2)), ZeroProx(), dim=2,
        affine=AffineConstraint([[1.0, 1.0]], [1.0]))
    w = PrimalDualPoint.at(prob, [0.5, 0.5], y=[3.0])
    assert auglag_value(w, 2.0, prob) == pytest.approx(prob.f0([0.5, 0.5]))


# ---------------------------------------------------------------------------
# smooth gradient


def block_grad(w, beta, prob, tracker, sl=slice(None)):
    """smooth_grad over block sl (all of x by default), from a tracker based
    at w.x and the weights scalar_penalty_deriv gives."""
    A = None if prob.affine.is_empty else prob.affine.A[:, sl]
    return smooth_grad_block(tracker.block_grad(sl), A, w.y, w.r,
                             scalar_penalty_deriv(w.fvals, w.z, beta), beta)


def full_grad(w, beta, prob):
    return block_grad(w, beta, prob, smooth_stack(prob).tracker(w.x))


def test_smooth_grad_hand_case():
    prob = scalar_prob()
    w = PrimalDualPoint.at(prob, [2.0], z=[1.0])
    np.testing.assert_allclose(full_grad(w, 1.0, prob), [5.0])


def test_smooth_grad_inactive_penalty(rng):
    prob = gen_qcqp(QcqpSpec(m=2, p=5, seed=3))
    x = np.zeros(5)  # strictly feasible, z = 0: only grad g remains
    w = PrimalDualPoint.at(prob, x)
    np.testing.assert_allclose(full_grad(w, 1.0, prob), prob.g.grad(x))


@pytest.mark.parametrize("maker", [
    lambda: gen_bpdn(BpdnSpec(rows=10, cols=20, sparsity=3, seed=7)),
    lambda: gen_qcqp(QcqpSpec(m=3, p=20, seed=7)),
])
def test_smooth_grad_matches_fd(maker, rng):
    prob = maker()
    beta = 0.7
    for _ in range(20):
        w = random_state(prob, rng)

        num = central_diff_grad(
            lambda x: ref.smooth_value(prob, x, w.y, w.z, beta), w.x)
        ana = full_grad(w, beta, prob)
        err = np.linalg.norm(num - ana) / (1.0 + np.linalg.norm(ana))
        assert err <= 1e-5


def test_block_gradient_slices_match_full(rng):
    prob = gen_qcqp(QcqpSpec(m=3, p=12, seed=5)).with_blocks(4)
    for _ in range(20):
        w = random_state(prob, rng)
        full = ref.smooth_grad(prob, w.x, w.y, w.z, 1.0)
        # assembly from a freshly based stack tracker agrees
        tracker = smooth_stack(prob).tracker(w.x)
        parts_t = [block_grad(w, 1.0, prob, tracker, prob.blocks[i])
                   for i in range(4)]
        np.testing.assert_allclose(np.concatenate(parts_t), full, atol=1e-10)


def test_block_gradient_single_block_is_full(rng):
    prob = gen_qcqp(QcqpSpec(m=2, p=6, seed=6)).with_blocks(1)
    w = random_state(prob, rng)
    tracker = smooth_stack(prob).tracker(w.x)
    np.testing.assert_allclose(block_grad(w, 1.0, prob, tracker, prob.blocks[0]),
                               ref.smooth_grad(prob, w.x, w.y, w.z, 1.0))


@pytest.mark.slow
def test_block_gradient_cost_scales_with_width():
    # maintained-state partial gradients cost ~1/n of a full gradient from
    # every gradient oracle at x
    import time
    n = 40
    prob = gen_qcqp(QcqpSpec(m=3, p=800, seed=0)).with_blocks(n)
    w = random_state(prob, np.random.default_rng(0), z_scale=1.0)
    tracker = smooth_stack(prob).tracker(w.x)
    fns = [prob.g] + [con.fn for con in prob.constraints]

    def block(i):
        return block_grad(w, 1.0, prob, tracker, prob.blocks[i])

    def evaluated():
        return smooth_grad_block(np.array([fn.grad(w.x) for fn in fns]), None, w.y,
                                 w.r, scalar_penalty_deriv(w.fvals, w.z, 1.0), 1.0)

    reps = 50
    evaluated()  # warm up
    t0 = time.perf_counter()
    for _ in range(reps):
        evaluated()
    full = (time.perf_counter() - t0) / reps

    block(0)
    t0 = time.perf_counter()
    for rep in range(reps):
        block(rep % n)
    part = (time.perf_counter() - t0) / reps
    assert part < full * 3.0 / n, (part, full)


# ---------------------------------------------------------------------------
# curvature bounds


def test_penalty_lipschitz_hand_case():
    # one constraint x^2 on [-1, 1]: B = 2, L = 2
    fn = QuadraticFunction([[2.0]], [0.0], 0.0, lipschitz=2.0)
    prob = ProblemInstance(
        QuadraticFunction([[1.0]], [0.0], lipschitz=1.0),
        BoxIndicator([-1.0], [1.0]), dim=1,
        constraints=[InequalityConstraint(fn, grad_bound=2.0)])
    val = penalty_lipschitz(weights([0.5], [1.0], 1.0, prob), 1.0, prob)
    assert val == pytest.approx(1.0 * 4.0 + 2.0 * 1.25)


def test_penalty_lipschitz_inactive_reduces_to_grad_bounds():
    prob = gen_qcqp(QcqpSpec(m=3, p=4, seed=8))
    beta = 2.0
    expect = beta * sum(c.grad_bound ** 2 for c in prob.constraints)
    assert penalty_lipschitz(weights(np.zeros(4), np.zeros(3), beta, prob), beta,
                             prob) == pytest.approx(expect)


def test_penalty_lipschitz_requires_constants():
    prob = gen_bpdn(BpdnSpec(rows=5, cols=8, sparsity=2, seed=0))
    with pytest.raises(ValueError, match="backtracking"):
        penalty_lipschitz(weights(np.zeros(8), np.zeros(1), 1.0, prob), 1.0, prob)


def test_penalty_lipschitz_monotone_in_z(rng):
    prob = gen_qcqp(QcqpSpec(m=3, p=5, seed=9))
    for _ in range(20):
        x = rng.uniform(-10, 10, size=5)
        z = rng.uniform(0, 2, size=3)
        z_up = z + rng.uniform(0, 1, size=3)
        assert penalty_lipschitz(weights(x, z_up, 1.0, prob), 1.0, prob) >= \
            penalty_lipschitz(weights(x, z, 1.0, prob), 1.0, prob)


def test_penalty_gradient_lipschitz_sampled(rng):
    # the bound dominates gradient differences over sampled pairs in the box
    prob = gen_qcqp(QcqpSpec(m=3, p=20, seed=0))
    lo, hi = prob.h.domain
    beta = 1.0
    z = rng.uniform(0, 2, size=3)
    xs = rng.uniform(lo, hi, size=(200, 20))
    xh = rng.uniform(lo, hi, size=(200, 20))

    def penalty_grad(w):
        coef = scalar_penalty_deriv(prob.constraint_values(w), z, beta)
        out = np.zeros(20)
        for cj, con in zip(coef, prob.constraints):
            out += cj * con.fn.grad(w)
        return out

    for a, b in zip(xs, xh):
        bound = penalty_lipschitz(weights(a, z, beta, prob), beta, prob)
        diff = np.linalg.norm(penalty_grad(b) - penalty_grad(a))
        assert diff <= bound * np.linalg.norm(b - a) + 1e-8


def test_smooth_lipschitz_composition():
    # lalm's first analytic eta at beta = 1, delta = 0 is the smooth part's
    # Lipschitz bound
    def first_eta(prob):
        etas = []
        lalm.solve(prob, SolverConfig(beta=1.0, step_mode="analytic", max_epochs=1),
                   callback=lambda k, s: etas.append(float(s.eta[0])))
        return etas[0]

    # no affine part, no constraints: just L_g
    plain = ProblemInstance(QuadraticFunction([[3.0]], [0.0], lipschitz=3.0),
                            ZeroProx(), dim=1)
    assert first_eta(plain) == 3.0
    # identity A adds beta * 1
    from linalm.model import AffineConstraint
    with_eq = ProblemInstance(
        QuadraticFunction(np.eye(2), np.zeros(2), lipschitz=1.0), ZeroProx(),
        dim=2, affine=AffineConstraint(np.eye(2), np.zeros(2)))
    assert first_eta(with_eq) == pytest.approx(2.0, rel=1e-6)


def test_descent_inequality_holds_at_smooth_lipschitz(rng):
    # lalm's first analytic step, at eta = L_F, always satisfies the
    # descent inequality of the reference's smooth part
    prob = gen_qcqp(QcqpSpec(m=3, p=10, seed=11))
    beta = 0.5
    cfg = SolverConfig(beta=beta, step_mode="analytic", max_epochs=1)
    for _ in range(50):
        w = random_state(prob, rng, z_scale=2.0)
        seen = []
        lalm.solve(prob, cfg, w.x, w.y, w.z, callback=lambda k, s: seen.append(
            (s.x.copy(), float(s.eta[0]))))
        (x_new, eta), = seen
        coef = scalar_penalty_deriv(w.fvals, w.z, beta)
        assert eta == pytest.approx(
            prob.g.lipschitz + beta * operator_norm_sq(prob.affine.A)
            + penalty_lipschitz(coef, beta, prob), rel=1e-12)
        dx = x_new - w.x
        rhs = (ref.smooth_value(prob, w.x, w.y, w.z, beta)
               + ref.smooth_grad(prob, w.x, w.y, w.z, beta) @ dx
               + 0.5 * eta * float(dx @ dx))
        assert ref.smooth_value(prob, x_new, w.y, w.z, beta) <= \
            rhs + 1e-10 * max(1.0, abs(rhs))
