import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linalm.model import (AffineConstraint, BoxIndicator, FullTracker,
                          FunctionStack, InequalityConstraint, L1Norm,
                          LeastSquaresFunction, LinearFunction, OracleFunction,
                          PrimalDualPoint, ProblemInstance, QuadraticFunction,
                          QuadraticStack, QuadraticTracker, ZeroFunction,
                          ZeroProx, even_blocks, kkt_residual, lagrangian_gap,
                          operator_norm_sq, smooth_stack)
from linalm.instances import (BpdnSpec, MinimaxConstraint, gen_bpdn, gen_qcqp,
                              QcqpSpec, minimax_reformulate, random_minimax_1d,
                              tiny_reference)

from conftest import assert_grad_matches


# ---------------------------------------------------------------------------
# soft thresholding / box projection


def test_prox_l1_values():
    # the library's one soft thresholding is the l1 norm's prox
    assert L1Norm(1.0).prox([3.0], 1.0) == pytest.approx([2.0])
    assert L1Norm(1.0).prox([-0.5], 1.0) == pytest.approx([0.0])
    np.testing.assert_allclose(L1Norm(2.0).prox([0.0, -4.0], 1.0), [0.0, -2.0])


def test_prox_l1_subgradient_inclusion(rng):
    # (v - p)/tau must be a valid subgradient of |.| at p componentwise
    for _ in range(20):
        v = rng.normal(size=8) * 3
        tau = rng.uniform(0.1, 2.0)
        p = L1Norm(tau).prox(v, 1.0)
        s = (v - p) / tau
        for pi, si in zip(p, s):
            if pi > 0:
                assert si == pytest.approx(1.0, abs=1e-12)
            elif pi < 0:
                assert si == pytest.approx(-1.0, abs=1e-12)
            else:
                assert -1.0 - 1e-12 <= si <= 1.0 + 1e-12


def test_project_box_values():
    # the library's one box projection is the box indicator's prox
    box = BoxIndicator([-10.0], [10.0])
    assert box.prox([12.0], 1.0) == pytest.approx([10.0])
    assert box.prox([0.5], 1.0) == pytest.approx([0.5])
    np.testing.assert_allclose(
        BoxIndicator([-10.0, -10.0], [10.0, 10.0]).prox([-11.0, 3.0], 1.0),
        [-10.0, 3.0])


def test_project_box_rejects_crossed_bounds():
    # refused when the box is built
    with pytest.raises(ValueError, match="lower <= upper"):
        BoxIndicator([1.0], [-1.0])


def test_box_indicator_is_infinite_outside_the_box():
    box = BoxIndicator([-1.0, 0.0], [1.0, 2.0])
    assert box.value([1.0, 0.0]) == 0.0
    assert box.value([0.5, 2.5]) == np.inf
    assert box.value([-1.5, 1.0]) == np.inf


def test_l1_norm_refuses_a_nonpositive_scale():
    with pytest.raises(ValueError, match="scale must be positive, not 0"):
        L1Norm(0)


def test_project_box_idempotent_and_nonexpansive(rng):
    box = BoxIndicator(-rng.uniform(1, 5, size=6), rng.uniform(1, 5, size=6))
    for _ in range(20):
        u, v = rng.normal(size=6) * 10, rng.normal(size=6) * 10
        pu, pv = box.prox(u, 1.0), box.prox(v, 1.0)
        np.testing.assert_array_equal(box.prox(pu, 1.0), pu)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def test_prox_firmly_nonexpansive(rng):
    # <p(u)-p(v), u-v> >= ||p(u)-p(v)||^2 on sampled pairs
    funcs = [L1Norm(), BoxIndicator(-np.ones(5), np.ones(5)), ZeroProx()]
    for h in funcs:
        for _ in range(20):
            u, v = rng.normal(size=5) * 4, rng.normal(size=5) * 4
            pu, pv = h.prox(u, 0.7), h.prox(v, 0.7)
            d = pu - pv
            assert d @ (u - v) >= d @ d - 1e-12


def test_prox_large_weight_projects_onto_domain(rng):
    # indicator prox at any weight equals projection onto the domain box
    h = BoxIndicator(-2 * np.ones(4), 3 * np.ones(4))
    v = rng.normal(size=4) * 10
    np.testing.assert_allclose(h.prox(v, 1e12), np.clip(v, *h.domain))


# ---------------------------------------------------------------------------
# smooth functions and trackers


def test_quadratic_gradients_match_fd(rng):
    M = rng.normal(size=(6, 6))
    fn = QuadraticFunction(M.T @ M / 6, rng.normal(size=6), 1.3)
    pts = rng.normal(size=(20, 6))
    assert_grad_matches(fn, fn.grad, pts)


def test_least_squares_gradients_match_fd(rng):
    fn = LeastSquaresFunction(rng.normal(size=(4, 7)), rng.normal(size=4), 0.5)
    assert_grad_matches(fn, fn.grad, rng.normal(size=(20, 7)))


def test_vectorized_values_agree(rng):
    # the one batch evaluator: grid searches over a quadratic's values
    fn = QuadraticFunction(np.eye(5), rng.normal(size=5), -1.0)
    pts = rng.normal(size=(15, 5))
    np.testing.assert_allclose(fn.values(pts), [fn(p) for p in pts], atol=1e-12)


def test_trackers_match_full_evaluation(rng):
    # the tracker of each function kind's smooth stack, g alone: a quadratic
    # stack for the kinds with a form, a FullTracker for the oracle
    dim = 10
    blocks = even_blocks(dim, 3)
    a = rng.normal(size=dim)
    fns = [QuadraticFunction(np.eye(dim) + 0.1, rng.normal(size=dim), 0.7),
           LeastSquaresFunction(rng.normal(size=(6, dim)), rng.normal(size=6), 1.0),
           LinearFunction(rng.normal(size=dim), -0.2),
           OracleFunction(lambda x: float(np.sum(np.cos(a * x))),
                          lambda x: -a * np.sin(a * x))]
    x = rng.normal(size=dim)
    for fn in fns:
        stack = smooth_stack(ProblemInstance(fn, ZeroProx(), dim))
        tracker = stack.tracker(x.copy())
        assert type(tracker) is (FullTracker if type(fn) is OracleFunction
                                 else QuadraticTracker)
        cur = x.copy()
        for _ in range(50):
            sl = blocks[rng.integers(3)]
            dx = rng.normal(size=sl.stop - sl.start)
            want_delta = None
            trial = cur.copy()
            trial[sl] += dx
            want_delta = fn(trial) - fn(cur)
            delta, products = tracker.delta_value(sl, dx)
            assert delta == pytest.approx([want_delta], abs=1e-10)
            tracker.commit(sl, tracker.value + delta, products)
            cur = trial
            assert tracker.value == pytest.approx([fn(cur)], abs=1e-10)
            np.testing.assert_allclose(tracker.block_grad(sl), [fn.grad(cur)[sl]],
                                       atol=1e-9)


# ---------------------------------------------------------------------------
# affine constraint


def test_affine_adjoint_consistency(rng):
    A = AffineConstraint(rng.normal(size=(5, 9)), rng.normal(size=5))
    for _ in range(20):
        x, y = rng.normal(size=9), rng.normal(size=5)
        lhs = (A.A @ x) @ y
        rhs = x @ (A.A.T @ y)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_affine_block_concatenation(rng):
    A = AffineConstraint(rng.normal(size=(4, 10)), rng.normal(size=4))
    blocks = even_blocks(10, 4)
    x = rng.normal(size=10)
    total = sum(A.A[:, sl] @ x[sl] for sl in blocks)
    np.testing.assert_allclose(total, A.A @ x, atol=1e-12)


def test_empty_affine_terms_vanish():
    A = AffineConstraint.empty(4)
    x = np.ones(4)
    assert A.residual(x).shape == (0,)
    np.testing.assert_array_equal(A.A.T @ np.zeros(0), np.zeros(4))
    assert operator_norm_sq(A.A[:, slice(0, 4)]) == 0.0


def test_affine_constraint_refuses_mismatched_row_counts():
    with pytest.raises(ValueError, match="A has 2 rows but b has 3"):
        AffineConstraint(np.ones((2, 4)), np.ones(3))


# ---------------------------------------------------------------------------
# operator norm


def test_operator_norm_diagonal():
    assert operator_norm_sq(np.diag([3.0, 1.0])) == pytest.approx(9.0, rel=1e-6)


def test_operator_norm_zero():
    assert operator_norm_sq(np.zeros((3, 3))) == 0.0


def test_operator_norm_matches_dense_eig(rng):
    # oracle: dense eigendecomposition of A'A
    for _ in range(5):
        A = rng.normal(size=(5, 5))
        oracle = float(np.linalg.eigvalsh(A.T @ A).max())
        assert operator_norm_sq(A) == pytest.approx(oracle, rel=1e-6)


def test_operator_norm_is_exact():
    # oracle: the largest singular value from an SVD. Equal or nearly equal
    # top eigenvalues (the diagonal and the BPDN seeds) would stall an
    # iterative estimate, and a Rayleigh quotient would sit below the norm.
    qcqp = gen_qcqp(QcqpSpec(m=10, p=200, seed=0))
    mats = [np.diag([2.0, 2.0]), qcqp.g.Q] + [con.fn.Q for con in qcqp.constraints]
    for seed in (2641798559, 3144076148, 127373982):
        bpdn = gen_bpdn(BpdnSpec(rows=50, cols=100, sparsity=5, seed=seed))
        mats.append(bpdn.constraints[0].fn.A)
    for A in mats:
        assert operator_norm_sq(A) == pytest.approx(np.linalg.norm(A, 2) ** 2,
                                                    rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", [2641798559, 3144076148, 127373982])
def test_operator_norm_near_degenerate_bpdn(seed):
    # power iteration stalls on these instances' nearly equal top
    # eigenvalues; the exact Gram eigenvalue takes over
    prob = gen_bpdn(BpdnSpec(rows=50, cols=100, sparsity=5, seed=seed))
    fn = prob.constraints[0].fn
    assert fn.lipschitz == pytest.approx(2 * np.linalg.norm(fn.A, 2) ** 2, rel=1e-8)


# ---------------------------------------------------------------------------
# quadratic stacks


def random_quadratics(rng, k, dim):
    fns = []
    for _ in range(k):
        M = rng.normal(size=(dim, dim))
        Q = M.T @ M / dim
        fns.append(QuadraticFunction(0.5 * (Q + Q.T), rng.normal(size=dim),
                                     rng.normal()))
    return fns


def value_scale(fns, x):
    """Magnitude of the terms each value sums, for roundoff-aware tolerances."""
    return np.array([1.0 + abs(0.5 * x @ fn.Q @ x) + abs(fn.c @ x) + abs(fn.d)
                     for fn in fns])


def assert_close(got, want, scale, rel):
    """|got - want| <= rel * scale elementwise (scale broadcasts)."""
    err = np.abs(np.asarray(got) - np.asarray(want))
    assert np.all(err <= rel * np.asarray(scale)), (err, scale)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5),
       dim=st.integers(1, 12), n_blocks=st.integers(1, 4),
       steps=st.integers(1, 30))
def test_stack_tracker_matches_from_scratch(seed, k, dim, n_blocks, steps):
    # The tracker keeps a block gradient until the next commit or rebase, and
    # values a trial from it: ask for it before some trials, and commit a
    # change of another block or rebase in between, so that a kept value
    # outliving its point fails the checks.
    rng = np.random.default_rng(seed)
    fns = random_quadratics(rng, k, dim)
    blocks = even_blocks(dim, min(n_blocks, dim))
    x = rng.normal(size=dim)
    tracker = QuadraticStack.of(fns).tracker(x.copy())
    for step in range(steps):
        i = rng.integers(len(blocks))
        sl = blocks[i]
        dx = rng.normal(size=sl.stop - sl.start)
        if rng.random() < 0.5:
            if rng.random() < 0.5:
                other = blocks[(i + 1) % len(blocks)]
                odx = rng.normal(size=other.stop - other.start)
                odelta, oproducts = tracker.delta_value(other, odx)
                tracker.block_grad(sl)
                tracker.commit(other, tracker.value + odelta, oproducts)
                x[other] += odx
            else:
                tracker.block_grad(sl)
        if step == steps // 2:
            x = x + rng.normal(size=dim)
            tracker.rebase(x.copy())
        delta, products = tracker.delta_value(sl, dx)
        trial = x.copy()
        trial[sl] += dx
        scale = value_scale(fns, trial)
        assert_close(delta, [fn(trial) - fn(x) for fn in fns], scale, 1e-10)
        tracker.commit(sl, tracker.value + delta, products)
        x = trial
        assert_close(tracker.value, [fn(x) for fn in fns], scale, 1e-10)
        for blk in blocks:
            want = np.stack([fn.grad(x)[blk] for fn in fns])
            assert_close(tracker.block_grad(blk), want,
                         1.0 + np.abs(want).max(axis=1, keepdims=True), 1e-10)


def test_commit_of_the_valued_trial_reads_no_q(rng):
    # the trial's row product goes to its commit, which takes no product
    fns = random_quadratics(rng, 3, 6)
    stack = QuadraticStack.of(fns)
    x = rng.normal(size=6)
    tracker = stack.tracker(x.copy())
    sl, dx = slice(2, 4), rng.normal(size=2)
    tracker.block_grad(sl)
    delta, u = tracker.delta_value(sl, dx)

    class Unreadable:
        def __getitem__(self, key):
            pytest.fail("commit read Q")

    Q, stack.Q = stack.Q, Unreadable()
    tracker.commit(sl, tracker.value + delta, u)
    stack.Q = Q
    x[sl] += dx
    vals, grads = stack.value_grad(x)
    assert_close(tracker.value, vals, value_scale(fns, x), 1e-12)
    np.testing.assert_allclose(tracker.block_grad(slice(None)), grads,
                               rtol=1e-12, atol=1e-12)


def test_stack_of_generated_qcqp_is_a_view():
    prob = gen_qcqp(QcqpSpec(m=4, p=7, seed=3))
    fns = [prob.g] + [con.fn for con in prob.constraints]
    stack = smooth_stack(prob)
    assert stack.Q.shape == (5, 7, 7) and stack.Q.flags.c_contiguous
    assert (stack.Q.__array_interface__["data"][0]
            == prob.g.Q.__array_interface__["data"][0])
    for i, fn in enumerate(fns):
        assert np.shares_memory(stack.Q[i], fn.Q)
        np.testing.assert_array_equal(stack.Q[i], fn.Q)
        np.testing.assert_array_equal(stack.c[i], fn.c)
        assert stack.d[i] == fn.d


def test_stack_of_other_quadratics_is_a_copy(rng):
    prob = gen_qcqp(QcqpSpec(m=3, p=6, seed=1))
    skipping = [prob.g, prob.constraints[1].fn]  # views, but not consecutive
    for fns in (random_quadratics(rng, 3, 6), skipping):
        stack = QuadraticStack.of(fns)
        assert not any(np.shares_memory(stack.Q, fn.Q) for fn in fns)
        x = rng.normal(size=6)
        vals, grads = stack.value_grad(x)
        assert_close(vals, [fn(x) for fn in fns], value_scale(fns, x), 1e-12)
        np.testing.assert_allclose(grads, [fn.grad(x) for fn in fns], rtol=1e-12)


def test_quadratic_stack_needs_every_function_quadratic():
    # smooth_stack stacks the functions' quadratic forms unless one has
    # none: only then is it a FunctionStack over their own oracles
    qcqp = gen_qcqp(QcqpSpec(m=2, p=4, seed=0))
    oracle = make_smooth("oracle", np.random.default_rng(0), 4)
    mixed = ProblemInstance(qcqp.g, qcqp.h, 4, constraints=[
        qcqp.constraints[0], InequalityConstraint(LinearFunction(np.ones(4)))])
    for prob in (qcqp, mixed, gen_bpdn(BpdnSpec(rows=5, cols=8, sparsity=2)),
                 tiny_reference("scalar-bpdn")[0], random_minimax_1d(seed=0)[1]):
        stack = smooth_stack(prob)
        assert type(stack) is QuadraticStack
        assert stack.Q.shape == (prob.m + 1, prob.dim, prob.dim)
    with_oracle = ProblemInstance(qcqp.g, qcqp.h, 4, constraints=[
        qcqp.constraints[0], InequalityConstraint(oracle)])
    for prob in (with_oracle, ProblemInstance(oracle, ZeroProx(), 4),
                 minimax_reformulate([qcqp.g, oracle], [-1.0] * 4, [1.0] * 4)):
        stack = smooth_stack(prob)
        assert type(stack) is FunctionStack
        assert stack.fns == [prob.g] + [con.fn for con in prob.constraints]
    prob, _ = tiny_reference("equality-qp")   # g alone: a stack of one
    assert type(smooth_stack(prob)) is QuadraticStack
    assert smooth_stack(prob).Q.shape == (1, 2, 2)


def test_function_stack_values_come_from_each_oracle(monkeypatch, rng):
    # the values at a point (every FunctionStack ergodic value) and the
    # values and gradients the recorder asks for call each function's own
    # oracles and build no tracker
    fns = [make_smooth(kind, rng, 5) for kind in ("zero",) + _KINDS]
    stack = FunctionStack(fns)
    x = rng.normal(size=5)
    want = np.array([fn(x) for fn in fns])
    want_grads = np.array([fn.grad(x) for fn in fns])
    monkeypatch.setattr(FunctionStack, "tracker",
                        lambda self, x: pytest.fail("tracker built"))
    monkeypatch.setattr(FullTracker, "__init__",
                        lambda self, fn, x: pytest.fail("tracker built"))
    np.testing.assert_allclose(stack(x), want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(stack.values_from_image(x, 0.0), want, rtol=1e-12,
                               atol=1e-12)
    vals, grads = stack.value_grad(x)
    np.testing.assert_allclose(vals, want, rtol=1e-12, atol=1e-12)
    assert grads.tobytes() == want_grads.tobytes()


def make_smooth(kind, rng, dim):
    """One smooth function of the named kind with random data."""
    if kind == "quadratic":
        return random_quadratics(rng, 1, dim)[0]
    if kind == "least-squares":
        return LeastSquaresFunction(rng.normal(size=(3, dim)), rng.normal(size=3),
                                    rng.normal())
    if kind == "linear":
        return LinearFunction(rng.normal(size=dim), rng.normal())
    if kind == "oracle":
        a = rng.normal(size=dim)
        return OracleFunction(lambda x: float(np.sum(np.cos(a * x))),
                              lambda x: -a * np.sin(a * x))
    return ZeroFunction()


_KINDS = ("quadratic", "least-squares", "linear", "oracle")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), g_kind=st.sampled_from(_KINDS + ("zero",)),
       con_kinds=st.lists(st.sampled_from(_KINDS), max_size=3),
       dim=st.integers(1, 10), n_blocks=st.integers(1, 4),
       steps=st.integers(1, 30))
@example(seed=0, g_kind="quadratic", con_kinds=["quadratic", "quadratic"], dim=6,
         n_blocks=3, steps=20)
@example(seed=1, g_kind="zero", con_kinds=["least-squares"], dim=8, n_blocks=4,
         steps=20)
@example(seed=2, g_kind="quadratic", con_kinds=["linear", "oracle"], dim=5,
         n_blocks=2, steps=20)
def test_every_stack_tracker_matches_from_scratch(seed, g_kind, con_kinds, dim,
                                                  n_blocks, steps):
    # every tracker kind a solver reaches through smooth_stack(...).tracker
    # stays equal to a from-scratch evaluation after block commits
    rng = np.random.default_rng(seed)
    fns = [make_smooth(kind, rng, dim) for kind in [g_kind] + con_kinds]
    prob = ProblemInstance(fns[0], ZeroProx(), dim,
                           constraints=[InequalityConstraint(fn) for fn in fns[1:]])
    stack = smooth_stack(prob)
    blocks = even_blocks(dim, min(n_blocks, dim))
    x = rng.normal(size=dim)
    tracker = stack.tracker(x.copy())
    for _ in range(steps):
        sl = blocks[rng.integers(len(blocks))]
        dx = rng.normal(size=sl.stop - sl.start)
        delta, products = tracker.delta_value(sl, dx)
        before = stack(x)
        tracker.commit(sl, tracker.value + delta, products)
        x[sl] += dx
        vals, grads = stack.value_grad(x)
        np.testing.assert_allclose(delta, vals - before, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(vals, [fn(x) for fn in fns], rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(grads, [fn.grad(x) for fn in fns],
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(tracker.value, vals, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(tracker.block_grad(slice(None)), grads,
                                   rtol=1e-10, atol=1e-10)
        for blk in blocks:
            np.testing.assert_allclose(tracker.block_grad(blk), grads[:, blk],
                                       rtol=1e-10, atol=1e-10)


def test_full_tracker_over_a_function_stack_matches_evaluation(rng):
    # one FullTracker serves a stack holding a function with no quadratic
    # form: (k,) values and deltas, (k, dim) and (k, width) gradients, and
    # every delta and commit equal to evaluating the stack
    dim = 7
    fns = [make_smooth(kind, rng, dim)
           for kind in ("zero", "oracle", "least-squares", "linear", "quadratic")]
    stack = FunctionStack(fns)
    blocks = even_blocks(dim, 3)
    x = rng.normal(size=dim)
    tracker = stack.tracker(x.copy())
    assert type(tracker) is FullTracker
    for _ in range(20):
        sl = blocks[rng.integers(len(blocks))]
        dx = rng.normal(size=sl.stop - sl.start)
        trial = x.copy()
        trial[sl] += dx
        delta, moved = tracker.delta_value(sl, dx)
        assert delta.shape == (len(fns),)
        assert delta.tobytes() == (stack(trial) - stack(x)).tobytes()
        assert moved.tobytes() == trial.tobytes()
        tracker.commit(sl, stack(trial), moved)
        x = trial
        assert tracker.value.tobytes() == stack(x).tobytes()
        assert tracker.block_grad(slice(None)).tobytes() == stack.grad(x).tobytes()
        for blk in blocks:
            got = tracker.block_grad(blk)
            assert got.shape == (len(fns), blk.stop - blk.start)
            assert got.tobytes() == stack.grad(x)[:, blk].tobytes()


def form_scales(fn, x):
    """Magnitudes of the terms a stacked form of fn sums at x, for its value
    and for its gradient: the bounds below are relative to them."""
    form = fn.as_quadratic(len(x))
    qx = form.Q @ x
    value = 1.0 + np.linalg.norm(x) * (np.linalg.norm(qx) + 2 * np.linalg.norm(form.c))
    value += abs(form.d)
    ls = fn.inner if isinstance(fn, MinimaxConstraint) else fn
    if isinstance(ls, LeastSquaresFunction):   # d = b'b - offset may cancel
        value += ls.b @ ls.b + abs(ls.offset)
    return value, 1.0 + np.linalg.norm(qx) + np.linalg.norm(form.c)


# Measured on 6*10^4 random draws of make_form_instance (half of them on a
# least-squares ball's boundary), relative to form_scales: values differed
# from the oracles' by at most 1.5e-15 and gradients by at most 4.4e-15; at
# five 50x100 BPDN boundary points, by at most 5.5e-17 and 9.3e-17. The
# bounds are about 6x the largest.
_FORM_VALUE_REL, _FORM_GRAD_REL = 1e-14, 3e-14


def assert_stack_matches_oracles(prob, x):
    fns = [prob.g] + [con.fn for con in prob.constraints]
    stack = smooth_stack(prob)
    assert type(stack) is QuadraticStack
    vals, grads = stack.value_grad(x)
    for fn, val, grad in zip(fns, vals, grads):
        value_scale, grad_scale = form_scales(fn, x)
        assert abs(val - fn(x)) <= _FORM_VALUE_REL * value_scale
        assert np.abs(grad - fn.grad(x)).max() <= _FORM_GRAD_REL * grad_scale


_FORM_KINDS = ("zero", "linear", "least-squares", "quadratic", "minimax")


def make_form_instance(rng, kinds, p, on_boundary):
    """An instance on (x, t), x of length p, whose g and constraints are the
    named kinds, and a point; a minimax function wraps a quadratic or a
    least-squares function of x, and every least-squares function has the
    point on its ball's boundary when ``on_boundary``."""
    point = rng.normal(size=p + 1) * rng.uniform(0.1, 5.0)

    def least_squares(cols, at):
        A = rng.normal(size=(rng.integers(1, 8), cols)) * rng.uniform(0.1, 3.0)
        b = rng.normal(size=len(A)) * rng.uniform(0.1, 10.0)
        r = A @ at - b
        return LeastSquaresFunction(A, b, r @ r if on_boundary else rng.normal())

    def make(kind):
        if kind == "least-squares":
            return least_squares(p + 1, point)
        if kind == "minimax":
            inner = (least_squares(p, point[:p]) if rng.random() < 0.5
                     else random_quadratics(rng, 1, p)[0])
            return MinimaxConstraint(inner, p)
        return make_smooth(kind, rng, p + 1)

    fns = [make(kind) for kind in kinds]
    prob = ProblemInstance(fns[0], ZeroProx(), p + 1,
                           constraints=[InequalityConstraint(fn) for fn in fns[1:]])
    return prob, point


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(_FORM_KINDS), min_size=1, max_size=6),
       p=st.integers(1, 10), on_boundary=st.booleans())
@example(seed=0, kinds=list(_FORM_KINDS), p=6, on_boundary=True)
def test_stacked_forms_match_each_oracle(seed, kinds, p, on_boundary):
    # every built-in kind with a quadratic form stacks into one operator
    # whose values and gradients are the functions' own, to roundoff, also
    # where a least-squares form's terms cancel
    prob, x = make_form_instance(np.random.default_rng(seed), kinds, p, on_boundary)
    assert_stack_matches_oracles(prob, x)


def test_bpdn_stack_matches_its_oracles_on_the_ball_boundary():
    # gen_bpdn's start point lies on the residual ball's boundary, where
    # the Gram form's ||Ax||^2 - 2b'Ax + b'b - delta cancels to about 0
    for seed in range(5):
        prob = gen_bpdn(BpdnSpec(seed=seed))
        assert_stack_matches_oracles(prob, np.array(prob.meta["x0"]))


# ---------------------------------------------------------------------------
# blocks and instance validation


def test_even_blocks_cover_and_are_contiguous():
    blocks = even_blocks(10, 3)
    assert blocks[0].start == 0 and blocks[-1].stop == 10
    widths = [sl.stop - sl.start for sl in blocks]
    assert max(widths) - min(widths) <= 1
    with pytest.raises(ValueError):
        even_blocks(3, 5)


def test_instance_rejects_bad_partition():
    with pytest.raises(ValueError):
        ProblemInstance(ZeroFunction(), ZeroProx(), dim=4,
                        blocks=(slice(0, 2), slice(3, 4)))
    with pytest.raises(ValueError,
                       match=re.escape("blocks must cover [0, 4), not [0, 3)")):
        ProblemInstance(ZeroFunction(), ZeroProx(), dim=4,
                        blocks=(slice(0, 2), slice(2, 3)))
    # float bounds, as an instance file's [[0.0, 2.0], [2.0, 4.0]] loads
    with pytest.raises(ValueError, match="integer slices"):
        ProblemInstance(ZeroFunction(), ZeroProx(), dim=4,
                        blocks=(slice(0.0, 2.0), slice(2.0, 4.0)))


def test_primal_dual_point_caches_and_validation():
    prob, _ = tiny_reference("scalar-qcqp")
    w = PrimalDualPoint.at(prob, [0.5], z=[1.0])
    assert w.fvals == pytest.approx([-0.75])
    with pytest.raises(ValueError):
        PrimalDualPoint.at(prob, [0.5], z=[-1.0])
    # scalar-qcqp has no equality row and one inequality constraint
    with pytest.raises(ValueError, match="y has length 1, expected 0"):
        PrimalDualPoint.at(prob, [0.5], y=[0.0])
    with pytest.raises(ValueError, match="z has length 2, expected 1"):
        PrimalDualPoint.at(prob, [0.5], z=[0.0, 0.0])


# ---------------------------------------------------------------------------
# optimality metrics


def test_lagrangian_gap_identity_cases():
    prob, ref = tiny_reference("scalar-qcqp")
    w = PrimalDualPoint.at(prob, [0.3], z=[0.0])
    assert lagrangian_gap(w.x, w, prob) == pytest.approx(0.0)
    # zero multipliers reduce the gap to the objective difference
    assert lagrangian_gap([0.8], w, prob) == pytest.approx(
        prob.f0([0.8]) - prob.f0([0.3]))


def test_lagrangian_gap_nonnegative_at_kkt(rng):
    # sampled form of the optimality property of the gap functional
    for kind in ("equality-qp", "scalar-qcqp", "scalar-bpdn"):
        prob, ref = tiny_reference(kind)
        w = PrimalDualPoint.at(prob, ref.x, ref.y, ref.z)
        for _ in range(50):
            x_try = rng.uniform(-5, 5, size=prob.dim)
            assert lagrangian_gap(x_try, w, prob) >= -1e-10


def test_kkt_residual_zero_at_hand_points():
    for kind in ("equality-qp", "scalar-qcqp", "scalar-bpdn"):
        prob, ref = tiny_reference(kind)
        w = PrimalDualPoint.at(prob, ref.x, ref.y, ref.z)
        kkt = kkt_residual(w, prob)
        assert max(kkt) <= 1e-12, (kind, kkt)


def test_kkt_residual_zero_when_constraints_inactive():
    # unconstrained optimum of 0.5(x-1)^2 with an inactive constraint
    fn = QuadraticFunction([[2.0]], [0.0], -9.0, lipschitz=2.0)  # x^2 <= 9
    prob = ProblemInstance(QuadraticFunction([[1.0]], [-1.0]), ZeroProx(),
                           dim=1, constraints=[InequalityConstraint(fn)])
    w = PrimalDualPoint.at(prob, [1.0], z=[0.0])
    assert max(kkt_residual(w, prob)) == 0.0


def test_kkt_residual_nonnegative_and_rejects_negative_z(rng):
    prob = gen_qcqp(QcqpSpec(m=3, p=8, seed=4))
    for _ in range(10):
        w = PrimalDualPoint.at(prob, rng.uniform(-10, 10, size=8),
                               z=rng.uniform(0, 2, size=3))
        kkt = kkt_residual(w, prob)
        assert all(c >= 0 for c in kkt)
    with pytest.raises(ValueError):
        kkt_residual(PrimalDualPoint(np.zeros(8), np.zeros(0),
                                     -np.ones(3), np.zeros(0), np.zeros(3)),
                     prob)


def test_gradient_bounds_hold_on_box(rng):
    prob = gen_qcqp(QcqpSpec(m=3, p=6, seed=1))
    lo, hi = prob.h.domain
    for con in prob.constraints:
        for _ in range(20):
            x = rng.uniform(lo, hi)
            assert np.linalg.norm(con.fn.grad(x)) <= con.grad_bound + 1e-9


def test_oracle_function_wraps_callables(rng):
    fn = OracleFunction(lambda x: float(np.sum(np.sin(x))),
                        lambda x: np.cos(x), lipschitz=1.0)
    assert_grad_matches(fn, fn.grad, rng.normal(size=(20, 5)))
    assert fn.as_quadratic(5) is None
    tracker = FunctionStack([fn]).tracker(np.zeros(5))
    delta, moved = tracker.delta_value(slice(0, 2), np.array([0.5, -0.5]))
    tracker.commit(slice(0, 2), tracker.value + delta, moved)
    assert tracker.value == pytest.approx([fn([0.5, -0.5, 0, 0, 0])])


def test_prox_output_stays_in_domain(rng):
    h = BoxIndicator(-np.ones(6), 2 * np.ones(6))
    lo, hi = h.domain
    for weight in (1e-6, 1.0, 1e9):
        for _ in range(10):
            p = h.prox(rng.normal(size=6) * 20, weight)
            assert np.all(p >= lo) and np.all(p <= hi)
