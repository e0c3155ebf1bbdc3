import json
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linalm import blalm, lalm, pdyn
from linalm.instances import (BpdnSpec, QcqpSpec, gen_bpdn, gen_qcqp,
                              instance_digest, instance_from_dict,
                              load_instance, minimax_reformulate,
                              random_minimax_1d, save_instance,
                              tiny_reference, TINY_KINDS)
from linalm.lalm import SolverConfig
from linalm.model import (InequalityConstraint, LeastSquaresFunction,
                          OracleFunction, PrimalDualPoint, ProblemInstance,
                          QuadraticFunction, ZeroProx, kkt_residual,
                          operator_norm_sq)

from conftest import assert_grad_matches


# ---------------------------------------------------------------------------
# BPDN generation


def test_bpdn_ground_truth_feasible():
    prob = gen_bpdn(BpdnSpec(seed=0))
    x_true = np.array(prob.meta["x_true"])
    # default delta equals the realized noise power: f(x_true) = 0
    assert prob.constraint_values(x_true)[0] == pytest.approx(0.0, abs=1e-9)


def test_bpdn_constraint_gradient(rng):
    prob = gen_bpdn(BpdnSpec(rows=8, cols=12, sparsity=3, seed=5))
    con = prob.constraints[0]
    assert_grad_matches(con.fn, con.fn.grad, rng.normal(size=(20, 12)))


def test_bpdn_scalar_spec_reproduces_hand_instance():
    prob = gen_bpdn(BpdnSpec(rows=1, cols=1, sparsity=1, seed=0, delta=1.0))
    con = prob.constraints[0].fn
    b = con.b[0]
    # feasible set [b-1, b+1]: optimum clips toward zero
    want = max(b - 1.0, 0.0) if b > 0 else min(b + 1.0, 0.0)
    assert prob.f0([want]) == pytest.approx(abs(want))
    assert con([want]) == pytest.approx(0.0 if want != 0 else con([0.0]))


def test_bpdn_deterministic_per_seed():
    a = gen_bpdn(BpdnSpec(rows=6, cols=9, sparsity=2, seed=3))
    b = gen_bpdn(BpdnSpec(rows=6, cols=9, sparsity=2, seed=3))
    np.testing.assert_array_equal(a.constraints[0].fn.A, b.constraints[0].fn.A)
    assert a.meta["delta"] == b.meta["delta"]


def test_bpdn_start_lies_on_ball_boundary():
    prob = gen_bpdn(BpdnSpec(seed=2))
    x0 = np.array(prob.meta["x0"])
    # the canonical start sits on the residual-ball boundary (f ~ 0)
    assert abs(prob.constraint_values(x0)[0]) <= 1e-6


def test_bpdn_spec_validation():
    with pytest.raises(ValueError):
        BpdnSpec(cols=4, sparsity=9)
    with pytest.raises(ValueError):
        gen_bpdn(BpdnSpec(delta=-1.0))


# ---------------------------------------------------------------------------
# QCQP generation


def test_qcqp_strictly_feasible_origin():
    prob = gen_qcqp(QcqpSpec(m=4, p=6, seed=0))
    vals = prob.constraint_values(np.zeros(6))
    np.testing.assert_allclose(vals, -1.0)


def test_qcqp_matrices_symmetric_psd():
    prob = gen_qcqp(QcqpSpec(m=3, p=8, seed=1))
    for fn in [prob.g] + [c.fn for c in prob.constraints]:
        np.testing.assert_allclose(fn.Q, fn.Q.T, atol=1e-12)
        assert np.linalg.eigvalsh(fn.Q).min() >= -1e-10


def test_qcqp_degenerate_spec_reduces_to_hand_instance():
    # overwrite the generated data with the scalar hand instance pattern and
    # confirm the known optimum
    prob = gen_qcqp(QcqpSpec(m=1, p=2, seed=0))
    hand, ref = tiny_reference("scalar-qcqp")
    assert hand.f0(ref.x) == pytest.approx(-1.5)
    # the generated instance has the same structural shape
    assert prob.dim == 2 and prob.m == 1 and prob.h.domain is not None


def test_qcqp_gradients_match_fd(rng):
    prob = gen_qcqp(QcqpSpec(m=2, p=7, seed=2))
    assert_grad_matches(prob.g, prob.g.grad, rng.uniform(-5, 5, size=(10, 7)))
    for con in prob.constraints:
        assert_grad_matches(con.fn, con.fn.grad, rng.uniform(-5, 5, size=(10, 7)))


def test_qcqp_deterministic_per_seed():
    a = gen_qcqp(QcqpSpec(m=2, p=5, seed=9))
    b = gen_qcqp(QcqpSpec(m=2, p=5, seed=9))
    np.testing.assert_array_equal(a.g.Q, b.g.Q)


def test_qcqp_spec_validation():
    with pytest.raises(ValueError):
        QcqpSpec(d_value=0.5)
    with pytest.raises(ValueError):
        QcqpSpec(box_low=3.0, box_high=-3.0)


@pytest.mark.parametrize("spec, opts, key", [
    (QcqpSpec, {"p": 3, "m": -1}, "m"), (QcqpSpec, {"p": 0}, "p"),
    (BpdnSpec, {"sparsity": -1}, "sparsity"), (BpdnSpec, {"rows": 0}, "rows"),
    (BpdnSpec, {"cols": 0, "sparsity": 0}, "cols"),
    (BpdnSpec, {"noise": -0.1}, "noise"), (BpdnSpec, {"noise": float("nan")}, "noise"),
])
def test_spec_sizes_out_of_range_name_their_key(spec, opts, key):
    with pytest.raises(ValueError, match=f"^{key} must be >= "):
        spec(**opts)


def test_smallest_admitted_specs_generate():
    assert gen_qcqp(QcqpSpec(m=0, p=1)).m == 0
    prob = gen_bpdn(BpdnSpec(rows=1, cols=1, sparsity=0, noise=0.1))
    assert prob.dim == 1


# ---------------------------------------------------------------------------
# minimax reformulation


def test_minimax_single_function_reaches_box_minimum():
    from linalm import lalm
    from linalm.lalm import SolverConfig
    fn = QuadraticFunction([[2.0]], [-2.0], 0.5, lipschitz=2.0)  # (x-1)^2-0.5
    prob = minimax_reformulate([fn], [-5.0], [5.0])
    res = lalm.solve(prob, SolverConfig(beta=1.0, max_epochs=5000,
                                        record_every=500),
                     x0=prob.meta["x0"])
    assert res.w.x[1] == pytest.approx(-0.5, abs=1e-4)


def test_minimax_symmetric_pair():
    from linalm import lalm
    from linalm.lalm import SolverConfig
    f1 = QuadraticFunction([[2.0]], [-2.0], 1.0, lipschitz=2.0)  # (x-1)^2
    f2 = QuadraticFunction([[2.0]], [2.0], 1.0, lipschitz=2.0)   # (x+1)^2
    prob = minimax_reformulate([f1, f2], [-5.0], [5.0])
    res = lalm.solve(prob, SolverConfig(beta=1.0, max_epochs=20_000,
                                        record_every=1000),
                     x0=prob.meta["x0"])
    assert res.w.x[0] == pytest.approx(0.0, abs=1e-4)
    assert res.w.x[1] == pytest.approx(1.0, abs=1e-4)


def test_minimax_matches_grid_search(rng):
    # grid-search oracle over 1e5 points
    from linalm import lalm
    from linalm.lalm import SolverConfig
    for seed in range(3):
        fns, prob = random_minimax_1d(m=3, seed=seed)
        xs = np.linspace(-5, 5, 100_000)
        vals = np.max(np.stack([fn.values(xs[:, None]) for fn in fns]), axis=0)
        oracle = float(vals.min())
        res = lalm.solve(prob, SolverConfig(beta=1.0, max_epochs=20_000,
                                            record_every=2000),
                         x0=prob.meta["x0"])
        assert max(fn(res.w.x[:1]) for fn in fns) == pytest.approx(oracle, abs=1e-3)


def test_minimax_rejects_empty_list():
    with pytest.raises(ValueError):
        minimax_reformulate([], [-1.0], [1.0])


def test_minimax_start_strictly_feasible():
    fns, prob = random_minimax_1d(m=4, seed=3)
    x0 = np.array(prob.meta["x0"])
    assert np.all(prob.constraint_values(x0) < 0)


# ---------------------------------------------------------------------------
# tiny references


@pytest.mark.parametrize("kind", TINY_KINDS)
def test_tiny_references_are_kkt_points(kind):
    prob, ref = tiny_reference(kind)
    w = PrimalDualPoint.at(prob, ref.x, ref.y, ref.z)
    assert max(kkt_residual(w, prob)) <= 1e-10
    assert prob.f0_star == pytest.approx(ref.f0)


def test_tiny_reference_hand_values():
    prob, ref = tiny_reference("equality-qp")
    np.testing.assert_allclose(ref.x, [0.5, 0.5])
    np.testing.assert_allclose(ref.y, [-0.5])
    assert ref.f0 == 0.25
    prob, ref = tiny_reference("scalar-qcqp")
    assert (ref.x[0], ref.z[0], ref.f0) == (-1.0, 0.5, -1.5)
    prob, ref = tiny_reference("scalar-bpdn")
    assert (ref.x[0], ref.z[0], ref.f0) == (1.0, 0.5, 1.0)


def test_tiny_reference_unknown_kind():
    with pytest.raises(ValueError):
        tiny_reference("mystery")


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("maker", [
    lambda: gen_bpdn(BpdnSpec(rows=5, cols=8, sparsity=2, seed=1)),
    lambda: gen_qcqp(QcqpSpec(m=2, p=4, seed=1)).with_blocks(2),
    lambda: random_minimax_1d(m=2, seed=1)[1],
    lambda: tiny_reference("equality-qp")[0],
])
def test_instance_json_roundtrip(maker, tmp_path, rng):
    prob = maker()
    path = tmp_path / "instance.json"
    save_instance(prob, path)
    back = load_instance(path)
    assert back.dim == prob.dim and back.m == prob.m
    assert back.blocks == prob.blocks
    assert back.f0_star == prob.f0_star
    for _ in range(5):
        x = rng.normal(size=prob.dim)
        assert back.f0(x) == pytest.approx(prob.f0(x), abs=1e-12) or \
            (np.isinf(back.f0(x)) and np.isinf(prob.f0(x)))
        np.testing.assert_allclose(back.constraint_values(x),
                                   prob.constraint_values(x), atol=1e-12)
        if not prob.affine.is_empty:
            np.testing.assert_allclose(back.affine.residual(x),
                                       prob.affine.residual(x))


def test_save_unserializable_instance_leaves_no_file(tmp_path):
    g = OracleFunction(lambda x: float(x @ x), lambda x: 2.0 * x)
    path = tmp_path / "oracle.json"
    with pytest.raises(ValueError, match="cannot serialize"):
        save_instance(ProblemInstance(g, ZeroProx(), dim=2), path)
    assert not path.exists()


@pytest.mark.parametrize("data, named", [
    ({}, "'g'"),
    ({"dim": 1, "g": {"kind": "quadratic", "Q": [[1.0]], "d": 0.0},
      "h": {"kind": "zero"}}, "'c'"),
    ([1], "list"),
    ({"dim": 1, "g": {"kind": "zero"}, "h": {"kind": "zero"}, "constraints": [[1]]},
     "list indices"),
    ({"dim": 2, "g": {"kind": "zero"}, "h": {"kind": "zero"},
      "blocks": [[0.0, 1.0], [1.0, 2.0]]}, "integer slices"),
    *(({"dim": dim, "g": {"kind": "zero"}, "h": {"kind": "zero"}}, "dim must be")
      for dim in (2.5, True, "2")),
])
def test_load_malformed_instance_raises_value_error(tmp_path, data, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=named):
        load_instance(path)


def test_instance_json_matrices_row_major(tmp_path):
    prob = gen_bpdn(BpdnSpec(rows=3, cols=4, sparsity=1, seed=0))
    path = save_instance(prob, tmp_path / "bpdn.json")
    data = json.loads(path.read_text())
    A = prob.constraints[0].fn.A
    assert data["constraints"][0]["fn"]["A"][1][2] == A[1, 2]
    assert data["dim"] == 4


def test_instance_digest_stability_and_sensitivity():
    a = gen_qcqp(QcqpSpec(m=2, p=4, seed=1))
    b = gen_qcqp(QcqpSpec(m=2, p=4, seed=1))
    c = gen_qcqp(QcqpSpec(m=2, p=4, seed=2))
    assert instance_digest(a) == instance_digest(b)
    assert instance_digest(a) != instance_digest(c)


# ---------------------------------------------------------------------------
# constants computed on first use


def constants(prob):
    """Every constant the instance holds, read in a fixed order."""
    return ([prob.g.lipschitz]
            + [c for con in prob.constraints for c in (con.fn.lipschitz, con.grad_bound)])


def eager_qcqp(prob, spec):
    """The generated QCQP with each constant computed by its formula now:
    ||Q_j|| = sqrt(operator_norm_sq(Q_j)) and ||Q_j|| R + ||c_j||."""
    radius = float(np.linalg.norm(
        np.maximum(abs(spec.box_low), abs(spec.box_high)) * np.ones(spec.p)))

    def quad(fn):
        norm = float(np.sqrt(operator_norm_sq(fn.Q)))
        return (QuadraticFunction(fn.Q, fn.c, fn.d, lipschitz=norm),
                norm * radius + float(np.linalg.norm(fn.c)))

    cons = [InequalityConstraint(*quad(con.fn)) for con in prob.constraints]
    return ProblemInstance(quad(prob.g)[0], prob.h, prob.dim,
                           constraints=cons, meta=prob.meta)


def eager_bpdn(prob):
    """The generated BPDN instance with 2||A||^2 computed now."""
    fn = prob.constraints[0].fn
    eager = LeastSquaresFunction(fn.A, fn.b, fn.offset,
                                 lipschitz=2.0 * operator_norm_sq(fn.A))
    return ProblemInstance(prob.g, prob.h, prob.dim,
                           constraints=[InequalityConstraint(eager)], meta=prob.meta)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(0, 3), p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       low=st.floats(-20.0, -0.1), high=st.floats(0.1, 20.0))
def test_qcqp_constants_equal_their_eager_formulas(m, p, seed, low, high):
    spec = QcqpSpec(m=m, p=p, box_low=low, box_high=high, seed=seed)
    prob = gen_qcqp(spec)
    eager = eager_qcqp(prob, spec)
    got, want = constants(prob), constants(eager)
    assert all(type(c) is float for c in got)
    assert [c.hex() for c in got] == [c.hex() for c in want]
    assert instance_digest(gen_qcqp(spec)) == instance_digest(eager)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_bpdn_constants_equal_their_eager_formulas(rows, cols, seed, data):
    sparsity = data.draw(st.integers(0, cols))
    spec = BpdnSpec(rows=rows, cols=cols, sparsity=sparsity, seed=seed)
    prob = gen_bpdn(spec)
    eager = eager_bpdn(prob)
    assert prob.constraints[0].grad_bound is None
    assert [float(c).hex() for c in constants(prob)[:2]] == \
        [float(c).hex() for c in constants(eager)[:2]]
    assert instance_digest(gen_bpdn(spec)) == instance_digest(eager)


def test_generators_compute_only_the_objective_norm(norm_count):
    gen_qcqp(QcqpSpec(m=3, p=5, seed=0))
    assert norm_count == [(5, 5)]
    norm_count.clear()
    gen_bpdn(BpdnSpec(rows=4, cols=6, sparsity=2, seed=0))
    assert norm_count == []


def test_backtracking_solves_compute_no_norm(norm_count):
    qcqp = gen_qcqp(QcqpSpec(m=3, p=8, seed=1))
    bpdn = gen_bpdn(BpdnSpec(rows=5, cols=8, sparsity=2, seed=1))
    norm_count.clear()
    cfg = SolverConfig(beta=0.1, max_epochs=5)
    for prob in (qcqp, bpdn):
        lalm.solve(prob, cfg)
        blalm.solve(prob.with_blocks(4), cfg)
    pdyn.solve(qcqp, SolverConfig(max_epochs=5))
    assert norm_count == []


def test_analytic_solves_compute_each_constraint_norm_once(norm_count):
    prob = gen_qcqp(QcqpSpec(m=3, p=8, seed=2))
    norm_count.clear()
    cfg = SolverConfig(beta=0.1, step_mode="analytic", max_epochs=5)
    lalm.solve(prob, cfg)
    assert norm_count == [(8, 8)] * 3
    blalm.solve(prob.with_blocks(4), cfg)
    lalm.solve(prob, cfg)
    assert len(norm_count) == 3


def test_minimax_reformulation_defers_each_lipschitz_constant(norm_count, rng):
    # an epigraph constraint's constant is its inner function's, computed
    # on the first read of that constraint's and only of that one
    fns = []
    for _ in range(3):
        M = rng.normal(size=(4, 4))
        Q = M.T @ M
        fns.append(QuadraticFunction(Q, rng.normal(size=4), -1.0,
                                     lipschitz=partial(operator_norm_sq, Q)))
    prob = minimax_reformulate(fns, [-1.0] * 4, [1.0] * 4)
    assert norm_count == []
    for i, con in enumerate(prob.constraints):
        assert con.fn.lipschitz == fns[i].lipschitz
        assert norm_count == [(4, 4)] * (i + 1)
    assert [con.fn.lipschitz for con in prob.constraints] == \
        [fn.lipschitz for fn in fns]
    assert len(norm_count) == 3


@pytest.mark.parametrize("make", [
    lambda: gen_qcqp(QcqpSpec(m=2, p=5, seed=3)),
    lambda: gen_bpdn(BpdnSpec(rows=4, cols=6, sparsity=2, seed=3)),
], ids=["qcqp", "bpdn"])
def test_instance_pickles_before_and_after_its_constants_are_read(make):
    prob = make()
    copy = pickle.loads(pickle.dumps(prob))
    want = constants(prob)
    assert constants(copy) == want
    again = pickle.loads(pickle.dumps(prob))
    assert constants(again) == want
    assert instance_digest(again) == instance_digest(prob)


def test_saved_instance_holds_numbers_for_deferred_constants(tmp_path):
    prob = gen_qcqp(QcqpSpec(m=2, p=4, seed=4))
    path = save_instance(prob, tmp_path / "qcqp.json")
    data = json.loads(path.read_text())
    saved = [data["g"]["lipschitz"]] + [
        c for con in data["constraints"] for c in (con["fn"]["lipschitz"],
                                                   con["grad_bound"])]
    assert all(type(c) is float for c in saved)
    assert saved == constants(prob) == constants(load_instance(path))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        instance_from_dict({"dim": 1, "g": {"kind": "exotic"},
                            "h": {"kind": "zero"}})
