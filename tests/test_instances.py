import json

import numpy as np
import pytest

from linalm.instances import (BpdnSpec, QcqpSpec, brute_force_reference,
                              gen_bpdn, gen_qcqp, instance_digest,
                              instance_from_dict, instance_to_dict,
                              load_instance, minimax_reformulate,
                              random_minimax_1d, save_instance, tiny_reference,
                              TINY_KINDS)
from linalm.model import (OracleFunction, PrimalDualPoint, ProblemInstance,
                          QuadraticFunction, ZeroProx, kkt_residual)

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
# brute-force references


def test_brute_force_scalar_qcqp_matches_hand():
    prob, ref = tiny_reference("scalar-qcqp")
    got = brute_force_reference(prob)
    assert got.x[0] == pytest.approx(-1.0, abs=1e-4)
    assert got.f0 == pytest.approx(-1.5, abs=1e-4)
    assert got.z[0] == pytest.approx(0.5, abs=1e-3)
    w = PrimalDualPoint.at(prob, got.x, got.y, got.z)
    assert max(kkt_residual(w, prob)) <= 1e-8


def test_brute_force_scalar_bpdn_matches_hand():
    prob, _ = tiny_reference("scalar-bpdn")
    got = brute_force_reference(prob)
    assert got.f0 == pytest.approx(1.0, abs=1e-4)
    w = PrimalDualPoint.at(prob, got.x, got.y, got.z)
    assert max(kkt_residual(w, prob)) <= 1e-8


def test_brute_force_unconstrained_quadratic_vertex():
    # vertex at -c/Q = 1.5
    prob = ProblemInstance(QuadraticFunction([[2.0]], [-3.0], lipschitz=2.0),
                           ZeroProx(), dim=1)
    got = brute_force_reference(prob)
    assert got.x[0] == pytest.approx(1.5, abs=1e-6)


def test_brute_force_equality_qp_recovers_multiplier():
    prob, ref = tiny_reference("equality-qp")
    got = brute_force_reference(prob)
    np.testing.assert_allclose(got.x, ref.x, atol=1e-6)
    assert got.y[0] == pytest.approx(-0.5, abs=1e-6)


def test_brute_force_rejects_high_dimension():
    prob = gen_qcqp(QcqpSpec(m=1, p=4, seed=0))
    with pytest.raises(ValueError, match="dim"):
        brute_force_reference(prob)


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


def test_instance_json_matrices_row_major(tmp_path):
    prob = gen_bpdn(BpdnSpec(rows=3, cols=4, sparsity=1, seed=0))
    data = instance_to_dict(prob)
    A = prob.constraints[0].fn.A
    assert data["constraints"][0]["fn"]["A"][1][2] == A[1, 2]
    text = json.dumps(data)
    assert json.loads(text)["dim"] == 4


def test_instance_digest_stability_and_sensitivity():
    a = gen_qcqp(QcqpSpec(m=2, p=4, seed=1))
    b = gen_qcqp(QcqpSpec(m=2, p=4, seed=1))
    c = gen_qcqp(QcqpSpec(m=2, p=4, seed=2))
    assert instance_digest(a) == instance_digest(b)
    assert instance_digest(a) != instance_digest(c)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        instance_from_dict({"dim": 1, "g": {"kind": "exotic"},
                            "h": {"kind": "zero"}})
