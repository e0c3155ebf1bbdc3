"""Acceptance suite: one test per exit criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. The two benchmark reproductions (criteria 7-9) take a few
minutes; everything else runs in seconds.
"""

import numpy as np
import pytest

import reference_iteration as ref
from linalm import blalm, lalm, pdyn
from linalm.auglag import (scalar_penalty, scalar_penalty_deriv, penalty_lipschitz,
                           smooth_grad)
from linalm.harness import long_run_reference, rate_fit
from linalm.instances import (BpdnSpec, QcqpSpec, gen_bpdn, gen_qcqp,
                              random_minimax_1d, tiny_reference, TINY_KINDS)
from linalm.lalm import SolverConfig, multiplier_step_z
from linalm.model import PrimalDualPoint, smooth_stack

from conftest import central_diff_grad, fejer_quantities


def check(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def first_epoch(trace, column, threshold):
    for rec in trace:
        val = getattr(rec, column)
        if val is not None and val <= threshold:
            return rec.epoch
    return None


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def bpdn_experiment():
    """Full-scale sparse-recovery benchmark: 50x100, 5-sparse, noise 0.1,
    beta=1, rho_z=beta (full) / beta/10 with 10 blocks (block), factor 1.5."""
    prob = gen_bpdn(BpdnSpec(rows=50, cols=100, sparsity=5, noise=0.1, seed=0))
    x0 = prob.meta["x0"]
    ref = long_run_reference(prob, cache=None)
    prob = prob.with_f0_star(ref.f0)
    full = lalm.solve(prob, SolverConfig(
        beta=1.0, rho_y=1.0, rho_z=1.0,
        max_epochs=100_000, record_every=10), x0=x0)
    block = blalm.solve(prob.with_blocks(10), SolverConfig(
        beta=1.0, rho_y=0.1, rho_z=0.1,
        max_epochs=30_000, record_every=10), x0=x0, seed=0)
    return {"full": full, "block": block, "reference": ref}


@pytest.fixture(scope="module")
def qcqp_experiment():
    """Scaled-down box-QCQP comparison: p=200, m=10, beta=0.1, 20 blocks,
    rho_z = beta (full) and beta/20 (block), all three methods."""
    prob = gen_qcqp(QcqpSpec(m=10, p=200, seed=0))
    beta = 0.1
    full = lalm.solve(prob, SolverConfig(
        beta=beta, rho_y=beta, rho_z=beta, max_epochs=2500, record_every=1))
    block = blalm.solve(prob.with_blocks(20), SolverConfig(
        beta=beta, rho_y=beta / 20, rho_z=beta / 20, max_epochs=500,
        record_every=1), seed=0)
    baseline = pdyn.solve(prob, SolverConfig(
        beta=beta, max_epochs=4000, record_every=1))
    return {"full": full, "block": block, "baseline": baseline}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_penalty_calculus(rng):
    # branch continuity and derivative agreement at the switch, exactly
    exact = True
    for beta, v in ((1.0, 1.0), (2.0, 3.0), (0.5, -0.7), (1.5, 0.0)):
        u = -v / beta
        quad = u * v + 0.5 * beta * u * u
        cap = -v * v / (2.0 * beta)
        exact &= abs(quad - cap) <= 1e-12
        exact &= abs(scalar_penalty(u, v, beta) - cap) <= 1e-12
        exact &= abs(scalar_penalty_deriv(u, v, beta)) <= 1e-12

    # the library's smooth-part gradient against central finite differences
    # of the reference's smooth value
    fd_ok = True
    for prob in (gen_bpdn(BpdnSpec(rows=10, cols=20, sparsity=3, seed=1)),
                 gen_qcqp(QcqpSpec(m=3, p=20, seed=1))):
        beta = 1.0
        for _ in range(20):
            if prob.h.domain is not None:
                x = rng.uniform(*prob.h.domain)
            else:
                x = rng.normal(size=prob.dim)
            z = rng.uniform(0, 1, size=prob.m)
            w = PrimalDualPoint.at(prob, x, z=z)
            num = central_diff_grad(
                lambda pt: ref.smooth_value(prob, pt, w.y, w.z, beta), w.x)
            ana = smooth_grad(smooth_stack(prob).value_grad(w.x)[1],
                              None if prob.affine.is_empty else prob.affine.A,
                              w.y, w.r, scalar_penalty_deriv(w.fvals, w.z, beta), beta)
            err = np.linalg.norm(num - ana) / (1.0 + np.linalg.norm(ana))
            fd_ok &= err <= 1e-5
    check(1, "penalty branch continuity exact; gradient matches finite "
             "differences on both instance families", exact and fd_ok)


def test_criterion_2_penalty_lipschitz_sampling(rng):
    prob = gen_qcqp(QcqpSpec(m=3, p=20, seed=0))
    lo, hi = prob.h.domain
    beta = 1.0
    z = rng.uniform(0, 2, size=prob.m)
    grads = [con.fn.grad for con in prob.constraints]

    def penalty_grad(x):
        coef = scalar_penalty_deriv(prob.constraint_values(x), z, beta)
        out = np.zeros(prob.dim)
        for cj, g in zip(coef, grads):
            out += cj * g(x)
        return out

    ok = True
    for _ in range(1000):
        a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
        coef = scalar_penalty_deriv(prob.constraint_values(a), z, beta)
        bound = penalty_lipschitz(coef, beta, prob)
        ok &= (np.linalg.norm(penalty_grad(b) - penalty_grad(a))
               <= bound * np.linalg.norm(b - a) + 1e-8)
        if not ok:
            break
    check(2, "penalty-gradient Lipschitz bound holds on 1000 sampled pairs", ok)


def test_criterion_3_multiplier_laws():
    # exact update values from the hand examples
    exact = (
        multiplier_step_z(np.array([0.0]), np.array([0.5]), 1.0, 1.0)[0] == 0.5
        and multiplier_step_z(np.array([1.0]), np.array([-10.0]), 1.0, 1.0)[0] == 0.0
        and multiplier_step_z(np.array([2.0]), np.array([-1.0]), 1.0, 2.0)[0] == 1.0)

    # z stays nonnegative over 1e4 iterations on every instance family
    families = {
        "bpdn": gen_bpdn(BpdnSpec(rows=10, cols=20, sparsity=3, seed=2)),
        "qcqp": gen_qcqp(QcqpSpec(m=3, p=20, seed=2)),
        "minimax": random_minimax_1d(m=3, seed=2)[1],
    }
    for kind in TINY_KINDS:
        families[kind] = tiny_reference(kind)[0]

    nonneg = True
    for name, prob in families.items():
        mins = []
        track = lambda k, s: mins.append(float(s.z.min()) if s.z.size else 0.0)
        cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=10_000,
                           record_every=10_000)
        lalm.solve(prob, cfg, x0=prob.meta.get("x0"), callback=track)
        if name in ("bpdn", "qcqp"):
            bcfg = SolverConfig(beta=1.0, max_epochs=2500,
                                record_every=2500)  # 2500 epochs x 4 blocks
            blalm.solve(prob.with_blocks(4), bcfg, x0=prob.meta.get("x0"),
                        seed=1, callback=track)
        nonneg &= min(mins) >= 0.0
    check(3, "z-update hand values exact; z >= 0 over 1e4 iterations on "
             "every instance family", exact and nonneg)


def test_criterion_4_block_solver_oracle_equivalence():
    worst = 0.0
    for kind in ("equality-qp", "scalar-qcqp"):
        prob, _ = tiny_reference(kind)
        cfg = SolverConfig(beta=1.0, rho_y=0.9, rho_z=0.9, step_mode="analytic",
                           max_epochs=100, record_every=100)
        xs_full, xs_block = [], []
        lalm.solve(prob, cfg, callback=lambda k, w: xs_full.append(w.x.copy()))
        blalm.solve(prob.with_blocks(1), cfg, seed=5,
                    callback=lambda k, s: xs_block.append(s.x.copy()))
        worst = max(worst, max(np.max(np.abs(a - b))
                               for a, b in zip(xs_full, xs_block)))
    check(4, f"single-block solver reproduces the full trajectory "
             f"(max deviation {worst:.2e} <= 1e-12)", worst <= 1e-12)


def test_criterion_5_convergence_to_hand_solutions():
    errs = {}
    for kind in TINY_KINDS:
        prob, ref = tiny_reference(kind)
        cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=10_000,
                           record_every=1000)
        res = lalm.solve(prob, cfg)
        errs[kind] = float(np.linalg.norm(res.w.x - ref.x))
    ok = all(err <= 1e-6 for err in errs.values())
    check(5, f"solver reaches hand optima within 1e4 iterations "
             f"(errors {errs})", ok)


def test_criterion_6_fejer_monotonicity():
    ok = True
    for kind in ("equality-qp", "scalar-qcqp"):
        prob, ref = tiny_reference(kind)
        cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, step_mode="analytic",
                           max_epochs=1000, record_every=1)
        vals = fejer_quantities(prob, ref, cfg, lalm.solve)
        ok &= bool(np.all(np.diff(vals) <= 1e-9 * vals[0]))
    check(6, "weighted distance to the verified KKT point is nonincreasing "
             "over 1e3 analytic iterations (slack 1e-9 of initial)", ok)


def _ergodic_curve_ok(trace, column, window):
    """O(1/k) behavior: log-log slope in [-1.3, -0.7] when the curve has
    positive samples, or an identically vanished residual (the zero-tail
    case) otherwise."""
    vals = [getattr(r, column) for r in trace
            if window[0] <= r.epoch <= window[1]]
    positives = [v for v in vals if v is not None and v > 0]
    if len(positives) >= 10:
        slope = rate_fit(trace, column, window)
        return -1.3 <= slope <= -0.7, f"slope {slope:.3f}"
    vanished = all(v is not None and v <= 1e-10 for v in vals)
    return vanished, "vanished residual"


def test_criterion_7_bpdn_reproduction(bpdn_experiment):
    window = (100, 10_000)
    details, ok = [], True
    for name in ("full", "block"):
        trace = bpdn_experiment[name].trace
        good, note = _ergodic_curve_ok(trace, "erg_obj_gap", window)
        ok &= good
        details.append(f"{name} erg-gap {note}")
        good, note = _ergodic_curve_ok(trace, "erg_feas", window)
        ok &= good
        details.append(f"{name} erg-feas {note}")
        min_feas = min(r.feas for r in trace)
        ok &= min_feas <= 1e-8
        details.append(f"{name} min-feas {min_feas:.1e}")
    check(7, "sparse-recovery reproduction: " + "; ".join(details), ok)


def test_criterion_8_qcqp_method_ordering(qcqp_experiment):
    full = first_epoch(qcqp_experiment["full"].trace, "kkt_stat", 1e-6)
    block = first_epoch(qcqp_experiment["block"].trace, "kkt_stat", 1e-6)
    base = first_epoch(qcqp_experiment["baseline"].trace, "kkt_stat", 1e-4)
    base_cmp = np.inf if base is None else base
    ok = (full is not None and block is not None
          and full < base_cmp and block < base_cmp)
    check(8, f"stationarity 1e-6 reached at epochs full={full}, block={block}; "
             f"baseline needs {base} epochs for 1e-4", ok)


def test_criterion_9_local_linear_tail(qcqp_experiment):
    details, ok = [], True
    for name in ("full", "block"):
        trace = qcqp_experiment[name].trace
        end = first_epoch(trace, "kkt_stat", 1e-11)
        ok &= end is not None
        if end is None:
            details.append(f"{name}: 1e-11 not reached")
            continue
        decade = [r for r in trace if end / 10 <= r.epoch <= end]
        stats = np.array([r.kkt_stat for r in decade])
        keep = stats > 0
        ratios = stats[1:][keep[1:] & keep[:-1]] / stats[:-1][keep[1:] & keep[:-1]]
        med = float(np.median(ratios))
        slope = rate_fit(trace, "kkt_stat", (end / 10, end))
        ok &= med < 0.999 and slope <= -2.0
        details.append(f"{name}: median ratio {med:.4f}, tail slope {slope:.1f}")
    check(9, "geometric stationarity tails: " + "; ".join(details), ok)


def test_criterion_10_minimax_matches_grid_oracle():
    diffs = []
    for seed in range(3):
        fns, prob = random_minimax_1d(m=3, seed=seed)
        xs = np.linspace(-5.0, 5.0, 100_000)[:, None]
        oracle = float(np.max(np.stack([fn.values(xs) for fn in fns]), 0).min())
        cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=20_000,
                           record_every=2000)
        res = lalm.solve(prob, cfg, x0=prob.meta["x0"])
        achieved = max(fn(res.w.x[:-1]) for fn in fns)
        diffs.append(abs(achieved - oracle))
    ok = all(d <= 1e-3 for d in diffs)
    check(10, f"minimax reformulation matches grid search "
              f"(diffs {['%.1e' % d for d in diffs]})", ok)
