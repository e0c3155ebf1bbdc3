"""Projected primal-dual baseline with virtual-queue multipliers.

Applies to smooth problems over a projectable set (h an indicator) with no
equality constraints. Each iteration moves the primal variable along the
multiplier-weighted gradient of phi(x, z) = f0(x) + sum_j z_j f_j(x) with
z_j = lambda_j + f_j(x), projects onto the set, then updates the queues
lambda_j = max(-f_j(x), lambda_j + f_j(x)) using the pre-step constraint
values. The step 1/eta is either fixed or grown by backtracking on phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lalm import SolveResult, SolverError, descent_holds
from .model import PrimalDualPoint, smooth_stack
from .trace import MetricsRecorder, record_epochs, should_stop


@dataclass
class PdynState:
    """Primal iterate, virtual queues, and the current step parameter."""

    x: np.ndarray
    lam: np.ndarray
    eta: float

    @classmethod
    def start(cls, prob, x0, eta):
        x0 = np.array(x0, dtype=float).ravel()
        lam = np.maximum(0.0, -prob.constraint_values(x0))
        return cls(x0, lam, eta)


def _check_applicable(prob):
    if not prob.affine.is_empty:
        raise ValueError("this baseline handles problems without equality "
                         "constraints")
    if not prob.h.is_indicator:
        raise ValueError("this baseline requires h to be a set indicator "
                         "with available projection")


def direction(state, prob, fvals=None):
    """Multiplier-weighted gradient grad f0 + sum_j (lambda_j + f_j) grad f_j."""
    fvals = prob.constraint_values(state.x) if fvals is None else fvals
    z = state.lam + fvals
    grad = prob.g.grad(state.x)
    for zj, con in zip(z, prob.constraints):
        grad = grad + zj * con.grad(state.x)
    return grad, z


def _phi(x, z, prob):
    val = prob.g(x)
    if prob.m:
        val += float(z @ prob.constraint_values(x))
    return val


def step(state, prob, config, fvals=None, max_trials=201):
    """One primal projection step plus the queue update; returns a new state.

    In backtracking mode eta grows geometrically until the quadratic upper
    model of phi(., z) at the current point dominates the candidate value;
    eta never decreases across iterations.
    """
    fvals = prob.constraint_values(state.x) if fvals is None else fvals
    grad, z = direction(state, prob, fvals=fvals)
    eta = state.eta
    if config.step_mode == "backtracking":
        base = _phi(state.x, z, prob)
        for trial in range(max_trials):
            x_new = prob.h.prox(state.x - grad / eta, 1.0 / eta)
            dx = x_new - state.x
            val = _phi(x_new, z, prob)
            if np.isfinite(val) and descent_holds(val, base, float(grad @ dx),
                                                  eta, float(dx @ dx)):
                break
            eta *= config.backtrack_factor
        else:
            raise SolverError(f"backtracking failed after {max_trials - 1} "
                              "step-size increases")
    else:
        x_new = prob.h.prox(state.x - grad / eta, 1.0 / eta)
    lam_new = np.maximum(-fvals, state.lam + fvals)
    return PdynState(x_new, lam_new, eta)


def solve(prob, config, x0=None, callback=None, clock=None,
          method_label="pdyn"):
    """Run the baseline for config.max_epochs iterations (one epoch each).

    step_mode 'backtracking' adapts eta; 'analytic' keeps it fixed at eta0
    (which is then required). Metrics share the schema of the other solvers,
    with inequality multipliers reported as [lambda_j + f_j(x)]_+. Setting
    rho_y, rho_z or a nonzero delta, which it does not use, is an error.
    """
    _check_applicable(prob)
    for name in ("rho_y", "rho_z", "delta"):
        if getattr(config, name) not in (None, 0):
            raise ValueError(f"pdyn does not use {name}; leave it unset")
    if config.step_mode == "analytic":
        if config.eta0 is None:
            raise ValueError("fixed-step mode requires eta0")
        eta = config.eta0
    else:
        eta = config.eta_seed(prob)
    state = PdynState.start(prob, np.zeros(prob.dim) if x0 is None else x0, eta)

    recorder = MetricsRecorder(prob, method_label, f0_star=prob.f0_star, clock=clock,
                               stack=smooth_stack(prob))
    schedule = record_epochs(config.max_epochs, config.record_every)

    def snapshot(epoch, fvals, eta_max=None):
        w = PrimalDualPoint(state.x.copy(), np.zeros(0),
                            np.maximum(state.lam + fvals, 0.0),
                            np.zeros(0), fvals.copy())
        return recorder.snapshot(epoch, w, eta_max=eta_max)

    fvals = prob.constraint_values(state.x)
    records = [snapshot(0, fvals)]
    stopped = False
    epoch = 0

    for k in range(config.max_epochs):
        state = step(state, prob, config, fvals=fvals)
        fvals = prob.constraint_values(state.x)
        epoch = k + 1
        if callback is not None:
            callback(epoch, state)
        if epoch in schedule:
            rec = snapshot(epoch, fvals, eta_max=state.eta)
            records.append(rec)
            if config.tol > 0 and should_stop(rec, config.tol,
                                              prob.f0_star is not None):
                stopped = True
                break

    w = PrimalDualPoint(state.x.copy(), np.zeros(0),
                        np.maximum(state.lam + fvals, 0.0),
                        np.zeros(0), fvals)
    return SolveResult(w=w, ergodic_x=None, trace=records, epochs=epoch,
                       stopped_early=stopped, eta=state.eta,
                       extras={"lam": state.lam.copy()})
