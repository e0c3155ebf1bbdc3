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

from .lalm import SolveResult, SolverError, descent_holds, run_epochs
from .model import PrimalDualPoint, smooth_stack
from .trace import MetricsRecorder


@dataclass
class PdynState:
    """Primal iterate, virtual queues, the current step parameter, and the
    smooth stack's tracker, which ``step`` moves on to the state it returns."""

    x: np.ndarray
    lam: np.ndarray
    eta: float
    tracker: object

    @classmethod
    def start(cls, prob, x0, eta, stack=None):
        x0 = np.array(x0, dtype=float).ravel()
        tracker = (smooth_stack(prob) if stack is None else stack).tracker(x0)
        return cls(x0, np.maximum(0.0, -tracker.value[1:]), eta, tracker)


def _check_applicable(prob):
    if not prob.affine.is_empty:
        raise ValueError("this baseline handles problems without equality "
                         "constraints")
    if not prob.h.is_indicator:
        raise ValueError("this baseline requires h to be a set indicator "
                         "with available projection")


def direction(state):
    """Multiplier-weighted gradient grad f0 + sum_j (lambda_j + f_j) grad f_j
    at the tracker's point; returns it with z = lambda + f."""
    grads = state.tracker.grad()
    z = state.lam + state.tracker.value[1:]
    return grads[0] + z @ grads[1:], z


def _phi(tracker, z, x=None):
    """phi(x, z) = f0(x) + sum_j z_j f_j(x) from the tracker's values, after
    rebasing it at x when x is given."""
    if x is not None:
        tracker.rebase(x)
    return tracker.value[0] + float(z @ tracker.value[1:])


def step(state, prob, config, max_trials=201):
    """One primal projection step plus the queue update; returns a new state.

    In backtracking mode eta grows geometrically until the quadratic upper
    model of phi(., z) at the current point dominates the candidate value;
    eta never decreases across iterations. Each trial rebases the tracker at
    its candidate, so the accepted one leaves it at the new iterate.
    """
    tracker = state.tracker
    fvals = tracker.value[1:]  # pre-step values: a rebase assigns a new array
    grad, z = direction(state)
    eta = state.eta
    if config.step_mode == "backtracking":
        base = _phi(tracker, z)
        for trial in range(max_trials):
            x_new = prob.h.prox(state.x - grad / eta, 1.0 / eta)
            dx = x_new - state.x
            val = _phi(tracker, z, x_new)
            if np.isfinite(val) and descent_holds(val, base, float(grad @ dx),
                                                  eta, float(dx @ dx)):
                break
            eta *= config.backtrack_factor
        else:
            raise SolverError(f"backtracking failed after {max_trials - 1} "
                              "step-size increases")
    else:
        x_new = prob.h.prox(state.x - grad / eta, 1.0 / eta)
        tracker.rebase(x_new)
    lam_new = np.maximum(-fvals, state.lam + fvals)
    return PdynState(x_new, lam_new, eta, tracker)


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
    if config.step_mode == "analytic" and config.eta0 is None:
        raise ValueError("fixed-step mode requires eta0")
    stack = smooth_stack(prob)
    state = PdynState.start(prob, np.zeros(prob.dim) if x0 is None else x0,
                            config.eta_seed(prob), stack)
    recorder = MetricsRecorder(prob, method_label, f0_star=prob.f0_star, clock=clock,
                               stack=stack)

    def point():
        fvals = state.tracker.value[1:]
        return PrimalDualPoint(state.x.copy(), np.zeros(0),
                               np.maximum(state.lam + fvals, 0.0),
                               np.zeros(0), fvals.copy())

    def advance(epoch):
        nonlocal state
        state = step(state, prob, config)
        if not (np.all(np.isfinite(state.x))
                and np.isfinite(state.tracker.value[0])):
            raise SolverError(f"non-finite iterate at iteration {epoch - 1}")
        if callback is not None:
            callback(epoch, state)

    def snapshot(epoch):
        tracker = state.tracker
        return recorder.snapshot(epoch, point(), eta_max=state.eta if epoch else None,
                                 value_grad=(tracker.value, tracker.grad()))

    records, epochs, stopped = run_epochs(prob, config, advance, snapshot)
    return SolveResult(w=point(), ergodic_x=None, trace=records, epochs=epochs,
                       stopped_early=stopped, eta=state.eta,
                       extras={"lam": state.lam.copy()})
