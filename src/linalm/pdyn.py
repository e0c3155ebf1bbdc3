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

# descent_holds is not used here: perfbench/tracing.py wraps this module's copy
from .lalm import SolveResult, descent_holds, prox_step, run_epochs  # noqa: F401
from .model import PrimalDualPoint, checked_start, smooth_stack
from .trace import MetricsRecorder


# The record and the next step's direction read the whole stacked gradient
# through this one slice object, so they share the tracker's one sum.
_WHOLE = slice(None)


@dataclass
class PdynState:
    """Mutable per-solve state, read like ``BlockState``: x, the queues lam,
    the step parameter eta and the tracker at x of the smooth stack (its
    ``fn``), which ``step`` moves in place; fvals, z = [lam + f]_+, and y
    and r, which without equality rows are empty (one shared array)."""

    x: np.ndarray
    lam: np.ndarray
    eta: float
    tracker: object
    y = r = np.zeros(0)

    @classmethod
    def start(cls, prob, x0, eta):
        x0 = checked_start(prob, x0, None, None)[0]
        tracker = smooth_stack(prob).tracker(x0)
        return cls(x0, np.maximum(0.0, -tracker.value[1:]), eta, tracker)

    @property
    def fvals(self):
        """Constraint values at x, as the tracker holds them."""
        return self.tracker.value[1:]

    @property
    def z(self):
        """The reported inequality multipliers [lambda + f(x)]_+."""
        return np.maximum(self.lam + self.fvals, 0.0)


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
    grads = state.tracker.block_grad(_WHOLE)
    z = state.lam + state.fvals
    return grads[0] + z @ grads[1:], z


def _phi(tracker, z):
    """phi(x, z) = f0(x) + sum_j z_j f_j(x) at the tracker's point x."""
    return tracker.value[0] + float(z @ tracker.value[1:])


def step(state, prob, config):
    """One primal projection step plus the queue update, in place: x, lam
    and eta move, and the tracker with x.

    The step is ``prox_step`` on phi(., z), which is evaluated at x only
    when backtracking; each trial rebases the tracker at its candidate, so
    the one taken leaves it at the new x.
    """
    tracker = state.tracker
    fvals = state.fvals  # pre-step values: a rebase assigns a new array
    grad, z = direction(state)
    base = None if config.step_mode == "analytic" else _phi(tracker, z)

    def trial(x_new, dx):
        tracker.rebase(x_new)
        return None if base is None else _phi(tracker, z)

    state.eta, state.x, _ = prox_step(state.x, grad, state.eta, prob.h.prox,
                                      trial, base)
    state.lam = np.maximum(-fvals, state.lam + fvals)


def solve(prob, config, x0=None, callback=None):
    """Run the baseline for config.max_epochs iterations (one epoch each).

    step_mode 'backtracking' adapts eta; 'analytic' keeps it fixed at eta0
    (which is then required). Metrics share the schema of the other solvers,
    with inequality multipliers reported as [lambda_j + f_j(x)]_+ and the
    method label "pdyn". Setting rho_y, rho_z or a nonzero delta, which it
    does not use, is an error. ``callback(iteration, state)`` runs after
    every iteration with the live ``PdynState``: copy what you keep
    (``PrimalDualPoint.of(state)`` copies the point).
    """
    _check_applicable(prob)
    for name in ("rho_y", "rho_z", "delta"):
        if getattr(config, name) not in (None, 0):
            raise ValueError(f"pdyn does not use {name}; leave it unset")
    if config.step_mode == "analytic" and config.eta0 is None:
        raise ValueError("fixed-step mode requires eta0")
    state = PdynState.start(prob, x0, config.eta_seed(prob))
    tracker = state.tracker
    recorder = MetricsRecorder(prob, "pdyn", tracker.fn)

    def advance(epoch):
        step(state, prob, config)
        if callback is not None:
            callback(epoch, state)
        return state.x, tracker.value

    def snapshot(epoch):
        return recorder.snapshot(epoch, state, eta_max=state.eta if epoch else None,
                                 value_grad=(tracker.value, tracker.block_grad(_WHOLE)))

    records, epochs, stopped = run_epochs(prob, config, advance, snapshot)
    return SolveResult(w=PrimalDualPoint.of(state), ergodic_x=None, trace=records,
                       epochs=epochs, stopped_early=stopped, eta=state.eta)
