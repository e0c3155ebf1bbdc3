"""Linearized augmented Lagrangian solver.

Each iteration takes one proximal gradient step on the augmented Lagrangian
in the primal variable, then ascends the equality multipliers along the new
residual and the inequality multipliers along the floored constraint
values. The primal step size 1/eta comes either from analytic curvature
bounds or from backtracking on the smooth-part descent inequality; eta
never decreases across iterations. All three solvers share ``prox_step``.
"""

from __future__ import annotations

import numbers
import typing
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import auglag
from .model import PrimalDualPoint, smooth_stack
from .trace import MetricsRecorder, SolverError, record_epochs, should_stop

# Relative slack admitted when testing the descent inequality, so that a
# step size exactly at the curvature bound is not rejected by roundoff.
_DESCENT_RTOL = 1e-12
# Candidates one backtracking step may evaluate: the first and up to 200
# step-size increases.
_MAX_TRIALS = 201
# Each backtracking increase multiplies eta by this factor.
_BACKTRACK_FACTOR = 1.5


def check_types(values, hints):
    """Refuse, with a ValueError naming the key, each value that its
    annotation in ``hints`` does not admit. int admits any integer and float
    any real number, neither a bool; Optional admits None, and tuple[...]
    a list or tuple of that length, item by item."""
    for key, value in values.items():
        if not _admits(hints[key], value):
            raise ValueError(f"{key} must be {_describe(hints[key])}, not {value!r}")


def _admits(hint, value):
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_admits, args, value)))
    kinds = tuple({int: numbers.Integral, float: numbers.Real}.get(a, a)
                  for a in args or (hint,))
    return isinstance(value, kinds) and not (isinstance(value, bool)
                                             and bool not in kinds)


def _describe(hint):
    if typing.get_origin(hint) is tuple:
        return str(hint)
    return " or ".join("None" if a is type(None) else a.__name__
                       for a in typing.get_args(hint) or (hint,))


@dataclass
class SolverConfig:
    """Parameters shared by the full-vector and block solvers.

    rho_y and rho_z default to beta for the full-vector solver and to
    beta/n_blocks for the block solver; both must lie in (0, beta] so the
    inequality multipliers stay nonnegative. In backtracking mode the trial
    step starts from eta0 (positive; default max(1, L_g) when L_g is known,
    else 1) and is multiplied by 1.5 until the descent inequality holds.
    tol <= 0 disables early stopping. Every value and its type are checked
    here, at construction.
    """

    beta: float = 1.0
    rho_y: Optional[float] = None
    rho_z: Optional[float] = None
    delta: float = 0.0
    step_mode: str = "backtracking"
    eta0: Optional[float] = None
    max_epochs: int = 1000
    tol: float = 0.0
    record_every: Optional[int] = None

    def __post_init__(self):
        check_types(vars(self), typing.get_type_hints(SolverConfig))
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        for name in ("rho_y", "rho_z"):
            rho = getattr(self, name)
            if rho is not None and not 0 < rho <= self.beta:
                raise ValueError(f"{name}={rho} must lie in (0, beta]")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.step_mode not in ("analytic", "backtracking"):
            raise ValueError("step_mode must be 'analytic' or 'backtracking'")
        if self.eta0 is not None and self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    def resolve_rho(self, n_blocks=1):
        """(rho_y, rho_z), each beta/n_blocks when unset."""
        return (self.beta / n_blocks if self.rho_y is None else self.rho_y,
                self.beta / n_blocks if self.rho_z is None else self.rho_z)

    def eta_seed(self, prob):
        """Initial backtracking step-size guess."""
        if self.eta0 is not None:
            return self.eta0
        if prob.g.lipschitz is not None:
            return max(1.0, prob.g.lipschitz)
        return 1.0


class ErgodicAccumulator:
    """Running weighted sum of primal iterates; never stores the history.

    ``add`` also sums, with the same weights and in place in an array of its
    own, an ``image`` of each iterate (a smooth stack's ``image`` of the
    solve's tracker: the stacked ``Q x`` for quadratics), so ``point`` gives
    an ergodic point together with the stack's values there without
    evaluating the stack at it.
    """

    def __init__(self, dim):
        self._sum = np.zeros(dim)
        self.weight = 0.0
        self.count = 0

    def add(self, x, weight=1.0, image=0.0):
        if weight <= 0:
            raise ValueError("accumulation weight must be positive")
        self._sum += weight * x
        if self.count == 0:
            self._image = np.zeros(np.shape(image))
        self._image += weight * image
        self.weight += weight
        self.count += 1

    def average(self):
        """Weighted average sum / total weight."""
        return self.scaled(self.weight)

    def scaled(self, normalizer):
        """Running sum divided by an explicit normalizer."""
        if self.count == 0:
            raise ValueError("no iterates accumulated")
        return self._sum / normalizer

    def point(self, stack, normalizer=None):
        """(x, stack values at x) for x = sum / normalizer, by default the
        weighted average; the values come from the summed images."""
        total = self.weight if normalizer is None else normalizer
        x = self.scaled(total)
        return x, stack.values_from_image(x, self._image / total)


@dataclass
class SolveResult:
    """Final iterates, ergodic point, and the recorded trace."""

    w: PrimalDualPoint
    ergodic_x: Optional[np.ndarray]
    trace: list
    epochs: int
    stopped_early: bool
    eta: float
    # Block solver only: running sum divided by 1 + k/n instead of by the
    # iterate count (the two normalizations differ by a factor approaching n).
    ergodic_x_scaled: Optional[np.ndarray] = None


def multiplier_step_y(y, r_new, rho_y):
    """Equality multiplier ascent y + rho_y * (A x_new - b)."""
    return y + rho_y * r_new


def multiplier_step_z(z, fvals_new, rho_z, beta):
    """Floored inequality multiplier ascent.

    Componentwise z_j + rho_z * max(-z_j / beta, f_j(x_new)), which is
    nonnegative whenever rho_z <= beta. In floating point z - rho_z * (z /
    beta) can round to a tiny negative number (with rho_z = beta = 0.1, in
    about 4% of the steps that take the -z_j / beta branch), so the result
    is floored at zero.
    """
    if len(z) == 0:
        return z
    return np.maximum(z + rho_z * np.maximum(-z / beta, fvals_new), 0.0)


def analytic_eta(eta_prev, coef, beta, delta, prob, norm_sq):
    """Monotone analytic step bound max(eta_prev, L_F + delta), with L_F the
    smooth-part bound at weights coef = [beta f + z]_+ over equality columns
    of squared norm ``norm_sq``."""
    return max(eta_prev, auglag.smooth_lipschitz(coef, beta, prob, norm_sq) + delta)


def descent_holds(value_new, value_base, inner, eta, step_sq):
    """Smooth-part descent test value_new <= base + inner + (eta/2)||dx||^2,
    with a tiny relative slack for roundoff."""
    bound = value_base + inner + 0.5 * eta * step_sq
    slack = _DESCENT_RTOL * max(1.0, abs(value_base), abs(bound))
    return value_new <= bound + slack


def prox_step(x, grad, eta, prox, trial, base, config):
    """Every solver's primal step: the candidate prox(x - grad/eta, 1/eta).

    ``trial(candidate)`` moves the caller's trial state there (a rebased
    tracker) and returns a function giving the smooth value at it; ``base()``
    gives the value at x and is called before any trial. Analytic mode takes
    the first candidate and asks for no value. Backtracking grows eta by
    _BACKTRACK_FACTOR until the descent test holds, or raises SolverError
    after _MAX_TRIALS - 1 increases, or at once on a non-finite grad. Returns
    (eta, candidate, its value or None in analytic mode, increases made).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if not np.isfinite(grad).all():
        raise SolverError("non-finite gradient of the smooth part")
    analytic = config.step_mode == "analytic"
    base_value = None if analytic else base()
    for k in range(_MAX_TRIALS):
        x_new = prox(x - grad / eta, 1.0 / eta)
        value = trial(x_new)
        if analytic:
            return eta, x_new, None, k
        val = value()
        dx = x_new - x
        if np.isfinite(val) and descent_holds(val, base_value, float(grad @ dx),
                                              eta, float(dx @ dx)):
            return eta, x_new, val, k
        eta *= _BACKTRACK_FACTOR
    raise SolverError(f"backtracking failed after {_MAX_TRIALS - 1} step-size "
                      "increases; oracle values may be non-finite")


def backtrack_primal(w, grad, eta_start, config, prob, tracker):
    """lalm's primal update: ``prox_step`` from w, each trial rebasing
    ``tracker`` (the smooth stack's, based at w.x) at its candidate, so it
    ends at x_new. Values come from the tracker, the residual and w's
    multipliers, with one penalty floor of w.z. Returns (eta, x_new, r_new,
    fvals_new, smooth_new, trials), smooth_new None in analytic mode."""
    beta, r = config.beta, w.r
    floor = (auglag.penalty_floor(w.z, beta)
             if prob.m and config.step_mode == "backtracking" else None)

    def value():
        vals = tracker.value
        penalties = (auglag.penalty_terms(vals[1:], w.z, beta, floor)[1]
                     if prob.m else None)
        return auglag.smooth_value(vals[0], w.y, None if prob.affine.is_empty else r,
                                   penalties, beta)

    def trial(x_new):
        nonlocal r
        tracker.rebase(x_new)
        r = prob.affine.residual(x_new)
        return value

    eta, x_new, val, trials = prox_step(w.x, grad, eta_start, prob.h.prox, trial,
                                        value, config)
    return eta, x_new, r, tracker.value[1:], val, trials


def run_epochs(prob, config, advance, snapshot):
    """Every solver's epoch loop; returns (records, epochs, stopped early).

    ``advance(epoch)`` moves the solver to ``epoch`` and returns (x, stack
    values at x), and ``snapshot(epoch)`` records x at epoch 0 and on the
    schedule. A SolverError, also one for a non-finite x or value, or for a
    non-finite gradient at a recorded epoch, carries the records made so far.
    """
    schedule = record_epochs(config.max_epochs, config.record_every)
    records = [snapshot(0)]
    have_reference = prob.f0_star is not None
    try:
        for epoch in range(1, config.max_epochs + 1):
            x, values = advance(epoch)
            if not (np.isfinite(x).all() and np.isfinite(values).all()):
                raise SolverError(
                    f"non-finite iterate or oracle value at epoch {epoch}")
            if epoch in schedule:
                rec = snapshot(epoch)
                records.append(rec)
                if config.tol > 0 and should_stop(rec, config.tol, have_reference):
                    return records, epoch, True
    except SolverError as exc:
        exc.records = records
        raise
    return records, config.max_epochs, False


def solve(prob, config, x0=None, y0=None, z0=None, callback=None, clock=None):
    """Run the full-vector solver.

    Parameters
    ----------
    prob : ProblemInstance
    config : SolverConfig
        One epoch equals one iteration here.
    x0, y0, z0 : arrays, optional
        Starting point (defaults to zeros; z0 must be nonnegative).
    callback : callable, optional
        Invoked as callback(iteration, w) after every iteration.
    clock : callable, optional
        Wall-clock source for trace timestamps (testing hook).

    Returns
    -------
    SolveResult with the final triple, the 1/eta-weighted ergodic average,
    and the trace, whose records carry the method label "lalm".
    """
    w = PrimalDualPoint.at(prob, x0, y0, z0)
    rho_y, rho_z = config.resolve_rho(n_blocks=1)
    beta, delta = config.beta, config.delta
    analytic = config.step_mode == "analytic"
    eta = 0.0 if analytic else config.eta_seed(prob)
    # One tracker of the smooth stack, based at the current iterate, gives
    # the values and gradients of g and every constraint.
    stack = smooth_stack(prob)
    tracker = stack.tracker(w.x)
    w.fvals = tracker.value[1:]
    A = None if prob.affine.is_empty else prob.affine.A
    # The gradients at the current iterate serve both the recorder and the
    # next step.
    grads = tracker.grad()
    acc = ErgodicAccumulator(prob.dim)
    recorder = MetricsRecorder(prob, "lalm", stack, clock=clock)

    def advance(epoch):
        nonlocal w, eta, grads
        # the weights [beta f + z]_+ of the gradient and the analytic bound
        coef = None
        if prob.m:
            coef = np.maximum(auglag.penalty_terms(w.fvals, w.z, beta)[0], 0.0)
        grad = auglag.smooth_grad(grads, A, w.y, w.r, coef, beta)
        if analytic:
            eta = analytic_eta(eta, coef, beta, delta, prob, prob.affine.op_norm_sq())
        eta, x_new, r_new, fvals_new, _, _ = backtrack_primal(
            w, grad, eta, config, prob, tracker)
        y_new = multiplier_step_y(w.y, r_new, rho_y)
        z_new = multiplier_step_z(w.z, fvals_new, rho_z, beta)
        w = PrimalDualPoint(x_new, y_new, z_new, r_new, fvals_new)
        # the tracker is based at x_new: its image and gradients are x_new's
        acc.add(x_new, 1.0 / eta, stack.image(tracker))
        grads = tracker.grad()
        if callback is not None:
            callback(epoch, w)
        return x_new, tracker.value

    def snapshot(epoch):
        return recorder.snapshot(epoch, w, eta_max=eta if epoch else None,
                                 ergodic=acc.point(stack) if epoch else None,
                                 value_grad=(tracker.value, grads))

    records, epochs, stopped = run_epochs(prob, config, advance, snapshot)
    return SolveResult(w=w, ergodic_x=acc.average(), trace=records,
                       epochs=epochs, stopped_early=stopped, eta=eta)
