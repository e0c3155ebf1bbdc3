"""Linearized augmented Lagrangian solver.

Each iteration takes one proximal gradient step on the augmented Lagrangian
in the primal variable, then ascends the equality multipliers along the new
residual and the inequality multipliers along the floored constraint
values. The primal step size 1/eta comes either from analytic curvature
bounds or from backtracking on the smooth-part descent inequality; eta
never decreases across iterations. The iteration is ``BlockState``'s, and
one driver runs it for both linearized solvers: here on one full-width
block, in blalm on a partition. The block width decides the rest (see
``_drive``). All three solvers share ``prox_step`` and ``run_epochs``.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import auglag
from .model import (PrimalDualPoint, checked_start, operator_norm_sq,
                    smooth_stack)
from .trace import MetricsRecorder, SolverError, record_epochs, should_stop

# Relative slack admitted when testing the descent inequality, so that a
# step size exactly at the curvature bound is not rejected by roundoff.
_DESCENT_RTOL = 1e-12
# Candidates one backtracking step may evaluate: the first and up to 200
# step-size increases.
_MAX_TRIALS = 201
# Each backtracking increase multiplies eta by this factor.
_BACKTRACK_FACTOR = 1.5
# True when every entry of a boolean array is: the ufunc reduction that
# ndarray.all wraps, called directly.
_all = np.logical_and.reduce
# A narrow-block solve recomputes its incremental state from scratch this
# often, in epochs, to bound floating-point drift.
_REFRESH_EPOCHS = 10


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
            raise ValueError(f"delta={self.delta} must be nonnegative")
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
    own, an ``image`` of each iterate (its tracker's: the stacked ``Q x``
    for quadratics), so ``point`` gives an ergodic point together with the
    stack's values there without evaluating the stack at it.
    """

    def __init__(self, dim):
        self._sum = np.zeros(dim)
        self.weight = 0.0

    def add(self, x, weight=1.0, image=0.0):
        if weight <= 0:
            raise ValueError(f"accumulation weight {weight} must be positive")
        if self.weight == 0:
            self._image = np.zeros(np.shape(image))
        if weight != 1.0:   # 1.0 * v is v: blalm's unit weights multiply nothing
            x, image = weight * x, weight * image
        self._sum += x
        self._image += image
        self.weight += weight

    def average(self):
        """Weighted average sum / total weight."""
        if self.weight == 0:
            raise ValueError("no iterates accumulated")
        return self._sum / self.weight

    def point(self, stack):
        """(x, stack values at x) for the weighted average x; the values come
        from the summed images."""
        x = self.average()
        return x, stack.values_from_image(x, self._image / self.weight)


@dataclass
class SolveResult:
    """Final iterates, ergodic point, and the recorded trace."""

    w: PrimalDualPoint
    ergodic_x: Optional[np.ndarray]
    trace: list
    epochs: int
    stopped_early: bool
    eta: float


def multiplier_step_y(y, r_new, rho_y):
    """Equality multiplier ascent y + rho_y * (A x_new - b)."""
    return y + rho_y * r_new


def multiplier_step_z(z, fvals_new, rho_z, beta, clipped=None):
    """Floored inequality multiplier ascent.

    Componentwise z_j + rho_z * max(-z_j / beta, f_j(x_new)), which is
    nonnegative whenever rho_z <= beta. In floating point z - rho_z * (z /
    beta) can round to a tiny negative number (with rho_z = beta = 0.1, in
    about 4% of the steps that take the -z_j / beta branch), so the result
    is floored at zero. ``clipped`` is max(-z / beta, fvals_new) when the
    caller has it: ``apply_block``'s, from the candidate's valuation.
    """
    if clipped is None:
        if not z.size:
            return z
        clipped = np.maximum(-z / beta, fvals_new)
    return np.maximum(z + rho_z * clipped, 0.0)


def analytic_eta(eta_prev, coef, beta, delta, prob, norm_sq):
    """Monotone analytic step bound max(eta_prev, L_F + delta), with L_F the
    smooth-part bound at weights coef = [beta f + z]_+ over equality columns
    of squared norm ``norm_sq``."""
    return max(eta_prev, auglag.smooth_lipschitz(coef, beta, prob, norm_sq) + delta)


def descent_holds(value_new, value_base, inner, eta, step_sq):
    """Smooth-part descent test value_new <= base + inner + (eta/2)||dx||^2,
    with a tiny nonnegative relative slack for roundoff, formed only when
    the test fails without it."""
    bound = value_base + inner + 0.5 * eta * step_sq
    return value_new <= bound or value_new <= bound + _DESCENT_RTOL * max(
        1.0, abs(value_base), abs(bound))


def prox_step(x, grad, eta, prox, trial, base):
    """Every solver's primal step: the candidate prox(x - grad/eta, 1/eta).

    ``trial(candidate, dx)``, with dx = candidate - x, moves the caller's
    trial state there (a rebased tracker) and returns the smooth value at it
    as a float. ``base`` is the smooth value at x, or None in analytic mode,
    which takes the first candidate, whose trial values nothing. Backtracking
    grows eta by _BACKTRACK_FACTOR until the descent test holds, or raises
    SolverError after _MAX_TRIALS - 1 increases, or after the first rejected
    trial on a non-finite grad (analytic mode: before any trial); such a grad
    makes each candidate's value or grad.dx NaN or infinite, so the test
    rejects it. Returns (eta, candidate, increases made).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if base is None and not _all(np.isfinite(grad)):
        raise SolverError("non-finite gradient of the smooth part")
    for k in range(_MAX_TRIALS):
        x_new = prox(x - grad / eta, 1.0 / eta)
        dx = x_new - x
        val = trial(x_new, dx)
        if base is None:
            return eta, x_new, k
        if math.isfinite(val) and descent_holds(val, base, float(grad.dot(dx)),
                                                eta, float(dx.dot(dx))):
            return eta, x_new, k
        if not _all(np.isfinite(grad)):
            raise SolverError("non-finite gradient of the smooth part")
        eta *= _BACKTRACK_FACTOR
    raise SolverError(f"backtracking failed after {_MAX_TRIALS - 1} step-size "
                      "increases; oracle values may be non-finite")


class BlockState:
    """Mutable per-solve state: iterates, caches, the tracker, and the sampler.

    The blocks are ``prob.blocks``; lalm's one full-width block uses h
    itself, so h needs no block split. ``PrimalDualPoint.of`` detaches x, y,
    z, r and fvals.
    """

    def __init__(self, prob, config, x0=None, y0=None, z0=None, seed=0):
        self.blocks = prob.blocks
        if self.blocks is None:
            raise ValueError("block solver requires a block partition; "
                             "use ProblemInstance.with_blocks(n)")
        self.prob = prob
        self.config = config
        n = len(self.blocks)
        self.full_width = n == 1   # the blocks partition [0, dim)
        self.h_blocks = ([prob.h] if self.full_width
                         else [prob.h.block(sl) for sl in self.blocks])
        if any(hb is None for hb in self.h_blocks):
            raise ValueError("h is not separable across the block partition")

        self.x, self.y, self.z = checked_start(prob, x0, y0, z0)
        self.r = prob.affine.residual(self.x)
        # One tracker of the smooth stack serves g and every constraint.
        self.tracker = smooth_stack(prob).tracker(self.x)
        # Each block's columns of A, as views; each None without equality rows.
        self.A_blocks = [None if prob.affine.is_empty else prob.affine.A[:, sl]
                         for sl in self.blocks]

        self.analytic = config.step_mode == "analytic"
        seed_eta = 0.0 if self.analytic else config.eta_seed(prob)
        self.eta = np.full(n, seed_eta)
        # Each block's squared equality-column norm, which only analytic
        # step bounds read (a full-width block: the instance's cached
        # ||A||^2); None when backtracking.
        self.block_norm_sq = np.array(
            [prob.affine.norm_sq] if self.full_width else
            [operator_norm_sq(prob.affine.A[:, sl]) for sl in self.blocks]
        ) if self.analytic else None
        self.rng = np.random.default_rng(seed)
        self.last_trials = 0

    @property
    def fvals(self):
        """Constraint values at x, as the tracker holds them."""
        return self.tracker.value[1:]

    def draw_epoch(self):
        """The block indices of one epoch: n uniform draws, n the number of
        blocks, deterministic under a fixed seed. One ``integers(n, size=n)``
        call gives the same stream as n scalar ``integers(n)`` calls. The one
        full-width block is drawn without the rng.
        """
        if self.full_width:
            return (0,)
        n = len(self.blocks)
        return self.rng.integers(n, size=n).tolist()

    def block_gradient(self, i):
        """Block i of the smooth-part gradient, assembled from the tracker.

        Begins an iteration with one ``auglag.iteration_terms`` pass over
        (f, z): its weights give the gradient and, in analytic mode, block
        i's step bound, set here (monotone across iterations). Returns
        (grad, floor, base), the pass's floor and base value going on to
        ``backtrack_block``. z and y stay fixed until ``apply_block`` or
        ``refresh`` ends the iteration.
        """
        beta, A_i = self.config.beta, self.A_blocks[i]
        coef, floor, base = auglag.iteration_terms(
            self.tracker.value, self.y, None if A_i is None else self.r, self.z,
            beta, not self.analytic)
        if self.analytic:
            self.eta[i] = analytic_eta(self.eta[i], coef, beta, self.config.delta,
                                       self.prob, self.block_norm_sq[i])
        return (auglag.smooth_grad_block(self.tracker.block_grad(self.blocks[i]),
                                         A_i, self.y, self.r, coef, beta),
                floor, base)

    def backtrack_block(self, i, grad_blk, floor, base):
        """Block i's primal update: ``prox_step`` on that block from
        ``block_gradient``'s (grad, floor, base). A full-width trial refreshes
        the state at its candidate (one rebase) and values it there; a
        narrower one moves nothing and, in both step modes, takes the stack's
        values there from the tracker's ``delta_value`` (analytic mode's
        values no candidate).

        Returns (eta_i, step), step the accepted candidate's trial as
        ``apply_block`` takes it: (block value, A_i dx, stack values, tracker
        products, clipped values w), each None where the trial formed none.
        The accepted eta persists for block i across iterations, and
        ``last_trials`` counts its increases.
        """
        sl = self.blocks[i]
        A_i, tracker, beta = self.A_blocks[i], self.tracker, self.config.beta
        step = None

        if self.full_width:
            def trial(x_new, dx):
                nonlocal step
                self.x = x_new
                self.refresh()
                value, w = (None, None) if base is None else auglag.candidate_value(
                    tracker.value, self.y, None if A_i is None else self.r,
                    self.z, beta, floor)
                step = (x_new, None, None, None, w)
                return value
        else:
            def trial(blk_new, dx):
                nonlocal step
                dr = None if A_i is None else A_i @ dx
                delta, products = tracker.delta_value(sl, dx)
                vals = tracker.value + delta
                value, w = (None, None) if base is None else auglag.candidate_value(
                    vals, self.y, None if dr is None else self.r + dr, self.z,
                    beta, floor)
                step = (blk_new, dr, vals, products, w)
                return value

        eta, _, self.last_trials = prox_step(
            self.x[sl], grad_blk, float(self.eta[i]), self.h_blocks[i].prox,
            trial, base)
        self.eta[i] = eta
        return eta, step

    def apply_block(self, i, step):
        """Commit block i's ``step`` from ``backtrack_block``: x, residual,
        and constraint values.

        The state is already at a full-width candidate. A narrower one
        brings its A_i dx, and the stack values and products of its trial,
        which the tracker's commit takes. Ends the iteration, returning the
        clipped values w of the candidate's valuation for the z step, else
        None.
        """
        blk_new, dr, vals, products, w = step
        if not self.full_width:
            if dr is not None:
                self.r += dr
            sl = self.blocks[i]
            self.tracker.commit(sl, vals, products)
            self.x[sl] = blk_new
        return w

    def refresh(self):
        """Recompute the residual (empty without equality rows), constraint
        values, and the tracker from scratch."""
        if self.A_blocks[0] is not None:
            self.r = self.prob.affine.residual(self.x)
        self.tracker.rebase(self.x)


# perfbench/tracing.py wraps this name (span "lalm.backtrack"); lalm's step
# is BlockState.backtrack_block on its one full-width block.
backtrack_primal = BlockState.backtrack_block


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
            if not (_all(np.isfinite(x)) and _all(np.isfinite(values))):
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


def _drive(state, method, weight_by_eta, callback, clock):
    """lalm's and blalm's solve on a ready ``BlockState``.

    An epoch is ``draw_epoch``'s iterations, each a block step followed by
    both multiplier steps; rho_y and rho_z default to beta over the number
    of blocks. The ergodic average weighs each iterate by 1/eta when
    ``weight_by_eta``, else uniformly. ``callback(iteration, state)`` runs
    after every iteration. The reported eta is the largest block's.

    A full-width block's trials rebase the state, so it records the
    tracker's exact values and its one block's ``block_grad``, which the
    next ``block_gradient`` reads again, and never refreshes. A narrower
    one's tracker drifts by roundoff under block commits (reading it moved
    kkt_stat by up to 8e-10 relative on QCQP instances), so it records one
    exact stack evaluation, and refreshes every _REFRESH_EPOCHS epochs and
    at the end.
    """
    prob, config, tracker = state.prob, state.config, state.tracker
    full_width, n = state.full_width, len(state.blocks)
    rho_y, rho_z = config.resolve_rho(n)
    beta, has_rows = config.beta, not prob.affine.is_empty
    acc = ErgodicAccumulator(prob.dim)
    recorder = MetricsRecorder(prob, method, tracker.fn, clock=clock)

    def advance(epoch):
        for k, i in enumerate(state.draw_epoch(), (epoch - 1) * n + 1):
            eta, step = state.backtrack_block(i, *state.block_gradient(i))
            w = state.apply_block(i, step)
            if has_rows:
                state.y = multiplier_step_y(state.y, state.r, rho_y)
            state.z = multiplier_step_z(state.z, tracker.value[1:], rho_z, beta, w)
            acc.add(state.x, 1.0 / eta if weight_by_eta else 1.0, tracker.image)
            if callback is not None:
                callback(k, state)
        if not full_width and epoch % _REFRESH_EPOCHS == 0:
            state.refresh()
        return state.x, tracker.value

    def snapshot(epoch):
        return recorder.snapshot(
            epoch, state, eta_max=float(state.eta.max()) if epoch else None,
            ergodic=acc.point(tracker.fn) if epoch else None,
            value_grad=((tracker.value, tracker.block_grad(state.blocks[0]))
                        if full_width else None))

    records, epochs, stopped = run_epochs(prob, config, advance, snapshot)
    if not full_width:
        state.refresh()
    return SolveResult(w=PrimalDualPoint.of(state), ergodic_x=acc.average(),
                       trace=records, epochs=epochs, stopped_early=stopped,
                       eta=float(state.eta.max()))


def solve(prob, config, x0=None, y0=None, z0=None, callback=None, clock=None):
    """Run the full-vector solver: ``_drive`` on ``prob.with_blocks(1)``,
    whatever partition ``prob`` carries, so one epoch is one iteration and
    rho_y and rho_z default to beta. x0, y0, z0 default to zeros (z0 must
    be nonnegative). ``callback(iteration, state)`` runs after every
    iteration with the live ``BlockState``: copy what you keep
    (``PrimalDualPoint.of(state)`` copies the point).
    ``clock`` is the wall-clock source for trace timestamps (a testing hook).

    Returns a SolveResult with the final triple, the 1/eta-weighted ergodic
    average, and the trace, whose records carry the method label "lalm".
    """
    state = BlockState(prob.with_blocks(1), config, x0, y0, z0)
    return _drive(state, "lalm", True, callback, clock)
