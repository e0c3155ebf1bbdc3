"""Randomized block variant of the linearized augmented Lagrangian solver.

Each iteration picks one coordinate block uniformly at random, takes a
prox-gradient step on that block only, and immediately updates both
multiplier vectors. The equality residual and all constraint values are
maintained incrementally from the block change and re-synchronized from
scratch every few epochs to bound floating-point drift. One epoch equals
n_blocks iterations.
"""

from __future__ import annotations

import numpy as np

from . import auglag
# descent_holds is not used here: perfbench/tracing.py wraps this module's copy
from .lalm import (ErgodicAccumulator, SolveResult, analytic_eta,  # noqa: F401
                   descent_holds, multiplier_step_y, multiplier_step_z, prox_step,
                   run_epochs)
from .model import PrimalDualPoint, operator_norm_sq, smooth_stack
from .trace import MetricsRecorder

# Full cache recomputation cadence, in epochs.
_REFRESH_EPOCHS = 10


class BlockState:
    """Mutable per-solve state: iterates, caches, the tracker, and the sampler."""

    def __init__(self, prob, config, x0=None, y0=None, z0=None, seed=0):
        if prob.blocks is None:
            raise ValueError("block solver requires a block partition; "
                             "use ProblemInstance.with_blocks(n)")
        self.prob = prob
        self.config = config
        self.blocks = prob.blocks
        n = len(self.blocks)
        self.h_blocks = [prob.h.block(sl) for sl in self.blocks]
        if any(hb is None for hb in self.h_blocks):
            raise ValueError("h is not separable across the block partition")

        start = PrimalDualPoint.at(prob, x0, y0, z0)
        self.x, self.y, self.z, self.r = start.x, start.y, start.z, start.r
        # One tracker of the smooth stack serves g and every constraint.
        self.stack = smooth_stack(prob)
        self.tracker = self.stack.tracker(self.x)
        # Each block's columns of A, as views; each None without equality rows.
        self.A_blocks = [None if prob.affine.is_empty else prob.affine.A[:, sl]
                         for sl in self.blocks]
        # The last candidate tried, as (block value, dx, A_i dx or None).
        self._trial = None
        # The iteration's penalty floor -z^2/(2 beta) and smooth value at x,
        # from block_gradient's pass; None outside an iteration.
        self._floor = self._base = None

        self.analytic = config.step_mode == "analytic"
        seed_eta = 0.0 if self.analytic else config.eta_seed(prob)
        self.eta = np.full(n, seed_eta)
        self.block_norm_sq = np.array(
            [operator_norm_sq(prob.affine.A[:, sl]) for sl in self.blocks])
        self.rng = np.random.default_rng(seed)
        self.last_trials = 0

    @property
    def fvals(self):
        """Constraint values at x, as the tracker holds them."""
        return self.tracker.value[1:]

    def pick_block(self):
        """Uniform draw of a block index; deterministic under a fixed seed."""
        return int(self.rng.integers(len(self.blocks)))

    def point(self):
        """Detached snapshot of the current primal-dual point."""
        return PrimalDualPoint(self.x.copy(), self.y.copy(), self.z.copy(),
                               self.r.copy(), self.fvals.copy())

    def block_gradient(self, i):
        """Block i of the smooth-part gradient, assembled from the tracker.

        Begins an iteration with one pass over (f, z): s = beta*f + z gives
        the weights [s]_+ of the gradient and, in analytic mode, of block i's
        step bound, which is set here (monotone across iterations). When
        backtracking the pass also gives the penalty at x, so the base value
        and the floor -z^2/(2 beta) are ready for every trial. z and y stay
        fixed until ``apply_block`` or ``refresh`` ends the iteration.
        """
        beta, A_i = self.config.beta, self.A_blocks[i]
        coef = penalties = None
        if self.prob.m:
            self._floor = None if self.analytic else auglag.penalty_floor(self.z, beta)
            s, penalties = auglag.penalty_terms(self.fvals, self.z, beta, self._floor)
            coef = np.maximum(s, 0.0)
        if self.analytic:
            self.eta[i] = analytic_eta(self.eta[i], coef, beta, self.config.delta,
                                       self.prob, self.block_norm_sq[i])
        else:
            self._base = auglag.smooth_value(self.tracker.value[0], self.y,
                                             None if A_i is None else self.r,
                                             penalties, beta)
        return auglag.smooth_grad_block(self.tracker.block_grad(self.blocks[i]), A_i,
                                        self.y, self.r, coef, beta)

    def smooth_value(self):
        """Smooth-part value at x, as the backtracking iteration's
        ``block_gradient`` computed it; None outside one."""
        return self._base

    def candidate_smooth_value(self, sl, dx, dr):
        """Smooth-part value after changing block sl by dx, with dr = A_i dx
        (None without equality rows), in a backtracking iteration: it uses
        that iteration's floor. Nothing is committed."""
        beta = self.config.beta
        new = self.tracker.value + self.tracker.delta_value(sl, dx)
        penalties = (auglag.penalty_terms(new[1:], self.z, beta, self._floor)[1]
                     if self.prob.m else None)
        return auglag.smooth_value(
            new[0], self.y, None if dr is None else self.r + dr, penalties, beta)

    def backtrack_block(self, i, grad_blk):
        """Block i's primal update: ``prox_step`` on that block.

        Returns (eta_i, new_block_value); the accepted eta persists for
        block i across iterations, and ``last_trials`` counts its increases.
        """
        sl = self.blocks[i]
        x_blk = self.x[sl]
        A_i = self.A_blocks[i]

        def trial(blk_new):
            dx = blk_new - x_blk
            self._trial = (blk_new, dx, None if A_i is None else A_i @ dx)
            return value

        def value():
            _, dx, dr = self._trial
            return self.candidate_smooth_value(sl, dx, dr)

        eta, blk_new, _, self.last_trials = prox_step(
            x_blk, grad_blk, self.eta[i], self.h_blocks[i].prox, trial,
            self.smooth_value, self.config)
        self.eta[i] = eta
        return eta, blk_new

    def apply_block(self, i, blk_new):
        """Commit a block change: x, residual, and constraint values in place.

        The candidate ``backtrack_block`` returned brings its dx, its A_i dx
        and the tracker's products along; any other block value is
        computed afresh. Ends the iteration.
        """
        sl = self.blocks[i]
        if self._trial is not None and self._trial[0] is blk_new:
            _, dx, dr = self._trial
        else:
            dx = blk_new - self.x[sl]
            A_i = self.A_blocks[i]
            dr = None if A_i is None else A_i @ dx
        if dr is not None:
            self.r += dr
        self.tracker.commit(sl, dx)
        self.x[sl] = blk_new
        self._trial = self._floor = self._base = None

    def refresh(self):
        """Recompute residual, constraint values, and the tracker from scratch."""
        self.r = self.prob.affine.residual(self.x)
        self.tracker.rebase(self.x)
        self._trial = self._floor = self._base = None


def solve(prob, config, x0=None, y0=None, z0=None, seed=0, callback=None,
          clock=None):
    """Run the randomized block solver for config.max_epochs epochs.

    The problem must carry a block partition and h must be separable across
    it. rho_y and rho_z default to beta/n_blocks. The returned ergodic_x is
    the uniform average of the iterates; ergodic_x_scaled divides the same
    running sum by 1 + k/n instead. Trace records carry the method label
    "blalm".
    """
    state = BlockState(prob, config, x0, y0, z0, seed)
    n = len(state.blocks)
    rho_y, rho_z = config.resolve_rho(n_blocks=n)
    beta = config.beta
    acc = ErgodicAccumulator(prob.dim)
    recorder = MetricsRecorder(prob, "blalm", state.stack, clock=clock)
    has_rows = not prob.affine.is_empty

    def advance(epoch):
        for k in range((epoch - 1) * n, epoch * n):
            i = state.pick_block()
            grad_blk = state.block_gradient(i)
            _, blk_new = state.backtrack_block(i, grad_blk)
            state.apply_block(i, blk_new)
            if has_rows:
                state.y = multiplier_step_y(state.y, state.r, rho_y)
            state.z = multiplier_step_z(state.z, state.fvals, rho_z, beta)
            acc.add(state.x, 1.0, state.stack.image(state.tracker))
            if callback is not None:
                callback(k + 1, state)
        if epoch % _REFRESH_EPOCHS == 0:
            state.refresh()
        return state.x, state.tracker.value

    def snapshot(epoch):
        if epoch == 0:
            return recorder.snapshot(0, state.point())
        # The recorder evaluates the stack at x exactly: the tracker's Q x
        # drifts by roundoff under block commits, and reading it moved
        # kkt_stat by up to 8e-10 relative on QCQP instances.
        return recorder.snapshot(
            epoch, state.point(), eta_max=float(state.eta.max()),
            ergodic=acc.point(state.stack),
            ergodic_scaled=acc.point(state.stack, 1.0 + (acc.count - 1) / n))

    records, epochs, stopped = run_epochs(prob, config, advance, snapshot)
    state.refresh()
    return SolveResult(
        w=state.point(), ergodic_x=acc.average(), trace=records,
        epochs=epochs, stopped_early=stopped, eta=float(state.eta.max()),
        ergodic_x_scaled=acc.scaled(1.0 + (acc.count - 1) / n))
