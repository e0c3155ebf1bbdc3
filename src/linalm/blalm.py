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
from .model import (PrimalDualPoint, checked_start, operator_norm_sq,
                    smooth_stack)
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

        self.x, self.y, self.z = checked_start(prob, x0, y0, z0)
        self.r = prob.affine.residual(self.x)
        # One tracker of the smooth stack serves g and every constraint.
        self.stack = smooth_stack(prob)
        self.tracker = self.stack.tracker(self.x)
        # Each block's columns of A, as views; each None without equality rows.
        self.A_blocks = [None if prob.affine.is_empty else prob.affine.A[:, sl]
                         for sl in self.blocks]
        # The last candidate tried, as (block value, dx, A_i dx or None).
        self._trial = None

        self.analytic = config.step_mode == "analytic"
        seed_eta = 0.0 if self.analytic else config.eta_seed(prob)
        self.eta = np.full(n, seed_eta)
        # Each block's squared equality-column norm, which only analytic
        # step bounds read; None when backtracking.
        self.block_norm_sq = np.array(
            [operator_norm_sq(prob.affine.A[:, sl]) for sl in self.blocks]
        ) if self.analytic else None
        self.rng = np.random.default_rng(seed)
        # Block draws left from the current batch, last one first.
        self._draws = []
        self.last_trials = 0

    @property
    def fvals(self):
        """Constraint values at x, as the tracker holds them."""
        return self.tracker.value[1:]

    def pick_block(self):
        """Uniform draw of a block index; deterministic under a fixed seed.

        Draws come n at a time, n the number of blocks: one
        ``integers(n, size=n)`` call gives the same stream as n scalar
        ``integers(n)`` calls.
        """
        if not self._draws:
            n = len(self.blocks)
            self._draws = self.rng.integers(n, size=n).tolist()[::-1]
        return self._draws.pop()

    def point(self):
        """Detached snapshot of the current primal-dual point."""
        return PrimalDualPoint(self.x.copy(), self.y.copy(), self.z.copy(),
                               self.r.copy(), self.fvals.copy())

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
        ``block_gradient``'s (grad, floor, base). Candidates are valued from
        the tracker's value deltas; nothing is committed.

        Returns (eta_i, new_block_value); the accepted eta persists for
        block i across iterations, and ``last_trials`` counts its increases.
        """
        sl = self.blocks[i]
        x_blk = self.x[sl]
        A_i, tracker, beta = self.A_blocks[i], self.tracker, self.config.beta

        def trial(blk_new, dx):
            dr = None if A_i is None else A_i @ dx
            self._trial = (blk_new, dx, dr)
            return lambda: auglag.candidate_value(
                tracker.value + tracker.delta_value(sl, dx), self.y,
                None if dr is None else self.r + dr, self.z, beta, floor)

        eta, blk_new, _, self.last_trials = prox_step(
            x_blk, grad_blk, float(self.eta[i]), self.h_blocks[i].prox, trial, base)
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
        self._trial = None

    def refresh(self):
        """Recompute residual, constraint values, and the tracker from scratch."""
        self.r = self.prob.affine.residual(self.x)
        self.tracker.rebase(self.x)
        self._trial = None


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
            _, blk_new = state.backtrack_block(i, *state.block_gradient(i))
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
