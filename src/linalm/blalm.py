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
from .lalm import (ErgodicAccumulator, SolveResult, SolverError, descent_holds,
                   multiplier_step_y, multiplier_step_z, run_epochs)
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

        start = PrimalDualPoint.at(prob, np.zeros(prob.dim) if x0 is None else x0,
                                   y0, z0)
        self.x, self.y, self.z = start.x, start.y, start.z
        self.r, self.fvals = start.r, start.fvals
        # One tracker of the smooth stack serves g and every constraint.
        self.stack = smooth_stack(prob)
        self.tracker = self.stack.tracker(self.x)
        self.fvals = self.tracker.value[1:]
        # The last candidate's value deltas, and the block value that
        # candidate proposed if it was accepted.
        self._trial_delta = self._accepted = None

        self.analytic = config.step_mode == "analytic"
        seed_eta = 0.0 if self.analytic else config.eta_seed(prob)
        self.eta = np.full(n, seed_eta)
        self.block_norm_sq = np.array(
            [0.0 if prob.affine.is_empty else operator_norm_sq(prob.affine.block(sl))
             for sl in self.blocks])
        self.rng = np.random.default_rng(seed)
        self.last_trials = 0

    @property
    def n_blocks(self):
        return len(self.blocks)

    def pick_block(self):
        """Uniform draw from [0, n_blocks); deterministic under a fixed seed."""
        return int(self.rng.integers(self.n_blocks))

    def point(self):
        """Detached snapshot of the current primal-dual point."""
        return PrimalDualPoint(self.x.copy(), self.y.copy(), self.z.copy(),
                               self.r.copy(), self.fvals.copy())

    def block_gradient(self, i):
        """Block i of the smooth-part gradient, assembled from the tracker."""
        w = PrimalDualPoint(self.x, self.y, self.z, self.r, self.fvals)
        return auglag.smooth_grad_block(
            w, self.config.beta, self.prob, i,
            grads=self.tracker.block_grad(self.blocks[i]))

    def smooth_value(self):
        """Current smooth-part value from maintained state."""
        return self._smooth_value(self.tracker.value[0], self.r, self.fvals)

    def _smooth_value(self, gval, r, fvals):
        beta = self.config.beta
        val = gval
        if not self.prob.affine.is_empty:
            val += float(self.y @ r) + 0.5 * beta * float(r @ r)
        if self.prob.m:
            val += float(np.sum(auglag.scalar_penalty(fvals, self.z, beta)))
        return val

    def candidate_smooth_value(self, sl, dx, dr):
        """Smooth-part value after changing block sl by dx (nothing committed)."""
        r_new = None if self.prob.affine.is_empty else self.r + dr
        self._trial_delta = self.tracker.delta_value(sl, dx)
        new = self.tracker.value + self._trial_delta
        return self._smooth_value(new[0], r_new, new[1:])

    def block_eta(self, i):
        """Analytic per-block step bound, monotone across iterations."""
        if self.prob.g.lipschitz is None:
            raise ValueError("objective lacks a gradient Lipschitz constant; "
                             "run the solver in backtracking mode")
        bound = (self.prob.g.lipschitz
                 + self.config.beta * self.block_norm_sq[i]
                 + auglag.penalty_lipschitz(self.x, self.z, self.config.beta,
                                            self.prob, fvals=self.fvals)
                 + self.config.delta)
        self.eta[i] = max(self.eta[i], bound)
        return self.eta[i]

    def backtrack_block(self, i, grad_blk, max_trials=201):
        """Per-block backtracking on the smooth-part descent inequality.

        Returns (eta_i, new_block_value); the accepted eta persists for
        block i across iterations.
        """
        sl = self.blocks[i]
        base = self.smooth_value()
        eta = self.eta[i]
        A_i = None if self.prob.affine.is_empty else self.prob.affine.block(sl)
        for trial in range(max_trials):
            blk_new = self.h_blocks[i].prox(self.x[sl] - grad_blk / eta, 1.0 / eta)
            dx = blk_new - self.x[sl]
            dr = None if A_i is None else A_i @ dx
            val = self.candidate_smooth_value(sl, dx, dr)
            if np.isfinite(val) and descent_holds(val, base, float(grad_blk @ dx),
                                                  eta, float(dx @ dx)):
                self.eta[i] = eta
                self.last_trials = trial
                self._accepted = blk_new
                return eta, blk_new
            eta *= self.config.backtrack_factor
        raise SolverError(f"block backtracking failed after {max_trials - 1} "
                          "step-size increases")

    def apply_block(self, i, blk_new):
        """Commit a block change: x, residual, and constraint values in place."""
        sl = self.blocks[i]
        dx = blk_new - self.x[sl]
        if not self.prob.affine.is_empty:
            self.r += self.prob.affine.block(sl) @ dx
        # reuse the value deltas of the trial that proposed blk_new
        delta = self._trial_delta if self._accepted is blk_new else None
        self.tracker.commit(sl, dx, delta)
        self.fvals = self.tracker.value[1:]
        self.x[sl] = blk_new
        self._accepted = None

    def refresh(self):
        """Recompute residual, constraint values, and the tracker from scratch."""
        self.r = self.prob.affine.residual(self.x)
        self.tracker.rebase(self.x)
        self.fvals = self.tracker.value[1:]


def solve(prob, config, x0=None, y0=None, z0=None, seed=0, callback=None,
          clock=None, method_label="blalm"):
    """Run the randomized block solver for config.max_epochs epochs.

    The problem must carry a block partition and h must be separable across
    it. rho_y and rho_z default to beta/n_blocks. The returned ergodic_x is
    the uniform average of the iterates; ergodic_x_scaled divides the same
    running sum by 1 + k/n instead.
    """
    state = BlockState(prob, config, x0, y0, z0, seed)
    n = state.n_blocks
    rho_y, rho_z = config.resolve_rho(n_blocks=n)
    beta = config.beta
    acc = ErgodicAccumulator(prob.dim)
    recorder = MetricsRecorder(prob, method_label, f0_star=prob.f0_star, clock=clock,
                               stack=state.stack)

    def advance(epoch):
        for k in range((epoch - 1) * n, epoch * n):
            i = state.pick_block()
            grad_blk = state.block_gradient(i)
            if state.analytic:
                eta_i = state.block_eta(i)
                sl = state.blocks[i]
                blk_new = state.h_blocks[i].prox(state.x[sl] - grad_blk / eta_i,
                                                 1.0 / eta_i)
            else:
                eta_i, blk_new = state.backtrack_block(i, grad_blk)
            state.apply_block(i, blk_new)
            if not np.all(np.isfinite(state.x)):
                raise SolverError(f"non-finite iterate at iteration {k}")

            state.y = multiplier_step_y(state.y, state.r, rho_y)
            state.z = multiplier_step_z(state.z, state.fvals, rho_z, beta)
            acc.add(state.x, 1.0, state.stack.image(state.tracker))
            if callback is not None:
                callback(k + 1, state)
        if epoch % _REFRESH_EPOCHS == 0:
            state.refresh()

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
