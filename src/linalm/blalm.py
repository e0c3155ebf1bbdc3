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
                   multiplier_step_y, multiplier_step_z)
from .model import PrimalDualPoint, operator_norm_sq, quadratic_stack
from .trace import MetricsRecorder, record_epochs, should_stop

# Full cache recomputation cadence, in epochs.
_REFRESH_EPOCHS = 10


class BlockState:
    """Mutable per-solve state: iterates, caches, trackers, and the sampler."""

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
        # When g and every constraint are quadratic, one tracker of their
        # stack serves all of them; otherwise each function has its own.
        self.stack = quadratic_stack(prob)
        if self.stack is not None:
            self.trackers = [self.stack.tracker(self.x)]
            self.fvals = self.trackers[0].value[1:]
        else:
            self.trackers = [prob.g.tracker(self.x)] + \
                [con.tracker(self.x) for con in prob.constraints]
        # The last candidate's value deltas (stacked path), and the block
        # value that candidate proposed if it was accepted.
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
        """Block i of the smooth-part gradient, assembled from trackers."""
        w = PrimalDualPoint(self.x, self.y, self.z, self.r, self.fvals)
        if self.stack is not None:
            return auglag.smooth_grad_block(
                w, self.config.beta, self.prob, i,
                grads=self.trackers[0].block_grad(self.blocks[i]))
        return auglag.smooth_grad_block(w, self.config.beta, self.prob, i,
                                        trackers=self.trackers)

    def smooth_value(self):
        """Current smooth-part value from maintained state."""
        value = self.trackers[0].value
        return self._smooth_value(value if self.stack is None else value[0],
                                  self.r, self.fvals)

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
        if self.stack is not None:
            self._trial_delta = self.trackers[0].delta_value(sl, dx)
            new = self.trackers[0].value + self._trial_delta
            return self._smooth_value(new[0], r_new, new[1:])
        gval = self.trackers[0].value + self.trackers[0].delta_value(sl, dx)
        fvals_new = self.fvals
        if self.prob.m:
            fvals_new = self.fvals + np.array(
                [t.delta_value(sl, dx) for t in self.trackers[1:]])
        return self._smooth_value(gval, r_new, fvals_new)

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
        if self.stack is not None:
            # reuse the value deltas of the trial that proposed blk_new
            delta = self._trial_delta if self._accepted is blk_new else None
            self.trackers[0].commit(sl, dx, delta)
            self.fvals = self.trackers[0].value[1:]
        else:
            for tracker in self.trackers:
                tracker.commit(sl, dx)
            if self.prob.m:
                self.fvals = np.array([t.value for t in self.trackers[1:]])
        self.x[sl] = blk_new
        self._accepted = None

    def refresh(self):
        """Recompute residual, constraint values, and trackers from scratch."""
        self.r = self.prob.affine.residual(self.x)
        for tracker in self.trackers:
            tracker.rebase(self.x)
        if self.stack is not None:
            self.fvals = self.trackers[0].value[1:]
        else:
            self.fvals = self.prob.constraint_values(self.x)


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

    acc = ErgodicAccumulator(prob.dim, mode="uniform")
    recorder = MetricsRecorder(prob, method_label, f0_star=prob.f0_star, clock=clock,
                               stack=state.stack)
    schedule = record_epochs(config.max_epochs, config.record_every)
    records = [recorder.snapshot(0, state.point())]
    stopped = False
    epoch = 0
    total_iters = config.max_epochs * n

    for k in range(total_iters):
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
            raise SolverError(f"non-finite iterate at iteration {k}", records)

        state.y = multiplier_step_y(state.y, state.r, rho_y)
        state.z = multiplier_step_z(state.z, state.fvals, rho_z, beta)
        acc.add(state.x, 1.0)
        if callback is not None:
            callback(k + 1, state)

        if (k + 1) % n == 0:
            epoch = (k + 1) // n
            if epoch % _REFRESH_EPOCHS == 0:
                state.refresh()
            if epoch in schedule:
                rec = recorder.snapshot(
                    epoch, state.point(), eta_max=float(state.eta.max()),
                    erg_x=acc.average(),
                    erg_x_scaled=acc.scaled(1.0 + (acc.count - 1) / n))
                records.append(rec)
                if config.tol > 0 and should_stop(rec, config.tol,
                                                  prob.f0_star is not None):
                    stopped = True
                    break

    state.refresh()
    return SolveResult(
        w=state.point(), ergodic_x=acc.average(), trace=records,
        epochs=epoch, stopped_early=stopped, eta=float(state.eta.max()),
        ergodic_x_scaled=acc.scaled(1.0 + (acc.count - 1) / n))
