"""Randomized block variant of the linearized augmented Lagrangian solver.

Each iteration picks one coordinate block uniformly at random, takes a
prox-gradient step on that block only, and immediately updates both
multiplier vectors. The equality residual and all constraint values are
maintained incrementally from the block change and re-synchronized from
scratch every few epochs to bound floating-point drift. One epoch equals
n_blocks iterations.
"""

from __future__ import annotations

# descent_holds is not used here: perfbench/tracing.py wraps this module's copy
from .lalm import (BlockState, ErgodicAccumulator, SolveResult,  # noqa: F401
                   descent_holds, multiplier_step_y, multiplier_step_z,
                   run_epochs)
from .trace import MetricsRecorder

# Full cache recomputation cadence, in epochs.
_REFRESH_EPOCHS = 10


def solve(prob, config, x0=None, y0=None, z0=None, seed=0, callback=None,
          clock=None):
    """Run the randomized block solver for config.max_epochs epochs.

    The problem must carry a block partition and, with more than one
    block, h must be separable across it. rho_y and rho_z default to
    beta/n_blocks. ``callback(iteration, state)`` runs after every block
    iteration with the live ``BlockState``; copy what you keep. With one
    block the iterates are lalm's, bit for bit. The returned ergodic_x is
    the uniform average of the iterates. Trace records carry the method
    label "blalm".
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
            return recorder.snapshot(0, state)
        # The recorder evaluates the stack at x exactly: the tracker's Q x
        # drifts by roundoff under block commits, and reading it moved
        # kkt_stat by up to 8e-10 relative on QCQP instances.
        return recorder.snapshot(
            epoch, state, eta_max=float(state.eta.max()),
            ergodic=acc.point(state.stack))

    records, epochs, stopped = run_epochs(prob, config, advance, snapshot)
    state.refresh()
    return SolveResult(
        w=state.point(), ergodic_x=acc.average(), trace=records,
        epochs=epochs, stopped_early=stopped, eta=float(state.eta.max()))
