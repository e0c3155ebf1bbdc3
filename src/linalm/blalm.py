"""Randomized block variant of the linearized augmented Lagrangian solver.

Each iteration picks one coordinate block uniformly at random, takes a
prox-gradient step on that block only, and immediately updates both
multiplier vectors. One epoch equals n_blocks iterations. The iteration
and its driver are lalm's (``lalm._drive``) on the instance's partition:
the equality residual and all constraint values are maintained
incrementally from the block change and re-synchronized from scratch every
few epochs to bound floating-point drift.
"""

from __future__ import annotations

# descent_holds and the multiplier steps are not used here:
# perfbench/tracing.py wraps this module's copies
from .lalm import (BlockState, _drive, descent_holds,  # noqa: F401
                   multiplier_step_y, multiplier_step_z)


def solve(prob, config, x0=None, y0=None, z0=None, seed=0, callback=None,
          clock=None):
    """Run the randomized block solver for config.max_epochs epochs.

    The problem must carry a block partition and, with more than one
    block, h must be separable across it. rho_y and rho_z default to
    beta/n_blocks. ``callback(iteration, state)`` runs after every block
    iteration with the live ``BlockState``; copy what you keep. With one
    block the iterates and the trace are lalm's, bit for bit. The returned
    ergodic_x is the uniform average of the iterates. Trace records carry
    the method label "blalm".
    """
    state = BlockState(prob, config, x0, y0, z0, seed)
    return _drive(state, "blalm", False, callback, clock)
