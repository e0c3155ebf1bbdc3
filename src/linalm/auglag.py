"""Classic augmented Lagrangian calculus.

The augmented Lagrangian of the model problem couples each inequality value
u = f_j(x) with its multiplier v = z_j through the piecewise scalar penalty

    penalty(u, v) = u v + (beta/2) u^2   if beta u + v >= 0,
                    -v^2 / (2 beta)      otherwise,

which is continuously differentiable in u with derivative [beta u + v]_+.
On both branches it equals w v + (beta/2) w^2 at the clipped value
w = max(u, -v/beta), and this module values it in that form only: summed
over the constraints it is w'z + (beta/2) w'w, the same shape as the
equality term y'r + (beta/2) r'r. The clipped values are also the ascent
term of the z step, max(z + rho_z w, 0) at the new x.

This module evaluates the smooth part of the augmented Lagrangian (the
full one adds h(x)), its gradient and the curvature bounds for analytic
step sizes from arrays a solver holds: the stack values (g, f), the stacked
gradients, r = Ax - b, y and z. lalm and blalm begin each iteration with one
``iteration_terms`` pass over (f(x), z) and value each backtracking
candidate with ``candidate_value``. No function here calls an oracle.
"""

from __future__ import annotations

import numpy as np


def _check_beta(beta):
    if beta <= 0:
        raise ValueError("penalty parameter beta must be positive")


def penalty_terms(u, v, beta, floor=None):
    """The penalty's elementwise arithmetic, in the one place it lives.

    Returns (coef, w) for same-shaped arrays u and v: the weights
    coef = [beta u + v]_+, the derivative in u, unless v is None, and, when
    ``floor`` = v / -beta (the bits of -v / beta, in one array operation) is
    given, the clipped values w = max(u, -v/beta), else None. A candidate,
    valued with its iteration's floor, asks for w alone.
    """
    coef = None if v is None else np.maximum(beta * u + v, 0.0)
    return coef, None if floor is None else np.maximum(floor, u)


def scalar_penalty(u, v, beta):
    """Piecewise penalty coupling a constraint value u with its multiplier v.

    Continuous across the switching surface beta*u + v = 0; accepts scalars
    or same-shaped arrays.
    """
    _check_beta(beta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _, w = penalty_terms(u, None, beta, v / -beta)
    out = w * v + 0.5 * beta * (w * w)
    return float(out) if out.ndim == 0 else out


def scalar_penalty_deriv(u, v, beta):
    """Derivative of scalar_penalty in its first argument: [beta*u + v]_+."""
    _check_beta(beta)
    out, _ = penalty_terms(np.asarray(u, dtype=float), np.asarray(v, dtype=float),
                           beta)
    return float(out) if out.ndim == 0 else out


def smooth_value(gval, y, r, z, w, beta):
    """Smooth part of the augmented Lagrangian (everything except h):
    g(x) + y'r + (beta/2)||r||^2 + z'w + (beta/2)||w||^2, summed in this
    order, as a float. r = Ax - b is None without equality rows, and the
    clipped values w = max(f(x), -z/beta) (from ``penalty_terms``) None
    without inequality constraints."""
    val = float(gval)
    if r is not None:
        val += float(y.dot(r)) + 0.5 * beta * float(r.dot(r))
    if w is not None:
        val += float(z.dot(w)) + 0.5 * beta * float(w.dot(w))
    return val


def iteration_terms(vals, y, r, z, beta, backtracking):
    """An iteration's one pass over (f(x), z), from x's stack values
    ``vals`` = (g(x), f(x)) and r (None without equality rows).

    Returns (coef, floor, base): the weights coef = [beta f + z]_+ and, when
    ``backtracking``, the floor -z/beta for ``candidate_value`` and the
    smooth value at x, else None for both. coef and floor are None without
    inequality constraints.
    """
    coef = floor = w = None
    if z.size:
        floor = z / -beta if backtracking else None
        coef, w = penalty_terms(vals[1:], z, beta, floor)
    base = smooth_value(vals[0], y, r, z, w, beta) if backtracking else None
    return coef, floor, base


def candidate_value(vals, y, r, z, beta, floor):
    """(smooth value, clipped values w = max(f, floor)) at a candidate's stack
    values and residual, with its iteration's ``floor``, which inequality
    constraints require; w, None without them, is the z step's ascent term."""
    w = None
    if z.size:
        if floor is None:
            raise ValueError("a candidate needs its iteration's penalty floor")
        w = penalty_terms(vals[1:], None, beta, floor)[1]
    return smooth_value(vals[0], y, r, z, w, beta), w


def smooth_grad(grads, A, y, r, coef, beta):
    """Gradient of the smooth part over the columns ``grads`` and A hold:
    grads[0] + A'(y + beta r) + coef @ grads[1:]. ``grads`` stacks grad g and
    every grad f_j, in full or as a tracker's ``block_grad``, and A is the
    matching columns of the equality matrix (None without equality rows);
    coef = [beta f + z]_+ (None without inequality constraints)."""
    grad = grads[0]
    if A is not None:
        grad = grad + A.T @ (y + beta * r)
    if coef is not None:
        grad = grad + coef @ grads[1:]
    return grad


# blalm's name for a block's gradient, which perfbench/tracing.py times apart
smooth_grad_block = smooth_grad


def penalty_lipschitz(coef, beta, prob):
    """Lipschitz bound for the penalty gradient at weights coef = [beta f + z]_+.

    sum_j (beta B_j^2 + L_j coef_j), summed in constraint order, where B_j
    bounds ||grad f_j|| and L_j is the Lipschitz constant of grad f_j.
    Requires both constants on every constraint.
    """
    if prob.m == 0:
        return 0.0
    constants = prob.penalty_constants
    if constants is None:
        raise ValueError(
            "constraint lacks gradient bound or Lipschitz constant; "
            "run the solver in backtracking mode")
    lipschitz, bound_sq = constants
    total = 0.0
    for term in (beta * bound_sq + lipschitz * coef).tolist():
        total += term
    return total

