"""Classic augmented Lagrangian calculus.

The augmented Lagrangian of the model problem couples each inequality value
u = f_j(x) with its multiplier v = z_j through the piecewise scalar penalty

    penalty(u, v) = u v + (beta/2) u^2   if beta u + v >= 0,
                    -v^2 / (2 beta)      otherwise,

which is continuously differentiable in u with derivative [beta u + v]_+.
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


def penalty_floor(v, beta):
    """-v^2 / (2 beta): the penalty where beta*u + v < 0, which does not
    depend on u, so a caller holding v fixed computes it once."""
    return -v * v / (2.0 * beta)


def penalty_terms(u, v, beta, floor=None):
    """The penalty's elementwise arithmetic, in the one place it lives.

    Returns (s, penalty) for same-shaped arrays u and v: s = beta*u + v,
    whose positive part is the derivative in u, and, when ``floor`` =
    penalty_floor(v, beta) is given, penalty(u, v), else None.
    """
    s = beta * u + v
    if floor is None:
        return s, None
    return s, np.where(s >= 0, u * v + 0.5 * beta * u * u, floor)


def scalar_penalty(u, v, beta):
    """Piecewise penalty coupling a constraint value u with its multiplier v.

    Continuous across the switching surface beta*u + v = 0; accepts scalars
    or same-shaped arrays.
    """
    _check_beta(beta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _, out = penalty_terms(u, v, beta, penalty_floor(v, beta))
    return float(out) if out.ndim == 0 else out


def scalar_penalty_deriv(u, v, beta):
    """Derivative of scalar_penalty in its first argument: [beta*u + v]_+."""
    _check_beta(beta)
    s, _ = penalty_terms(np.asarray(u, dtype=float), np.asarray(v, dtype=float),
                         beta)
    out = np.maximum(s, 0.0)
    return float(out) if out.ndim == 0 else out


def smooth_value(gval, y, r, penalties, beta):
    """Smooth part of the augmented Lagrangian (everything except h):
    g(x) + y'r + (beta/2)||r||^2 + sum(penalties), summed in this order;
    r = Ax - b is None without equality rows and the penalties (from
    ``penalty_terms``) None without inequality constraints."""
    val = gval
    if r is not None:
        val += float(y @ r) + 0.5 * beta * float(r @ r)
    if penalties is not None:
        val += float(penalties.sum())
    return val


def iteration_terms(vals, y, r, z, beta, backtracking):
    """An iteration's one pass over (f(x), z), from x's stack values
    ``vals`` = (g(x), f(x)) and r (None without equality rows).

    Returns (coef, floor, base): the weights coef = [beta f + z]_+ and, when
    ``backtracking``, the floor -z^2/(2 beta) for ``candidate_value`` and the
    smooth value at x, else None for both. coef and floor are None without
    inequality constraints.
    """
    coef = floor = penalties = None
    if len(z):
        floor = penalty_floor(z, beta) if backtracking else None
        s, penalties = penalty_terms(vals[1:], z, beta, floor)
        coef = np.maximum(s, 0.0)
    base = smooth_value(vals[0], y, r, penalties, beta) if backtracking else None
    return coef, floor, base


def candidate_value(vals, y, r, z, beta, floor):
    """Smooth value at a candidate's stack values and residual, with its
    iteration's ``floor``, which inequality constraints require."""
    penalties = None
    if len(z):
        if floor is None:
            raise ValueError("a candidate needs its iteration's penalty floor")
        penalties = penalty_terms(vals[1:], z, beta, floor)[1]
    return smooth_value(vals[0], y, r, penalties, beta)


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

    sum_j (beta B_j^2 + L_j coef_j), where B_j bounds ||grad f_j|| and L_j
    is the Lipschitz constant of grad f_j. Requires both constants on every
    constraint.
    """
    if prob.m == 0:
        return 0.0
    total = 0.0
    for cj, con in zip(coef, prob.constraints):
        if con.grad_bound is None or con.fn.lipschitz is None:
            raise ValueError(
                "constraint lacks gradient bound or Lipschitz constant; "
                "run the solver in backtracking mode")
        total += beta * con.grad_bound ** 2 + con.fn.lipschitz * cj
    return float(total)


def smooth_lipschitz(coef, beta, prob, norm_sq):
    """Lipschitz bound for the smooth-part gradient at weights coef.

    L_g + beta N + penalty_lipschitz(coef), with N = ``norm_sq`` the squared
    norm of the equality columns the gradient covers (||A||^2 in full).
    """
    if prob.g.lipschitz is None:
        raise ValueError("objective lacks a gradient Lipschitz constant; "
                         "run the solver in backtracking mode")
    return (prob.g.lipschitz + beta * norm_sq
            + penalty_lipschitz(coef, beta, prob))
