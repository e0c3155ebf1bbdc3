"""Classic augmented Lagrangian calculus.

The augmented Lagrangian of the model problem couples each inequality value
u = f_j(x) with its multiplier v = z_j through the piecewise scalar penalty

    penalty(u, v) = u v + (beta/2) u^2   if beta u + v >= 0,
                    -v^2 / (2 beta)      otherwise,

which is continuously differentiable in u with derivative [beta u + v]_+.
This module evaluates the full augmented Lagrangian, its smooth part and
gradient, and the point-dependent curvature bounds used for analytic step
sizes.
"""

from __future__ import annotations

import numpy as np


def _check_beta(beta):
    if beta <= 0:
        raise ValueError("penalty parameter beta must be positive")


def scalar_penalty(u, v, beta):
    """Piecewise penalty coupling a constraint value u with its multiplier v.

    Continuous across the switching surface beta*u + v = 0; accepts scalars
    or same-shaped arrays.
    """
    _check_beta(beta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.where(beta * u + v >= 0, u * v + 0.5 * beta * u * u,
                   -v * v / (2.0 * beta))
    return float(out) if out.ndim == 0 else out


def scalar_penalty_deriv(u, v, beta):
    """Derivative of scalar_penalty in its first argument: [beta*u + v]_+."""
    _check_beta(beta)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.maximum(beta * u + v, 0.0)
    return float(out) if out.ndim == 0 else out


def constraint_penalty(x, z, beta, prob, fvals=None):
    """Sum of scalar penalties over all inequality constraints at x."""
    z = np.asarray(z, dtype=float)
    if z.shape[0] != prob.m:
        raise ValueError("z length does not match constraint count")
    if prob.m == 0:
        _check_beta(beta)
        return 0.0
    if fvals is None:
        fvals = prob.constraint_values(x)
    return float(np.sum(scalar_penalty(fvals, z, beta)))


def smooth_value(w, beta, prob, gval=None):
    """Smooth part of the augmented Lagrangian (everything except h).

    g(x) + y'(Ax-b) + (beta/2)||Ax-b||^2 + sum_j penalty(f_j(x), z_j);
    uses the residual and constraint values cached on w, and ``gval`` for
    g(x) when the caller already has it.
    """
    _check_beta(beta)
    val = prob.g(w.x) if gval is None else gval
    if not prob.affine.is_empty:
        val += float(w.y @ w.r) + 0.5 * beta * float(w.r @ w.r)
    if prob.m:
        val += float(scalar_penalty(w.fvals, w.z, beta).sum())
    return val


def auglag_value(w, beta, prob):
    """Full augmented Lagrangian; +inf when x lies outside dom(h)."""
    hval = prob.h.value(w.x)
    if not np.isfinite(hval):
        return np.inf
    return smooth_value(w, beta, prob) + hval


def smooth_grad(w, beta, prob, grads=None):
    """Gradient of the smooth part with respect to x.

    grad g(x) + A'(y + beta (Ax-b)) + sum_j [beta f_j(x) + z_j]_+ grad f_j(x),
    evaluated with the cached residual and constraint values of w.
    ``grads`` is the (1 + m, dim) array of grad g(x) followed by every
    grad f_j(x), as a smooth-stack tracker gives them; by default each
    function's gradient oracle is called.
    """
    _check_beta(beta)
    if grads is None:
        grads = np.vstack([prob.g.grad(w.x), prob.constraint_grads(w.x)])
    grad = grads[0]
    if not prob.affine.is_empty:
        grad = grad + prob.affine.adjoint(w.y + beta * w.r)
    if prob.m:
        grad = grad + scalar_penalty_deriv(w.fvals, w.z, beta) @ grads[1:]
    return grad


def smooth_grad_block(w, beta, prob, i, grads=None):
    """Block i of the smooth gradient; equals smooth_grad(...)[blocks[i]].

    ``grads`` gives block i of every gradient at once, as the (1 + m, width)
    ``block_grad`` of a smooth-stack tracker, so the block is assembled from
    maintained state in O(rows * width) instead of a full gradient
    evaluation.
    """
    if prob.blocks is None:
        raise ValueError("problem has no block partition")
    if not 0 <= i < len(prob.blocks):
        raise IndexError(f"block index {i} out of range")
    sl = prob.blocks[i]
    if grads is None:
        return smooth_grad(w, beta, prob)[sl]
    _check_beta(beta)
    grad = grads[0]
    if not prob.affine.is_empty:
        grad = grad + prob.affine.block(sl).T @ (w.y + beta * w.r)
    if prob.m:
        grad = grad + scalar_penalty_deriv(w.fvals, w.z, beta) @ grads[1:]
    return grad


def penalty_lipschitz(x, z, beta, prob, fvals=None):
    """Point-dependent Lipschitz bound for the penalty gradient.

    sum_j (beta B_j^2 + L_j [beta f_j(x) + z_j]_+), where B_j bounds
    ||grad f_j|| and L_j is the Lipschitz constant of grad f_j. Requires
    both constants on every constraint.
    """
    _check_beta(beta)
    if prob.m == 0:
        return 0.0
    if fvals is None:
        fvals = prob.constraint_values(x)
    coef = scalar_penalty_deriv(fvals, z, beta)
    total = 0.0
    for cj, con in zip(coef, prob.constraints):
        if con.grad_bound is None or con.fn.lipschitz is None:
            raise ValueError(
                "constraint lacks gradient bound or Lipschitz constant; "
                "run the solver in backtracking mode")
        total += beta * con.grad_bound ** 2 + con.fn.lipschitz * cj
    return float(total)


def smooth_lipschitz(x, z, beta, prob, fvals=None, norm_sq=None):
    """Lipschitz bound for the smooth-part gradient at (x, z).

    L_g + beta N + penalty_lipschitz(x, z), N = ``norm_sq`` or else ||A||^2.
    """
    if prob.g.lipschitz is None:
        raise ValueError("objective lacks a gradient Lipschitz constant; "
                         "run the solver in backtracking mode")
    norm_sq = prob.affine.op_norm_sq() if norm_sq is None else norm_sq
    return (prob.g.lipschitz + beta * norm_sq
            + penalty_lipschitz(x, z, beta, prob, fvals=fvals))
