"""The solvers' iterations written out from scratch, as a test reference.

Every quantity comes from the problem's oracles at every iteration: no
tracker, no stack, no incremental residual and no product reused between
trials. The penalty is the paper's piecewise definition, one constraint at
a time. What the iterations share with the library is their definition:
the analytic curvature bound, the backtracking factor, the descent slack
and trial limit, the default step sizes and the block sampler's stream.

Each generator yields the state after every (block) iteration, so a test
can compare it with what a solver's ``callback`` sees.
"""

from __future__ import annotations

import numpy as np

BACKTRACK_FACTOR = 1.5
DESCENT_RTOL = 1e-12
MAX_TRIALS = 201


def penalty(u, z, beta):
    """u z + (beta/2) u^2 where beta u + z >= 0, and -z^2/(2 beta) otherwise."""
    if beta * u + z >= 0:
        return u * z + 0.5 * beta * u * u
    return -z * z / (2.0 * beta)


def constraint_values(prob, x):
    return np.array([con.fn(x) for con in prob.constraints])


def residual(prob, x):
    return prob.affine.A @ x - prob.affine.b


def smooth_value(prob, x, y, z, beta):
    """g(x) + y'r + (beta/2)||r||^2 + sum_j penalty(f_j(x), z_j)."""
    r = residual(prob, x)
    val = prob.g(x) + y @ r + 0.5 * beta * (r @ r)
    for fj, zj in zip(constraint_values(prob, x), z):
        val += penalty(fj, zj, beta)
    return val


def weights(prob, x, z, beta):
    """[beta f_j(x) + z_j]_+, the penalty's derivative in f_j."""
    return np.array([max(beta * fj + zj, 0.0)
                     for fj, zj in zip(constraint_values(prob, x), z)])


def smooth_grad(prob, x, y, z, beta):
    """grad g + A'(y + beta r) + sum_j [beta f_j + z_j]_+ grad f_j at x."""
    grad = prob.g.grad(x) + prob.affine.A.T @ (y + beta * residual(prob, x))
    for cj, con in zip(weights(prob, x, z, beta), prob.constraints):
        grad = grad + cj * con.fn.grad(x)
    return grad


def curvature(prob, x, z, beta, A_cols):
    """L_g + beta ||A_cols||^2 + sum_j (beta B_j^2 + L_j [beta f_j + z_j]_+)."""
    norm_sq = np.linalg.norm(A_cols, 2) ** 2 if A_cols.size else 0.0
    bound = prob.g.lipschitz + beta * norm_sq
    for cj, con in zip(weights(prob, x, z, beta), prob.constraints):
        bound += beta * con.grad_bound ** 2 + con.fn.lipschitz * cj
    return bound


def primal_step(x, grad, eta, prox, value, base):
    """prox(x - grad/eta, 1/eta), with eta grown by BACKTRACK_FACTOR until
    value(candidate) <= base + grad'dx + (eta/2)||dx||^2 up to the relative
    slack; the first candidate when ``base`` is None. Returns (eta, x_new)."""
    for _ in range(MAX_TRIALS):
        x_new = prox(x - grad / eta, 1.0 / eta)
        if base is None:
            return eta, x_new
        dx = x_new - x
        bound = base + grad @ dx + 0.5 * eta * (dx @ dx)
        if value(x_new) <= bound + DESCENT_RTOL * max(1.0, abs(base), abs(bound)):
            return eta, x_new
        eta *= BACKTRACK_FACTOR
    raise AssertionError("reference backtracking ran out of trials")


def z_step(prob, x_new, z, rho_z, beta):
    """z_j + rho_z max(-z_j/beta, f_j(x_new)), floored at 0."""
    return np.array([max(zj + rho_z * max(-zj / beta, fj), 0.0)
                     for fj, zj in zip(constraint_values(prob, x_new), z)])


def _start(prob, x0, y0, z0):
    x = np.zeros(prob.dim) if x0 is None else np.array(x0, dtype=float)
    y = np.zeros(prob.affine.rows) if y0 is None else np.array(y0, dtype=float)
    z = np.zeros(prob.m) if z0 is None else np.array(z0, dtype=float)
    return x, y, z


def lalm(prob, config, x0=None, y0=None, z0=None):
    """Yields (x, y, z, eta) after each full-vector iteration."""
    beta, delta = config.beta, config.delta
    rho_y, rho_z = config.resolve_rho(n_blocks=1)
    analytic = config.step_mode == "analytic"
    eta = 0.0 if analytic else config.eta_seed(prob)
    x, y, z = _start(prob, x0, y0, z0)
    while True:
        grad = smooth_grad(prob, x, y, z, beta)
        if analytic:
            eta = max(eta, curvature(prob, x, z, beta, prob.affine.A) + delta)
        base = None if analytic else smooth_value(prob, x, y, z, beta)
        eta, x = primal_step(x, grad, eta, prob.h.prox,
                             lambda c: smooth_value(prob, c, y, z, beta), base)
        y = y + rho_y * residual(prob, x)
        z = z_step(prob, x, z, rho_z, beta)
        yield x, y, z, eta


def blalm(prob, config, x0=None, y0=None, z0=None, seed=0):
    """Yields (x, y, z, eta) after each block iteration, eta per block."""
    beta, delta = config.beta, config.delta
    n = len(prob.blocks)
    rho_y, rho_z = config.resolve_rho(n_blocks=n)
    analytic = config.step_mode == "analytic"
    eta = np.full(n, 0.0 if analytic else config.eta_seed(prob))
    rng = np.random.default_rng(seed)
    x, y, z = _start(prob, x0, y0, z0)
    while True:
        i = int(rng.integers(n))
        sl = prob.blocks[i]
        grad = smooth_grad(prob, x, y, z, beta)[sl]
        if analytic:
            eta[i] = max(eta[i], curvature(prob, x, z, beta, prob.affine.A[:, sl])
                         + delta)

        def value(blk):
            trial = x.copy()
            trial[sl] = blk
            return smooth_value(prob, trial, y, z, beta)

        base = None if analytic else smooth_value(prob, x, y, z, beta)
        eta[i], blk = primal_step(x[sl], grad, eta[i], prob.h.block(sl).prox,
                                  value, base)
        x = x.copy()
        x[sl] = blk
        y = y + rho_y * residual(prob, x)
        z = z_step(prob, x, z, rho_z, beta)
        yield x, y, z, eta.copy()


def pdyn(prob, config, x0=None):
    """Yields (x, lam, eta) after each projected step of the baseline."""
    analytic = config.step_mode == "analytic"
    eta = config.eta_seed(prob)
    x = np.zeros(prob.dim) if x0 is None else np.array(x0, dtype=float)
    lam = np.maximum(0.0, -constraint_values(prob, x))
    while True:
        f = constraint_values(prob, x)
        z = lam + f
        grad = prob.g.grad(x)
        for zj, con in zip(z, prob.constraints):
            grad = grad + zj * con.fn.grad(x)

        def phi(c):
            return prob.g(c) + sum(zj * con.fn(c) for zj, con in zip(z, prob.constraints))

        eta, x = primal_step(x, grad, eta, prob.h.prox, phi,
                             None if analytic else phi(x))
        lam = np.maximum(-f, lam + f)
        yield x, lam, eta
