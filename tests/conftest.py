import numpy as np
import pytest


def central_diff_grad(fn, x, step=None):
    """Finite-difference oracle: central differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 1e-6 * (1.0 + np.linalg.norm(x))
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return grad


def assert_grad_matches(fn, grad_fn, points, rtol=1e-5):
    """Check an analytic gradient against the finite-difference oracle."""
    for x in points:
        num = central_diff_grad(fn, x)
        ana = np.asarray(grad_fn(x))
        err = np.linalg.norm(num - ana) / (1.0 + np.linalg.norm(ana))
        assert err <= rtol, f"gradient mismatch {err:.2e} at {x}"


def nan_away_from_origin():
    """Oracle g(x) = sum(x) that is NaN at every x but the origin: any step
    from 0 fails the descent test, so backtracking runs out of trials."""
    from linalm.model import OracleFunction

    return OracleFunction(lambda x: 0.0 if not np.any(x) else np.nan,
                          lambda x: np.ones_like(x), lipschitz=1.0)


def nan_grad_away_from_origin():
    """Oracle g(x) = 2 sum(x), finite everywhere, whose gradient is NaN at
    every x but the origin: the first step leaves the origin, the next
    gradient is NaN."""
    from linalm.model import OracleFunction

    return OracleFunction(lambda x: 2.0 * float(np.sum(x)),
                          lambda x: np.full_like(x, np.nan if np.any(x) else 2.0),
                          lipschitz=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def fejer_quantities(prob, ref, cfg, solve_fn, **kwargs):
    """Per-iteration weighted distances (eta_k/2)||x_{k+1}-x*||^2 + dual terms
    against a verified KKT point, recorded along one solve."""
    from linalm.model import PrimalDualPoint, kkt_residual

    w_star = PrimalDualPoint.at(prob, ref.x, ref.y, ref.z)
    assert max(kkt_residual(w_star, prob)) <= 1e-8  # verified KKT point
    rho_y, rho_z = cfg.resolve_rho()
    points = []
    res = solve_fn(prob, cfg, callback=lambda k, w: points.append(
        (w.x.copy(), w.y.copy(), w.z.copy())), **kwargs)
    etas = [r.eta_max for r in res.trace if r.eta_max is not None]
    assert len(etas) == len(points)
    vals = []
    for eta, (x, y, z) in zip(etas, points):
        d = 0.5 * eta * np.linalg.norm(x - ref.x) ** 2
        if ref.y.size:
            d += np.linalg.norm(y - ref.y) ** 2 / (2 * rho_y)
        if ref.z.size:
            d += np.linalg.norm(z - ref.z) ** 2 / (2 * rho_z)
        vals.append(d)
    return np.array(vals)


def smooth_value_at(w, beta, prob):
    """The smooth part of the augmented Lagrangian at a PrimalDualPoint w:
    g(x) from its oracle, the residual and constraint values w caches, and
    the penalties from scalar_penalty."""
    from linalm import auglag

    return auglag.smooth_value(
        prob.g(w.x), w.y, None if prob.affine.is_empty else w.r,
        auglag.scalar_penalty(w.fvals, w.z, beta) if prob.m else None, beta)


def smooth_grad_at(w, beta, prob):
    """The smooth part's gradient at a PrimalDualPoint w, from every
    gradient oracle and the weights scalar_penalty_deriv gives."""
    from linalm import auglag

    grads = np.array([fn.grad(w.x)
                      for fn in [prob.g] + [con.fn for con in prob.constraints]])
    return auglag.smooth_grad(
        grads, None if prob.affine.is_empty else prob.affine.A, w.y, w.r,
        auglag.scalar_penalty_deriv(w.fvals, w.z, beta) if prob.m else None, beta)
