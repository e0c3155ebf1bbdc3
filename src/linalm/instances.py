"""Benchmark instance generators and reference solutions.

Provides the two experiment families (basis pursuit denoising and box-
constrained QCQP), the minimax-to-constrained reformulation, tiny
hand-verifiable reference instances with exact KKT triples, a brute-force
grid reference for very small problems, and JSON (de)serialization of the
quadratic-family instances for reproducibility.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (AffineConstraint, BoxIndicator, InequalityConstraint,
                    L1Norm, LeastSquaresFunction, LinearFunction,
                    ProblemInstance, QuadraticFunction, SmoothFunction,
                    ZeroFunction, ZeroProx, operator_norm_sq)


# ---------------------------------------------------------------------------
# basis pursuit denoising


@dataclass
class BpdnSpec:
    """Sparse-recovery instance: min ||x||_1 s.t. ||Ax - b||^2 <= delta.

    A is rows x cols standard Gaussian, the ground-truth signal has
    ``sparsity`` standard-Gaussian nonzeros, and b adds scaled unit Gaussian
    noise. delta=None resolves to the realized noise power, which keeps the
    ground truth feasible.
    """

    rows: int = 50
    cols: int = 100
    sparsity: int = 5
    noise: float = 0.1
    delta: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.sparsity > self.cols:
            raise ValueError("sparsity cannot exceed cols")


def gen_bpdn(spec):
    """Build a BPDN instance; the l1 objective has no smooth part.

    The canonical starting point stored in the metadata is the minimum-norm
    least-squares solution scaled back onto the residual-ball boundary.
    Starting there keeps the backtracked step bound at the boundary
    curvature scale; starting far outside the ball (e.g. at zero) inflates
    the monotone step bound by the initial curvature and stalls the run.
    """
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((spec.rows, spec.cols))
    x_true = np.zeros(spec.cols)
    support = rng.choice(spec.cols, size=spec.sparsity, replace=False)
    x_true[support] = rng.standard_normal(spec.sparsity)
    noise = spec.noise * rng.standard_normal(spec.rows)
    b = A @ x_true + noise
    delta = float(noise @ noise) if spec.delta is None else float(spec.delta)
    if delta <= 0:
        raise ValueError("delta must resolve to a positive value")
    fn = LeastSquaresFunction(A, b, offset=delta,
                              lipschitz=2.0 * operator_norm_sq(A))
    x_ls = np.linalg.lstsq(A, b, rcond=None)[0]
    scale = max(0.0, 1.0 - np.sqrt(delta) / np.linalg.norm(b))
    return ProblemInstance(
        g=ZeroFunction(), h=L1Norm(), dim=spec.cols,
        constraints=[InequalityConstraint(fn)],
        meta={"kind": "bpdn", "seed": spec.seed, "rows": spec.rows,
              "cols": spec.cols, "sparsity": spec.sparsity,
              "noise": spec.noise, "delta": delta,
              "x_true": x_true.tolist(), "x0": (scale * x_ls).tolist()})


# ---------------------------------------------------------------------------
# box-constrained QCQP


@dataclass
class QcqpSpec:
    """Convex QCQP over a box with strictly feasible origin.

    Objective 0.5 x'Q0 x + c0'x with Q_j = M'M/p from Gaussian M (symmetric
    PSD), Gaussian c_j, constraint offsets d_j < 0 so that x = 0 satisfies
    every inequality strictly.
    """

    m: int = 10
    p: int = 2000
    box_low: float = -10.0
    box_high: float = 10.0
    d_value: float = -1.0
    seed: int = 0

    def __post_init__(self):
        if self.d_value >= 0:
            raise ValueError("constraint offsets must be negative")
        if self.box_low >= self.box_high:
            raise ValueError("box_low must be below box_high")


def _gaussian_psd(rng, p, out):
    M = rng.standard_normal((p, p))
    np.matmul(M.T, M, out=out)
    out /= p
    return out


def gen_qcqp(spec):
    """Build a QCQP instance with analytic step constants derived from the box.

    All m + 1 matrices live in one (m + 1, p, p) array and each function
    holds a view of it, so ``QuadraticStack.of`` stacks them without a copy.
    """
    rng = np.random.default_rng(spec.seed)
    p = spec.p
    box_radius = float(np.linalg.norm(
        np.maximum(abs(spec.box_low), abs(spec.box_high)) * np.ones(p)))
    Qs = np.empty((spec.m + 1, p, p))
    slabs = iter(Qs)

    def quad(d):
        Q = _gaussian_psd(rng, p, next(slabs))
        c = rng.standard_normal(p)
        norm = float(np.sqrt(operator_norm_sq(Q)))
        fn = QuadraticFunction(Q, c, d, lipschitz=norm)
        bound = norm * box_radius + float(np.linalg.norm(c))
        return fn, bound

    g, _ = quad(0.0)
    constraints = []
    for _ in range(spec.m):
        fn, bound = quad(spec.d_value)
        constraints.append(InequalityConstraint(fn, grad_bound=bound))
    h = BoxIndicator(np.full(p, spec.box_low), np.full(p, spec.box_high))
    return ProblemInstance(
        g=g, h=h, dim=p, constraints=constraints,
        meta={"kind": "qcqp", "seed": spec.seed, "m": spec.m, "p": p,
              "box_low": spec.box_low, "box_high": spec.box_high,
              "d_value": spec.d_value})


# ---------------------------------------------------------------------------
# finite minimax reformulation


class MinimaxConstraint(SmoothFunction):
    """Epigraph constraint fn(x) - t <= 0 on the extended variable (x, t)."""

    def __init__(self, inner, inner_dim):
        self.inner = inner
        self.inner_dim = int(inner_dim)
        self.lipschitz = inner.lipschitz

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        return self.inner(v[:self.inner_dim]) - float(v[self.inner_dim])

    def grad(self, v):
        v = np.asarray(v, dtype=float)
        return np.concatenate([self.inner.grad(v[:self.inner_dim]), [-1.0]])

    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self.inner.values(pts[:, :self.inner_dim]) - pts[:, self.inner_dim]


def minimax_reformulate(fns, lower, upper):
    """Turn min over a box of max_j fns[j](x) into a constrained program.

    The variable becomes (x, t) with objective t, box constraints on x only
    (t free), and one epigraph constraint per function. A strictly feasible
    starting point is stored in the instance metadata.
    """
    if not fns:
        raise ValueError("at least one function is required")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    p = lower.shape[0]
    g = LinearFunction(np.concatenate([np.zeros(p), [1.0]]))
    h = BoxIndicator(np.concatenate([lower, [-np.inf]]),
                     np.concatenate([upper, [np.inf]]))
    constraints = [InequalityConstraint(MinimaxConstraint(fn, p)) for fn in fns]
    x_start = np.clip(np.zeros(p), lower, upper)
    t_start = max(fn(x_start) for fn in fns) + 1.0
    return ProblemInstance(
        g=g, h=h, dim=p + 1, constraints=constraints,
        meta={"kind": "minimax", "x0": np.concatenate([x_start, [t_start]]).tolist()})


def random_minimax_1d(m=3, seed=0, box=(-5.0, 5.0)):
    """m random strictly convex scalar quadratics a(x-b)^2 + c on a box."""
    rng = np.random.default_rng(seed)
    fns = []
    for _ in range(m):
        a = float(rng.uniform(0.2, 2.0))
        b = float(rng.uniform(box[0] / 2, box[1] / 2))
        c = float(rng.standard_normal())
        # a(x-b)^2 + c in explicit quadratic form
        fns.append(QuadraticFunction([[2 * a]], [-2 * a * b], a * b * b + c,
                                     lipschitz=2 * a))
    return fns, minimax_reformulate(fns, [box[0]], [box[1]])


# ---------------------------------------------------------------------------
# tiny references


@dataclass
class ReferenceSolution:
    """Optimal primal-dual triple with its optimal value and provenance."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    f0: float
    provenance: str
    residual: Optional[float] = None


TINY_KINDS = ("equality-qp", "scalar-qcqp", "scalar-bpdn")


def tiny_reference(kind):
    """Hand-verifiable instance plus its exact KKT triple.

    'equality-qp'  : min 0.5||x||^2 s.t. x1 + x2 = 1        -> x* = (1/2, 1/2)
    'scalar-qcqp'  : min 0.5x^2 + 2x s.t. x^2 - 1 <= 0,
                     x in [-10, 10]                           -> x* = -1
    'scalar-bpdn'  : min |x| s.t. (x-2)^2 - 1 <= 0            -> x* = 1
    """
    if kind == "equality-qp":
        prob = ProblemInstance(
            g=QuadraticFunction(np.eye(2), np.zeros(2), lipschitz=1.0),
            h=ZeroProx(), dim=2,
            affine=AffineConstraint([[1.0, 1.0]], [1.0]),
            meta={"kind": "tiny", "tiny": kind})
        ref = ReferenceSolution(np.array([0.5, 0.5]), np.array([-0.5]),
                                np.zeros(0), 0.25, "hand")
    elif kind == "scalar-qcqp":
        fn = QuadraticFunction([[2.0]], [0.0], -1.0, lipschitz=2.0)
        prob = ProblemInstance(
            g=QuadraticFunction([[1.0]], [2.0], lipschitz=1.0),
            h=BoxIndicator([-10.0], [10.0]), dim=1,
            constraints=[InequalityConstraint(fn, grad_bound=20.0)],
            meta={"kind": "tiny", "tiny": kind})
        ref = ReferenceSolution(np.array([-1.0]), np.zeros(0),
                                np.array([0.5]), -1.5, "hand")
    elif kind == "scalar-bpdn":
        fn = LeastSquaresFunction(np.array([[1.0]]), np.array([2.0]), offset=1.0,
                                  lipschitz=2.0)
        prob = ProblemInstance(
            g=ZeroFunction(), h=L1Norm(), dim=1,
            constraints=[InequalityConstraint(fn)],
            meta={"kind": "tiny", "tiny": kind})
        # subgradient balance at x=1: 1 + z * 2(1-2) = 0  ->  z = 1/2
        ref = ReferenceSolution(np.array([1.0]), np.zeros(0),
                                np.array([0.5]), 1.0, "hand")
    else:
        raise ValueError(f"unknown tiny instance kind: {kind!r}")
    return prob.with_f0_star(ref.f0), ref


# ---------------------------------------------------------------------------
# brute-force reference for dim <= 3

# The search: points per axis of the first grid (later rounds use 11),
# refinement rounds, and the half-width searched along a coordinate that h
# leaves unbounded. Multiplier recovery counts a constraint above
# -_ACTIVE_TOL as active and an l1 coordinate within _L1_ZERO_TOL of 0 as 0.
_GRID_POINTS, _REFINE_ROUNDS, _SEARCH_BOUND = 101, 80, 10.0
_ACTIVE_TOL, _L1_ZERO_TOL = 1e-6, 1e-9


def _domain_box(prob):
    inf = np.full(prob.dim, np.inf)
    lo, hi = (-inf, inf) if prob.h.domain is None else prob.h.domain
    return (np.where(np.isfinite(lo), lo, -_SEARCH_BOUND),
            np.where(np.isfinite(hi), hi, _SEARCH_BOUND))


def _grid(center, half, lower, upper, pts):
    axes = [np.linspace(max(c - h, lo), min(c + h, hi), pts)
            for c, h, lo, hi in zip(center, half, lower, upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _feasible_objective(pts, prob, manifold=None):
    """Objective over the grid with +inf at infeasible points."""
    xs = pts if manifold is None else manifold[0] + pts @ manifold[1].T
    vals = prob.g.values(xs) + prob.h.values(xs)
    for con in prob.constraints:
        vals = np.where(con.fn.values(xs) <= 0.0, vals, np.inf)
    return xs, vals


def _recover_multipliers(prob, x):
    """Least-squares fit of the stationarity condition at a solved point.

    Solves min || grad g + A'y + sum_j z_j grad f_j + s || over y free,
    z >= 0 on active constraints (inactive ones are fixed at zero), and s
    ranging over the subdifferential of h at x. Fixed subdifferential
    components are folded into the target so every fitted variable keeps a
    strict bound interval.
    """
    from scipy.optimize import lsq_linear

    target = -prob.g.grad(x)
    cols, lo, hi = [], [], []
    for row in prob.affine.A:  # y columns, free sign
        cols.append(row)
        lo.append(-np.inf)
        hi.append(np.inf)
    fvals = prob.constraint_values(x)
    active = [j for j in range(prob.m) if fvals[j] > -_ACTIVE_TOL]
    for j in active:
        cols.append(prob.constraints[j].fn.grad(x))
        lo.append(0.0)
        hi.append(np.inf)

    unit = np.eye(prob.dim)
    if isinstance(prob.h, L1Norm):
        for i in range(prob.dim):
            if abs(x[i]) > _L1_ZERO_TOL:
                target = target - prob.h.scale * np.sign(x[i]) * unit[i]
            else:
                cols.append(unit[i])
                lo.append(-prob.h.scale)
                hi.append(prob.h.scale)
    elif isinstance(prob.h, BoxIndicator):
        lo_b, hi_b = prob.h.domain
        for i in range(prob.dim):
            if x[i] <= lo_b[i] + 1e-9:
                cols.append(unit[i])
                lo.append(-np.inf)
                hi.append(0.0)
            elif x[i] >= hi_b[i] - 1e-9:
                cols.append(unit[i])
                lo.append(0.0)
                hi.append(np.inf)

    y = np.zeros(prob.affine.rows)
    z = np.zeros(prob.m)
    if not cols:
        return y, z
    M = np.stack(cols, axis=1)
    sol = lsq_linear(M, target, bounds=(np.array(lo), np.array(hi)))
    k = prob.affine.rows
    y = sol.x[:k]
    for pos, j in enumerate(active):
        z[j] = sol.x[k + pos]
    return y, z


def brute_force_reference(prob):
    """Grid minimization with local refinement; dimensions up to 3 only.

    Minimizes over the domain box (with [-10, 10] along each coordinate h
    leaves unbounded) intersected with the feasible set, shrinking the grid
    around the incumbent until machine precision, then recovers multipliers
    from a least-squares stationarity fit.
    """
    if prob.dim > 3:
        raise ValueError("brute force handles dim <= 3 only; use a long solver "
                         "run for larger instances")
    lower, upper = _domain_box(prob)

    manifold = None
    lo_p, hi_p = lower, upper
    if not prob.affine.is_empty:
        # minimize over x = base + N xi, the affine solution manifold
        A, b = prob.affine.A, prob.affine.b
        base = np.linalg.lstsq(A, b, rcond=None)[0]
        _, s, vt = np.linalg.svd(A)
        rank = int(np.sum(s > 1e-12 * s.max(initial=0.0)))
        basis = vt[rank:].T
        if basis.shape[1] == 0:  # fully determined by the equalities
            y, z = _recover_multipliers(prob, base)
            return ReferenceSolution(base, y, z, float(prob.f0(base)),
                                     "brute-force")
        manifold = (base, basis)
        width = float(np.max(upper - lower))
        lo_p = np.full(basis.shape[1], -width)
        hi_p = np.full(basis.shape[1], width)

    center = 0.5 * (lo_p + hi_p)
    half = 0.5 * (hi_p - lo_p)
    best_val, best_pt = np.inf, None
    for round_idx in range(_REFINE_ROUNDS + 1):
        pts = _grid(center, half, lo_p, hi_p,
                    _GRID_POINTS if round_idx == 0 else 11)
        xs, vals = _feasible_objective(pts, prob, manifold)
        idx = int(np.argmin(vals))
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            best_pt = pts[idx]
        if best_pt is None:
            raise ValueError("no feasible grid point found; enlarge the grid")
        center = best_pt
        half = half * 0.55
    if not np.isfinite(best_val):
        raise ValueError("no feasible grid point found; enlarge the grid")

    x = best_pt if manifold is None else manifold[0] + manifold[1] @ best_pt
    y, z = _recover_multipliers(prob, x)
    return ReferenceSolution(x, y, z, float(prob.f0(x)), "brute-force")


# ---------------------------------------------------------------------------
# JSON serialization (quadratic-family instances)


def _fn_to_dict(fn):
    if isinstance(fn, ZeroFunction):
        return {"kind": "zero"}
    if isinstance(fn, QuadraticFunction):
        return {"kind": "quadratic", "Q": fn.Q.tolist(), "c": fn.c.tolist(),
                "d": fn.d, "lipschitz": fn.lipschitz}
    if isinstance(fn, LeastSquaresFunction):
        return {"kind": "least_squares", "A": fn.A.tolist(), "b": fn.b.tolist(),
                "offset": fn.offset, "lipschitz": fn.lipschitz}
    if isinstance(fn, LinearFunction):
        return {"kind": "linear", "a": fn.a.tolist(), "shift": fn.shift}
    if isinstance(fn, MinimaxConstraint):
        return {"kind": "minimax", "inner": _fn_to_dict(fn.inner),
                "inner_dim": fn.inner_dim}
    raise ValueError(f"cannot serialize smooth function of type {type(fn).__name__}")


def _fn_from_dict(d):
    kind = d["kind"]
    if kind == "zero":
        return ZeroFunction()
    if kind == "quadratic":
        return QuadraticFunction(d["Q"], d["c"], d["d"], lipschitz=d.get("lipschitz"))
    if kind == "least_squares":
        return LeastSquaresFunction(d["A"], d["b"], offset=d["offset"],
                                    lipschitz=d.get("lipschitz"))
    if kind == "linear":
        return LinearFunction(d["a"], d["shift"])
    if kind == "minimax":
        return MinimaxConstraint(_fn_from_dict(d["inner"]), d["inner_dim"])
    raise ValueError(f"unknown smooth function kind: {kind!r}")


def _prox_to_dict(h):
    if isinstance(h, ZeroProx):
        return {"kind": "zero"}
    if isinstance(h, L1Norm):
        return {"kind": "l1", "scale": h.scale}
    if isinstance(h, BoxIndicator):
        return {"kind": "box", "lower": h.lower.tolist(), "upper": h.upper.tolist()}
    raise ValueError(f"cannot serialize prox function of type {type(h).__name__}")


def _prox_from_dict(d):
    kind = d["kind"]
    if kind == "zero":
        return ZeroProx()
    if kind == "l1":
        return L1Norm(d["scale"])
    if kind == "box":
        return BoxIndicator(d["lower"], d["upper"])
    raise ValueError(f"unknown prox function kind: {kind!r}")


def instance_to_dict(prob):
    """JSON-ready dict with dense matrices as row-major nested lists."""
    return {
        "dim": prob.dim,
        "g": _fn_to_dict(prob.g),
        "h": _prox_to_dict(prob.h),
        "affine": None if prob.affine.is_empty else
            {"A": prob.affine.A.tolist(), "b": prob.affine.b.tolist()},
        "constraints": [{"fn": _fn_to_dict(con.fn), "grad_bound": con.grad_bound}
                        for con in prob.constraints],
        "blocks": None if prob.blocks is None else
            [[sl.start, sl.stop] for sl in prob.blocks],
        "f0_star": prob.f0_star,
        "meta": {k: v for k, v in prob.meta.items()
                 if isinstance(v, (str, int, float, bool, list, type(None)))},
    }


def instance_from_dict(data):
    affine = None
    if data.get("affine"):
        affine = AffineConstraint(data["affine"]["A"], data["affine"]["b"])
    blocks = None
    if data.get("blocks"):
        blocks = tuple(slice(a, b) for a, b in data["blocks"])
    constraints = [InequalityConstraint(_fn_from_dict(c["fn"]), c.get("grad_bound"))
                   for c in data.get("constraints", [])]
    return ProblemInstance(
        g=_fn_from_dict(data["g"]), h=_prox_from_dict(data["h"]),
        dim=data["dim"], affine=affine, constraints=constraints,
        blocks=blocks, f0_star=data.get("f0_star"), meta=data.get("meta"))


def save_instance(prob, path):
    """Write the instance as JSON; an instance that cannot be serialized
    raises before the file is opened."""
    data = instance_to_dict(prob)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def load_instance(path):
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def instance_digest(prob):
    """Stable content hash used to key cached reference solutions."""
    import hashlib
    payload = json.dumps(instance_to_dict(prob), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
