"""Benchmark instance generators and reference solutions.

Provides the two experiment families (basis pursuit denoising and box-
constrained QCQP), the minimax-to-constrained reformulation, tiny
hand-verifiable reference instances with exact KKT triples, and JSON
(de)serialization of the quadratic-family instances for reproducibility.
Every other reference solution is a long solver run
(``harness.long_run_reference``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .model import (AffineConstraint, BoxIndicator, InequalityConstraint,
                    L1Norm, LeastSquaresFunction, LinearFunction,
                    ProblemInstance, QuadraticFunction, SmoothFunction,
                    ZeroFunction, ZeroProx, _set_constant, operator_norm_sq)


def _check_at_least(spec, **floors):
    """Refuse, with a ValueError naming the key, each field of ``spec``
    below its floor in ``floors`` (NaN included)."""
    for key, floor in floors.items():
        value = getattr(spec, key)
        if not value >= floor:
            raise ValueError(f"{key} must be >= {floor}, not {value!r}")


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
        _check_at_least(self, rows=1, cols=1, sparsity=0, noise=0)
        if self.sparsity > self.cols:
            raise ValueError("sparsity cannot exceed cols")


def gen_bpdn(spec):
    """Build a BPDN instance; the l1 objective has no smooth part.

    The canonical starting point stored in the metadata is the minimum-norm
    least-squares solution scaled back onto the residual-ball boundary.
    Starting there keeps the backtracked step bound at the boundary
    curvature scale; starting far outside the ball (e.g. at zero) inflates
    the monotone step bound by the initial curvature and stalls the run.
    The constraint's Lipschitz constant 2||A||^2 is computed on its first
    read, which no backtracking solve makes.
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
                              lipschitz=partial(_least_squares_lipschitz, A))
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
    p: int = 200
    box_low: float = -10.0
    box_high: float = 10.0
    d_value: float = -1.0
    seed: int = 0

    def __post_init__(self):
        _check_at_least(self, p=1, m=0)
        if self.d_value >= 0:
            raise ValueError("constraint offsets must be negative")
        if self.box_low >= self.box_high:
            raise ValueError("box_low must be below box_high")


def _gaussian_psd(rng, p, out):
    M = rng.standard_normal((p, p))
    np.matmul(M.T, M, out=out)
    out /= p
    return out


def _least_squares_lipschitz(A):
    """2 ||A||^2, the Lipschitz constant of grad ||Ax - b||^2."""
    return 2.0 * operator_norm_sq(A)


def _quadratic_lipschitz(Q):
    """||Q||, the Lipschitz constant of grad 0.5 x'Qx + c'x."""
    return float(np.sqrt(operator_norm_sq(Q)))


def _quadratic_grad_bound(fn, radius):
    """||Q|| radius + ||c||, a bound on ||Qx + c|| over the ball of that
    radius; reads (and so computes) fn.lipschitz = ||Q||."""
    return fn.lipschitz * radius + float(np.linalg.norm(fn.c))


def gen_qcqp(spec):
    """Build a QCQP instance with analytic step constants derived from the box.

    All m + 1 matrices live in one (m + 1, p, p) array and each function
    holds a view of it, so ``QuadraticStack.of`` stacks them without a copy.
    The objective's Lipschitz constant ||Q_0|| is computed here, since every
    backtracking solve seeds its step size with it. Each constraint's
    ||Q_j|| and gradient bound ||Q_j|| R + ||c_j|| (R the box's radius) are
    computed on their first read, which only analytic step sizes,
    ``save_instance`` and ``instance_digest`` make.
    """
    rng = np.random.default_rng(spec.seed)
    p = spec.p
    box_radius = float(np.linalg.norm(
        np.maximum(abs(spec.box_low), abs(spec.box_high)) * np.ones(p)))
    Qs = np.empty((spec.m + 1, p, p))
    slabs = iter(Qs)

    def quad(d):
        Q = _gaussian_psd(rng, p, next(slabs))
        return QuadraticFunction(Q, rng.standard_normal(p), d,
                                 lipschitz=partial(_quadratic_lipschitz, Q))

    g = quad(0.0)
    g.lipschitz  # read now: every backtracking solve seeds eta with it
    constraints = []
    for _ in range(spec.m):
        fn = quad(spec.d_value)
        constraints.append(InequalityConstraint(
            fn, grad_bound=partial(_quadratic_grad_bound, fn, box_radius)))
    h = BoxIndicator(np.full(p, spec.box_low), np.full(p, spec.box_high))
    return ProblemInstance(
        g=g, h=h, dim=p, constraints=constraints,
        meta={"kind": "qcqp", "seed": spec.seed, "m": spec.m, "p": p,
              "box_low": spec.box_low, "box_high": spec.box_high,
              "d_value": spec.d_value})


# ---------------------------------------------------------------------------
# finite minimax reformulation


class MinimaxConstraint(SmoothFunction):
    """Epigraph constraint fn(x) - t <= 0 on the extended variable (x, t).

    Its Lipschitz constant is the inner function's, read on first use.
    """

    def __init__(self, inner, inner_dim):
        self.inner = inner
        self.inner_dim = int(inner_dim)
        _set_constant(self, "lipschitz", partial(getattr, inner, "lipschitz"))

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        return self.inner(v[:self.inner_dim]) - float(v[self.inner_dim])

    def grad(self, v):
        v = np.asarray(v, dtype=float)
        return np.concatenate([self.inner.grad(v[:self.inner_dim]), [-1.0]])

    def as_quadratic(self, dim):
        """The inner function's form with a zero row and column for t and
        t's linear coefficient -1; None when the inner function has none."""
        inner = self.inner.as_quadratic(self.inner_dim)
        if inner is None:
            return None
        Q = np.zeros((dim, dim))
        Q[:self.inner_dim, :self.inner_dim] = inner.Q
        return QuadraticFunction(Q, np.append(inner.c, -1.0), inner.d)


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


def random_minimax_1d(m: int = 3, seed: int = 0,
                      box: tuple[float, float] = (-5.0, 5.0)):
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
# JSON serialization (quadratic-family instances)


def _fn_to_dict(fn):
    if isinstance(fn, ZeroFunction):
        return {"kind": "zero"}
    if isinstance(fn, QuadraticFunction):
        return {"kind": "quadratic", "Q": fn.Q, "c": fn.c, "d": fn.d,
                "lipschitz": fn.lipschitz}
    if isinstance(fn, LeastSquaresFunction):
        return {"kind": "least_squares", "A": fn.A, "b": fn.b,
                "offset": fn.offset, "lipschitz": fn.lipschitz}
    if isinstance(fn, LinearFunction):
        return {"kind": "linear", "a": fn.a, "shift": fn.shift}
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
        return {"kind": "box", "lower": h.lower, "upper": h.upper}
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


def _instance_tree(prob):
    """The instance as a dict of JSON values and float arrays."""
    return {
        "dim": prob.dim,
        "g": _fn_to_dict(prob.g),
        "h": _prox_to_dict(prob.h),
        "affine": None if prob.affine.is_empty else
            {"A": prob.affine.A, "b": prob.affine.b},
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
    """Write the instance as JSON, dense matrices as row-major nested lists;
    an instance that cannot be serialized raises before the file is opened."""
    text = json.dumps(_instance_tree(prob), default=np.ndarray.tolist)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def load_instance(path):
    """Read an instance written by ``save_instance``. A malformed file raises
    ValueError naming the missing key or the wrong type."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"instance file {path} must hold a JSON object, "
                         f"not a {type(data).__name__}")
    try:
        return instance_from_dict(data)
    except KeyError as exc:
        raise ValueError(f"instance file {path} lacks the key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"instance file {path} holds a value of the wrong "
                         f"type: {exc}") from exc


def instance_digest(prob):
    """Stable content hash used to key cached reference solutions: SHA-256
    over each array's dtype, shape and bytes and the JSON of the rest, so no
    matrix is turned into Python lists."""
    digest = hashlib.sha256()

    def array(a):
        a = np.ascontiguousarray(a, dtype=float)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a)
        return "array"

    rest = json.dumps(_instance_tree(prob), sort_keys=True, default=array)
    digest.update(rest.encode())
    return digest.hexdigest()
