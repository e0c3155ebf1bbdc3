"""Problem model shared by all solvers.

Defines the building blocks of a composite convex program

    minimize    g(x) + h(x)
    subject to  A x = b,  f_j(x) <= 0  (j = 1..m),

where ``g`` and every ``f_j`` are convex with Lipschitz gradients and ``h``
is a proper closed convex function accessed through its proximal mapping.
Also provides the optimality metrics: the KKT and feasibility residuals,
which solvers record and stop on, and the Lagrangian gap, which no solver
reads (a check for a candidate KKT point).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SolverError(RuntimeError):
    """Solver aborted; carries the trace recorded up to the failure. Here for
    ``FunctionStack.grad``, which raises it; ``trace`` and ``lalm`` import it."""

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records or []


def _resolved(value):
    """A constant given as a number, None, or a zero-argument function to
    run on its first read: that function's result, else the value itself."""
    return value() if callable(value) else value


# ---------------------------------------------------------------------------
# smooth functions


class SmoothFunction:
    """Convex differentiable function with value and gradient oracles.

    Subclasses implement ``__call__`` and ``grad``; ``lipschitz`` is the
    Lipschitz constant of the gradient when known (None otherwise). The
    constructors of the oracle, quadratic and least-squares functions also
    take it as a zero-argument function, which runs on the first read of
    ``lipschitz`` (analytic step sizes read it, as do the default
    backtracking seed for g, ``save_instance`` and ``instance_digest``);
    the result is then kept. ``as_quadratic(dim)`` gives the function as a
    QuadraticFunction on R^dim, so that ``smooth_stack`` can stack it into
    one operator; the default, for functions with no such form, is None.
    """

    _lipschitz = None   # a number, None or a zero-argument function

    @cached_property
    def lipschitz(self):
        return _resolved(self._lipschitz)

    def __call__(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def as_quadratic(self, dim):
        return None


class OracleFunction(SmoothFunction):
    """Smooth function given by black-box value/gradient callables."""

    def __init__(self, value, grad, lipschitz=None):
        self._value = value
        self._grad = grad
        self._lipschitz = lipschitz

    def __call__(self, x):
        return float(self._value(np.asarray(x, dtype=float)))

    def grad(self, x):
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)


class ZeroFunction(SmoothFunction):
    """g identically zero (gradient zero, Lipschitz constant zero)."""

    lipschitz = 0.0

    def __call__(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def as_quadratic(self, dim):
        return QuadraticFunction(np.zeros((dim, dim)), np.zeros(dim))


class QuadraticFunction(SmoothFunction):
    """f(x) = 0.5 x'Qx + c'x + d with Q symmetric positive semidefinite."""

    def __init__(self, Q, c, d=0.0, lipschitz=None):
        self.Q = np.asarray(Q, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.d = float(d)
        self._lipschitz = lipschitz

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ (self.Q @ x) + self.c @ x + self.d)

    def grad(self, x):
        return _matvec(self.Q, np.asarray(x, dtype=float)) + self.c

    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        return 0.5 * np.einsum("ni,ij,nj->n", pts, self.Q, pts) + pts @ self.c + self.d

    def as_quadratic(self, dim):
        return self

    def tracker(self, x):
        return QuadraticTracker(self, x)

    def values_from_image(self, x, qx):
        """Value at x given its image qx = Q x, with no product with Q."""
        return 0.5 * (qx @ x) + self.c @ x + self.d


def _matvec(Q, x):
    """Q @ x over the last axis of a (p, p) or (k, p, p) C-contiguous array,
    as one matrix-vector product."""
    p = Q.shape[-1]
    return (Q.reshape(-1, p) @ x).reshape(Q.shape[:-1])


class QuadraticStack(QuadraticFunction):
    """k quadratics 0.5 x'Q_i x + c_i'x + d_i held as one (k, p, p) array.

    A vector-valued QuadraticFunction: Q, c and d carry a leading function
    axis, so its value at a point is a (k,) array and its gradient, from
    one product with the stacked Q, a (k, p) array. Build it with ``of``.
    """

    def __init__(self, Q, c, d):
        self.Q = Q
        self.c = c
        self.d = d

    @classmethod
    def of(cls, fns):
        """Stack of QuadraticFunctions, sharing their memory when it can.

        When the functions' Q's are consecutive (p, p) views of one array,
        as ``gen_qcqp`` makes them, the stack is a view of that array;
        otherwise the Q's are copied into a new one.
        """
        Q0 = fns[0].Q
        k, p = len(fns), Q0.shape[0]
        item = Q0.itemsize
        start = Q0.__array_interface__["data"][0]
        shared = Q0.base is not None and all(
            fn.Q.base is Q0.base and fn.Q.shape == (p, p) and fn.Q.flags.c_contiguous
            and fn.Q.__array_interface__["data"][0] == start + i * p * p * item
            for i, fn in enumerate(fns))
        if shared:
            # every (p, p) slab of the view is one of the fns' own views
            Q = np.lib.stride_tricks.as_strided(
                Q0, (k, p, p), (p * p * item, p * item, item), writeable=False)
        else:
            Q = np.stack([fn.Q for fn in fns])
        return cls(Q, np.stack([fn.c for fn in fns]), np.array([fn.d for fn in fns]))

    def __call__(self, x):
        return self.value_grad(x)[0]

    def value_grad(self, x):
        """Values (k,) and gradients (k, p) at x from one product, using
        f(x) = x'(grad f(x) + c)/2 + d for a quadratic."""
        x = np.asarray(x, dtype=float)
        grads = self.grad(x)
        return 0.5 * ((grads + self.c) @ x) + self.d, grads


class FunctionStack:
    """k smooth functions of any kinds as one vector-valued oracle.

    Values (k,) and gradients (k, dim) at a point come from each function's
    own oracles; ``tracker`` is a FullTracker over the whole stack.
    """

    def __init__(self, fns):
        self.fns = fns

    def __call__(self, x):
        return np.array([fn(x) for fn in self.fns])

    def grad(self, x):
        """Gradients (k, dim); a non-finite one raises SolverError."""
        grads = np.array([fn.grad(x) for fn in self.fns])
        if not np.isfinite(grads).all():
            raise SolverError("non-finite gradient of the smooth part")
        return grads

    def value_grad(self, x):
        return self(x), self.grad(x)

    def tracker(self, x):
        return FullTracker(self, x)

    def values_from_image(self, x, image):
        """Values at x, evaluated there; ``image`` is unused."""
        return self(x)


def smooth_stack(prob):
    """g followed by every constraint function as one vector-valued oracle.

    A QuadraticStack, one (k, p, p) operator of the functions'
    ``as_quadratic`` forms, when every function has one; otherwise a
    FunctionStack over the functions' own oracles. The forms are made anew
    on every call, and none is kept on the instance. A solve builds it once,
    for its ``tracker``, and then reaches it only as the tracker's ``fn``.
    """
    fns = [prob.g] + [con.fn for con in prob.constraints]
    forms = [fn.as_quadratic(prob.dim) for fn in fns]
    if all(form is not None for form in forms):
        return QuadraticStack.of(forms)
    return FunctionStack(fns)


class LeastSquaresFunction(SmoothFunction):
    """f(x) = ||Ax - b||^2 - offset, the residual-power form used by BPDN."""

    def __init__(self, A, b, offset=0.0, lipschitz=None):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.offset = float(offset)
        # 2 ||A||^2 bounds the gradient's Lipschitz constant exactly
        self._lipschitz = lipschitz

    def __call__(self, x):
        r = self.A @ np.asarray(x, dtype=float) - self.b
        return float(r @ r - self.offset)

    def grad(self, x):
        return 2.0 * (self.A.T @ (self.A @ np.asarray(x, dtype=float) - self.b))

    def as_quadratic(self, dim):
        """0.5 x'(2A'A)x - 2b'Ax + b'b - offset: a p x p Gram matrix, so each
        product costs p^2 where one with A costs rows * p."""
        A, b = self.A, self.b
        return QuadraticFunction(2.0 * (A.T @ A), -2.0 * (A.T @ b), b @ b - self.offset)


class LinearFunction(SmoothFunction):
    """f(x) = a'x + shift (gradient constant, Lipschitz constant zero)."""

    lipschitz = 0.0

    def __init__(self, a, shift=0.0):
        self.a = np.asarray(a, dtype=float)
        self.shift = float(shift)

    def __call__(self, x):
        return float(self.a @ np.asarray(x, dtype=float) + self.shift)

    def grad(self, x):
        return self.a.copy()

    def as_quadratic(self, dim):
        return QuadraticFunction(np.zeros((dim, dim)), self.a, self.shift)


# ---------------------------------------------------------------------------
# incremental trackers
#
# A tracker is per-solve mutable state for a smooth stack (see
# ``smooth_stack``). It holds the current values and answers block gradients
# and value changes for a candidate change of one coordinate block, in time
# proportional to the block width where the stack is quadratic.
#
# ``delta_value(sl, dx)`` returns the values' change that x[sl] += dx makes
# and the products that valued it (for a quadratic, the block's row product
# dx @ Q[sl, :]); ``commit(sl, value, products)`` applies that change with
# the caller's ``value + delta`` as its values, computing nothing itself.
# ``block_grad(sl)`` keeps its result, which callers must not change, until
# the next commit or rebase: reads through one slice object (lalm's and
# pdyn's record and next step) pay for one sum or gradient oracle call.


class FullTracker:
    """Tracker of a FunctionStack: every query re-evaluates the stack, whose
    values are (k,) and gradients (k, dim), so block gradients are (k, width).
    It has no ``image``: values come from the functions' own oracles, and a
    trial's product is its moved point."""

    image = 0.0

    def __init__(self, fn, x):
        self.fn = fn
        self.rebase(x)

    def block_grad(self, sl):
        kept = self._grad
        if kept is None or kept[0] is not sl:
            kept = self._grad = (sl, self.fn.grad(self.x)[..., sl])
        return kept[1]

    def delta_value(self, sl, dx):
        moved = self.x.copy()
        moved[sl] += dx
        return self.fn(moved) - self.value, moved

    def commit(self, sl, value, moved):
        self._grad = None
        self.x = moved
        self.value = value

    def rebase(self, x):
        self._grad = None
        self.x = np.array(x, dtype=float)
        self.value = self.fn(self.x)


class QuadraticTracker:
    """Maintains its ``image`` q = Qx (linear in x, so ergodic sums of images
    are images) so block gradients and value deltas are O(p * width).

    Tracks one QuadraticFunction, or every function of a QuadraticStack at
    once: a stack's Q, c and d carry a leading function axis, so the same
    code answers for all k functions with one batched product per query
    (``value`` of shape (k,), block gradients of shape (k, width)).

    A block change takes one product with Q. ``delta_value`` forms the
    block's row product u = dx @ Q[sl, :] (Q is symmetric, so the contiguous
    rows stand in for the strided columns) and values the trial from the
    block gradient as (grad_blk + u[sl] / 2) @ dx; the commit of that trial
    adds u to q.
    """

    def __init__(self, fn, x):
        self.fn = fn
        self.rebase(x)

    def rebase(self, x):
        self._grad = None
        x = np.asarray(x, dtype=float)
        self.image = _matvec(self.fn.Q, x)
        self.value = self.fn.values_from_image(x, self.image)

    def block_grad(self, sl):
        kept = self._grad
        if kept is None or kept[0] is not sl:
            kept = self._grad = (sl, self.image[..., sl] + self.fn.c[..., sl])
        return kept[1]

    def delta_value(self, sl, dx):
        u = dx @ self.fn.Q[..., sl, :]
        return (self.block_grad(sl) + 0.5 * u[..., sl]) @ dx, u

    def commit(self, sl, value, u):
        """Apply x[sl] += dx, valued by ``delta_value(sl, dx)`` as u."""
        self._grad = None
        self.value = value
        self.image += u


def _unreached(tracker, *args):
    raise NotImplementedError(f"no {type(tracker).__name__} is ever built")


# No tracker of these two kinds is built: least squares and linear functions
# stack as quadratics. perfbench/tracing.py wraps their four methods by
# name, so the names stay until its wrappers go (ROADMAP item 1).
class LeastSquaresTracker:
    commit = delta_value = block_grad = rebase = _unreached


class LinearTracker:
    commit = delta_value = block_grad = rebase = _unreached


# ---------------------------------------------------------------------------
# prox functions


class ProxFunction:
    """Proper closed convex function accessed through value and prox oracles.

    ``prox(v, weight)`` returns argmin_u  value(u) + ||u - v||^2 / (2 weight);
    as weight grows the output tends to the minimizer set (for indicators,
    the projection onto the domain). ``domain`` is a (lower, upper) pair when
    the effective domain is a box, else None. ``block(sl)`` returns the
    restriction to one coordinate block for separable functions, else None.
    """

    domain = None
    is_indicator = False

    def value(self, x):
        raise NotImplementedError

    def prox(self, v, weight):
        raise NotImplementedError

    def block(self, sl):
        return None


class ZeroProx(ProxFunction):
    """h identically zero; prox is the identity."""

    is_indicator = True  # indicator of the whole space

    def value(self, x):
        return 0.0

    def prox(self, v, weight):
        return np.array(v, dtype=float)

    def block(self, sl):
        return self


class L1Norm(ProxFunction):
    """h(x) = scale * ||x||_1; prox is soft thresholding."""

    def __init__(self, scale=1.0):
        if scale <= 0:
            raise ValueError(f"scale must be positive, not {scale!r}")
        self.scale = float(scale)

    def value(self, x):
        return self.scale * float(np.sum(np.abs(x)))

    def prox(self, v, weight):
        """Soft thresholding sign(v) * max(|v| - weight * scale, 0), the one
        place it is written. No finiteness check, as in the other proxes:
        prox_step refuses a non-finite gradient and run_epochs a non-finite
        iterate."""
        return np.sign(v) * np.maximum(np.abs(v) - weight * self.scale, 0.0)

    def block(self, sl):
        return self


class BoxIndicator(ProxFunction):
    """Indicator of the box [lower, upper]; prox is the projection (clamp)."""

    is_indicator = True

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")
        self.domain = (self.lower, self.upper)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if np.all(x >= self.lower) and np.all(x <= self.upper):
            return 0.0
        return np.inf

    def prox(self, v, weight):
        # the bounds were checked once, at construction; the two ufuncs give
        # np.clip's bits without its Python wrapper
        return np.minimum(np.maximum(v, self.lower), self.upper)

    def block(self, sl):
        return BoxIndicator(self.lower[sl], self.upper[sl])


# ---------------------------------------------------------------------------
# constraints


class InequalityConstraint:
    """One smooth constraint fn(x) <= 0, evaluated through ``fn``.

    ``grad_bound`` is an upper bound on ||grad fn|| over the domain when
    available; together with ``fn.lipschitz`` it enables analytic step
    sizes. Either may be None, in which case solvers fall back to
    backtracking. Like ``fn.lipschitz``, ``grad_bound`` may be given as a
    zero-argument function, which runs on its first read (analytic step
    sizes, ``save_instance`` and ``instance_digest`` read it); the result
    is then kept.
    """

    def __init__(self, fn, grad_bound=None):
        self.fn = fn
        self._grad_bound = (grad_bound if grad_bound is None or callable(grad_bound)
                            else float(grad_bound))

    @cached_property
    def grad_bound(self):
        return _resolved(self._grad_bound)


class AffineConstraint:
    """Equality constraints A x = b and their residual."""

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float).ravel()
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError(f"A has {self.A.shape[0]} rows but b has {len(self.b)}")

    @classmethod
    def empty(cls, dim):
        return cls(np.zeros((0, dim)), np.zeros(0))

    @property
    def rows(self):
        return self.A.shape[0]

    @property
    def is_empty(self):
        return self.A.shape[0] == 0

    def residual(self, x):
        return self.A @ x - self.b


def even_blocks(dim, n):
    """Partition [0, dim) into n contiguous slices with widths differing by <= 1."""
    if not 1 <= n <= dim:
        raise ValueError(f"need 1 <= n <= dim, got n={n}, dim={dim}")
    bounds = np.linspace(0, dim, n + 1).round().astype(int)
    return tuple(slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))


def _check_blocks(blocks, dim):
    pos = 0
    for sl in blocks:
        if (not all(isinstance(b, (int, np.integer)) for b in (sl.start, sl.stop))
                or sl.start != pos or sl.stop <= sl.start or sl.step not in (None, 1)):
            raise ValueError("blocks must be contiguous, ordered integer slices")
        pos = sl.stop
    if pos != dim:
        raise ValueError(f"blocks must cover [0, {dim}), not [0, {pos})")


class ProblemInstance:
    """Immutable composite convex program.

    Parameters
    ----------
    g : SmoothFunction
    h : ProxFunction
    dim : int
        Number of primal variables.
    affine : AffineConstraint, optional
        Equality part; None means no equality constraints.
    constraints : sequence of InequalityConstraint, optional
    blocks : sequence of slice, optional
        Contiguous disjoint coordinate blocks covering [0, dim).
    f0_star : float, optional
        Known optimal value, used for gap reporting.
    meta : dict, optional
        Generator metadata (spec, seed, ground truth, ...).
    """

    def __init__(self, g, h, dim, affine=None, constraints=(), blocks=None,
                 f0_star=None, meta=None):
        self.g = g
        self.h = h
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
            raise ValueError(f"dim must be an integer, not {dim!r}")
        self.dim = int(dim)
        self.affine = AffineConstraint.empty(dim) if affine is None else affine
        self.constraints = tuple(constraints)
        if blocks is not None:
            blocks = tuple(blocks)
            _check_blocks(blocks, self.dim)
        self.blocks = blocks
        self.f0_star = None if f0_star is None else float(f0_star)
        self.meta = dict(meta or {})

    @property
    def m(self):
        return len(self.constraints)

    @cached_property
    def penalty_constants(self):
        """(L, B2), the arrays of each constraint's L_j = ``fn.lipschitz`` and
        B_j^2 = ``grad_bound``^2 for analytic step bounds, or None when a
        constraint lacks either; computed on its first read."""
        pairs = [(con.fn.lipschitz, con.grad_bound) for con in self.constraints]
        if any(lip is None or bound is None for lip, bound in pairs):
            return None
        return (np.array([lip for lip, _ in pairs]),
                np.array([bound ** 2 for _, bound in pairs]))

    def f0(self, x):
        """Composite objective g(x) + h(x); +inf outside dom(h)."""
        return self.g(x) + self.h.value(x)

    def constraint_values(self, x):
        return np.array([con.fn(x) for con in self.constraints])

    def with_blocks(self, n):
        """Copy of this instance carrying an even n-block partition."""
        return ProblemInstance(self.g, self.h, self.dim, self.affine,
                               self.constraints, even_blocks(self.dim, n),
                               self.f0_star, self.meta)

    def with_f0_star(self, f0_star):
        return ProblemInstance(self.g, self.h, self.dim, self.affine,
                               self.constraints, self.blocks, f0_star, self.meta)


def _check_finite(name, v):
    if not np.isfinite(v).all():
        raise ValueError(f"start point {name} must be finite")


@dataclass
class PrimalDualPoint:
    """Primal-dual triple with cached equality residual and constraint values."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    r: np.ndarray
    fvals: np.ndarray

    @classmethod
    def at(cls, prob, x=None, y=None, z=None):
        """The checked start (x, y, z) with its residual and constraint
        values, each constraint oracle called once at x."""
        x, y, z = checked_start(prob, x, y, z)
        return cls(x, y, z, prob.affine.residual(x), prob.constraint_values(x))

    @classmethod
    def of(cls, state):
        """A detached copy of the point of a solver's live state, a
        ``BlockState`` or a ``PdynState``."""
        return cls(state.x.copy(), state.y.copy(), state.z.copy(),
                   state.r.copy(), state.fvals.copy())


def checked_start(prob, x, y, z):
    """Every solver's start point, as fresh flat float vectors (x, y, z),
    each None giving zeros: x of length prob.dim, y one entry per equality
    row and z one nonnegative entry per inequality constraint, all finite.
    Calls no oracle."""
    x = np.zeros(prob.dim) if x is None else np.array(x, dtype=float).ravel()
    if x.shape[0] != prob.dim:
        raise ValueError(f"x has dim {x.shape[0]}, expected {prob.dim}")
    _check_finite("x0", x)
    y = np.zeros(prob.affine.rows) if y is None else np.array(y, dtype=float).ravel()
    z = np.zeros(prob.m) if z is None else np.array(z, dtype=float).ravel()
    for name, v, n in (("y", y, prob.affine.rows), ("z", z, prob.m)):
        if v.shape[0] != n:
            raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
        _check_finite(name + "0", v)
    if np.any(z < 0):
        raise ValueError("multipliers z must be nonnegative")
    return x, y, z


# ---------------------------------------------------------------------------
# optimality metrics


KktResidual = namedtuple("KktResidual", "stationarity feasibility complementarity")


def lagrangian_gap(x_new, at, prob):
    """Lagrangian-gap functional of a candidate point against a primal-dual pair.

    Returns f0(x_new) - f0(at.x) + y'(A x_new - b) + sum_j z_j f_j(x_new).
    Nonnegative for every x_new whenever ``at`` is a KKT point.
    """
    x_new = np.asarray(x_new, dtype=float)
    gap = prob.f0(x_new) - prob.f0(at.x)
    if not prob.affine.is_empty:
        gap += float(at.y @ prob.affine.residual(x_new))
    if prob.constraints:
        gap += float(at.z @ prob.constraint_values(x_new))
    return gap


def feasibility_residual(x, prob, r=None, fvals=None):
    """||Ax - b|| plus the summed positive parts of the inequality values."""
    r = prob.affine.residual(x) if r is None else r
    fvals = prob.constraint_values(x) if fvals is None else fvals
    return float(np.linalg.norm(r) + np.sum(np.maximum(fvals, 0.0)))


def kkt_residual(w, prob, grads=None):
    """Stationarity, primal feasibility, and complementarity residuals.

    Stationarity is measured through the unit-weight prox-gradient map
    ||x - prox_h(x - (grad g + A'y + sum_j z_j grad f_j))||, so all three
    components vanish exactly at a KKT point (for x in dom(h)). ``grads``
    optionally gives grad g(x) followed by every grad f_j(x) as one
    (1 + m, dim) array; by default each gradient oracle is called, which is
    the reference the stacked form is tested against.
    """
    if np.any(w.z < 0):
        raise ValueError("multipliers z must be nonnegative")
    total = prob.g.grad(w.x) if grads is None else grads[0]
    if not prob.affine.is_empty:
        total = total + prob.affine.A.T @ w.y
    if grads is not None:
        total = total + w.z @ grads[1:]
    else:
        for zj, con in zip(w.z, prob.constraints):
            if zj != 0.0:
                total = total + zj * con.fn.grad(w.x)
    stationarity = float(np.linalg.norm(w.x - prob.h.prox(w.x - total, 1.0)))
    feas = feasibility_residual(w.x, prob, r=w.r, fvals=w.fvals)
    comp = float(np.sum(np.abs(w.z * w.fvals))) if prob.m else 0.0
    return KktResidual(stationarity, feas, comp)


class PowerIterationError(RuntimeError):
    """Carries an operator-norm estimate. Nothing raises it: ``operator_norm_sq``
    is exact. The class stays importable for callers that still catch it."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


def operator_norm_sq(A):
    """||A||^2: the largest eigenvalue of the smaller Gram matrix, AA' or A'A.

    Exact to roundoff, so step bounds built on it are never below the
    Lipschitz constants they bound; 0.0 for an empty operator.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        return 0.0
    gram = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return float(np.linalg.eigvalsh(gram)[-1])
