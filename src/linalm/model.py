"""Problem model shared by all solvers.

Defines the building blocks of a composite convex program

    minimize    g(x) + h(x)
    subject to  A x = b,  f_j(x) <= 0  (j = 1..m),

where ``g`` and every ``f_j`` are convex with Lipschitz gradients and ``h``
is a proper closed convex function accessed through its proximal mapping.
Also provides the optimality metrics (KKT and feasibility residuals, the
Lagrangian gap) used for stopping and reporting.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# smooth functions


class SmoothFunction:
    """Convex differentiable function with value and gradient oracles.

    Subclasses implement ``__call__`` and ``grad``; ``lipschitz`` is the
    Lipschitz constant of the gradient when known (None otherwise).
    ``tracker`` returns per-solve mutable state supporting cheap block
    updates; the default re-evaluates from scratch.
    """

    lipschitz = None

    def __call__(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def values(self, pts):
        """Evaluate on an (n, dim) array of points, one value per row."""
        return np.array([self(p) for p in np.asarray(pts, dtype=float)])

    def tracker(self, x):
        return FullTracker(self, x)


class OracleFunction(SmoothFunction):
    """Smooth function given by black-box value/gradient callables."""

    def __init__(self, value, grad, lipschitz=None):
        self._value = value
        self._grad = grad
        self.lipschitz = lipschitz

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

    def values(self, pts):
        return np.zeros(len(pts))

    def tracker(self, x):
        return ZeroTracker(len(x))


class QuadraticFunction(SmoothFunction):
    """f(x) = 0.5 x'Qx + c'x + d with Q symmetric positive semidefinite."""

    def __init__(self, Q, c, d=0.0, lipschitz=None):
        self.Q = np.asarray(Q, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.d = float(d)
        self.lipschitz = lipschitz

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ (self.Q @ x) + self.c @ x + self.d)

    def grad(self, x):
        return _matvec(self.Q, np.asarray(x, dtype=float)) + self.c

    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        return 0.5 * np.einsum("ni,ij,nj->n", pts, self.Q, pts) + pts @ self.c + self.d

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

    def image(self, tracker):
        """The tracker's ``Q x``: linear in x, so a weighted sum of images
        is the image of the same weighted sum of points."""
        return tracker.qx


class FunctionStack:
    """k smooth functions of any kinds as one vector-valued oracle.

    Values (k,) and gradients (k, dim) at a point come from each function's
    own oracles; ``tracker`` gathers the functions' own trackers behind the
    QuadraticTracker interface.
    """

    def __init__(self, fns):
        self.fns = fns

    def __call__(self, x):
        return np.array([fn(x) for fn in self.fns])

    def value_grad(self, x):
        return self(x), np.array([fn.grad(x) for fn in self.fns])

    def tracker(self, x):
        return StackTracker([fn.tracker(x) for fn in self.fns])

    def image(self, tracker):
        """Nothing: values at a point come from the functions' own oracles."""
        return 0.0

    def values_from_image(self, x, image):
        """Values at x, evaluated there; ``image`` is unused."""
        return self(x)


def smooth_stack(prob):
    """g followed by every constraint function as one vector-valued oracle.

    A QuadraticStack, one (k, p, p) operator, when every function is a
    QuadraticFunction; otherwise a FunctionStack over the functions' own
    oracles. Solvers and the recorder use the stack's ``tracker``,
    ``value_grad``, values, ``image`` and ``values_from_image`` alike
    whichever it is.
    """
    fns = [prob.g] + [con.fn for con in prob.constraints]
    if all(type(fn) is QuadraticFunction for fn in fns):
        return QuadraticStack.of(fns)
    return FunctionStack(fns)


class LeastSquaresFunction(SmoothFunction):
    """f(x) = ||Ax - b||^2 - offset, the residual-power form used by BPDN."""

    def __init__(self, A, b, offset=0.0, lipschitz=None):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.offset = float(offset)
        # 2 ||A||^2 bounds the gradient's Lipschitz constant exactly
        self.lipschitz = lipschitz

    def __call__(self, x):
        r = self.A @ np.asarray(x, dtype=float) - self.b
        return float(r @ r - self.offset)

    def grad(self, x):
        return 2.0 * (self.A.T @ (self.A @ np.asarray(x, dtype=float) - self.b))

    def values(self, pts):
        res = np.asarray(pts, dtype=float) @ self.A.T - self.b
        return np.einsum("ni,ni->n", res, res) - self.offset

    def tracker(self, x):
        return LeastSquaresTracker(self, x)


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

    def values(self, pts):
        return np.asarray(pts, dtype=float) @ self.a + self.shift

    def tracker(self, x):
        return LinearTracker(self, x)


# ---------------------------------------------------------------------------
# incremental trackers
#
# A tracker is per-solve mutable state for one smooth function. It holds the
# current value and answers block gradients and value changes for a
# candidate change of one coordinate block, in time proportional to the
# block width where the function structure allows it.
#
# ``delta_value(sl, dx)`` remembers the products it computed, and
# ``commit(sl, dx)`` with the same ``sl`` and ``dx`` objects reuses them, so
# committing the last candidate valued costs no second product. A commit of
# any other block change, or after a rebase or another commit, computes its
# own; ``dx`` must not be changed in between.


class _TrialMemo:
    """The products of a tracker's last ``delta_value``, kept for ``commit``."""

    _trial = None

    def _remember(self, sl, dx, *products):
        self._trial = (sl, dx) + products

    def _products(self, sl, dx):
        """The products of ``delta_value(sl, dx)``: the remembered ones when
        they are for these very ``sl`` and ``dx``, else computed now."""
        trial = self._trial
        if trial is None or trial[0] is not sl or trial[1] is not dx:
            self.delta_value(sl, dx)
            trial = self._trial
        self._trial = None
        return trial[2:]


class FullTracker(_TrialMemo):
    """Fallback tracker: every query re-evaluates the wrapped function."""

    def __init__(self, fn, x):
        self.fn = fn
        self.rebase(x)

    def grad(self):
        return self.fn.grad(self.x)

    def block_grad(self, sl):
        return self.fn.grad(self.x)[sl]

    def delta_value(self, sl, dx):
        trial = self.x.copy()
        trial[sl] += dx
        value = self.fn(trial)
        self._remember(sl, dx, trial, value)
        return value - self.value

    def commit(self, sl, dx):
        self.x, self.value = self._products(sl, dx)

    def rebase(self, x):
        self._trial = None
        self.x = np.array(x, dtype=float)
        self.value = self.fn(self.x)


class QuadraticTracker(_TrialMemo):
    """Maintains q = Qx so block gradients and value deltas are O(p * width).

    Tracks one QuadraticFunction, or every function of a QuadraticStack at
    once: a stack's Q, c and d carry a leading function axis, so the same
    code answers for all k functions with one batched product per query
    (``value`` of shape (k,), block gradients of shape (k, width)).
    """

    def __init__(self, fn, x):
        self.fn = fn
        self.rebase(x)

    def rebase(self, x):
        self._trial = None
        x = np.asarray(x, dtype=float)
        self.qx = _matvec(self.fn.Q, x)
        self.value = self.fn.values_from_image(x, self.qx)

    def grad(self):
        return self.qx + self.fn.c

    def block_grad(self, sl):
        return self.qx[..., sl] + self.fn.c[..., sl]

    def delta_value(self, sl, dx):
        delta = (self.qx[..., sl] @ dx + 0.5 * ((self.fn.Q[..., sl, sl] @ dx) @ dx)
                 + self.fn.c[..., sl] @ dx)
        self._remember(sl, dx, delta)
        return delta

    def commit(self, sl, dx):
        """Apply x[sl] += dx.

        Q is symmetric, so the contiguous row block Q[sl, :] stands in for
        the strided column block Q[:, sl].
        """
        delta, = self._products(sl, dx)
        self.value = self.value + delta
        self.qx += dx @ self.fn.Q[..., sl, :]


class StackTracker:
    """A FunctionStack's per-function trackers behind the QuadraticTracker
    interface: ``value`` (k,), gradients (k, dim) or (k, width), value
    deltas (k,). Each function's tracker remembers its own trial products.
    """

    def __init__(self, trackers):
        self.trackers = trackers
        self.value = np.array([t.value for t in trackers])

    def rebase(self, x):
        for t in self.trackers:
            t.rebase(x)
        self.value = np.array([t.value for t in self.trackers])

    def grad(self):
        return np.array([t.grad() for t in self.trackers])

    def block_grad(self, sl):
        return np.array([t.block_grad(sl) for t in self.trackers])

    def delta_value(self, sl, dx):
        return np.array([t.delta_value(sl, dx) for t in self.trackers])

    def commit(self, sl, dx):
        for t in self.trackers:
            t.commit(sl, dx)
        self.value = np.array([t.value for t in self.trackers])


class LeastSquaresTracker(_TrialMemo):
    """Maintains the residual u = Ax - b for ||Ax - b||^2 - offset."""

    def __init__(self, fn, x):
        self.fn = fn
        self.rebase(x)

    def rebase(self, x):
        self._trial = None
        self.u = self.fn.A @ np.asarray(x, dtype=float) - self.fn.b
        self.value = float(self.u @ self.u - self.fn.offset)

    def grad(self):
        return 2.0 * (self.fn.A.T @ self.u)

    def block_grad(self, sl):
        return 2.0 * (self.fn.A[:, sl].T @ self.u)

    def delta_value(self, sl, dx):
        du = self.fn.A[:, sl] @ dx
        delta = float(2.0 * self.u @ du + du @ du)
        self._remember(sl, dx, du, delta)
        return delta

    def commit(self, sl, dx):
        du, delta = self._products(sl, dx)
        self.value += delta
        self.u += du


class LinearTracker(_TrialMemo):
    """Tracker for a'x + shift; gradient is constant."""

    def __init__(self, fn, x):
        self.fn = fn
        self.rebase(x)

    def rebase(self, x):
        self._trial = None
        self.value = self.fn(x)

    def grad(self):
        return self.fn.a.copy()

    def block_grad(self, sl):
        return self.fn.a[sl]

    def delta_value(self, sl, dx):
        delta = float(self.fn.a[sl] @ dx)
        self._remember(sl, dx, delta)
        return delta

    def commit(self, sl, dx):
        delta, = self._products(sl, dx)
        self.value += delta


class ZeroTracker:
    """Tracker for g identically zero: every query is free of arithmetic."""

    value = 0.0

    def __init__(self, dim):
        self._zeros = np.zeros(dim)

    def rebase(self, x):
        pass

    def grad(self):
        return np.zeros(len(self._zeros))

    def block_grad(self, sl):
        return self._zeros[sl]

    def delta_value(self, sl, dx):
        return 0.0

    def commit(self, sl, dx):
        pass


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

    def values(self, pts):
        return np.array([self.value(p) for p in np.asarray(pts, dtype=float)])


class ZeroProx(ProxFunction):
    """h identically zero; prox is the identity."""

    is_indicator = True  # indicator of the whole space

    def value(self, x):
        return 0.0

    def prox(self, v, weight):
        return np.array(v, dtype=float)

    def block(self, sl):
        return self

    def values(self, pts):
        return np.zeros(len(pts))


class L1Norm(ProxFunction):
    """h(x) = scale * ||x||_1; prox is soft thresholding."""

    def __init__(self, scale=1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def value(self, x):
        return self.scale * float(np.sum(np.abs(x)))

    def prox(self, v, weight):
        return prox_l1(v, weight * self.scale)

    def block(self, sl):
        return self

    def values(self, pts):
        return self.scale * np.sum(np.abs(np.asarray(pts, dtype=float)), axis=1)


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
        # the bounds were checked once, at construction
        return np.clip(np.asarray(v, dtype=float), self.lower, self.upper)

    def block(self, sl):
        return BoxIndicator(self.lower[sl], self.upper[sl])

    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        ok = np.all(pts >= self.lower, axis=1) & np.all(pts <= self.upper, axis=1)
        return np.where(ok, 0.0, np.inf)


# ---------------------------------------------------------------------------
# constraints


class InequalityConstraint:
    """One smooth constraint fn(x) <= 0, evaluated through ``fn``.

    ``grad_bound`` is an upper bound on ||grad fn|| over the domain when
    available; together with ``fn.lipschitz`` it enables analytic step
    sizes. Either may be None, in which case solvers fall back to
    backtracking.
    """

    def __init__(self, fn, grad_bound=None):
        self.fn = fn
        self.grad_bound = None if grad_bound is None else float(grad_bound)


class AffineConstraint:
    """Equality constraints A x = b, their residual and a cached ||A||^2."""

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float).ravel()
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b row counts differ")
        self._op_norm_sq = None

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

    def op_norm_sq(self):
        """Cached ||A||^2 (largest eigenvalue of A'A)."""
        if self._op_norm_sq is None:
            self._op_norm_sq = operator_norm_sq(self.A)
        return self._op_norm_sq


def even_blocks(dim, n):
    """Partition [0, dim) into n contiguous slices with widths differing by <= 1."""
    if not 1 <= n <= dim:
        raise ValueError(f"need 1 <= n <= dim, got n={n}, dim={dim}")
    bounds = np.linspace(0, dim, n + 1).round().astype(int)
    return tuple(slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))


def _check_blocks(blocks, dim):
    pos = 0
    for sl in blocks:
        if sl.start != pos or sl.stop <= sl.start or sl.step not in (None, 1):
            raise ValueError("blocks must be contiguous, disjoint, and ordered")
        pos = sl.stop
    if pos != dim:
        raise ValueError("blocks must cover all coordinates")


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


def primal_start(prob, x0=None):
    """Every solver's start point: x0 as a fresh flat float vector of length
    prob.dim, zeros when None."""
    x = np.zeros(prob.dim) if x0 is None else np.array(x0, dtype=float).ravel()
    if x.shape[0] != prob.dim:
        raise ValueError(f"x has dim {x.shape[0]}, expected {prob.dim}")
    return x


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
        x = primal_start(prob, x)
        y = np.zeros(prob.affine.rows) if y is None else np.array(y, dtype=float).ravel()
        z = np.zeros(prob.m) if z is None else np.array(z, dtype=float).ravel()
        if y.shape[0] != prob.affine.rows:
            raise ValueError("y length does not match equality constraint count")
        if z.shape[0] != prob.m:
            raise ValueError("z length does not match inequality constraint count")
        if np.any(z < 0):
            raise ValueError("multipliers z must be nonnegative")
        return cls(x, y, z, prob.affine.residual(x), prob.constraint_values(x))


# ---------------------------------------------------------------------------
# elementary operations


def prox_l1(v, tau):
    """Soft thresholding: componentwise sign(v) * max(|v| - tau, 0)."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("prox_l1 requires finite input")
    if tau <= 0:
        raise ValueError("threshold must be positive")
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_box(v, lower, upper):
    """Componentwise clamp of v into [lower, upper]."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower > upper):
        raise ValueError("box requires lower <= upper componentwise")
    return np.clip(np.asarray(v, dtype=float), lower, upper)


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
