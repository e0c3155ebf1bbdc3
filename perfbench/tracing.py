"""Spans recorded from outside the library, by wrapping its public names.

A wrapper is installed on the name a caller resolves at call time: a module
global looked up through the module (``auglag.scalar_penalty``), a class
attribute (``QuadraticTracker.commit``), or the copy a module bound with
``from .lalm import ...`` (``blalm.descent_holds``, ``pdyn.descent_holds``).
``Tracer.installed()`` puts every wrapper in place and restores the original
objects on exit, so untraced solves run the library untouched.

Each span has a name, start, end, parent and the id of the solve it belongs
to. Calls and computed bytes made while a ``trace.snapshot`` span is open
are also counted under ``snapshot:<name>``, so the solver's own oracle work
can be told apart from the recorder's. Totals per (solver, name) are kept
for every span; the full span list is kept in memory only for the first
traced solve of each solver and written out at the end, because a pdyn
solve makes over 10^5 spans.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from linalm import auglag, blalm, instances, lalm, model, pdyn, trace

_F64 = 8  # bytes per float64 entry

# Computed bytes moved by one call: p^2 * 8 per dense quadratic matvec,
# rows * width * 8 per least-squares block product.
def _quad_full(fn, *_):
    return fn.Q.size * _F64


def _ls_full(fn, *_):
    return fn.A.size * _F64


def _width(sl):
    return sl.stop - sl.start


def _quad_tracker(attr):
    def nbytes(tr, *args):
        if attr == "rebase":
            return tr.fn.Q.size * _F64
        if attr == "block_grad":     # reads the maintained Qx only
            return 0
        width = _width(args[0])
        return (tr.fn.Q.shape[0] * width if attr == "commit" else width * width) * _F64
    return nbytes


def _ls_tracker(attr):
    def nbytes(tr, *args):
        if attr == "rebase":
            return tr.fn.A.size * _F64
        return tr.fn.A.shape[0] * _width(args[0]) * _F64
    return nbytes


_TRACKER_ATTRS = ("commit", "delta_value", "block_grad", "rebase")


def _targets():
    """(owner, attribute, span name, bytes function or None) for every wrapper."""
    out = [
        (model.QuadraticFunction, "__call__", "model.oracle_value", _quad_full),
        (model.QuadraticFunction, "grad", "model.oracle_grad", _quad_full),
        (model.LeastSquaresFunction, "__call__", "model.oracle_value", _ls_full),
        (model.LeastSquaresFunction, "grad", "model.oracle_grad",
         lambda fn, *_: 2 * fn.A.size * _F64),
        (model.ZeroFunction, "__call__", "model.oracle_value", None),
        (model.ZeroFunction, "grad", "model.oracle_grad", None),
        (model.L1Norm, "prox", "model.prox", None),
        (model.BoxIndicator, "prox", "model.prox", None),
        (model.ZeroProx, "prox", "model.prox", None),
        (trace, "kkt_residual", "model.kkt_residual", None),
        (trace.MetricsRecorder, "snapshot", "trace.snapshot", None),
        (auglag, "smooth_grad", "auglag.smooth_grad", None),
        (auglag, "smooth_value", "auglag.smooth_value", None),
        (auglag, "smooth_grad_block", "auglag.smooth_grad_block", None),
        (auglag, "scalar_penalty", "auglag.scalar_penalty", None),
        (lalm, "backtrack_primal", "lalm.backtrack", None),
        (lalm, "multiplier_step_y", "lalm.multiplier", None),
        (lalm, "multiplier_step_z", "lalm.multiplier", None),
        (lalm, "descent_holds", "lalm.descent_test", None),
        (blalm.BlockState, "block_gradient", "blalm.block_gradient", None),
        (blalm.BlockState, "backtrack_block", "blalm.backtrack_block", None),
        (blalm.BlockState, "apply_block", "blalm.apply_block", None),
        (blalm.BlockState, "refresh", "blalm.refresh", None),
        (blalm, "multiplier_step_y", "blalm.multiplier", None),
        (blalm, "multiplier_step_z", "blalm.multiplier", None),
        (blalm, "descent_holds", "blalm.descent_test", None),
        (pdyn, "step", "pdyn.step", None),
        (pdyn, "direction", "pdyn.direction", None),
        (pdyn, "_phi", "pdyn.phi", None),
        (pdyn, "descent_holds", "pdyn.descent_test", None),
        (instances, "gen_qcqp", "instances.gen", None),
        (instances, "gen_bpdn", "instances.gen", None),
        (instances, "operator_norm_sq", "model.operator_norm_sq", None),
    ]
    for cls, nbytes in ((model.QuadraticTracker, _quad_tracker),
                        (model.LeastSquaresTracker, _ls_tracker),
                        (model.LinearTracker, None), (model.FullTracker, None)):
        for attr in _TRACKER_ATTRS:
            out.append((cls, attr, f"model.tracker_{attr}",
                        None if nbytes is None else nbytes(attr)))
    return out


class Tracer:
    """Span totals per (solver, span name), counters, and kept span lists."""

    def __init__(self):
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl s, self s
        self.counts = defaultdict(float)                   # (solver, counter)
        self.spans = []
        self.owner = "setup"
        self._keep = False
        self._solve_id = 0
        self._next_span = 0
        self._stack = []   # frames: [child seconds, span id]
        self._snapshots = 0  # trace.snapshot spans open on the stack

    # -- recording --------------------------------------------------------

    def _enter(self):
        span_id = self._next_span
        self._next_span += 1
        self._stack.append([0.0, span_id])
        return span_id

    def _exit(self, name, span_id, start, end):
        frame = self._stack.pop()
        dur = end - start
        tot = self.totals[(self.owner, name)]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[0]
        if self._snapshots:
            self.count(f"snapshot:{name}")
        parent = None
        if self._stack:
            self._stack[-1][0] += dur
            parent = self._stack[-1][1]
        if self._keep:
            self.spans.append((self._solve_id, span_id, parent, name, start, end))

    def count(self, key, amount=1):
        self.counts[(self.owner, key)] += amount

    def wrap(self, name, fn, nbytes=None):
        snapshot = name == "trace.snapshot"

        def traced(*args, **kwargs):
            span_id = self._enter()
            self._snapshots += snapshot
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._snapshots -= snapshot
                self._exit(name, span_id, start, end)
            if nbytes is not None:
                nb = nbytes(*args)
                self.count("matvec_bytes", nb)
                if self._snapshots:
                    self.count("snapshot:matvec_bytes", nb)
            return out
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def solve_span(self, solver, keep):
        """Root span of one solve; its self time is the solver loop itself."""
        self.owner = solver
        self._solve_id += 1
        self._keep = keep
        span_id = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(f"{solver}.solve", span_id, start, perf_counter())
            self._keep = False
            self.owner = "setup"

    # -- installing wrappers -------------------------------------------------

    def _extra_hooks(self, owner, attr, fn):
        """Wrappers that also read a solver's own report of its work."""
        if owner is lalm and attr == "backtrack_primal":
            def backtrack_primal(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.count("backtrack_calls")
                self.count("backtrack_trials", out[5])
                return out
            return backtrack_primal
        if owner is blalm.BlockState and attr == "backtrack_block":
            def backtrack_block(state, *args, **kwargs):
                out = fn(state, *args, **kwargs)
                self.count("backtrack_calls")
                self.count("backtrack_trials", state.last_trials)
                return out
            return backtrack_block
        return fn

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, nbytes in _targets():
                original = vars(owner)[attr]   # KeyError: the library moved it
                saved.append((owner, attr, original))
                inner = self._extra_hooks(owner, attr, original)
                setattr(owner, attr, self.wrap(name, inner, nbytes))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading results -----------------------------------------------------

    def _sum(self, table, key, owner, field=None):
        return sum(v if field is None else v[field] for (o, k), v in table.items()
                   if k == key and (owner is None or o == owner))

    def calls(self, name, owner=None):
        return self._sum(self.totals, name, owner, 0)

    def incl_s(self, name, owner=None):
        return self._sum(self.totals, name, owner, 1)

    def self_s(self, name, owner=None):
        return self._sum(self.totals, name, owner, 2)

    def counter(self, key, owner=None):
        return self._sum(self.counts, key, owner)

    def write_spans(self, path):
        """Write the kept spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for solve_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"solve": solve_id, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
        return path
