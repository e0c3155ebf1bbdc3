"""Per-epoch convergence metrics, recording schedules, and CSV emission."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .model import PrimalDualPoint, SolverError, feasibility_residual, kkt_residual

# Single schema across all methods; unavailable columns stay empty.
CSV_COLUMNS = ("method", "epoch", "obj", "obj_gap", "feas", "kkt_stat",
               "erg_obj_gap", "erg_feas", "eta_max", "time_ms")


@dataclass
class TraceRecord:
    """One row of per-epoch metrics.

    The first ten fields form the CSV schema. ``kkt_comp`` (complementarity)
    is kept for stopping decisions and is not emitted to CSV.
    """

    method: str
    epoch: int
    obj: float
    obj_gap: float | None
    feas: float
    kkt_stat: float
    erg_obj_gap: float | None
    erg_feas: float | None
    eta_max: float | None
    time_ms: float
    kkt_comp: float = 0.0


class MetricsRecorder:
    """Computes TraceRecords for a fixed problem, method, and wall clock.

    ``stack`` is the instance's smooth stack (see ``model.smooth_stack``);
    objective gaps are taken against ``prob.f0_star`` (empty when None).
    Recording reuses what the solver already holds instead of paying for
    its own stacked products: the stack's values and gradients at the
    iterate (``value_grad``, which a solver's tracker has after each step)
    and the stack's values at each ergodic point (``ergodic``, as
    ``ErgodicAccumulator.point`` gives them from its running sums). Only
    ``value_grad`` is evaluated here when it is not passed in, and then the
    record reads that one evaluation throughout: the constraint values come
    from it and the equality residual is recomputed at x.
    """

    def __init__(self, prob, method, stack, clock=None):
        self.prob = prob
        self.method = method
        self.f0_star = prob.f0_star
        self.stack = stack
        self.clock = time.perf_counter if clock is None else clock
        self.t0 = self.clock()

    def _objective(self, x, vals):
        """g(x) + h(x) from the stack's values at x, and its gap to f0_star."""
        obj = float(vals[0]) + self.prob.h.value(x)
        return obj, None if self.f0_star is None else abs(obj - self.f0_star)

    def snapshot(self, epoch, w, eta_max=None, ergodic=None, value_grad=None):
        """One TraceRecord at ``w``: a solver's live state or any point with
        x, y, z, r and fvals.

        ``value_grad`` is the stack's (values, gradients) at ``w.x``, in
        step with ``w.r`` and ``w.fvals``; when it is None the record takes
        all three from x instead. ``ergodic`` is the optional (x, stack
        values at x) pair of the ergodic point. A non-finite gradient raises
        SolverError before anything is recorded from it.
        """
        if value_grad is None:
            vals, grads = self.stack.value_grad(w.x)
            r = w.r if self.prob.affine.is_empty else self.prob.affine.residual(w.x)
            w = PrimalDualPoint(w.x, w.y, w.z, r, vals[1:])
        else:
            vals, grads = value_grad
        if not np.isfinite(grads).all():
            raise SolverError(
                f"non-finite gradient of the smooth part at epoch {epoch}")
        obj, obj_gap = self._objective(w.x, vals)
        kkt = kkt_residual(w, self.prob, grads=grads)
        erg_gap = erg_feas = None
        if ergodic is not None:
            x, erg_vals = ergodic
            _, erg_gap = self._objective(x, erg_vals)
            erg_feas = feasibility_residual(x, self.prob, fvals=erg_vals[1:])
        return TraceRecord(
            method=self.method, epoch=int(epoch), obj=float(obj),
            obj_gap=obj_gap, feas=kkt.feasibility, kkt_stat=kkt.stationarity,
            erg_obj_gap=erg_gap, erg_feas=erg_feas, eta_max=eta_max,
            time_ms=(self.clock() - self.t0) * 1000.0,
            kkt_comp=kkt.complementarity)


def should_stop(record, tol, have_reference):
    """Stopping rule: objective gap and feasibility when a reference value is
    known, otherwise the largest KKT residual component."""
    if have_reference:
        return record.obj_gap <= tol and record.feas <= tol
    return max(record.kkt_stat, record.feas, record.kkt_comp) <= tol


def record_epochs(total, every=None):
    """Set of epochs at which metrics are recorded (always includes 0 and
    the final epoch ``total``).

    With an explicit interval (>= 1, as SolverConfig ensures) the epochs
    are 0, every, 2*every, ...; the default records every epoch up to 10^3
    total and about 500 logarithmically spaced epochs beyond that.
    """
    if every is not None:
        return set(range(0, total + 1, every)) | {total}
    if total <= 1000:
        return set(range(total + 1))
    pts = np.unique(np.logspace(0, np.log10(total), 500).astype(int))
    return {0, total} | set(int(p) for p in pts)


def _format(value):
    """A float column's text; repr is the shortest that reads back as the
    same float."""
    return "" if value is None else repr(float(value))


def _optional(text):
    return float(text) if text else None


def write_trace_csv(records, path):
    """Write records under the fixed CSV schema; returns the path.

    A method label with a line break is refused: rows end in a bare newline,
    and the csv module leaves a carriage return unquoted. So is a label with
    a lone surrogate, which has no UTF-8 encoding.
    """
    for rec in records:
        if "\n" in rec.method or "\r" in rec.method:
            raise ValueError(f"method label {rec.method!r} contains a line break")
        if any("\ud800" <= ch <= "\udfff" for ch in rec.method):
            raise ValueError(f"method label {rec.method!r} is not valid UTF-8")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([rec.method, str(rec.epoch)]
                            + [_format(getattr(rec, c)) for c in CSV_COLUMNS[2:]])
    return path


def read_trace_csv(path):
    """Read back a trace CSV into TraceRecords: the exact inverse of
    write_trace_csv on every emitted field."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {header}")
        for raw in rows:
            vals = dict(zip(CSV_COLUMNS, raw))
            records.append(TraceRecord(
                method=vals["method"], epoch=int(vals["epoch"]),
                obj=float(vals["obj"]), obj_gap=_optional(vals["obj_gap"]),
                feas=float(vals["feas"]), kkt_stat=float(vals["kkt_stat"]),
                erg_obj_gap=_optional(vals["erg_obj_gap"]),
                erg_feas=_optional(vals["erg_feas"]),
                eta_max=_optional(vals["eta_max"]),
                time_ms=float(vals["time_ms"])))
    return records
