import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import qcqp_with_oracle_constraint
from linalm import blalm, lalm
from linalm.harness import (CACHE_ENV_VAR, ExperimentConfig, build_problem,
                            long_run_reference, rate_fit, run)
from linalm.instances import (BpdnSpec, QcqpSpec, ReferenceSolution,
                              TINY_KINDS, gen_bpdn, gen_qcqp, save_instance,
                              tiny_reference)
from linalm.lalm import SolverConfig
from linalm.model import (InequalityConstraint, PrimalDualPoint, ProblemInstance,
                          QuadraticFunction, ZeroProx, feasibility_residual,
                          kkt_residual, smooth_stack)
from linalm.trace import (CSV_COLUMNS, MetricsRecorder, TraceRecord,
                          read_trace_csv, record_epochs, should_stop,
                          write_trace_csv)


def tiny_config(method="lalm", problem="tiny:scalar-qcqp", out=None,
                **solver_kwargs):
    solver_kwargs.setdefault("max_epochs", 300)
    solver_kwargs.setdefault("beta", 1.0)
    solver_kwargs.setdefault("rho_y", 1.0)
    solver_kwargs.setdefault("rho_z", 1.0)
    solver_kwargs.setdefault("record_every", 10)
    return ExperimentConfig(method=method, problem=problem,
                            solver=SolverConfig(**solver_kwargs), out=out,
                            blocks=1 if method == "blalm" else None)


# ---------------------------------------------------------------------------
# trace records and CSV


def synthetic_trace(values, epochs=None):
    epochs = range(1, len(values) + 1) if epochs is None else epochs
    return [TraceRecord(method="t", epoch=int(e), obj=0.0, obj_gap=None,
                        feas=0.0, kkt_stat=0.0, erg_obj_gap=float(v),
                        erg_feas=None, eta_max=None, time_ms=0.0)
            for e, v in zip(epochs, values)]


@pytest.mark.parametrize("make", [
    lambda: gen_qcqp(QcqpSpec(m=4, p=9, seed=2)).with_f0_star(-3.0),
    lambda: tiny_reference("equality-qp")[0],
    lambda: tiny_reference("scalar-qcqp")[0],
    lambda: gen_bpdn(BpdnSpec(rows=6, cols=10, sparsity=2, seed=1)).with_f0_star(1.0),
    lambda: tiny_reference("scalar-bpdn")[0],
])
def test_stacked_recorder_matches_per_function_reference(rng, make):
    # the recorder reads the smooth stack; the reference calls each oracle
    prob = make()
    stack = smooth_stack(prob)
    lo, hi = prob.h.domain if prob.h.domain is not None else (-np.ones(prob.dim),
                                                              np.ones(prob.dim))
    recorder = MetricsRecorder(prob, "m", stack)
    for _ in range(5):
        x, e = (rng.uniform(lo, hi) for _ in range(2))
        z = rng.uniform(0.0, 2.0, size=prob.m) * (rng.random(prob.m) < 0.7)
        w = PrimalDualPoint.at(prob, x, rng.normal(size=prob.affine.rows), z)
        np.testing.assert_allclose(stack(x)[1:], prob.constraint_values(x),
                                   rtol=1e-12, atol=1e-12)
        kkt = kkt_residual(w, prob)
        np.testing.assert_allclose(kkt_residual(w, prob, grads=stack.value_grad(x)[1]),
                                   kkt, rtol=1e-12, atol=1e-12)
        want = {"obj": prob.f0(x), "obj_gap": abs(prob.f0(x) - prob.f0_star),
                "feas": kkt.feasibility, "kkt_stat": kkt.stationarity,
                "kkt_comp": kkt.complementarity,
                "erg_obj_gap": abs(prob.f0(e) - prob.f0_star),
                "erg_feas": feasibility_residual(e, prob)}
        got = recorder.snapshot(4, w, ergodic=(e, stack(e)))
        for field, value in want.items():
            assert getattr(got, field) == pytest.approx(
                value, rel=1e-12, abs=1e-12), field


# Instances for the recorded-column checks: stacked quadratics, a
# least-squares constraint, an oracle constraint (a FunctionStack), and the
# three hand references.
_RECORDED = {
    "qcqp": lambda: gen_qcqp(QcqpSpec(m=4, p=9, seed=2)),
    "oracle-qcqp": qcqp_with_oracle_constraint,
    "bpdn-6x10": lambda: gen_bpdn(BpdnSpec(rows=6, cols=10, sparsity=2, seed=1)),
    "equality-qp": lambda: tiny_reference("equality-qp")[0],
    "scalar-qcqp": lambda: tiny_reference("scalar-qcqp")[0],
    "scalar-bpdn": lambda: tiny_reference("scalar-bpdn")[0],
}


def _assert_rel(got, want, rel, what):
    assert abs(got - want) <= rel * max(1.0, abs(want)), (what, got, want)


def _assert_kkt_recorded(rec, w, prob):
    # direct evaluation: residual and constraint values recomputed from x, and
    # each function's own gradient oracle
    point = PrimalDualPoint(w.x, w.y, w.z, prob.affine.residual(w.x),
                            prob.constraint_values(w.x))
    kkt = kkt_residual(point, prob)
    for got, want, what in ((rec.kkt_stat, kkt.stationarity, "kkt_stat"),
                            (rec.feas, kkt.feasibility, "feas"),
                            (rec.kkt_comp, kkt.complementarity, "kkt_comp")):
        _assert_rel(got, want, 1e-12, (rec.epoch, what))


def _assert_ergodic_recorded(prob, x, gap, feas, epoch):
    vals = smooth_stack(prob)(x)
    _assert_rel(gap, abs(vals[0] + prob.h.value(x) - prob.f0_star), 1e-10,
                (epoch, "erg_obj_gap"))
    _assert_rel(feas, feasibility_residual(x, prob, fvals=vals[1:]), 1e-10,
                (epoch, "erg_feas"))


@pytest.mark.parametrize("name", list(_RECORDED))
def test_lalm_records_from_its_tracker_what_direct_evaluation_gives(name):
    # lalm records the KKT columns from its tracker's values and gradients
    # and the ergodic columns from running sums; both must equal a
    # direct evaluation at the iterate and at the ergodic point
    prob = _RECORDED[name]().with_f0_star(0.0)
    points = {0: PrimalDualPoint.at(prob, np.zeros(prob.dim))}
    cfg = SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0, max_epochs=60,
                       record_every=1)
    res = lalm.solve(prob, cfg,
                     callback=lambda k, state: points.__setitem__(
                         k, PrimalDualPoint.of(state)))
    assert len(res.trace) == 61
    total, weight = np.zeros(prob.dim), 0.0
    for rec in res.trace:
        _assert_kkt_recorded(rec, points[rec.epoch], prob)
        if rec.epoch == 0:
            continue
        # the ergodic average weighs iterate k by 1/eta_k
        total += points[rec.epoch].x / rec.eta_max
        weight += 1.0 / rec.eta_max
        _assert_ergodic_recorded(prob, total / weight, rec.erg_obj_gap,
                                 rec.erg_feas, rec.epoch)


@pytest.mark.parametrize("name", ["qcqp", "oracle-qcqp", "bpdn-6x10",
                                  "scalar-qcqp"])
def test_blalm_ergodic_columns_match_direct_evaluation(name):
    # the KKT columns at each epoch's last iterate, and the ergodic columns
    # at the uniform average of the iterates
    prob = _RECORDED[name]().with_f0_star(0.0)
    n = min(3, prob.dim)
    iterates, points = [], {0: PrimalDualPoint.at(prob, np.zeros(prob.dim))}

    def watch(k, state):
        iterates.append(state.x.copy())
        if k % n == 0:
            points[k // n] = PrimalDualPoint.of(state)

    cfg = SolverConfig(beta=1.0, max_epochs=40, record_every=1)
    res = blalm.solve(prob.with_blocks(n), cfg, seed=4, callback=watch)
    assert len(res.trace) == 41
    for rec in res.trace:
        _assert_kkt_recorded(rec, points[rec.epoch], prob)
        if rec.epoch == 0:
            continue
        count = rec.epoch * n
        total = np.sum(iterates[:count], axis=0)
        _assert_ergodic_recorded(prob, total / count, rec.erg_obj_gap,
                                 rec.erg_feas, rec.epoch)


@pytest.mark.parametrize("z, stops", [(0.5, False), (0.0, True)])
def test_complementarity_alone_keeps_the_solver_running(z, stops):
    # min x^2/2 s.t. x^2 - 9 <= 0 at x = 0: stationary and feasible, so only
    # the complementarity term z |f(x)| = 9 z tells z = 0.5 from the KKT z = 0
    prob = ProblemInstance(QuadraticFunction([[1.0]], [0.0]), ZeroProx(), 1,
                           constraints=[InequalityConstraint(
                               QuadraticFunction([[2.0]], [0.0], -9.0))])
    w = PrimalDualPoint.at(prob, [0.0], None, [z])
    assert tuple(kkt_residual(w, prob)) == (0.0, 0.0, 9.0 * z)
    rec = MetricsRecorder(prob, "m", smooth_stack(prob)).snapshot(1, w)
    assert should_stop(rec, 1.0, have_reference=False) is stops


def test_record_epochs_interval_and_default():
    assert record_epochs(100, 10) == set(range(0, 101, 10))
    # the final epoch is recorded even off the interval
    assert record_epochs(25, 10) == {0, 10, 20, 25}
    assert record_epochs(50) == set(range(51))
    sched = record_epochs(100_000)
    assert 0 in sched and 100_000 in sched
    assert len(sched) < 600


def test_csv_roundtrip(tmp_path):
    recs = synthetic_trace([1.0, 0.5, 0.25])
    path = tmp_path / "t.csv"
    write_trace_csv(recs, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    back = read_trace_csv(path)
    assert [r.epoch for r in back] == [1, 2, 3]
    assert back[0].obj_gap is None and back[0].erg_obj_gap == 1.0


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_OPTIONAL = st.none() | _FLOATS


def _same(a, b):
    """Equal as written: None, the same string or int, or floats with the
    same bits up to the sign of a NaN."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return type(a) is type(b) and a == b


@settings(max_examples=150, deadline=None)
@given(records=st.lists(st.builds(
    # labels the writer accepts: one line of UTF-8 text
    TraceRecord, method=st.text(st.characters(codec="utf-8",
                                              exclude_characters="\r\n")),
    epoch=st.integers(0, 10**30), obj=_FLOATS,
    obj_gap=_OPTIONAL, feas=_FLOATS, kkt_stat=_FLOATS, erg_obj_gap=_OPTIONAL,
    erg_feas=_OPTIONAL, eta_max=_OPTIONAL, time_ms=_FLOATS), max_size=4))
@example(records=[TraceRecord("lalm", 2**63 + 1, -0.0, None, 5e-324, float("inf"),
                              float("-inf"), float("nan"), 1.7976931348623157e308,
                              0.1)])
def test_csv_read_inverts_write_on_every_field(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    back = read_trace_csv(write_trace_csv(records, path))
    assert len(back) == len(records)
    for got, want in zip(back, records):
        for column in CSV_COLUMNS:
            assert _same(getattr(got, column), getattr(want, column)), column


@pytest.mark.parametrize("method", ["a\nb", "a\rb", "\ud800"])
def test_csv_refuses_a_method_label_with_a_line_break(tmp_path, method):
    # a lone surrogate, which has no UTF-8 encoding, is refused the same way
    rec = synthetic_trace([1.0])[0]
    rec.method = method
    reason = "UTF-8" if method == "\ud800" else "line break"
    with pytest.raises(ValueError, match=reason):
        write_trace_csv([synthetic_trace([2.0])[0], rec], tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


def test_csv_read_refuses_a_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("epoch,loss\n1,0.5\n")
    with pytest.raises(ValueError,
                       match=re.escape("unexpected CSV header: ['epoch', 'loss']")):
        read_trace_csv(path)


def test_csv_row_count_invariant(tmp_path):
    cfg = tiny_config(max_epochs=95, out=str(tmp_path / "r.csv"))
    cfg.solver.record_every = 10
    res = run(cfg)
    rows = res.path.read_text().strip().splitlines()
    # data rows: epoch 0, every 10th epoch, and the final epoch 95
    assert len(rows) - 1 == 95 // 10 + 2


# ---------------------------------------------------------------------------
# rate fitting


def test_rate_fit_inverse_k_slope():
    vals = [5.0 / k for k in range(1, 2001)]
    slope = rate_fit(synthetic_trace(vals), "erg_obj_gap", (10, 2000))
    assert slope == pytest.approx(-1.0, abs=1e-6)
    # an exact k^-1.5 law gives its exponent
    vals = [2.0 / k ** 1.5 for k in range(1, 200)]
    slope = rate_fit(synthetic_trace(vals), "erg_obj_gap", (5, 199))
    assert slope == pytest.approx(-1.5, abs=1e-9)


def test_rate_fit_constant_slope_zero():
    slope = rate_fit(synthetic_trace([3.0] * 500), "erg_obj_gap", (10, 500))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_geometric_is_superlinear_and_worsens():
    vals = [3.0 * 0.9 ** k for k in range(1, 400)]
    trace = synthetic_trace(vals)
    early = rate_fit(trace, "erg_obj_gap", (10, 100))
    late = rate_fit(trace, "erg_obj_gap", (100, 300))
    # oracle: direct least-squares on the synthetic sequence
    ks = np.arange(10, 101)
    direct = np.polyfit(np.log(ks), np.log(3.0 * 0.9 ** ks), 1)[0]
    assert early == pytest.approx(direct, rel=1e-9)
    assert early < -1.0
    assert late < early


def test_rate_fit_drops_nonpositive_and_requires_samples():
    vals = [1.0 / k for k in range(1, 30)]
    trace = synthetic_trace(vals)
    for rec in trace[::2]:
        rec.erg_obj_gap = 0.0
    slope = rate_fit(trace, "erg_obj_gap", (1, 29))
    assert slope == pytest.approx(-1.0, abs=1e-6)
    with pytest.raises(ValueError, match="10 positive"):
        rate_fit(synthetic_trace([0.0] * 50), "erg_obj_gap", (1, 50))


# ---------------------------------------------------------------------------
# experiment runs


def test_run_lalm_on_tiny_reaches_reference(tmp_path):
    cfg = tiny_config(max_epochs=1000, out=str(tmp_path / "a.csv"))
    res = run(cfg)
    assert res.reference.provenance == "hand"
    assert res.result.trace[-1].obj_gap <= 1e-6
    assert res.path.exists()


def test_run_blalm_deterministic_byte_identical(tmp_path, frozen_clock):
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    for out in (out1, out2):
        cfg = tiny_config(method="blalm", max_epochs=200, out=str(out))
        cfg.seed = 7
        run(cfg)
    assert out1.read_bytes() == out2.read_bytes()


def test_run_pdyn_rejects_equality_instances(tmp_path):
    cfg = tiny_config(method="pdyn", problem="tiny:equality-qp",
                      out=str(tmp_path / "p.csv"))
    with pytest.raises(ValueError, match="equality"):
        run(cfg)


def test_run_without_reference_leaves_gap_columns_empty(tmp_path):
    cfg = tiny_config(max_epochs=50, out=str(tmp_path / "n.csv"))
    cfg.reference = "none"
    res = run(cfg)
    for rec in read_trace_csv(res.path):
        assert rec.obj_gap is None and rec.erg_obj_gap is None
        assert rec.feas >= 0.0


def test_run_feasibility_nonnegative(tmp_path):
    cfg = tiny_config(method="blalm", max_epochs=100, out=str(tmp_path / "f.csv"))
    res = run(cfg)
    assert all(rec.feas >= 0 for rec in read_trace_csv(res.path))


def test_run_minimax_uses_long_run_reference(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    cfg = ExperimentConfig(method="lalm", problem="minimax",
                           solver=SolverConfig(beta=1.0, record_every=100,
                                               max_epochs=2000),
                           out=str(tmp_path / "m.csv"))
    res = run(cfg)
    assert res.reference.provenance == "long-run"
    assert res.result.trace[-1].obj_gap <= 1e-3


@pytest.mark.parametrize("problem, opts, seed", [
    # small draws a refined grid search got wrong: it stopped 3.4e-3 above
    # this QCQP's optimum, and found no feasible point of this BPDN
    ("qcqp", {"m": 2, "p": 3}, 5),
    ("bpdn", {"rows": 2, "cols": 3, "sparsity": 1}, 6),
])
def test_run_on_small_instances_stops_at_the_long_run_optimum(
        tmp_path, monkeypatch, problem, opts, seed):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    cfg = ExperimentConfig(method="lalm", problem=problem, problem_opts=opts,
                           seed=seed,
                           solver=SolverConfig(tol=1e-6, max_epochs=100_000),
                           out=str(tmp_path / "s.csv"))
    res = run(cfg)
    assert res.reference.provenance == "long-run"
    assert res.reference.residual <= 1e-10
    assert res.result.stopped_early


def test_build_problem_variants(tmp_path):
    assert build_problem(tiny_config(problem="tiny:equality-qp")).dim == 2
    cfg = ExperimentConfig(method="lalm", problem="bpdn",
                           problem_opts={"rows": 5, "cols": 8, "sparsity": 2})
    assert build_problem(cfg).dim == 8
    path = tmp_path / "inst.json"
    save_instance(gen_bpdn(BpdnSpec(rows=4, cols=6, sparsity=1, seed=0)), path)
    cfg = ExperimentConfig(method="lalm", problem=str(path))
    assert build_problem(cfg).dim == 6
    with pytest.raises(ValueError, match="unknown problem"):
        build_problem(ExperimentConfig(method="lalm", problem="sudoku"))


def test_minimax_box_option_is_a_pair_of_floats():
    # a JSON config gives the box as a list, checked item by item
    cfg = ExperimentConfig(method="lalm", problem="minimax",
                           problem_opts={"box": [-2.0, 2.0]})
    lower, upper = build_problem(cfg).h.domain
    assert (lower[0], upper[0]) == (-2.0, 2.0)
    cfg = ExperimentConfig(method="lalm", problem="minimax",
                           problem_opts={"box": [1.0]})
    with pytest.raises(ValueError,
                       match=re.escape("box must be tuple[float, float], not [1.0]")):
        build_problem(cfg)


def test_lalm_and_blalm_runs_of_one_instance_share_one_reference(
        tmp_path, monkeypatch):
    # the reference is keyed on the instance before blalm's partition, so
    # the blalm run reads the entry the lalm run wrote and rewrites nothing
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    opts = {"rows": 10, "cols": 20, "sparsity": 2}

    def config(method, blocks=None):
        return ExperimentConfig(method=method, problem="bpdn", problem_opts=opts,
                                blocks=blocks, solver=SolverConfig(max_epochs=50),
                                out=str(tmp_path / f"{method}.csv"))

    first = run(config("lalm")).reference
    (entry,) = tmp_path.glob("*.json")
    stamp = entry.stat()
    second = run(config("blalm", blocks=2)).reference
    assert list(tmp_path.glob("*.json")) == [entry]
    assert (entry.stat().st_ino, entry.stat().st_mtime_ns) == (stamp.st_ino,
                                                               stamp.st_mtime_ns)
    assert second.f0 == first.f0


def test_run_refuses_a_bad_block_count_before_any_reference_solve(
        tmp_path, monkeypatch):
    # too many blocks, or blalm with none on an instance that carries no
    # partition: refused before the reference solve writes its cache entry
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    for blocks, message in ((21, "n=21, dim=20"), (None, "--blocks")):
        cfg = ExperimentConfig(method="blalm", problem="bpdn", blocks=blocks,
                               problem_opts={"rows": 10, "cols": 20, "sparsity": 2},
                               out=str(tmp_path / "b.csv"))
        with pytest.raises(ValueError, match=message):
            run(cfg)
        assert list(tmp_path.iterdir()) == []


def test_run_takes_blalm_blocks_from_an_instance_file(tmp_path, monkeypatch):
    # with no block count, blalm runs on the partition its instance file carries
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    prob, _ = tiny_reference("equality-qp")
    path = tmp_path / "inst.json"
    save_instance(prob.with_blocks(2), path)
    cfg = ExperimentConfig(method="blalm", problem=str(path), reference="none",
                           solver=SolverConfig(max_epochs=20),
                           out=str(tmp_path / "b.csv"))
    assert run(cfg).result.epochs == 20


def test_every_exported_name_resolves():
    import linalm
    assert [name for name in linalm.__all__ if not hasattr(linalm, name)] == []


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="method"):
        ExperimentConfig(method="sgd", problem="bpdn")
    with pytest.raises(ValueError, match="epochs"):
        ExperimentConfig(method="lalm", problem="bpdn",
                         solver=SolverConfig(max_epochs=0))


# ---------------------------------------------------------------------------
# long-run references


def test_long_run_matches_hand_references():
    # the tiny instances, and 0.5 (2 x^2) - 3x, unconstrained, with its
    # vertex at -c/Q = 1.5
    vertex = ProblemInstance(QuadraticFunction([[2.0]], [-3.0], lipschitz=2.0),
                             ZeroProx(), dim=1)
    cases = [tiny_reference(kind) for kind in TINY_KINDS] + [
        (vertex, ReferenceSolution(np.array([1.5]), np.zeros(0), np.zeros(0),
                                   -2.25, "hand"))]
    for prob, ref in cases:
        got = long_run_reference(prob.with_f0_star(None), cache=None)
        assert got.f0 == pytest.approx(ref.f0, abs=1e-8)
        assert np.linalg.norm(got.x - ref.x) <= 1e-7
        np.testing.assert_allclose(got.y, ref.y, atol=1e-7)
        assert got.provenance == "long-run"


def test_long_run_cache_hit_identical(tmp_path):
    prob, _ = tiny_reference("scalar-qcqp")
    first = long_run_reference(prob, cache=tmp_path)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    stamp = files[0].stat().st_mtime_ns
    second = long_run_reference(prob, cache=tmp_path)
    assert files[0].stat().st_mtime_ns == stamp  # no recompute
    np.testing.assert_array_equal(first.x, second.x)
    assert first.f0 == second.f0


def cache_entry(tmp_path):
    prob, _ = tiny_reference("scalar-qcqp")
    ref = long_run_reference(prob, cache=tmp_path)
    (path,) = tmp_path.glob("*.json")
    return prob, ref, path


def assert_recomputed(prob, ref, path, tmp_path):
    got = long_run_reference(prob, cache=tmp_path)
    np.testing.assert_array_equal(got.x, ref.x)
    assert got.residual == ref.residual <= 1e-10
    assert json.loads(path.read_text())["residual"] == ref.residual
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_long_run_cache_recomputes_truncated_entry(tmp_path):
    prob, ref, path = cache_entry(tmp_path)
    path.write_text(path.read_text()[:40])
    assert_recomputed(prob, ref, path, tmp_path)


def test_long_run_cache_recomputes_entry_missing_keys(tmp_path):
    prob, ref, path = cache_entry(tmp_path)
    path.write_text(json.dumps({"x": [9.0], "f0": 9.0}))
    assert_recomputed(prob, ref, path, tmp_path)


@pytest.mark.parametrize("residual", [None, 1e-3, float("nan")])
def test_long_run_cache_recomputes_weak_entry(tmp_path, residual):
    # an entry whose recorded residual is missing or above the target is
    # not reused, even though it is well formed
    prob, ref, path = cache_entry(tmp_path)
    data = json.loads(path.read_text())
    data.update(x=[9.0], f0=9.0, residual=residual)
    path.write_text(json.dumps(data))
    assert_recomputed(prob, ref, path, tmp_path)


@pytest.mark.parametrize("f0", [None, float("nan"), "9.0"])
def test_long_run_cache_recomputes_entry_with_a_bad_f0(tmp_path, f0):
    # an entry whose f0 is not a finite number is not reused: a null one
    # would drop the reference and a NaN one would write NaN gaps
    prob, ref, path = cache_entry(tmp_path)
    data = json.loads(path.read_text())
    data.update(x=[9.0], f0=f0)
    path.write_text(json.dumps(data))
    assert_recomputed(prob, ref, path, tmp_path)


def test_long_run_cache_write_failure_leaves_no_file(tmp_path, monkeypatch):
    prob, _ = tiny_reference("scalar-qcqp")

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", fail)
    with pytest.raises(OSError, match="disk full"):
        long_run_reference(prob, cache=tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
def test_long_run_bpdn_self_consistency():
    # the reference and an independent lalm run from another initial step
    # agree on the value
    prob = gen_bpdn(BpdnSpec(seed=0))
    a = long_run_reference(prob, cache=None)
    cfg = SolverConfig(beta=1.0, eta0=2.0, max_epochs=2_000_000, tol=1e-10,
                       record_every=10)
    res = lalm.solve(prob.with_f0_star(None), cfg, x0=prob.meta["x0"])
    assert a.f0 == pytest.approx(float(prob.f0(res.w.x)), abs=1e-7)
    assert a.residual <= 1e-10 and max(kkt_residual(res.w, prob)) <= 1e-10


def test_cache_dir_env_override(monkeypatch, tmp_path):
    from linalm.harness import cache_dir
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "c"))
    assert cache_dir() == tmp_path / "c"
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert str(cache_dir()) == ".linalm_cache"
