import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linalm
from linalm.cli import (_SOLVER_KEYS, _merged_options, build_parser,
                        config_from_options, main)
from linalm.trace import CSV_COLUMNS, read_trace_csv


def test_solve_tiny_instance(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(["solve", "--problem", "tiny:scalar-qcqp", "--method", "lalm",
               "--beta", "1.0", "--rho-y", "1.0", "--rho-z", "1.0",
               "--epochs", "500", "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert read_trace_csv(out)[-1].obj_gap <= 1e-4


def test_solve_runs_without_scipy(tmp_path):
    # scipy is a test extra only: the console command runs in a fresh
    # interpreter in which importing scipy fails
    code = ("import sys; sys.modules['scipy'] = None; from linalm.cli import main; "
            "sys.exit(main(['solve', '--problem', 'tiny:scalar-qcqp', "
            "'--method', 'lalm', '--epochs', '50']))")
    env = dict(os.environ, PYTHONPATH=str(Path(linalm.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "wrote" in done.stdout


def test_solve_blalm_with_blocks(tmp_path):
    out = tmp_path / "b.csv"
    rc = main(["solve", "--problem", "tiny:scalar-qcqp", "--method", "blalm",
               "--blocks", "1", "--seed", "3", "--epochs", "300",
               "--out", str(out)])
    assert rc == 0 and out.exists()


def test_incompatible_method_instance_fails(tmp_path, capsys):
    rc = main(["solve", "--problem", "tiny:equality-qp", "--method", "pdyn",
               "--epochs", "10", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "equality" in capsys.readouterr().err


def test_pdyn_rejects_unused_solver_flags(tmp_path, capsys):
    out = tmp_path / "p.csv"
    rc = main(["solve", "--problem", "tiny:scalar-qcqp", "--method", "pdyn",
               "--rho-y", "0.5", "--epochs", "10", "--out", str(out)])
    assert rc == 1
    assert "rho_y" in capsys.readouterr().err
    assert not out.exists()


def test_missing_problem_fails(capsys):
    rc = main(["solve", "--method", "lalm"])
    assert rc == 1
    assert "required" in capsys.readouterr().err


def test_budget_off_the_record_interval_reports_the_final_iterate(tmp_path,
                                                                  capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"record_every": 10}))
    out = tmp_path / "r.csv"
    rc = main(["solve", "--problem", "tiny:scalar-qcqp", "--method", "lalm",
               "--epochs", "25", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    records = read_trace_csv(out)
    assert [r.epoch for r in records] == [0, 10, 20, 25]
    assert (f"25 epochs, final feasibility {records[-1].feas:.3e}"
            in capsys.readouterr().out)


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "problem": "tiny:scalar-qcqp", "method": "lalm", "epochs": 50,
        "beta": 2.0, "record_every": 10}))
    out = tmp_path / "c.csv"
    rc = main(["solve", "--config", str(cfg_path), "--epochs", "120",
               "--out", str(out)])
    assert rc == 0
    # CLI --epochs overrides the file value
    assert read_trace_csv(out)[-1].epoch == 120


def test_unknown_config_keys_rejected():
    # keys are field names: a flag's spelling is refused too
    for extra in ({"typo_key": 1}, {"rho-y": 1.0}):
        with pytest.raises(ValueError, match="unknown configuration"):
            config_from_options({"problem": "bpdn", "method": "lalm", **extra})


def test_config_file_not_an_object_fails_cleanly(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text(json.dumps([1]))
    rc = main(["solve", "--problem", "tiny:scalar-qcqp", "--method", "lalm",
               "--config", str(cfg_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "JSON object" in err and "list" in err


@pytest.mark.parametrize("problem, key", [("bpdn", "foo"), ("qcqp", "seed")])
def test_unaccepted_problem_opts_fail_cleanly(tmp_path, capsys, problem, key):
    cfg_path = tmp_path / "opts.json"
    cfg_path.write_text(json.dumps({"problem_opts": {key: 3}}))
    out = tmp_path / "r.csv"
    rc = main(["solve", "--problem", problem, "--method", "lalm",
               "--epochs", "5", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


# "out" takes 2.5, not 1: a CLI that accepts 1 opens file descriptor 1 as the
# trace file and closes the test process's stdout.
@pytest.mark.parametrize("opts, key", [
    ({"beta": "x"}, "beta"), ({"tol": "x"}, "tol"), ({"eta0": "x"}, "eta0"),
    ({"problem": 1}, "problem"), ({"method": "blalm", "blocks": 2.5}, "blocks"),
    ({"problem": "bpdn", "problem_opts": {"rows": "x"}}, "rows"),
    ({"out": 2.5}, "out"),
])
def test_wrong_typed_config_values_fail_cleanly(tmp_path, capsys, opts, key):
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps({"problem": "tiny:scalar-qcqp", "method": "lalm",
                                    "epochs": 5, "out": str(tmp_path / "r.csv"),
                                    **opts}))
    rc = main(["solve", "--config", str(cfg_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("problem, opts, key", [
    ("qcqp", {"p": 3, "m": -1}, "m"), ("qcqp", {"p": 0}, "p"),
    ("bpdn", {"sparsity": -1}, "sparsity"),
])
def test_out_of_range_problem_sizes_fail_cleanly(tmp_path, capsys, problem, opts,
                                                 key):
    cfg_path = tmp_path / "sizes.json"
    cfg_path.write_text(json.dumps({"problem_opts": opts}))
    out = tmp_path / "r.csv"
    rc = main(["solve", "--problem", problem, "--method", "lalm",
               "--epochs", "5", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be >= ")
    assert not out.exists()


def test_malformed_instance_file_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    rc = main(["solve", "--problem", str(path), "--method", "lalm",
               "--epochs", "5", "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_parser_exposes_documented_flags():
    parser = build_parser()
    text = parser.format_help()
    args = parser.parse_args(["solve", "--problem", "bpdn", "--method",
                              "blalm", "--seed", "4", "--beta", "0.5",
                              "--rho-y", "0.1", "--rho-z", "0.2",
                              "--delta", "0.0", "--blocks", "10",
                              "--epochs", "99", "--tol", "1e-6",
                              "--eta0", "2.0", "--out", "f.csv"])
    assert args.method == "blalm" and args.rho_z == 0.2 and args.blocks == 10


def test_every_flag_reaches_the_experiment_config():
    # each solve flag, given alone on the command line, lands on the
    # ExperimentConfig field or the SolverConfig field of its name
    parser = build_parser()
    solve = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices["solve"]
    flags = [a for a in solve._actions
             if a.option_strings and a.dest not in ("help", "config")]
    assert len(flags) >= 12
    for action in flags:
        if action.choices:
            value = action.choices[-1]
        elif action.type is int:
            value = 3
        elif action.type is float:
            value = 0.25
        else:
            value = f"{action.dest}-value"
        argv = ["solve", action.option_strings[-1], str(value)]
        for dest, required in (("problem", "tiny:scalar-qcqp"), ("method", "lalm")):
            if action.dest != dest:
                argv += [f"--{dest}", required]
        config = config_from_options(_merged_options(parser.parse_args(argv)))
        target = config.solver if action.dest in _SOLVER_KEYS else config
        name = action.dest
        if name == "epochs":  # the epoch budget is the solver's max_epochs
            target, name = config.solver, "max_epochs"
        assert getattr(target, name) == value, action.dest
