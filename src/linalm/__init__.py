"""Solvers for composite convex programs with affine equality and smooth
nonlinear inequality constraints, built on a linearized augmented
Lagrangian: a full-vector method, a randomized block variant, and a
projected primal-dual baseline, plus benchmark instances and a trace
harness."""

from . import auglag, blalm, harness, instances, lalm, pdyn, trace
from .harness import ExperimentConfig, rate_fit, run
from .instances import (BpdnSpec, QcqpSpec, ReferenceSolution, gen_bpdn,
                        gen_qcqp, load_instance, minimax_reformulate,
                        save_instance, tiny_reference)
from .lalm import ErgodicAccumulator, SolveResult, SolverConfig, SolverError
from .model import (AffineConstraint, BoxIndicator, InequalityConstraint,
                    L1Norm, LeastSquaresFunction, LinearFunction,
                    OracleFunction, PrimalDualPoint, ProblemInstance,
                    QuadraticFunction, SmoothFunction, ZeroFunction, ZeroProx,
                    even_blocks, kkt_residual, lagrangian_gap, operator_norm_sq)

__version__ = "0.1.0"

__all__ = [
    "AffineConstraint", "BoxIndicator", "BpdnSpec", "ErgodicAccumulator",
    "ExperimentConfig", "InequalityConstraint", "L1Norm",
    "LeastSquaresFunction", "LinearFunction", "OracleFunction",
    "PrimalDualPoint", "ProblemInstance", "QcqpSpec", "QuadraticFunction",
    "ReferenceSolution", "SmoothFunction", "SolveResult", "SolverConfig",
    "SolverError", "ZeroFunction", "ZeroProx", "auglag", "blalm",
    "even_blocks", "gen_bpdn", "gen_qcqp", "harness", "instances",
    "kkt_residual", "lagrangian_gap", "lalm",
    "load_instance", "minimax_reformulate", "operator_norm_sq", "pdyn",
    "rate_fit", "run", "save_instance",
    "tiny_reference", "trace",
]
