"""
Sparse recovery benchmark: full vs. randomized block updates
============================================================

Generates a basis pursuit denoising instance (min ||x||_1 subject to a
residual-power ball), solves it with the full-vector method and with the
10-block randomized variant, and fits the decay rate of the averaged
iterates. Traces land in CSV files in the working directory.
"""

import numpy as np

from linalm import BpdnSpec, SolverConfig, gen_bpdn, rate_fit
from linalm import blalm, lalm
from linalm.harness import long_run_reference
from linalm.trace import write_trace_csv

# a desk-scale instance: 30 measurements, 60 unknowns, 4-sparse signal
prob = gen_bpdn(BpdnSpec(rows=30, cols=60, sparsity=4, noise=0.1, seed=0))
x0 = prob.meta["x0"]  # least-squares point scaled onto the ball boundary

# a long, tightly-converged run provides the reference optimal value
ref = long_run_reference(prob, cache=None)
prob = prob.with_f0_star(ref.f0)
print(f"reference value {ref.f0:.8f} (KKT residual {ref.residual:.1e})")

# full-vector updates: one proximal gradient step per epoch, rho_z = beta
full = lalm.solve(prob, SolverConfig(beta=1.0, rho_y=1.0, rho_z=1.0,
                                     max_epochs=30_000, record_every=10),
                  x0=x0)
write_trace_csv(full.trace, "bpdn_full.csv")

# block updates: 10 blocks, rho_z = beta/10, same budget in epochs
block = blalm.solve(prob.with_blocks(10),
                    SolverConfig(beta=1.0, rho_y=0.1, rho_z=0.1,
                                 max_epochs=30_000, record_every=10),
                    x0=x0, seed=0)
write_trace_csv(block.trace, "bpdn_block.csv")

# averaged iterates decay like 1/epochs; actual iterates converge faster
for name, res in (("full", full), ("block", block)):
    slope = rate_fit(res.trace, "erg_obj_gap", (100, 10_000))
    final = res.trace[-1]
    print(f"{name:6s} averaged-gap slope {slope:+.2f}   "
          f"final gap {final.obj_gap:.1e}   final violation {final.feas:.1e}")
