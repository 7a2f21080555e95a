"""
Wave packet hitting an absorbing layer
======================================

A quantum particle on [0, 1] with an imaginary potential layer on [0.7, 0.9]:
the layer removes amplitude instead of reflecting it, the standard trick for
open-boundary simulations. The absorbing part is diagonal and sits in L; the
kinetic term and any real potential stay in the Hermitian part H. Norm loss
is therefore physical, yet every term the solver evaluates is unitary.
"""

import numpy as np

from lchs import (
    build_cap_schrodinger,
    lchs_apply,
    make_kernel,
    oracle_solve,
    plan_from_accuracy,
)
from lchs.problems import absorbing_layer

# packet starts at x = 0.35 moving right with momentum 30
problem = build_cap_schrodinger(
    V_R=lambda x, t: 0.0,
    V_I=absorbing_layer(depth=5.0, x_lo=0.7, x_hi=0.9),
    hbar=1.0,
    N_grid=65,
    packet={"x0": 0.35, "sigma": 0.05, "p0": 30.0},
)
print(f"instance: {problem.label}, dim = {problem.dim}")
print(f"||L|| = {problem.meta['normL']:.2f} = layer depth / hbar (+ shift)")

kernel = make_kernel("beta", 0.75)
print(f"\n{'T':>6} {'|u| oracle':>12} {'|u| estimate':>13}   packet reaches the layer at T ~ 0.012")
for T in (0.004, 0.008, 0.012, 0.016, 0.020):
    n_or = np.linalg.norm(oracle_solve(problem, T))
    plan = plan_from_accuracy(kernel, 1e-3, T, problem.meta["normL"])
    n_est = np.linalg.norm(lchs_apply(problem, plan, T))
    print(f"{T:6.3f} {n_or:12.6f} {n_est:13.6f}")

print("\nnorm is preserved until the packet overlaps the layer, then decays;")
print("the weighted unitary sum tracks the oracle to ~1e-3")
