"""
Amplitude damping of a two-level open system
============================================

A master equation in GKSL form: H = 0, one jump operator sqrt(gamma)|0><1|.
Vectorizing the density matrix turns the superoperator into an ordinary
4x4 generator the solver can split and simulate. The generator has a zero
mode at the steady state, but its Hermitian part is not even semidefinite:
its lowest eigenvalue is -(sqrt(2) - 1) gamma / 2 = -0.207 gamma. The builder
shifts it by exactly that deficit and unwinds exp(c t) afterwards. The
excited population decays exactly as exp(-gamma t), giving a textbook closed
form to hit.
"""

import numpy as np

from lchs import build_lindblad, lchs_apply, make_kernel, oracle_solve, plan_from_accuracy
from lchs.problems import amplitude_damping_spec, unvec_density

gamma = 1.0
rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # excited state
problem = build_lindblad(amplitude_damping_spec(gamma), rho0=rho0)
print(f"instance: {problem.label} (vectorized dim = {problem.dim})")
print(f"shift c = {problem.shift:.4f}: the dissipator's Hermitian part has the")
print(f"negative eigenvalue {-problem.shift:.4f}, so the positivity gate L >= 0")
print("needs a shift by that deficit, and no more\n")

kernel = make_kernel("beta", 0.75)
print(f"{'t':>5} {'pop oracle':>11} {'pop estimate':>13} {'exp(-t)':>10} {'trace':>8}")
for t in (0.25, 0.5, 1.0, 2.0):
    rho_or = unvec_density(oracle_solve(problem, t), 2)
    plan = plan_from_accuracy(kernel, 1e-4, t, problem.meta["normL"])
    rho_est = unvec_density(lchs_apply(problem, plan, t), 2)
    print(
        f"{t:5.2f} {rho_or[1, 1].real:11.6f} {rho_est[1, 1].real:13.6f} "
        f"{np.exp(-gamma * t):10.6f} {np.trace(rho_or).real:8.5f}"
    )

print("\ntrace stays 1 (the master equation is trace preserving) and the")
print("excited population follows exp(-gamma t) through both routes")
