"""
Heat equation on a Dirichlet interval
=====================================

Diffusion u_t = u_xx on [0, 1] with zero boundary values, discretized by the
flux-form central stencil. The discretized operator is Hermitian positive
definite, so it sits entirely in the decay part L and the evolution is a sum
of unitary groups exp(-i k L T). The sine mode sin(pi x) is an eigenvector
with eigenvalue ~pi^2, giving a clean closed-form check.
"""

import numpy as np

from lchs import build_parabolic_1d, make_kernel, plan_from_accuracy, solve

problem = build_parabolic_1d(
    a=lambda x, t: 1.0,   # diffusion
    b=lambda x, t: 0.0,   # no advection
    c=lambda x, t: 0.0,   # no reaction
    N_grid=33,
)
print(f"instance: {problem.label}, dim = {problem.dim}")
print(f"||L_grid|| = {problem.meta['normL']:.1f}  (grows like N_grid^2)")
print(f"lambda0 = {problem.lambda0:.4f}  (~ pi^2 = {np.pi**2:.4f} for the lowest mode)")

# discrete eigenvalue of the sine mode: (4/h^2) sin^2(pi h / 2)
h = problem.meta["h"]
mode_rate = (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2

kernel = make_kernel("beta", 0.75)
T = 0.01   # ||L|| T ~ 40: the step rule h = 1/(e T ||L||) is active
plan = plan_from_accuracy(kernel, 1e-3, T, problem.meta["normL"])
print(f"\nplan: K = {plan.K:.1f}, M = {plan.meta['M']}, Q = {plan.meta['Q']}, "
      f"N = {plan.size} unitaries")

report = solve(problem, plan, T)
print(f"rel_error vs direct integration: {report.rel_error:.2e}")

# the sine initial profile decays by exp(-mode_rate T)
peak = report.u_lchs[problem.dim // 2].real
expected = np.sin(np.pi * 0.5) * np.exp(-mode_rate * T)
print(f"midpoint value {peak:.8f} vs closed form {expected:.8f}")

# doubling the grid quadruples the operator norm, and with it the plan size
for N_grid in (17, 33, 65):
    p = build_parabolic_1d(
        a=lambda x, t: 1.0, b=lambda x, t: 0.0, c=lambda x, t: 0.0, N_grid=N_grid
    )
    pl = plan_from_accuracy(kernel, 1e-3, T, p.meta["normL"])
    print(f"N_grid {N_grid:3d}: ||L|| = {p.meta['normL']:8.1f}  plan N = {pl.size}")
