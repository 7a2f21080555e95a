"""
Transient distribution of a single-server queue
===============================================

A birth-death chain with arrivals at rate 1 and service at rate 2, truncated
to 64 states. The distribution evolves as d pi/dt = pi Q; the solver works on
the column form du/dt = -(-Q^T) u. The Hermitian part of -Q^T is already
positive definite (its smallest eigenvalue is about 0.004), so it passes the
positivity gate L >= 0 as it is: the builder applies no shift and there is
nothing to unwind.
"""

import numpy as np

from lchs import build_mm1, make_kernel, oracle_solve, plan_from_accuracy, solve

n_trunc = 64
problem = build_mm1(lambda_rate=1.0, mu_rate=2.0, n_trunc=n_trunc)
print(f"instance: {problem.label}")
print(f"shift applied: c = {problem.shift:.4f}, certified lambda0 = {problem.lambda0:.4f}")
print(f"start: all probability in state {n_trunc // 2}")

T = 1.0
pi_T = oracle_solve(problem, T).real
print(f"\nafter T = {T}: total probability = {pi_T.sum():.12f} (conserved)")
mean_state = np.dot(np.arange(n_trunc), pi_T)
print(f"mean queue length {mean_state:.3f} "
      f"(drift mu - lambda = 1 pulls it down from 32)")

kernel = make_kernel("beta", 0.75)
plan = plan_from_accuracy(kernel, 1e-4, T, problem.meta["normL"])
report = solve(problem, plan, T)
print(f"\nunitary-sum estimate: rel_error {report.rel_error:.2e} "
      f"with N = {report.plan_size} terms (shift unwound: {report.shift_unwound})")

top = np.argsort(pi_T)[-5:][::-1]
print("\nmost likely states at T = 1:")
for s in top:
    print(f"  state {s:2d}: p = {pi_T[s]:.4f}")
