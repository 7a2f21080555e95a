"""
Scalar decay from a sum of phases
=================================

The smallest possible example: du/dt = -u, whose solution at T = 1 is
exp(-1). The solver never exponentiates -1 directly; it evaluates a weighted
sum of pure phases exp(-ik) at quadrature abscissae k, with weights from a
normalized analytic kernel. Watching the error fall with the accuracy target
shows the whole pipeline (truncation window, composite rule, weights) at work.
"""

import numpy as np

from lchs import ProblemInstance, hermitian_split, lchs_apply, make_kernel, plan_from_accuracy

# A = 1 splits into L = 1 (decay) and H = 0 (no oscillation); the spectral
# lower bound is 1, so no shift is needed.
pair = hermitian_split(np.array([[1.0]]))
problem = ProblemInstance.from_pair(pair, np.array([1.0 + 0j]), label="scalar")
print(f"generator split: L = {pair.L[0,0].real:g}, H = {pair.H[0,0].real:g}, "
      f"lambda0 = {pair.lambda0:g}")

# The weight g(k) = f(k) / (1 - ik) integrates to 2 pi f(-i) = 1 exactly (residue
# theorem), so building the kernel takes no quadrature.
kernel = make_kernel("beta", 0.75)
print(f"kernel: beta family, beta = {kernel.beta:g}, integral of g = 2 pi f(-i) = 1")

T = 1.0
exact = np.exp(-T)
print(f"\n{'eps':>8} {'window K':>9} {'terms N':>8} {'estimate':>20} {'error':>10}")
for eps in (1e-2, 1e-3, 1e-4, 1e-5):
    plan = plan_from_accuracy(kernel, eps, T, normL=1.0)
    u = lchs_apply(problem, plan, T)
    err = abs(u[0] - exact)
    print(f"{eps:8.0e} {plan.K:9.2f} {plan.size:8d} {u[0].real:20.12f} {err:10.2e}")

print(f"\nexact exp(-1) = {exact:.12f}")
print("the estimate is a plain weighted sum of unitary phases -- no matrix")
print("exponential of the non-Hermitian generator is ever taken")
