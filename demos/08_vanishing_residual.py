"""
The vanishing f-weighted sum
============================

Replacing the weight g(k) = f(k)/(1-ik) by the bare kernel f(k) makes the
symmetric integral of f(k) U(k, T) vanish: f is analytic in the lower
half-plane and the decay part of the generator damps the contour there. The
finite symmetric sum therefore acts as a built-in self-test -- its norm must
fall toward zero as the window and rule are refined. This is the identity
that makes the weighted-unitary representation differentiable in time.
"""

import numpy as np

from lchs import (
    ProblemInstance,
    hermitian_split,
    make_kernel,
    plan_from_accuracy,
    residual_lemma_check,
    spectral_shift,
)

kernel = make_kernel("beta", 0.75)

pair = hermitian_split(np.array([[1.0]]))
scalar = ProblemInstance.from_pair(pair, np.array([1.0 + 0j]), label="scalar")

rng = np.random.default_rng(0)
A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
shifted, c = spectral_shift(hermitian_split(A), 0.5)
u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
u0 /= np.linalg.norm(u0)
random4 = ProblemInstance.from_pair(shifted, u0, label="random 4x4")
norm4 = float(np.max(np.abs(np.linalg.eigvalsh(shifted.L))))

print("refinement ladder (window K, subintervals M, nodes Q from the accuracy rule):\n")
for label, problem, normL in (("scalar", scalar, 1.0), ("random 4x4", random4, norm4)):
    print(f"{label}  (lambda0 = {problem.lambda0:.3f})")
    print(f"  {'eps':>7} {'K':>7} {'M':>6} {'Q':>3} {'residual':>11}")
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        plan = plan_from_accuracy(kernel, eps, 1.0, normL)
        r = residual_lemma_check(problem, plan, 1.0)
        print(f"  {eps:7.0e} {plan.K:7.1f} {plan.meta['M']:6d} "
              f"{plan.meta['Q']:3d} {r:11.3e}")
    print()

print("the residual tracks the truncation envelope downward; pointwise values")
print("can wobble because the truncated oscillatory integral beats against K")
