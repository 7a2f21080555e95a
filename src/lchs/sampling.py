"""Finite sampling plans for the weight integral.

A SamplingPlan is the list of (abscissa k_j, complex coefficient c_j) that
turns the integral of g(k) U(k,T) over [-K, K] into a finite sum. Plans come
from composite Gauss-Legendre quadrature (2M subintervals of width h = K/M,
Q nodes each, c = w * g(k)) or from uniform Monte Carlo sampling
(c = (2K/Ns) * g(xi)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError
from .kernels import KernelSpec, choose_truncation, weight_g

Q_MAX = 64
NS_MAX = 1_000_000_000

# Version-pinned PRNG contract: Philox 4x64 raw output mapped to [0, 1) via
# the top 53 bits. random_raw() is stable across numpy releases, unlike the
# higher-level Generator methods.
GENERATOR_ID = "philox4x64-raw-v1"


def gauss_legendre(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the Q-point Gauss-Legendre rule on
    (-1, 1), which integrates polynomials of degree <= 2Q - 1 exactly."""
    if not (1 <= Q <= Q_MAX):
        raise RangeError(f"Q must lie in [1, {Q_MAX}], got {Q}")
    return np.polynomial.legendre.leggauss(Q)


@dataclass(frozen=True)
class SamplingPlan:
    """A finite list of (abscissa, coefficient) terms plus its provenance.

    method is "gaussian" or "monte-carlo"; meta carries {M, Q} or
    {Ns, seed, generator} respectively, and optionally the accuracy target
    the plan was sized for. Plans are immutable and bit-reproducible given
    their construction inputs.
    """

    method: str
    k: np.ndarray
    c: np.ndarray
    K: float
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.k)

    def coefficient_l1(self) -> float:
        return float(np.sum(np.abs(self.c)))

    def validate(self) -> None:
        if self.size == 0:
            raise RangeError("plan has no terms")
        if len(self.c) != self.size:
            raise RangeError(f"plan has {self.size} abscissae but {len(self.c)} coefficients")
        # nan > K is False, so a NaN abscissa would pass the window check
        if not np.all(np.isfinite(self.k)):
            raise RangeError("plan abscissae are not finite")
        if np.max(np.abs(self.k)) > self.K * (1 + 1e-12):
            raise RangeError("plan abscissae fall outside [-K, K]")
        if not np.isfinite(self.coefficient_l1()):
            raise RangeError("plan coefficients are not absolutely summable")


def _composite_nodes(K: float, M: int, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae (ascending) and weights of the composite Q-node
    Gauss-Legendre rule on [-K, K] with 2M subintervals of width h = K/M.

    The k > 0 half is computed and the k < 0 half is its negation, so
    k[j] == -k[-1 - j] exactly; the Gauss-Legendre weights are symmetric, so
    the weights mirror too."""
    if not 0 < K < math.inf:
        raise RangeError(f"K must be positive and finite, got {K}")
    if M < 1:
        raise RangeError(f"M must be >= 1, got {M}")
    x, w = gauss_legendre(Q)
    h = K / M
    left = h * np.arange(M)  # left endpoints of the k > 0 subintervals, ascending
    positive = (left[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    k = np.concatenate([-positive[::-1], positive])
    wts = np.broadcast_to(0.5 * h * w, (2 * M, Q)).ravel()
    return k, wts


def composite_plan(kernel: KernelSpec, K: float, M: int, Q: int) -> SamplingPlan:
    """Composite Gauss-Legendre plan: [-K, K] split into 2M width-h = K/M
    subintervals, a Q-node rule mapped onto each, coefficients w * g(k).

    The nodes and weights mirror exactly and g(-k) = conj g(k) for real k
    (f is real-symmetric: conj f(k) = f(-k) for both families), so g is
    evaluated on the k > 0 half only and c[j] = conj(c[-1 - j]) exactly."""
    k, wts = _composite_nodes(K, M, Q)
    half = len(k) // 2
    positive = wts[half:] * np.asarray(weight_g(kernel, k[half:]), dtype=complex)
    c = np.concatenate([positive[::-1].conj(), positive])
    return SamplingPlan(method="gaussian", k=k, c=c, K=float(K), meta={"M": M, "Q": Q})


def quadrature_order(K: float, eps: float) -> int:
    """Per-subinterval node count Q = ceil(log2(K / eps) / 2) + 2.

    Matches the 2^(-2Q) local error decay with the subinterval budget held a
    couple of powers of 4 below eps/K; the constant in that local bound is
    taken as <= 10, which is conservative but not certified.
    """
    return int(math.ceil(math.log2(K / eps) / 2.0)) + 2


def plan_from_accuracy(
    kernel: KernelSpec,
    eps: float,
    T: float,
    normL: float,
) -> SamplingPlan:
    """Size and build a Gaussian plan for target accuracy eps.

    The error budget is split in thirds: truncation tail and quadrature get
    one each, and the third is unspent, because every schedule is propagated
    exactly. The window comes from choose_truncation(eps / 3);
    the subinterval width follows the step rule h = 1 / (e T ||L||), capped
    at 1/e so the unit-scale structure of g is always resolved even when
    T ||L|| < 1 (the step rule alone degenerates there); Q from
    quadrature_order.
    """
    if not (0.0 < eps < 1.0):
        raise RangeError(f"eps must lie in (0, 1), got {eps}")
    if not 0 <= T < math.inf:
        raise RangeError(f"T must be nonnegative and finite, got {T}")
    if not 0 <= normL < math.inf:
        raise RangeError(f"normL must be nonnegative and finite, got {normL}")
    trunc = choose_truncation(kernel, eps / 3.0)
    K = trunc.K
    h = min(K, 1.0 / (math.e * max(T * normL, 1.0)))
    M = int(math.ceil(K / h))
    plan = composite_plan(kernel, K, M, quadrature_order(K, eps))
    plan.meta.update({"eps": eps, "tail_bound": float(trunc.epsilon_tail)})
    return plan


def _uniform_from_raw(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in [0, 1) using the top 53 bits."""
    return (raw >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def mc_plan(kernel: KernelSpec, K: float, Ns: int, seed: int) -> SamplingPlan:
    """Uniform Monte Carlo plan: Ns i.i.d. abscissae on [-K, K] from the
    pinned Philox stream, coefficients (2K/Ns) * g(xi)."""
    if not 0 < K < math.inf:
        raise RangeError(f"K must be positive and finite, got {K}")
    if Ns < 1:
        raise RangeError(f"Ns must be >= 1, got {Ns}")
    bitgen = np.random.Philox(seed)
    raw = bitgen.random_raw(Ns)
    xi = K * (2.0 * _uniform_from_raw(raw) - 1.0)
    c = (2.0 * K / Ns) * np.asarray(weight_g(kernel, xi), dtype=complex)
    return SamplingPlan(
        method="monte-carlo",
        k=xi,
        c=c,
        K=float(K),
        meta={"Ns": int(Ns), "seed": int(seed), "generator": GENERATOR_ID},
    )


def mc_size_from_accuracy(eps: float, K: float) -> int:
    """Sample count making the standard-error bound 2K / sqrt(Ns) <= eps."""
    if not (0.0 < eps < 1.0):
        raise RangeError(f"eps must lie in (0, 1), got {eps}")
    Ns = int(math.ceil((2.0 * K / eps) ** 2))
    if Ns > NS_MAX:
        raise RangeError(
            f"Monte Carlo size {Ns} exceeds {NS_MAX}; loosen eps or shrink K"
        )
    return Ns
