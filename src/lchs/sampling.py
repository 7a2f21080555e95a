"""Finite sampling plans for the weight integral.

A SamplingPlan is the list of (abscissa k_j, complex coefficient c_j) that
turns the integral of g(k) U(k,T) over [-K, K] into a finite sum. Plans come
from composite Gauss-Legendre quadrature (2M subintervals of width h = K/M,
Q nodes each, c = w * g(k)) or from uniform Monte Carlo sampling
(c = (2K/Ns) * g(xi)).
"""

from __future__ import annotations

import json
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
    """Nodes and weights of the Q-point Gauss-Legendre rule on (-1, 1).

    Roots of the degree-Q Legendre polynomial by Newton iteration from
    Chebyshev initial guesses; weights w = 2 / ((1 - x^2) P'_Q(x)^2).
    The rule integrates polynomials of degree <= 2Q - 1 exactly.
    """
    if not (1 <= Q <= Q_MAX):
        raise RangeError(f"Q must lie in [1, {Q_MAX}], got {Q}")
    i = np.arange(Q)
    x = np.cos(np.pi * (4 * i + 3) / (4 * Q + 2))
    for _ in range(100):
        # Legendre recurrence up to degree Q, tracking P_{Q-1} for P'_Q
        p_prev = np.ones_like(x)
        p = x.copy()
        for n in range(1, Q):
            p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        dp = Q * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    # final derivative at the converged nodes
    p_prev = np.ones_like(x)
    p = x.copy()
    for n in range(1, Q):
        p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
    dp = Q * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


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
    kernel: KernelSpec
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

    # rule parameters serialized at the top level of the JSON document
    _TOP_LEVEL_META = ("M", "Q", "Ns", "seed", "generator")

    def to_dict(self) -> dict:
        kernel = {"family": self.kernel.family}
        if self.kernel.family == "beta":
            kernel["beta"] = self.kernel.beta
        out = {
            "schema_version": 1,
            "method": self.method,
            "K": self.K,
        }
        for key in self._TOP_LEVEL_META:
            if key in self.meta:
                out[key] = self.meta[key]
        extra = {k: v for k, v in self.meta.items() if k not in self._TOP_LEVEL_META}
        out["kernel"] = kernel
        if extra:
            out["meta"] = extra
        out["terms"] = [
            {"k": float(kj), "c_re": float(cj.real), "c_im": float(cj.imag)}
            for kj, cj in zip(self.k, self.c)
        ]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=None, separators=(",", ":"))

    @staticmethod
    def from_dict(d: dict) -> "SamplingPlan":
        kd = d["kernel"]
        # Older documents carry the numerical normalization factor once stored
        # on KernelSpec; every value make_kernel wrote lies within 1e-10 of 1,
        # and any other value describes a different kernel.
        correction = kd.get("normalization_correction", 1.0)
        if not abs(correction - 1.0) <= 1e-10:
            raise RangeError(
                f"plan kernel has normalization_correction {correction!r}; "
                "lchs kernels integrate to exactly 1"
            )
        kernel = KernelSpec(family=kd["family"], beta=kd.get("beta"))
        terms = d["terms"]
        k = np.array([t["k"] for t in terms], dtype=float)
        c = np.array([t["c_re"] + 1j * t["c_im"] for t in terms], dtype=complex)
        meta = dict(d.get("meta", {}))
        for key in SamplingPlan._TOP_LEVEL_META:
            if key in d:
                meta[key] = d[key]
        return SamplingPlan(
            method=d["method"], k=k, c=c, K=float(d["K"]), kernel=kernel, meta=meta,
        )

    @staticmethod
    def from_json(s: str) -> "SamplingPlan":
        return SamplingPlan.from_dict(json.loads(s))


def _composite_nodes(K: float, M: int, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae (ascending) and weights of the composite Q-node
    Gauss-Legendre rule on [-K, K] with 2M subintervals of width h = K/M."""
    if K <= 0:
        raise RangeError(f"K must be positive, got {K}")
    if M < 1:
        raise RangeError(f"M must be >= 1, got {M}")
    x, w = gauss_legendre(Q)
    h = K / M
    left = h * np.arange(-M, M)  # subinterval left endpoints, ascending
    k = (left[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    wts = np.broadcast_to(0.5 * h * w, (2 * M, Q)).ravel()
    return k, wts


def composite_plan(kernel: KernelSpec, K: float, M: int, Q: int) -> SamplingPlan:
    """Composite Gauss-Legendre plan: [-K, K] split into 2M width-h = K/M
    subintervals, a Q-node rule mapped onto each, coefficients w * g(k)."""
    k, wts = _composite_nodes(K, M, Q)
    c = wts * np.asarray(weight_g(kernel, k), dtype=complex)
    plan = SamplingPlan(
        method="gaussian", k=k, c=c, K=float(K), kernel=kernel, meta={"M": M, "Q": Q}
    )
    plan.validate()
    return plan


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
    if T < 0:
        raise RangeError(f"T must be nonnegative, got {T}")
    if normL <= 0:
        raise RangeError(f"normL must be positive, got {normL}")
    trunc = choose_truncation(kernel, eps / 3.0)
    K = trunc.K
    h = min(K, 1.0 / (math.e * max(T * normL, 1.0)))
    M = int(math.ceil(K / h))
    plan = composite_plan(kernel, K, M, quadrature_order(K, eps))
    plan.meta.update(
        {"eps": eps, "T": T, "normL": normL, "tail_bound": float(trunc.epsilon_tail)}
    )
    return plan


def _uniform_from_raw(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in [0, 1) using the top 53 bits."""
    return (raw >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def mc_plan(kernel: KernelSpec, K: float, Ns: int, seed: int) -> SamplingPlan:
    """Uniform Monte Carlo plan: Ns i.i.d. abscissae on [-K, K] from the
    pinned Philox stream, coefficients (2K/Ns) * g(xi)."""
    if K <= 0:
        raise RangeError(f"K must be positive, got {K}")
    if Ns < 1:
        raise RangeError(f"Ns must be >= 1, got {Ns}")
    bitgen = np.random.Philox(seed)
    raw = bitgen.random_raw(Ns)
    xi = K * (2.0 * _uniform_from_raw(raw) - 1.0)
    c = (2.0 * K / Ns) * np.asarray(weight_g(kernel, xi), dtype=complex)
    plan = SamplingPlan(
        method="monte-carlo",
        k=xi,
        c=c,
        K=float(K),
        kernel=kernel,
        meta={"Ns": int(Ns), "seed": int(seed), "generator": GENERATOR_ID},
    )
    plan.validate()
    return plan


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
