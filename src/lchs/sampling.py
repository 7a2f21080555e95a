"""Finite sampling plans for the weight integral.

A SamplingPlan is the list of (abscissa k_j, complex coefficient c_j) that
turns the integral of g(k) U(k,T) over [-K, K] into a finite sum. Plans come
from composite Gauss-Legendre quadrature (2M subintervals of width h = K/M,
Q nodes each, c = w * g(k)) or from uniform Monte Carlo sampling
(c = (2K/Ns) * g(xi)).
"""

from __future__ import annotations

import functools
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


# the abscissae of a plan are compared with their panel layout this many
# entries at a time
_LAYOUT_SLICE = 4096

# |c| is summed this many coefficients at a time by coefficient_l1
_L1_SLICE = 65536


@functools.lru_cache(maxsize=Q_MAX)
def gauss_legendre(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the Q-point Gauss-Legendre rule on
    (-1, 1), which integrates polynomials of degree <= 2Q - 1 exactly.

    Memoized per Q, since every plan build asks for its rule; the arrays are
    read-only. A RangeError is raised afresh on every call, not cached."""
    if not (1 <= Q <= Q_MAX):
        raise RangeError(f"Q must lie in [1, {Q_MAX}], got {Q}")
    rule = np.polynomial.legendre.leggauss(Q)
    for a in rule:
        a.flags.writeable = False
    return rule


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
        """sum |c_j|, in slices of _L1_SLICE terms, so no array the size of
        the plan is made."""
        c = np.asarray(self.c)
        return sum(float(np.abs(c[i : i + _L1_SLICE]).sum()) for i in range(0, len(c), _L1_SLICE))

    def validate(self) -> None:
        """Raise RangeError unless the plan has terms, as many coefficients
        as abscissae, finite abscissae inside [-K, K] and absolutely summable
        coefficients. Only O(1) temporaries: the abscissae are read through
        their minimum and maximum, which a NaN propagates to."""
        if self.size == 0:
            raise RangeError("plan has no terms")
        if len(self.c) != self.size:
            raise RangeError(f"plan has {self.size} abscissae but {len(self.c)} coefficients")
        lo, hi = np.min(self.k), np.max(self.k)
        # nan > K is False, so a NaN abscissa would pass the window check
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise RangeError("plan abscissae are not finite")
        if max(-lo, hi) > self.K * (1 + 1e-12):
            raise RangeError("plan abscissae fall outside [-K, K]")
        if not np.isfinite(self.coefficient_l1()):
            raise RangeError("plan coefficients are not absolutely summable")


def _require_gaussian_size(M: float, Q: int) -> None:
    """Raise RangeError unless a plan of 2 M Q terms fits NS_MAX, the cap
    Monte Carlo plans have; an infinite or NaN M fails too."""
    if not 2 * M * Q <= NS_MAX:
        raise RangeError(f"Gaussian plan of 2*M*Q terms, M = {M:g}, Q = {Q}, exceeds {NS_MAX}")


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
    _require_gaussian_size(M, Q)
    h = K / M
    left = h * np.arange(M)  # left endpoints of the k > 0 subintervals, ascending
    positive = (left[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    k = np.concatenate([-positive[::-1], positive])
    wts = np.broadcast_to(0.5 * h * w, (2 * M, Q)).ravel()
    return k, wts


def _composite_panels(plan: SamplingPlan):
    """(left, off) with k[half + m Q + q] == left[m] + off[q] bitwise over
    the k > 0 half of plan.k (half = size // 2), when that half is exactly
    the layout _composite_nodes builds from the plan's K, M and Q: panel left
    endpoints h * arange(M), h = K / M, and node offsets 0.5 h (x + 1).
    None otherwise (a Monte Carlo or hand-made plan). off is read from the
    first panel, which holds it exactly since left[0] = 0, so no rule is
    computed; the layout is compared _LAYOUT_SLICE entries at a time, so no
    array the size of the plan is made."""
    M, Q = plan.meta.get("M"), plan.meta.get("Q")
    half = plan.size // 2
    if plan.method != "gaussian" or M is None or Q is None or not 0 < M * Q == half:
        return None
    k = plan.k[half:]
    left, off = (plan.K / M) * np.arange(M), k[:Q]
    step = max(1, _LAYOUT_SLICE // Q)
    for m in range(0, M, step):
        if not np.array_equal(k[m * Q : (m + step) * Q], (left[m : m + step, None] + off).ravel()):
            return None
    return left, off


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
    quadrature_order. Raises RangeError, before any array is allocated,
    when the plan would exceed NS_MAX terms.
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
    # T ||L|| can overflow to inf, which takes h to 0 and K / h to inf
    M = K / h if h > 0 else math.inf
    Q = quadrature_order(K, eps)
    _require_gaussian_size(M, Q)
    plan = composite_plan(kernel, K, int(math.ceil(M)), Q)
    plan.meta.update({"eps": eps, "tail_bound": float(trunc.epsilon_tail)})
    return plan


def _uniform_from_raw(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in [0, 1) using the top 53 bits."""
    return (raw >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def _mc_terms(kernel: KernelSpec, K: float, Ns: int, seed: int, start: int) -> SamplingPlan:
    """The terms [start, Ns) of mc_plan(kernel, K, Ns, seed), bit for bit, as
    a plan of Ns - start terms; g is evaluated on those terms only. Its meta
    is mc_plan's, plus start when start > 0.

    The Philox stream is counter-based, so the skipped words are not drawn:
    one counter step yields four 64-bit words, so advance(start // 4) skips
    4 (start // 4) words and the remaining start % 4 are drawn and dropped."""
    if not 0 < K < math.inf:
        raise RangeError(f"K must be positive and finite, got {K}")
    if Ns < 1:
        raise RangeError(f"Ns must be >= 1, got {Ns}")
    if seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
    if not 0 <= start < Ns:
        raise RangeError(f"start must lie in [0, Ns) = [0, {Ns}), got {start}")
    bitgen = np.random.Philox(seed)
    meta = {"Ns": int(Ns), "seed": int(seed), "generator": GENERATOR_ID}
    if start:
        bitgen.advance(start // 4)
        bitgen.random_raw(start % 4)
        meta["start"] = int(start)
    raw = bitgen.random_raw(Ns - start)
    xi = K * (2.0 * _uniform_from_raw(raw) - 1.0)
    c = (2.0 * K / Ns) * np.asarray(weight_g(kernel, xi), dtype=complex)
    return SamplingPlan(method="monte-carlo", k=xi, c=c, K=float(K), meta=meta)


def mc_plan(kernel: KernelSpec, K: float, Ns: int, seed: int) -> SamplingPlan:
    """Uniform Monte Carlo plan: Ns i.i.d. abscissae on [-K, K] from the
    pinned Philox stream, coefficients (2K/Ns) * g(xi)."""
    return _mc_terms(kernel, K, Ns, seed, 0)


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
