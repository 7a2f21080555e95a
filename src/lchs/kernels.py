"""Integration kernels and truncation of the weight integral.

Two kernel families are provided:

  cauchy:      f(z) = 1 / (pi (1 + iz))
  beta (0<b<1): f(z) = exp(2^b - (1 + iz)^b) / (2 pi)

Both are analytic in the lower half-plane, decay along the real axis, and are
normalized so that the derived weight g(k) = f(k) / (1 - ik) integrates to 1
over the real line. The nominal beta-family constant is treated as
approximate: a numeric correction factor, computed at construction, pins the
normalization to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.integrate
from scipy.special import gammaincc, gamma

from .errors import QuadratureError, RangeError

FAMILIES = ("cauchy", "beta")

# Largest truncation half-width we are willing to certify before telling the
# caller to switch to the (faster-decaying) beta family.
K_MAX = 1.0e6

DEFAULT_FAMILY = "beta"
DEFAULT_BETA = 0.75


def _raw_kernel(family: str, beta: float | None, z):
    """Kernel f(z) without the normalization correction.

    The beta family is evaluated as a single exp of a complex argument so that
    decay underflows to zero instead of overflowing an intermediate.
    """
    z = np.asarray(z, dtype=complex)
    if family == "cauchy":
        return 1.0 / (np.pi * (1.0 + 1j * z))
    return np.exp(2.0**beta - (1.0 + 1j * z) ** beta) / (2.0 * np.pi)


@dataclass(frozen=True)
class KernelSpec:
    """A chosen kernel family plus its numeric normalization correction.

    Use make_kernel() to construct; that computes normalization_correction so
    that |integral of g - 1| <= 1e-10 holds (verified at construction).
    """

    family: str
    beta: float | None = None
    normalization_correction: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise RangeError(f"unknown kernel family {self.family!r}")
        if self.family == "beta":
            if self.beta is None or not (0.0 < self.beta < 1.0):
                raise RangeError(f"beta must lie in (0, 1), got {self.beta}")


def kernel_f(spec: KernelSpec, k):
    """f(k) on the real axis, vectorized (correction included)."""
    k = np.asarray(k, dtype=float)
    out = spec.normalization_correction * _raw_kernel(spec.family, spec.beta, k)
    return out if out.ndim else complex(out)


def weight_g(spec: KernelSpec, k):
    """The integrand weight g(k) = f(k) / (1 - ik) for real k.

    Accepts scalars or arrays. For the cauchy family this is real:
    g(k) = 1 / (pi (1 + k^2)).
    """
    k = np.asarray(k, dtype=float)
    f = spec.normalization_correction * _raw_kernel(spec.family, spec.beta, k)
    out = f / (1.0 - 1j * k)
    return out if out.ndim else complex(out)


def _abs_g(spec: KernelSpec, k):
    """|g(k)| for real k (vectorized)."""
    k = np.asarray(k, dtype=float)
    f = np.abs(spec.normalization_correction) * np.abs(
        _raw_kernel(spec.family, spec.beta, k)
    )
    return f / np.sqrt(1.0 + k * k)


def _beta_tail_remainder(spec: KernelSpec, K: float) -> float:
    """Certified bound on the two-sided mass of |g| beyond |k| = K (beta family).

    Uses |f(k)| <= C exp(-a |k|^beta) with a = cos(beta pi / 2), which follows
    from Re((1+ik)^beta) >= |k|^beta cos(beta pi / 2), and then integrates the
    envelope in closed form via the upper incomplete gamma function.
    """
    b = spec.beta
    a = np.cos(b * np.pi / 2.0)
    C = abs(spec.normalization_correction) * np.exp(2.0**b) / (2.0 * np.pi)
    s = 1.0 / b
    env_integral = s * a ** (-s) * gammaincc(s, a * K**b) * gamma(s)
    return 2.0 * C / np.sqrt(1.0 + K * K) * env_integral


def tail_mass(spec: KernelSpec, K: float) -> float:
    """Certified upper bound on the integral of |g| over |k| > K.

    cauchy: closed form (2/pi)(pi/2 - arctan K) (exact, since g > 0).
    beta:   numeric integral of |g| out to a cut, plus the analytic remainder.
    """
    if K <= 0:
        raise RangeError(f"K must be positive, got {K}")
    if spec.family == "cauchy":
        return abs(spec.normalization_correction) * (2.0 / np.pi) * (
            np.pi / 2.0 - np.arctan(K)
        )
    K_cut = max(4.0 * K, K + 200.0)
    main, _ = scipy.integrate.quad(
        lambda k: _abs_g(spec, k), K, K_cut, limit=400, epsabs=1e-16, epsrel=1e-12
    )
    return 2.0 * main + _beta_tail_remainder(spec, K_cut)


@dataclass(frozen=True)
class TruncationChoice:
    """Half-width K of the finite window [-K, K] and its certified tail mass."""

    K: float
    epsilon_tail: float


def choose_truncation(spec: KernelSpec, eps_tail: float) -> TruncationChoice:
    """Smallest window half-width (to ~3 significant digits) with certified
    tail mass <= eps_tail.

    Scans a geometric grid K = 2^j and refines by bisection. Raises RangeError
    with a pointer to the beta family when K would exceed K_MAX.
    """
    if not (0.0 < eps_tail < 1.0):
        raise RangeError(f"eps_tail must lie in (0, 1), got {eps_tail}")
    lo = None
    hi = None
    grid = [2.0**j for j in range(-20, 21) if 2.0**j < K_MAX] + [K_MAX]
    for K in grid:
        if tail_mass(spec, K) <= eps_tail:
            hi = K
            break
        lo = K
    if hi is None:
        raise RangeError(
            f"truncation window exceeds {K_MAX:.0e} for eps_tail = {eps_tail:.3e}; "
            "consider the beta kernel family, whose tails decay faster"
        )
    if lo is None:
        # already certified at the smallest grid point
        return TruncationChoice(K=hi, epsilon_tail=tail_mass(spec, hi))
    while (hi - lo) / hi > 1e-3:
        mid = 0.5 * (lo + hi)
        if tail_mass(spec, mid) <= eps_tail:
            hi = mid
        else:
            lo = mid
    return TruncationChoice(K=hi, epsilon_tail=tail_mass(spec, hi))


def _normalization_window(family: str, beta: float | None) -> float:
    """Half-width over which the normalization integral is evaluated, chosen
    so the neglected tail is ~1e-13 (capped at K_MAX)."""
    probe = KernelSpec(family=family, beta=beta, normalization_correction=1.0)
    try:
        return choose_truncation(probe, 1e-13).K
    except RangeError:
        return K_MAX


def _half_integral(spec: KernelSpec, K: float) -> tuple[float, float]:
    """Integral of Re g over [0, K] and its error estimate. Im(g) is odd for
    both families, so twice the value is the integral over [-K, K]."""
    return scipy.integrate.quad(
        lambda k: weight_g(spec, k).real, 0.0, K, limit=800, epsabs=1e-15, epsrel=1e-13,
    )


def _normalization_residual(spec: KernelSpec, K_star: float) -> float:
    """Certified residual |integral of g over R - 1| for the beta family:
    adaptive quadrature on [-K_star, K_star] plus the certified tail bound."""
    val, err = _half_integral(spec, K_star)
    residual = abs(2.0 * val - 1.0) + 2.0 * err + tail_mass(spec, K_star)
    if err > 1e-9:
        raise QuadratureError(
            f"normalization quadrature did not converge (error estimate {err:.3e})",
            achieved=residual,
        )
    return residual


def check_normalization(spec: KernelSpec) -> float:
    """Certified residual |integral of g over R - 1|.

    Adaptive quadrature on [-K*, K*] plus the tail. For cauchy the tail value
    is exact (arctangent), so only the quadrature error enters the residual;
    for beta the certified tail bound is added, with K* sized for ~1e-13.
    """
    if spec.family == "cauchy":
        K_star = 1.0e4
        val, err = _half_integral(spec, K_star)
        # g > 0 here, so the closed-form tail mass is the tail integral itself
        total = 2.0 * val + tail_mass(spec, K_star)
        return abs(total - 1.0) + 2.0 * err
    return _normalization_residual(spec, _normalization_window(spec.family, spec.beta))


def make_kernel(family: str = DEFAULT_FAMILY, beta: float | None = None) -> KernelSpec:
    """Construct a KernelSpec with its normalization pinned numerically.

    The cauchy family is exactly normalized (arctangent integral), so its
    correction is 1. For the beta family the correction is 1/I where I is the
    numerically evaluated weight integral.
    """
    if family == "beta" and beta is None:
        beta = DEFAULT_BETA
    if family == "cauchy":
        return KernelSpec(family="cauchy", beta=None, normalization_correction=1.0)
    raw = KernelSpec(family=family, beta=beta, normalization_correction=1.0)
    K_star = _normalization_window(family, beta)
    val, _ = _half_integral(raw, K_star)
    spec = KernelSpec(family=family, beta=beta, normalization_correction=1.0 / (2.0 * val))
    residual = _normalization_residual(spec, K_star)
    if residual > 1e-10:
        raise QuadratureError(
            f"kernel normalization residual {residual:.3e} exceeds 1e-10 "
            f"for family={family} beta={beta}",
            achieved=residual,
        )
    return spec
