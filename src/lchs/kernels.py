"""Integration kernels and truncation of the weight integral.

Two kernel families are provided:

  cauchy:      f(z) = 1 / (pi (1 + iz))
  beta (0<b<1): f(z) = exp(2^b - (1 + iz)^b) / (2 pi)

Both are analytic in the closed lower half-plane (the cauchy pole and the beta
branch point sit at z = i) and decay there, so the derived weight
g(k) = f(k) / (1 - ik) is normalized exactly, with no numerical factor: closing
the real line through the lower half-plane picks up only the pole of
1 / (1 - ik) at k = -i, and the residue theorem gives

  integral of g over R = 2 pi f(-i) = 1,

because f(-i) = 1 / (2 pi) for both families (An, Liu & Lin, PRL 131, 150603,
2023). check_normalization verifies the identity by quadrature.
"""

from __future__ import annotations

import functools
import math
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


def _f(family: str, beta: float | None, z):
    """Kernel f(z), vectorized.

    The beta family is evaluated as a single exp of a complex argument so that
    decay underflows to zero instead of overflowing an intermediate. On the
    real axis, z = k, that argument is formed in real arithmetic, without a
    complex power: (1 + ik)^b = r e^{i theta} with r = exp(b/2 log1p(k^2))
    and theta = b atan k, so f = exp(2^b - r cos theta) e^{-i r sin theta}
    / (2 pi). Decay still underflows, since |theta| < b pi/2 makes
    cos theta > 0. A complex z takes the complex power.
    """
    if family == "cauchy":
        return 1.0 / (np.pi * (1.0 + 1j * np.asarray(z)))
    if np.iscomplexobj(z):
        return np.exp(2.0**beta - (1.0 + 1j * z) ** beta) / (2.0 * np.pi)
    r = np.exp(0.5 * beta * np.log1p(z * z))
    theta = beta * np.arctan(z)
    return np.exp(2.0**beta - r * np.cos(theta) - 1j * r * np.sin(theta)) / (2.0 * np.pi)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family and, for the beta family, its exponent.

    The spec needs no normalization factor: for both families
    integral of g = 2 pi f(-i) = 1 by the residue theorem (see the module
    docstring), since f is analytic and decays in the lower half-plane.
    """

    family: str
    beta: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise RangeError(f"unknown kernel family {self.family!r}")
        if self.family == "beta":
            if self.beta is None or not (0.0 < self.beta < 1.0):
                raise RangeError(f"beta must lie in (0, 1), got {self.beta}")
        elif self.beta is not None:
            raise RangeError(f"the {self.family} family takes no beta, got {self.beta}")


def kernel_f(spec: KernelSpec, k):
    """f(k) on the real axis, vectorized."""
    out = _f(spec.family, spec.beta, np.asarray(k, dtype=float))
    return out if out.ndim else complex(out)


def weight_g(spec: KernelSpec, k):
    """The integrand weight g(k) = f(k) / (1 - ik) for real k.

    Accepts scalars or arrays. For the cauchy family this is real:
    g(k) = 1 / (pi (1 + k^2)).
    """
    k = np.asarray(k, dtype=float)
    out = _f(spec.family, spec.beta, k) / (1.0 - 1j * k)
    return out if out.ndim else complex(out)


def _abs_g_beta(k: float, beta: float) -> float:
    """|g(k)| of the beta family at one real k, in scalar math:

      |g(k)| = exp(2^b - (1 + k^2)^(b/2) cos(b atan k)) / (2 pi sqrt(1 + k^2)),

    since Re (1 + ik)^b = |1 + ik|^b cos(b arg(1 + ik)). The tail quadrature
    calls it on Python floats, where a numpy integrand would spend several
    microseconds per call on array overhead.
    """
    s = 1.0 + k * k
    return math.exp(2.0**beta - s ** (0.5 * beta) * math.cos(beta * math.atan(k))) / (
        2.0 * math.pi * math.sqrt(s)
    )


def _beta_tail_remainder(spec: KernelSpec, K: float) -> float:
    """Certified bound on the two-sided mass of |g| beyond |k| = K (beta family).

    Uses |f(k)| <= C exp(-a |k|^beta) with a = cos(beta pi / 2), which follows
    from Re((1+ik)^beta) >= |k|^beta cos(beta pi / 2), and then integrates the
    envelope in closed form via the upper incomplete gamma function.
    """
    b = spec.beta
    a = np.cos(b * np.pi / 2.0)
    C = np.exp(2.0**b) / (2.0 * np.pi)
    s = 1.0 / b
    env_integral = s * a ** (-s) * gammaincc(s, a * K**b) * gamma(s)
    return 2.0 * C / np.sqrt(1.0 + K * K) * env_integral


def tail_mass(spec: KernelSpec, K: float) -> float:
    """Certified upper bound on the integral of |g| over |k| > K.

    cauchy: closed form (2/pi)(pi/2 - arctan K) (exact, since g > 0).
    beta:   numeric integral of |g| out to a cut, plus the analytic remainder.
            The integrand is the scalar _abs_g_beta.
    """
    if K <= 0:
        raise RangeError(f"K must be positive, got {K}")
    if spec.family == "cauchy":
        return (2.0 / np.pi) * (np.pi / 2.0 - np.arctan(K))
    K_cut = max(4.0 * K, K + 200.0)
    main, _ = scipy.integrate.quad(
        _abs_g_beta, K, K_cut, args=(spec.beta,), limit=400, epsabs=1e-16, epsrel=1e-12
    )
    return 2.0 * main + _beta_tail_remainder(spec, K_cut)


@dataclass(frozen=True)
class TruncationChoice:
    """Half-width K of the finite window [-K, K] and its certified tail mass."""

    K: float
    epsilon_tail: float


@functools.lru_cache(maxsize=64)
def choose_truncation(spec: KernelSpec, eps_tail: float) -> TruncationChoice:
    """Smallest window half-width (to ~3 significant digits) with certified
    tail mass <= eps_tail.

    Brackets the answer on the geometric grid K = 2^j (capped at K_MAX) and
    refines by bisection. tail_mass is non-increasing in K, so the first
    certified grid point is found by binary search over the grid. Raises
    RangeError with a pointer to the beta family when K would exceed K_MAX.

    The choice is memoized per (spec, eps_tail): both are immutable, and
    every set-up at one eps asks for the same window. A RangeError is not
    cached, so it is raised again on every call.
    """
    if not (0.0 < eps_tail < 1.0):
        raise RangeError(f"eps_tail must lie in (0, 1), got {eps_tail}")
    grid = [2.0**j for j in range(-20, 21) if 2.0**j < K_MAX] + [K_MAX]
    # invariant: grid[i_lo] is uncertified (i_lo = -1: none below the grid)
    # and grid[i_hi] is certified (i_hi = len(grid): none on the grid)
    i_lo, i_hi = -1, len(grid)
    hi_mass = None
    while i_hi - i_lo > 1:
        i_mid = (i_lo + i_hi) // 2
        mass = tail_mass(spec, grid[i_mid])
        if mass <= eps_tail:
            i_hi, hi_mass = i_mid, mass
        else:
            i_lo = i_mid
    if i_hi == len(grid):
        raise RangeError(
            f"truncation window exceeds {K_MAX:.0e} for eps_tail = {eps_tail:.3e}; "
            "consider the beta kernel family, whose tails decay faster"
        )
    hi = grid[i_hi]
    if i_lo >= 0:  # otherwise already certified at the smallest grid point
        lo = grid[i_lo]
        while (hi - lo) / hi > 1e-3:
            mid = 0.5 * (lo + hi)
            mass = tail_mass(spec, mid)
            if mass <= eps_tail:
                hi, hi_mass = mid, mass
            else:
                lo = mid
    return TruncationChoice(K=hi, epsilon_tail=hi_mass)


def check_normalization(spec: KernelSpec) -> float:
    """Certified residual |integral of g over R - 1|, a numerical check of the
    residue identity integral of g = 2 pi f(-i) = 1.

    Adaptive quadrature of Re g on [0, K*] (Im g is odd for both families, so
    twice the value is the integral over [-K*, K*]) plus the tail. For cauchy
    the tail value is exact (arctangent), so only the quadrature error enters
    the residual; for beta the certified tail bound is added, with K* sized
    for ~1e-13 (capped at K_MAX).
    """
    if spec.family == "cauchy":
        K_star = 1.0e4
    else:
        try:
            K_star = choose_truncation(spec, 1e-13).K
        except RangeError:
            K_star = K_MAX
    val, err = scipy.integrate.quad(
        lambda k: weight_g(spec, k).real, 0.0, K_star, limit=800, epsabs=1e-15, epsrel=1e-13,
    )
    if spec.family == "cauchy":
        # g > 0 here, so the closed-form tail mass is the tail integral itself
        return abs(2.0 * val + tail_mass(spec, K_star) - 1.0) + 2.0 * err
    residual = abs(2.0 * val - 1.0) + 2.0 * err + tail_mass(spec, K_star)
    if err > 1e-9:
        raise QuadratureError(
            f"normalization quadrature did not converge (error estimate {err:.3e})",
            achieved=residual,
        )
    return residual


def make_kernel(family: str = DEFAULT_FAMILY, beta: float | None = None) -> KernelSpec:
    """Construct a KernelSpec; beta defaults to DEFAULT_BETA for the beta
    family, and the cauchy family takes none (RangeError otherwise). No
    quadrature runs: the weight integral is exactly 1."""
    if family == "beta" and beta is None:
        beta = DEFAULT_BETA
    return KernelSpec(family=family, beta=beta)
