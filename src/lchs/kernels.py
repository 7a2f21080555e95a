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

Both integrals here, the beta tail in tail_mass and the check, use one
adaptive 7/15-point Gauss-Kronrod routine in numpy (_gauss_kronrod), so a
solve loads no quadrature library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
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


def _abs_g_beta(k: np.ndarray, beta: float) -> np.ndarray:
    """|g(k)| of the beta family on an array of real k, in real arithmetic:

      |g(k)| = exp(2^b - (1 + k^2)^(b/2) cos(b atan k)) / (2 pi sqrt(1 + k^2)),

    since Re (1 + ik)^b = |1 + ik|^b cos(b arg(1 + ik)). No complex value is
    formed, so the tail quadrature's integrand costs a few real ufuncs.
    """
    s = 1.0 + k * k
    return np.exp(2.0**beta - s ** (0.5 * beta) * np.cos(beta * np.arctan(k))) / (
        2.0 * np.pi * np.sqrt(s)
    )


# The 7/15-point Gauss-Kronrod pair of QUADPACK's qk15 (Piessens et al.,
# QUADPACK, 1983) on [-1, 1]: the positive Kronrod nodes and their weights,
# and the Gauss weights on the 2nd, 4th and 6th of those nodes; the centre
# node 0 carries both rules' last weights. Below they are spread over the 15
# nodes in ascending order, the Gauss weights at the odd positions.
_GK_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_GK_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GK_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_GK_NODES = np.concatenate([-_GK_X, [0.0], _GK_X[::-1]])
_GK_KRONROD = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
_GK_GAUSS = np.zeros(15)
_GK_GAUSS[1::2] = np.concatenate([_GK_WG, _GK_WG[-2::-1]])
_GK_RULES = np.stack([_GK_KRONROD, _GK_GAUSS], axis=1)
# qk15's floor on a subinterval's error estimate: 50 machine eps times the
# integral of |f| over it
_GK_ROUNDOFF = 50.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
# _gauss_kronrod's first pass applies the rule on this many equal
# subintervals, in one call of the integrand like any pass; on the beta tail
# over [K, K_cut] at K = 64 that makes one pass in place of four
_GK_START = 8


def _qk15(f, lo: np.ndarray, hi: np.ndarray):
    """The 15-point Kronrod value and QUADPACK's qk15 error estimate of f on
    every subinterval [lo[i], hi[i]] at once, from one call of f on all the
    nodes. With I_asc the integral of |f - mean f| and I_abs that of |f|, the
    estimate is I_asc min(1, 200 |K15 - G7| / I_asc)^1.5, and no less than
    50 machine eps I_abs. Where I_asc = 0 (f constant on the nodes, so
    K15 - G7 is roundoff) the floor is the estimate; qk15 keeps |K15 - G7|.
    """
    half = 0.5 * (hi - lo)
    fx = f((lo + half)[:, None] + half[:, None] * _GK_NODES)
    kronrod, gauss = (fx @ _GK_RULES).T
    asc = np.abs(fx - 0.5 * kronrod[:, None]) @ _GK_KRONROD
    # min(1, 200 |K15 - G7| / I_asc), without a division by zero
    ratio = np.minimum(200.0 * np.abs(kronrod - gauss), asc) / (asc + _TINY)
    err = np.maximum(asc * ratio**1.5, _GK_ROUNDOFF * (np.abs(fx) @ _GK_KRONROD))
    return kronrod * half, err * half


def _gauss_kronrod(f, a: float, b: float, epsabs: float = 1e-16, epsrel: float = 1e-12,
                   limit: int = 400):
    """(value, error estimate) of the integral of f over [a, b], finite and
    a < b, by adaptive 7/15-point Gauss-Kronrod quadrature; f maps an array
    of points to an array of real values. An empty interval, a == b (inf
    included), gives (0.0, 0.0).

    It starts from _GK_START equal subintervals, and each pass applies the
    rule (_qk15) to every new subinterval in one call of f. It stops when
    the summed error estimate is at most max(epsabs, epsrel |value|), the
    tolerance of QUADPACK's qags; otherwise it bisects the subintervals of
    largest error, as few of them as leave the rest within the tolerance
    (qags bisects one at a time). Raises QuadratureError when that would
    take more than `limit` subintervals.
    """
    if a == b:
        return 0.0, 0.0
    if not (a < b and math.isfinite(a) and math.isfinite(b)):
        raise RangeError(f"quadrature needs finite limits a < b, got [{a}, {b}]")
    edges = np.linspace(a, b, _GK_START + 1)
    lo, hi = edges[:-1], edges[1:]
    val, err = _qk15(f, lo, hi)
    while True:
        value, error = float(val.sum()), float(err.sum())
        tol = max(epsabs, epsrel * abs(value))
        if error <= tol:
            return value, error
        worst = np.argsort(err)[::-1]
        n = min(len(worst), int(np.searchsorted(np.cumsum(err[worst]), error - tol)) + 1)
        if len(lo) + n > limit:
            raise QuadratureError(
                f"quadrature on [{a}, {b}] needs more than {limit} subintervals "
                f"(error estimate {error:.3e}, tolerance {tol:.3e})",
                achieved=error,
            )
        worst, keep = worst[:n], worst[n:]
        mid = 0.5 * (lo[worst] + hi[worst])
        new_lo = np.concatenate([lo[worst], mid])
        new_hi = np.concatenate([mid, hi[worst]])
        new_val, new_err = _qk15(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val, err = np.concatenate([val[keep], new_val]), np.concatenate([err[keep], new_err])


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
    """Upper bound on the integral of |g| over |k| > K, for K > 0 (K = inf
    gives 0.0); RangeError otherwise, NaN included.

    cauchy: closed form (2/pi)(pi/2 - arctan K) (exact, since g > 0).
    beta:   the integral of |g| over [K, K_cut], K_cut = max(4K, K + 200), an
            adaptive Gauss-Kronrod estimate to relative accuracy 1e-12 (not a
            bound), plus a certified analytic bound on the remainder beyond
            K_cut. The integrand is _abs_g_beta.
    """
    if not K > 0:
        raise RangeError(f"K must be positive, got {K}")
    if spec.family == "cauchy":
        return (2.0 / np.pi) * (np.pi / 2.0 - np.arctan(K))
    K_cut = max(4.0 * K, K + 200.0)
    main, _ = _gauss_kronrod(lambda k: _abs_g_beta(k, spec.beta), K, K_cut)
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
    """Residual |integral of g over R - 1|, a numerical check of the
    residue identity integral of g = 2 pi f(-i) = 1.

    Adaptive quadrature of Re g on [0, K*] (Im g is odd for both families, so
    twice the value is the integral over [-K*, K*]) plus the tail. For cauchy
    the tail value is exact (arctangent), so only the quadrature's error
    estimate enters the residual; for beta the tail mass (tail_mass) is
    added, with K* sized for ~1e-13 (capped at K_MAX). A quadrature that does
    not converge within 800 subintervals raises QuadratureError.
    """
    if spec.family == "cauchy":
        K_star = 1.0e4
    else:
        try:
            K_star = choose_truncation(spec, 1e-13).K
        except RangeError:
            K_star = K_MAX
    val, err = _gauss_kronrod(
        lambda k: weight_g(spec, k).real, 0.0, K_star, epsabs=1e-15, epsrel=1e-13, limit=800,
    )
    if spec.family == "cauchy":
        # g > 0 here, so the closed-form tail mass is the tail integral itself
        return abs(2.0 * val + tail_mass(spec, K_star) - 1.0) + 2.0 * err
    return abs(2.0 * val - 1.0) + 2.0 * err + tail_mass(spec, K_star)


def make_kernel(family: str = DEFAULT_FAMILY, beta: float | None = None) -> KernelSpec:
    """Construct a KernelSpec; beta defaults to DEFAULT_BETA for the beta
    family, and the cauchy family takes none (RangeError otherwise). No
    quadrature runs: the weight integral is exactly 1."""
    if family == "beta" and beta is None:
        beta = DEFAULT_BETA
    return KernelSpec(family=family, beta=beta)
