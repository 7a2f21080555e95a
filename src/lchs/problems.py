"""Builders for the application domains.

A builder takes its parameters as keyword arguments and checks them there.
Each key of a config's params block (harness.DEFAULT_PARAMS) is the keyword
argument of the same name, so build_problem passes the block straight in;
lindblad's block, which names a preset or a custom spec, is the exception
and becomes a LindbladSpec first.

Each builder assembles a finite generator A, splits it into Hermitian parts,
and hands the pairs to _finalize, the one place that builds a builder's
schedule, shifts it by only the deficit -lambda0 when it would fail the
positivity gate L >= 0 (spectral_shift), records the shifted schedule's
normL in meta, and packages the result as a ProblemInstance ready for the
weighted-unitary solver.

Sign conventions worth keeping straight:

* The solver's canonical form is du/dt = -A u on column vectors. Queueing
  models evolve a row-vector distribution, d pi/dt = pi Q, so the builders
  hand the solver A = -Q^T. Relative to splitting Q itself this flips the
  sign of the Hermitian part and keeps the anti-Hermitian part.
* The absorbing-potential Hamiltonian contributes L = -(1/hbar) V_I, so an
  absorbing layer (V_I <= 0) yields L >= 0, which needs no shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BuildError, DimensionError, RangeError
from .evolve import ProblemInstance
from .linalg import (
    HermitianPair,
    TimeSchedule,
    _check_hermitian,
    hermitian_split,
    spectral_shift,
)


def _finalize(
    pairs: list[HermitianPair], breakpoints, u0, label: str, **meta
) -> ProblemInstance:
    """Build the (possibly piecewise) schedule of the pairs, shift it by what
    the positivity gate needs (spectral_shift: none when the schedule passes
    the gate, else its deficit -lambda0 on every pair) and wrap everything as
    a ProblemInstance whose meta records the shifted schedule's normL."""
    if len(pairs) == 1:
        schedule = TimeSchedule.constant(pairs[0])
    else:
        schedule = TimeSchedule.piecewise(breakpoints, pairs)
    schedule, _ = spectral_shift(schedule)
    meta["normL"] = schedule.normL
    return ProblemInstance(schedule=schedule, u0=u0, label=label, meta=meta)


def _time_slices(pair_at, T: float, time_slices: int):
    """Pairs and breakpoints of a piecewise-constant schedule: time_slices
    equal intervals of [0, T], each pair sampled at its interval midpoint.
    A single slice is the pair at T/2 and needs no breakpoints."""
    if time_slices == 1:
        return [pair_at(0.5 * T)], None
    breakpoints = np.linspace(0.0, T, time_slices + 1)
    mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    return [pair_at(t) for t in mids], breakpoints


# ---------------------------------------------------------------------------
# parabolic PDE in one dimension, homogeneous Dirichlet on [0, 1]
# ---------------------------------------------------------------------------

def _parabolic_pair(a, b, c, N_grid: int, t: float) -> HermitianPair:
    N = N_grid - 2  # interior points
    h = 1.0 / (N_grid - 1)
    nodes = h * np.arange(1, N_grid - 1)
    mids = h * (np.arange(0, N_grid - 1) + 0.5)  # staggered points x +- h/2
    am = np.array([a(x, t) for x in mids])
    bad = np.nonzero(~(am > 0.0))[0]
    if len(bad):
        raise BuildError(
            f"ellipticity violated: a({mids[bad[0]]:.6g}, {t:.6g}) = {am[bad[0]]:.6g} <= 0"
        )
    cv = np.array([c(x, t) for x in nodes])
    bv = np.array([b(x, t) for x in nodes])

    L = np.zeros((N, N), dtype=complex)
    # flux-form second difference: a evaluated at the midpoints shared by
    # neighboring rows, which makes L exactly symmetric
    diag = (am[:-1] + am[1:]) / h**2 + cv
    np.fill_diagonal(L, diag)
    for r in range(N - 1):
        L[r, r + 1] = -am[r + 1] / h**2
        L[r + 1, r] = -am[r + 1] / h**2

    H = np.zeros((N, N), dtype=complex)
    # symmetrized first difference: exactly Hermitian by construction
    for r in range(N - 1):
        coupling = (bv[r] + bv[r + 1]) / (4.0 * h)
        H[r, r + 1] = -1j * coupling
        H[r + 1, r] = 1j * coupling

    return HermitianPair(L=L, H=H)


def build_parabolic_1d(
    a, b, c, N_grid: int, T: float = 1.0, time_slices: int = 1, u0=None
) -> ProblemInstance:
    """Discretize -(a u')' + b u' + c u on [0, 1] with u = 0 at the ends.

    a, b, c are callables (x, t) -> float; a must stay strictly positive on
    the staggered grid (ellipticity). The grid has N_grid >= 3 points, the
    ends included. Time-dependent coefficients are handled by a
    piecewise-constant schedule over `time_slices` intervals of [0, T],
    sampling the coefficients at the interval midpoints.
    """
    if N_grid < 3:
        raise RangeError(f"N_grid must be >= 3, got {N_grid}")
    h = 1.0 / (N_grid - 1)
    nodes = h * np.arange(1, N_grid - 1)
    if u0 is None:
        u0 = np.sin(np.pi * nodes).astype(complex)
    pairs, breakpoints = _time_slices(
        lambda t: _parabolic_pair(a, b, c, N_grid, t), T, time_slices
    )
    return _finalize(
        pairs, breakpoints, u0, label=f"parabolic1d(N_grid={N_grid})", h=h, grid=nodes
    )


# ---------------------------------------------------------------------------
# queueing models (birth-death chains), truncated state space
# ---------------------------------------------------------------------------

def queue_generator(lambda_rate: float, mu_rate: float, servers: int, n_trunc: int) -> np.ndarray:
    """Truncated transition-rate matrix Q of an M/M/c queue with arrival rate
    lambda_rate, service rate mu_rate per server and n_trunc states (rows =
    states, last row absorbing in the sense that the off-grid arrival column
    is simply cut)."""
    if not (lambda_rate > 0 and math.isfinite(lambda_rate)):
        raise RangeError(f"lambda_rate must be positive, got {lambda_rate}")
    if not (mu_rate > 0 and math.isfinite(mu_rate)):
        raise RangeError(f"mu_rate must be positive, got {mu_rate}")
    if servers < 1:
        raise RangeError(f"servers must be >= 1, got {servers}")
    if n_trunc < 2:
        raise RangeError(f"n_trunc must be >= 2, got {n_trunc}")
    Q = np.zeros((n_trunc, n_trunc))
    for j in range(n_trunc):
        service = min(j + 1, servers) * mu_rate
        Q[j, j] = -(lambda_rate + service)
        if j + 1 < n_trunc:
            Q[j, j + 1] = lambda_rate
        if j >= 1:
            Q[j, j - 1] = service
    return Q


def _queue_instance(Q: np.ndarray, label: str, u0) -> ProblemInstance:
    A = -Q.T  # row-vector dynamics d pi/dt = pi Q, column form du/dt = -A u
    pair = hermitian_split(A)
    if u0 is None:
        n = len(Q)
        u0 = np.zeros(n, dtype=complex)
        u0[n // 2] = 1.0
    return _finalize([pair], None, u0, label=label)


def build_mm1(lambda_rate: float, mu_rate: float, n_trunc: int = 16, u0=None) -> ProblemInstance:
    """Single-server queue, truncated to n_trunc states."""
    Q = queue_generator(lambda_rate, mu_rate, 1, n_trunc)
    label = f"mm1(lam={lambda_rate:g},mu={mu_rate:g},n={n_trunc})"
    return _queue_instance(Q, label, u0)


def build_mmc(
    lambda_rate: float, mu_rate: float, servers: int = 1, n_trunc: int = 16, u0=None
) -> ProblemInstance:
    """Multi-server queue with level-dependent service min(n, c) * mu."""
    Q = queue_generator(lambda_rate, mu_rate, servers, n_trunc)
    label = f"mmc(lam={lambda_rate:g},mu={mu_rate:g},c={servers},n={n_trunc})"
    return _queue_instance(Q, label, u0)


# ---------------------------------------------------------------------------
# Schroedinger equation with a complex absorbing potential
# ---------------------------------------------------------------------------

def gaussian_packet(x: np.ndarray, x0: float, sigma: float, p0: float, hbar: float) -> np.ndarray:
    """Normalized Gaussian wave packet with mean position x0 and momentum p0."""
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x / hbar)
    return psi / np.linalg.norm(psi)


def build_cap_schrodinger(
    V_R, V_I, hbar: float, N_grid: int, domain: tuple = (0.0, 1.0),
    T: float = 1.0, time_slices: int = 1, u0=None, packet: dict | None = None,
) -> ProblemInstance:
    """Kinetic term plus real potential in H; absorbing layer in L.

    V_R(x, t) is the real potential and V_I(x) <= 0 the absorbing potential
    with compact support, on a uniform Dirichlet grid of N_grid >= 3 points
    over domain, with Planck-like scale hbar > 0. Without u0 the state is a
    Gaussian packet; packet overrides its x0, sigma and p0.

    L = -(1/hbar) diag(V_I) is diagonal and positive semidefinite (it vanishes
    off the layer), so it passes the positivity gate with lambda0 = 0 and is
    not shifted.
    """
    if hbar <= 0:
        raise RangeError(f"hbar must be positive, got {hbar}")
    if N_grid < 3:
        raise RangeError(f"N_grid must be >= 3, got {N_grid}")
    if not domain[1] > domain[0]:
        raise RangeError(f"empty domain {domain}")
    x_lo, x_hi = domain
    h = (x_hi - x_lo) / (N_grid - 1)
    nodes = x_lo + h * np.arange(1, N_grid - 1)
    N = len(nodes)

    vi = np.array([V_I(x) for x in nodes], dtype=float)
    bad = np.nonzero(vi > 0.0)[0]
    if len(bad):
        raise BuildError(
            f"V_I({nodes[bad[0]]:.6g}) = {vi[bad[0]]:.6g} > 0 would amplify, not absorb"
        )
    L = np.diag(-vi / hbar).astype(complex)

    kin = np.zeros((N, N), dtype=complex)
    np.fill_diagonal(kin, 2.0)
    for r in range(N - 1):
        kin[r, r + 1] = -1.0
        kin[r + 1, r] = -1.0
    kin *= hbar / (2.0 * h**2)  # = -(hbar/2) * discrete Laplacian

    def pair_at(t: float) -> HermitianPair:
        vr = np.array([V_R(x, t) for x in nodes], dtype=float)
        H = kin + np.diag(vr / hbar)
        return HermitianPair(L=L, H=H)

    if u0 is None:
        pk = dict(packet or {})
        x0 = pk.get("x0", x_lo + 0.35 * (x_hi - x_lo))
        sigma = pk.get("sigma", 0.05 * (x_hi - x_lo))
        p0 = pk.get("p0", 0.0)
        u0 = gaussian_packet(nodes, x0, sigma, p0, hbar)

    pairs, breakpoints = _time_slices(pair_at, T, time_slices)
    return _finalize(
        pairs, breakpoints, u0, label=f"cap(N_grid={N_grid},hbar={hbar:g})",
        h=h, grid=nodes,
    )


# ---------------------------------------------------------------------------
# Lindblad master equation, vectorized superoperator
# ---------------------------------------------------------------------------

@dataclass
class LindbladSpec:
    """System Hamiltonian and jump operators of a GKSL generator. H_sys must
    be Hermitian to HERMITICITY_TOL and is stored symmetrized."""

    H_sys: np.ndarray
    jump_ops: list = field(default_factory=list)

    def __post_init__(self):
        self.H_sys = _check_hermitian(self.H_sys, "H_sys")


def vec_density(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec_density(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def lindblad_superoperator(ls: LindbladSpec) -> np.ndarray:
    """Matrix S with d vec(rho)/dt = S vec(rho), using vec(X rho Y) =
    (Y^T kron X) vec(rho)."""
    H = ls.H_sys
    n = H.shape[0]
    eye = np.eye(n)
    S = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for Lj in ls.jump_ops:
        Lj = np.asarray(Lj, dtype=complex)
        if Lj.shape != (n, n):
            raise DimensionError(f"jump operator shape {Lj.shape} != ({n}, {n})")
        LdL = Lj.conj().T @ Lj
        S += np.kron(Lj.conj(), Lj)
        S -= 0.5 * (np.kron(eye, LdL) + np.kron(LdL.T, eye))
    return S


def build_lindblad(ls: LindbladSpec, rho0=None) -> ProblemInstance:
    """Vectorize the GKSL generator and split at the matrix level.

    The Hermitian part of -S can have negative eigenvalues (-0.207 for
    amplitude damping at gamma = 1), and then it is shifted by that deficit.
    """
    n = ls.H_sys.shape[0]
    S = lindblad_superoperator(ls)
    pair = hermitian_split(-S)
    if rho0 is None:
        rho0 = np.eye(n) / n
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (n, n):
        raise DimensionError(f"rho0 shape {rho0.shape} != ({n}, {n})")
    return _finalize(
        [pair], None, vec_density(rho0), label=f"lindblad(n={n},jumps={len(ls.jump_ops)})"
    )


def amplitude_damping_spec(gamma: float = 1.0) -> LindbladSpec:
    """Two-level system, H = 0, single jump sqrt(gamma) |0><1|."""
    if gamma <= 0:
        raise BuildError(f"gamma must be positive, got {gamma}")
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
    return LindbladSpec(H_sys=np.zeros((2, 2), dtype=complex), jump_ops=[np.sqrt(gamma) * sm])


# ---------------------------------------------------------------------------
# decaying Hamiltonian evolution (uniform damping gamma)
# ---------------------------------------------------------------------------

def build_blackhole(H, gamma: float, u0=None) -> ProblemInstance:
    """Generator A = gamma I + i H: unitary dynamics under H with a uniform
    decay rate gamma. L = gamma I passes the positivity gate, so there is no
    shift, and normL is gamma itself."""
    if not gamma > 0:
        raise BuildError(f"gamma must be positive, got {gamma}")
    # hermitian_split symmetrizes, so this is the only check that can reject H
    H = _check_hermitian(H, "H")
    n = H.shape[0]
    A = gamma * np.eye(n) + 1j * H
    pair = hermitian_split(A)
    if u0 is None:
        u0 = np.ones(n, dtype=complex) / np.sqrt(n)
    return _finalize([pair], None, u0, label=f"blackhole(n={n},gamma={gamma:g})")


# ---------------------------------------------------------------------------
# named coefficient presets (the CLI supplies functions by name, not code)
# ---------------------------------------------------------------------------

def preset_callable(spec) -> object:
    """Turn a preset description into a coefficient callable (x, t) -> float.

    Accepted forms: a bare number (constant), or a dict with kind one of
    "constant" {value}, "polynomial" {coeffs, low->high in x}, or
    "gaussian" {amplitude, center, width}.
    """
    if isinstance(spec, (int, float)):
        value = float(spec)
        return lambda x, t: value
    kind = spec.get("kind")
    if kind == "constant":
        value = float(spec["value"])
        return lambda x, t: value
    if kind == "polynomial":
        coeffs = [float(c) for c in spec["coeffs"]]
        return lambda x, t: float(np.polynomial.polynomial.polyval(x, coeffs))
    if kind == "gaussian":
        amp = float(spec["amplitude"])
        center = float(spec["center"])
        width = float(spec["width"])
        return lambda x, t: amp * math.exp(-((x - center) ** 2) / (2.0 * width**2))
    raise BuildError(f"unknown coefficient preset kind {kind!r}")


def absorbing_layer(depth: float, x_lo: float, x_hi: float) -> object:
    """Smooth absorbing layer V_I(x) = -depth * sin^2(pi (x-x_lo)/(x_hi-x_lo))
    supported on [x_lo, x_hi]."""
    if depth <= 0:
        raise BuildError(f"layer depth must be positive, got {depth}")

    def v(x: float) -> float:
        if x_lo < x < x_hi:
            return -depth * math.sin(math.pi * (x - x_lo) / (x_hi - x_lo)) ** 2
        return 0.0

    return v
