"""Dense complex linear algebra primitives.

Everything here operates on finite dense matrices: Cartesian splitting of a
generator A = L + iH into Hermitian parts, certified spectral bounds, the
positivity gate L >= 0, spectral shifting A -> A + cI, and matrix
exponentials.

A HermitianPair is the only place that stores its spectral certificate: it
records the shift c already added to L and computes lambda0 and normL, the
smallest eigenvalue and the spectral norm of the stored L, from one
eigendecomposition when it is constructed. A TimeSchedule requires all its
pairs to share one dimension and one shift, and derives dim, shift, lambda0
and normL from them; nothing downstream copies these values. The positivity
gate and spectral_shift both read that schedule certificate, so the shift is
exactly what the gate asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionError, HermiticityError, RangeError

# Max-norm tolerance on ||M - M^dagger|| for inputs declared Hermitian.
HERMITICITY_TOL = 1e-12

# The positivity gate: L counts as positive semidefinite when its smallest
# eigenvalue is at least -SEMIDEFINITE_TOL * ||L||, which admits a zero
# eigenvalue computed as roundoff below zero.
SEMIDEFINITE_TOL = 1e-12


def as_square_matrix(A) -> np.ndarray:
    """Validate and return A as a nonempty square complex ndarray with finite
    entries."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise DimensionError(f"expected a nonempty square matrix, got shape {A.shape}")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise RangeError("matrix contains non-finite entries")
    return A


def _check_hermitian(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Verify ||M - M^dagger||_max <= HERMITICITY_TOL, then symmetrize.

    Symmetrizing after the check means downstream eigensolvers always see
    exactly Hermitian data.
    """
    M = as_square_matrix(M)
    dev = np.max(np.abs(M - M.conj().T))
    if dev > HERMITICITY_TOL:
        raise HermiticityError(
            f"{name} deviates from Hermitian by {dev:.3e} (tol {HERMITICITY_TOL:.0e})"
        )
    return 0.5 * (M + M.conj().T)


@dataclass(frozen=True)
class HermitianPair:
    """Cartesian decomposition A = L + iH with a recorded spectral shift.

    `shift` is the scalar c >= 0 already added to L (so L here represents
    L_original + c*I). `lambda0` and `normL`, the smallest eigenvalue and the
    spectral norm of the stored L, are not arguments: both come from one
    eigendecomposition at construction. Construction rejects a non-Hermitian
    L or H with HermiticityError; both are stored as given.
    """

    L: np.ndarray
    H: np.ndarray
    shift: float = 0.0
    lambda0: float = field(init=False)
    normL: float = field(init=False)

    def __post_init__(self):
        _check_hermitian(self.H, "H")
        w = np.linalg.eigvalsh(_check_hermitian(self.L, "L"))
        object.__setattr__(self, "lambda0", float(w[0]))
        object.__setattr__(self, "normL", float(max(abs(w[0]), abs(w[-1]))))

    @property
    def dim(self) -> int:
        return self.L.shape[0]


def hermitian_split(A) -> HermitianPair:
    """Split A into L = (A + A^dagger)/2 and H = (A - A^dagger)/(2i).

    Both parts are exactly Hermitian in floating point. The returned pair
    carries shift = 0.
    """
    A = as_square_matrix(A)
    Ah = A.conj().T
    L = 0.5 * (A + Ah)
    H = 0.5j * (Ah - A)  # = (A - A^dagger) / (2i)
    return HermitianPair(L=L, H=H)


def shift_pair(pair: HermitianPair, c: float) -> HermitianPair:
    """The pair with c*I added to L; the recorded shift grows by c and the
    new pair recertifies lambda0 from the shifted matrix."""
    return HermitianPair(L=pair.L + c * np.eye(pair.dim), H=pair.H, shift=pair.shift + c)


def is_semidefinite(x) -> bool:
    """The positivity gate on a HermitianPair or a TimeSchedule:
    lambda0 >= -SEMIDEFINITE_TOL * normL, read from the stored certificate."""
    return x.lambda0 >= -SEMIDEFINITE_TOL * x.normL


def matrix_exponential(M) -> np.ndarray:
    """exp(M) for a dense complex matrix via scaling-and-squaring.

    Delegates to scipy's Pade-based scaling-and-squaring routine; raises
    RangeError instead of silently returning Inf/NaN when the norm is too
    extreme for the arithmetic.
    """
    M = as_square_matrix(M)
    E = scipy.linalg.expm(M)
    if not (np.all(np.isfinite(E.real)) and np.all(np.isfinite(E.imag))):
        raise RangeError(
            f"matrix exponential overflowed (||M||_max = {np.max(np.abs(M)):.3e})"
        )
    return E


@dataclass(frozen=True)
class TimeSchedule:
    """Piecewise-constant time dependence of the generator.

    Strictly ascending breakpoints start at 0, with one HermitianPair per
    interval; the last pair extends past the final breakpoint. A constant
    schedule is one pair on [0, inf). All pairs share one dimension and one
    shift.
    """

    pairs: tuple
    breakpoints: np.ndarray

    @staticmethod
    def constant(pair: HermitianPair) -> "TimeSchedule":
        return TimeSchedule.piecewise([0.0, np.inf], [pair])

    @staticmethod
    def piecewise(breakpoints, pairs) -> "TimeSchedule":
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) != len(pairs) + 1:
            raise DimensionError("need len(breakpoints) == len(pairs) + 1")
        if not np.all(np.diff(bp) > 0):
            raise RangeError("breakpoints must be strictly ascending")
        if bp[0] != 0.0:
            raise RangeError("first breakpoint must be 0")
        _check_uniform(pairs, "pairs")
        return TimeSchedule(pairs=tuple(pairs), breakpoints=bp)

    @property
    def dim(self) -> int:
        return self.pairs[0].dim

    @property
    def shift(self) -> float:
        return self.pairs[0].shift

    @property
    def lambda0(self) -> float:
        """Certified lower bound on the spectrum of L(t) over the schedule."""
        return min(p.lambda0 for p in self.pairs)

    @property
    def normL(self) -> float:
        """Largest spectral norm of L(t) over the schedule."""
        return max(p.normL for p in self.pairs)

    def pair_at(self, t: float) -> HermitianPair:
        idx = int(np.searchsorted(self.breakpoints, t, side="right") - 1)
        idx = min(max(idx, 0), len(self.pairs) - 1)
        return self.pairs[idx]


def _check_uniform(pairs, what: str) -> None:
    """Raise unless the pairs share one dimension and one recorded shift."""
    if len({p.dim for p in pairs}) != 1:
        raise DimensionError(f"{what} of varying dimension")
    if len({p.shift for p in pairs}) != 1:
        raise RangeError(f"{what} with different shifts")


def spectral_shift(schedule: TimeSchedule) -> TimeSchedule:
    """Shift L(t) by only what the positivity gate needs, reading the
    schedule's own certificate: the schedule itself when it passes the gate,
    else the schedule with every pair shifted by the one c = -lambda0, so
    that its lowest L has lambda0 = 0 up to roundoff. Every pair's recorded
    shift grows by c, and the caller recovers the original solution via
    u(T) = exp(c*T) * u_shifted(T).
    """
    if is_semidefinite(schedule):
        return schedule
    c = -schedule.lambda0
    pairs = [shift_pair(pair, c) for pair in schedule.pairs]
    return TimeSchedule.piecewise(schedule.breakpoints, pairs)
