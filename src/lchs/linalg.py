"""Dense complex linear algebra primitives.

Everything here operates on finite dense matrices: Cartesian splitting of a
generator A = L + iH into Hermitian parts, certified spectral lower bounds,
spectral shifting A -> A + cI, and matrix exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, HermiticityError, RangeError

# Max-norm tolerance on ||M - M^dagger|| for inputs declared Hermitian.
HERMITICITY_TOL = 1e-12


def as_square_matrix(A) -> np.ndarray:
    """Validate and return A as a square complex ndarray with finite entries."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise RangeError("matrix contains non-finite entries")
    return A


def _check_hermitian(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Verify ||M - M^dagger||_max <= HERMITICITY_TOL, then symmetrize.

    Symmetrizing after the check means downstream eigensolvers always see
    exactly Hermitian data.
    """
    M = as_square_matrix(M)
    dev = np.max(np.abs(M - M.conj().T)) if M.size else 0.0
    if dev > HERMITICITY_TOL:
        raise HermiticityError(
            f"{name} deviates from Hermitian by {dev:.3e} (tol {HERMITICITY_TOL:.0e})"
        )
    return 0.5 * (M + M.conj().T)


@dataclass(frozen=True)
class HermitianPair:
    """Cartesian decomposition A = L + iH with a recorded spectral shift.

    `shift` is the scalar c >= 0 already added to L (so L here represents
    L_original + c*I), and `lambda0` is a certified lower bound on the
    spectrum of the stored L, computed by an eigensolver rather than trusted
    from the caller.
    """

    L: np.ndarray
    H: np.ndarray
    shift: float = 0.0
    lambda0: float = 0.0

    @property
    def dim(self) -> int:
        return self.L.shape[0]


def hermitian_split(A) -> HermitianPair:
    """Split A into L = (A + A^dagger)/2 and H = (A - A^dagger)/(2i).

    Both parts are exactly Hermitian in floating point. The returned pair
    carries shift = 0 and a freshly computed smallest eigenvalue of L.
    """
    A = as_square_matrix(A)
    Ah = A.conj().T
    L = 0.5 * (A + Ah)
    H = 0.5j * (Ah - A)  # = (A - A^dagger) / (2i)
    lam = min_hermitian_eigenvalue(L)
    return HermitianPair(L=L, H=H, shift=0.0, lambda0=lam)


def min_hermitian_eigenvalue(L) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Raises HermiticityError if L is not Hermitian within tolerance.
    """
    L = _check_hermitian(L, "L")
    return float(np.linalg.eigvalsh(L)[0])


def shift_pair(pair: HermitianPair, c: float) -> HermitianPair:
    """The pair with c*I added to L; the recorded shift grows by c and
    lambda0 is recomputed from the shifted matrix, not assumed."""
    L_new = pair.L + c * np.eye(pair.dim)
    return HermitianPair(
        L=L_new, H=pair.H, shift=pair.shift + c, lambda0=min_hermitian_eigenvalue(L_new)
    )


def spectral_shift(pair: HermitianPair, lambda0_target: float) -> tuple[HermitianPair, float]:
    """Shift L by c*I so its spectrum is bounded below by lambda0_target.

    c = max(0, lambda0_target - min_eig(L)); the caller recovers the original
    solution via u(T) = exp(c*T) * u_shifted(T).
    """
    if not lambda0_target > 0:
        raise RangeError(f"lambda0_target must be positive, got {lambda0_target}")
    lam = min_hermitian_eigenvalue(pair.L)
    c = max(0.0, lambda0_target - lam)
    if c == 0.0:
        return HermitianPair(L=pair.L, H=pair.H, shift=pair.shift, lambda0=lam), 0.0
    return shift_pair(pair, c), c


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
    """Time dependence of the generator on [0, T].

    kind is one of "constant", "piecewise", "callback". Constant schedules
    carry a single HermitianPair; piecewise ones carry strictly ascending
    breakpoints [0, ..., T] with one pair per interval; callback schedules
    evaluate a rule t -> HermitianPair and are certified by sampling.
    """

    kind: str
    T: float
    pairs: tuple = ()
    breakpoints: np.ndarray | None = None
    rule: object = None
    # times at which callback schedules were validated/certified
    sample_times: np.ndarray | None = None

    @staticmethod
    def constant(pair: HermitianPair, T: float) -> "TimeSchedule":
        return TimeSchedule(kind="constant", T=float(T), pairs=(pair,))

    @staticmethod
    def piecewise(breakpoints, pairs) -> "TimeSchedule":
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) != len(pairs) + 1:
            raise DimensionError("need len(breakpoints) == len(pairs) + 1")
        if not np.all(np.diff(bp) > 0):
            raise RangeError("breakpoints must be strictly ascending")
        if bp[0] != 0.0:
            raise RangeError("first breakpoint must be 0")
        dims = {p.dim for p in pairs}
        if len(dims) != 1:
            raise DimensionError("all pairs must share one dimension")
        return TimeSchedule(kind="piecewise", T=float(bp[-1]), pairs=tuple(pairs), breakpoints=bp)

    @staticmethod
    def from_rule(rule, T: float, n_check: int = 9) -> "TimeSchedule":
        """Callback-sampled schedule; validates the rule at n_check times."""
        ts = np.linspace(0.0, T, n_check)
        probes = tuple(rule(t) for t in ts)
        dims = {p.dim for p in probes}
        if len(dims) != 1:
            raise DimensionError("rule returns pairs of varying dimension")
        return TimeSchedule(
            kind="callback", T=float(T), pairs=probes, rule=rule, sample_times=ts
        )

    @property
    def dim(self) -> int:
        return self.pairs[0].dim

    @property
    def shift(self) -> float:
        return self.pairs[0].shift

    @property
    def lambda0(self) -> float:
        """Certified lower bound on the spectrum of L(t) over the schedule.

        For callback schedules this is a sampled certificate (min over the
        validation times), not a continuum guarantee.
        """
        return min(p.lambda0 for p in self.pairs)

    def pair_at(self, t: float) -> HermitianPair:
        if self.kind == "constant":
            return self.pairs[0]
        if self.kind == "piecewise":
            idx = int(np.searchsorted(self.breakpoints, t, side="right") - 1)
            idx = min(max(idx, 0), len(self.pairs) - 1)
            return self.pairs[idx]
        return self.rule(t)
