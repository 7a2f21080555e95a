"""Weighted-unitary propagation and the direct-integration oracle.

The unitary factor for abscissa k is U(k, T), the time-ordered evolution
generated by k L(t) + H(t). A solve applies sum_j c_j U(k_j, T) u0 for the
terms of a SamplingPlan, unwinds any spectral shift by exp(c T), and compares
against the oracle solution of du/dt = -A(t) u.

A ProblemInstance holds only a schedule and an initial vector. Its dim,
shift and lambda0 are read from the schedule's pairs, so the shift that is
unwound, and removed again for the oracle, is always the shift the pairs
record, and the positivity gate L >= 0 (lambda0 >= -SEMIDEFINITE_TOL ||L||)
always tests the computed spectrum of the stored L.

Every schedule is piecewise constant and is propagated as one list of
(L, H, duration) spans of plain matrices, each span exponentiated exactly:
its own spans clipped to [0, T], the last pair extending past the final
breakpoint, so the result is exact for any T. A constant schedule is the
single span (L, H, T). Each pair checked that its L and H are Hermitian and
certified its lambda0 and normL once, when it was built; the sum only slices
those matrices and builds no pair.

Both weighted sums of unitaries take a SamplingPlan and sum over its own
nodes: lchs_apply weights them by c_j, and residual_lemma_check by
c_j (1 - i k_j) = w_j f(k_j), the kernel f in place of g = f/(1 - ik). Both
are one call on a fresh _PreparedSum(p, T), the one entry into the sum: the
analysis of one instance's schedule on [0, T] (its horizon, its spans,
blocks and each block's path, below), made once and read by every sum over
it. Its apply unwinds the shift at its own T and its residual weighs by f,
so a sum and its unwinding cannot disagree on T. solve builds one per solve,
run_convergence one per sweep and lemma-check one per command. Building it
requires the positivity gate, once; each sum validates the plan and raises
PropagationError for any failure inside the analysis or the sum and for a
sum that is not finite. The sum streams the terms in chunks: a chunk is
propagated and reduced into the running total before the next one starts,
so memory stays O(chunk * dim) however large the plan.

The sum is one pipeline. It first splits the indices into blocks: the
connected components of the union sparsity pattern of |L| + |H| over all
spans. No span couples two blocks, so each block evolves on its own
principal sub-matrices, with its own path and its own chunk of budget / d_b^2
terms, and the entries between blocks are exactly zero. One connected
pattern, or no span at all (T = 0), gives one block on all indices with the
spans as given. The default lindblad pair couples only indices 0 and 3, so
it takes a 2x2 tridiagonal block and two 1x1 shared-eigenbasis blocks. Each
block then takes one of three paths, in this order.

* Shared eigenbasis. When every span's L and H commute with one basis, one
  eigendecomposition of a generic combination of the first span's L and H
  diagonalizes them all, certified span by span by the roundoff-level
  residual of V^dagger L V and V^dagger H V; with no span, V = I. With the
  diagonals integrated over time, lam = sum dt diag(V^dagger L V) and
  mu = sum dt diag(V^dagger H V), the sum is
  V (sum_j c_j exp(-i (k_j lam + mu)) * V^dagger u0): the plan's transfer
  function at the integrated eigenvalues instead of one eigendecomposition
  per term, for any number of spans. A composite plan is summed by panels
  (below).
* Tridiagonal. When every span's L and H are zero outside the tridiagonal
  band (nearest-neighbour operators: the PDE and queue builders), k L + H is
  made real by a diagonal phase similarity and decomposed in real
  arithmetic. With e_j = k L[j, j+1] + H[j, j+1], D = diag(d), d_0 = 1 and
  d_{j+1} = d_j conj(e_j) / |e_j| (1 where e_j = 0), D^dagger (k L + H) D is
  real symmetric tridiagonal with diagonal Re(k L_jj + H_jj) and
  off-diagonal |e_j|, and LAPACK dstevd decomposes it term by term. The
  span acts as D V exp(-i dt W) V^T D^dagger, with V^T and V applied by
  batched real matmul to the float view of the complex vectors. A block of
  dim 1 or 2 is not decomposed: each span applies its closed-form
  exponential straight to the vectors (_expm_closed_form), the phase
  exp(-i a dt) at dim 1 and, at dim 2, with m and h the half sum and half
  difference of the diagonal and r = hypot(h, |e_0|),
  exp(-i m dt) [cos(r dt) - i (sin(r dt) / r) (k L + H - m I)]. Only the
  band of L and H is read; the schedule's pairs have checked both matrices
  are Hermitian.
* Batched eigh. Any other block is propagated span by span, by stacked
  complex eigendecompositions of k L + H and batched complex matmul.

One fold rule serves every path. When the abscissae mirror bitwise,
k_j = -k_{N-1-j} (every composite Gauss plan does), the sum runs over the
k > 0 half, each term carrying its mirror's coefficient c_- next to its own
c_+; it is decided once per block.

* Shared eigenbasis, for a composite plan: lam is real, so
  exp(+i k lam) = conj exp(-i k lam) for any spans, and the sum is
  S(c_+) + conj(S(conj(c_-))) with S(w) = sum_j w_j exp(-i k_j lam). The
  k > 0 nodes lie on panels, k = left_m + off_q bitwise (M panels of Q
  nodes; sampling checks the layout), so exp(-i k lam) =
  exp(-i left_m lam) exp(-i off_q lam) up to one rounding of the node, and
  S(w) = sum_m A_m (sum_q w[m, q] B_q) with A = exp(-i left lam) and
  B = exp(-i off lam): M + Q exponentials per eigenvalue instead of one per
  term. B is formed once per block and A a chunk of budget / (dim^2 Q)
  panels at a time. exp(-i mu) is common to every term and is applied once,
  to V^dagger u0. Where K max|lam| overflows the split phases could stay
  finite while k lam does not, so the sum is then direct, and not finite.
  Any other plan, mirrored or not, is summed directly, term by term.
* Per-term paths, only over a real generator: when every span's L is real
  and its H purely imaginary, exactly (the PDE, queue and lindblad
  builders), conj(k L + H) = -(-k L + H), so U(-k) = conj U(k) span by span.
  Each |k| is decomposed once, and the sum is
  sum c_+ U(|k|) u0 + conj(sum conj(c_-) U(|k|) conj(u0)): half the
  decompositions. A complex u0 propagates two columns, u0 and conj(u0); a
  real u0 is its own conjugate, so it propagates the one column u0 and the
  mirrored half is the conjugate of that column.

The mirror test compares the two halves a slice at a time and stops at the
first slice that differs, so a Monte Carlo plan, which is not mirrored, costs
one slice, and its sum is unchanged.

Within a chunk the terms (the +-k pairs of a folded sum, the panels of a
shared one) are reduced by pairwise numpy sums; the chunk partials are added
in ascending plan order (ascending |k| when folded) with compensated
summation. The result is
deterministic, so reports are bit-stable for a fixed plan. Each sum logs one
DEBUG record on lchs.evolve: the path (that of the only block, or "split"),
the plan's term count, the eigendecompositions done (folded terms x spans
for a per-term block, the closed form included, 1 for a shared block, 0 for
one without spans), the chunks and steps (propagated spans) summed over the
blocks, and blocks=n with each block's size:path.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionError, PreconditionError, PropagationError, RangeError
from .linalg import (
    SEMIDEFINITE_TOL,
    HermitianPair,
    TimeSchedule,
    is_semidefinite,
    matrix_exponential,
)
from .sampling import SamplingPlan, _composite_panels

_log = logging.getLogger(__name__)

# chunk size (in matrix entries) for batched eigendecompositions; the
# weighted sum streams its terms in chunks of budget / dim^2
_BATCH_ENTRY_BUDGET = 4_000_000

# weight of H in the generic combination L/||L|| + _MIX H/||H|| whose
# eigenbasis is tried as a shared one; an irrational value makes accidental
# degeneracies of the combination unlikely
_MIX = 0.6180339887498949

# the basis counts as shared when the off-diagonal residuals of L and H stay
# below this many units of dim * machine eps, relative to their norms
_SHARED_BASIS_ULPS = 64

# the mirror test of a plan's abscissae compares this many entries at a time
_MIRROR_SLICE = 4096


@dataclass(frozen=True)
class ProblemInstance:
    """A concrete finite problem: a schedule of (L, H) pairs and an initial
    vector.

    dim, shift (the scalar already added to every L in the schedule) and
    lambda0 (the certified post-shift lower bound) are read from the
    schedule. The positivity gate L >= 0, lambda0 >= -SEMIDEFINITE_TOL ||L||,
    is enforced where the unitary-combination identity is used (when the
    _PreparedSum behind lchs_apply and residual_lemma_check is built), not
    at construction, so that oracle_solve remains available for any
    Hermitian pair.
    """

    schedule: TimeSchedule
    u0: np.ndarray
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        u0 = np.asarray(self.u0, dtype=complex)
        object.__setattr__(self, "u0", u0)
        if u0.shape != (self.dim,):
            raise DimensionError(f"u0 shape {u0.shape} != (dim,) = ({self.dim},)")
        if not np.linalg.norm(u0) > 0:
            raise RangeError("u0 must be nonzero")

    @property
    def dim(self) -> int:
        return self.schedule.dim

    @property
    def shift(self) -> float:
        return self.schedule.shift

    @property
    def lambda0(self) -> float:
        return self.schedule.lambda0

    @staticmethod
    def from_pair(pair: HermitianPair, u0, label: str = "") -> "ProblemInstance":
        return ProblemInstance(schedule=TimeSchedule.constant(pair), u0=u0, label=label)

    def require_gate(self) -> None:
        if not is_semidefinite(self.schedule):
            raise PreconditionError(
                f"positivity gate violated: lambda0 = {self.lambda0:.3e} < "
                f"-{SEMIDEFINITE_TOL:.0e} ||L|| for instance {self.label!r}"
            )


@dataclass
class SolveReport:
    """Outcome of one solve: estimate, oracle, errors, sizes, timings."""

    u_lchs: np.ndarray
    u_oracle: np.ndarray
    rel_error: float
    abs_error: float
    plan_size: int
    propagator_steps: int
    wall_times: dict
    shift_unwound: bool
    norm_ratio: float  # ||u0|| / ||u_lchs||, the amplification diagnostic
    # abs_error <= eps ||u0||; set by run_solve for an eps-driven config only
    eps_met: bool | None = None

    def to_dict(self) -> dict:
        """As a JSON document. A rel_error or norm_ratio that is infinite (a
        zero oracle or estimate) is null, since JSON has no infinity."""
        def interleave(v):
            # the float view of a contiguous complex array is re0, im0, re1, ...
            return np.ascontiguousarray(v, dtype=complex).view(float).tolist()

        out = {
            "u_lchs": interleave(self.u_lchs),
            "u_oracle": interleave(self.u_oracle),
            "rel_error": self.rel_error if math.isfinite(self.rel_error) else None,
            "abs_error": self.abs_error,
            "plan_size": self.plan_size,
            "propagator_steps": self.propagator_steps,
            "shift_unwound": self.shift_unwound,
            "norm_ratio": self.norm_ratio if math.isfinite(self.norm_ratio) else None,
        }
        if self.eps_met is not None:
            out["eps_met"] = self.eps_met
        return out


def _shared_eigenbasis(spans: list, dim: int):
    """An orthonormal V that diagonalizes L and H of every span, or None.

    V is the eigenbasis of the first span's generic combination
    L/||L|| + _MIX H/||H||, or I when there are no spans. It is accepted only
    if, for every span, the off-diagonal parts of V^dagger L V and
    V^dagger H V are at roundoff level relative to ||L|| and ||H|| (Frobenius
    norms). A span that does not commute with the first one fails that
    certificate, and so does a commuting pair whose combination happens to
    be degenerate, since eigh then returns an arbitrary basis of the
    degenerate subspace. Returns (V, lam, mu) with the diagonals integrated
    over time: lam = sum dt diag(V^dagger L V), mu = sum dt diag(V^dagger H V).
    """
    V = np.eye(dim)
    if spans:
        L, H, _ = spans[0]
        norm_L, norm_H = np.linalg.norm(L), np.linalg.norm(H)
        G = L / norm_L if norm_L > 0 else np.zeros_like(L)
        if norm_H > 0:
            G = G + (_MIX / norm_H) * H
        _, V = np.linalg.eigh(G)
    tol = _SHARED_BASIS_ULPS * dim * np.finfo(float).eps
    lam, mu = np.zeros(dim), np.zeros(dim)
    for L, H, dt in spans:
        for M, integral in ((L, lam), (H, mu)):
            D = V.conj().T @ M @ V
            d = np.diagonal(D).real.copy()
            np.fill_diagonal(D, 0.0)
            if np.linalg.norm(D) > tol * np.linalg.norm(M):
                return None
            integral += dt * d
    return V, lam, mu


def _spans(schedule: TimeSchedule, T: float) -> list:
    """The schedule on [0, T] as (L, H, duration) spans of plain matrices,
    each propagated exactly; empty for T = 0. These are its own spans clipped
    to [0, T], the last pair extending past the final breakpoint, so a
    constant schedule gives the single span (pair.L, pair.H, T).
    """
    if not T >= 0.0:
        raise RangeError(f"T must be nonnegative, got {T}")
    if T == 0.0:
        return []
    ends = np.minimum(np.append(schedule.breakpoints[1:-1], np.inf), T)
    starts = np.minimum(schedule.breakpoints[:-1], T)
    intervals = zip(schedule.pairs, starts, ends)
    return [(pair.L, pair.H, float(b - a)) for pair, a, b in intervals if b > a]


def _is_tridiagonal(spans: list) -> bool:
    """True when every span's L and H vanish outside the tridiagonal band."""
    return all(
        not (np.any(np.triu(M, 2)) or np.any(np.tril(M, -2)))
        for L, H, _ in spans for M in (L, H)
    )


def _eigh_dense(L: np.ndarray, H: np.ndarray, ks: np.ndarray):
    """Stacked eigendecompositions of k L + H for every k in ks: (W, V, None)."""
    W, V = np.linalg.eigh(ks[:, None, None] * L[None, :, :] + H[None, :, :])
    return W, V, None


def _eigh_tridiagonal(L: np.ndarray, H: np.ndarray, ks: np.ndarray):
    """(W, V, d) with k L + H = D V diag(W) V^T D^dagger, D = diag(d), for
    every k in ks, with V real: the phase similarity D makes k L + H real
    symmetric tridiagonal, which dstevd decomposes term by term. The path
    sends dims 1 and 2 to _expm_closed_form instead. Only the band of L and
    H is read. Raises PropagationError if dstevd fails."""
    n, dim = len(ks), len(L)
    diag = ks[:, None] * L.diagonal().real + H.diagonal().real
    e = ks[:, None] * np.diagonal(L, 1) + np.diagonal(H, 1)
    off = np.abs(e)
    # d[:, 1:] holds the phases conj(e_j) / |e_j|, then their running products
    d = np.ones((n, dim), dtype=complex)
    np.divide(e.conj(), off, out=d[:, 1:], where=e != 0)
    np.cumprod(d[:, 1:], axis=1, out=d[:, 1:])
    del e  # not held through the decomposition, where V is allocated
    W = np.empty((n, dim))
    V = np.empty((n, dim, dim))
    for i in range(n):
        W[i], V[i], info = lapack.dstevd(diag[i], off[i])
        if info != 0:
            raise PropagationError(f"dstevd failed with info = {info} at k = {ks[i]}")
    return W, V, d


def _expm_closed_form(L: np.ndarray, H: np.ndarray, ks: np.ndarray, dt: float, vecs, amp) -> None:
    """Apply exp(-i dt M), M = k L + H of dim 1 or 2, to vecs[j] for every
    k = ks[j], in closed form (Higham, Functions of Matrices, 2008, ch. 10).
    With a, c the diagonal of M (real parts), e = M[0, 1], m = (a + c) / 2,
    h = (a - c) / 2 and r = hypot(h, |e|), M - m I = [[h, e], [conj(e), -h]]
    squares to r^2 I, so u maps to
    exp(-i m dt) [cos(r dt) u - i (sin(r dt) / r) (M - m I) u], with
    sin(r dt) / r = dt at r = 0; dim 1 is u -> exp(-i a dt) u. Only the band
    of L and H is read. No eigenvector, phase similarity or matmul is formed,
    only a few vectors over ks; amp, a buffer of vecs's shape, receives the
    new rows, which are then copied into vecs."""
    if len(L) == 1:
        vecs *= np.exp(-1j * dt * (ks * L[0, 0].real + H[0, 0].real))[:, None, None]
        return
    m = ks * (0.5 * (L[0, 0] + L[1, 1]).real) + 0.5 * (H[0, 0] + H[1, 1]).real
    h = ks * (0.5 * (L[0, 0] - L[1, 1]).real) + 0.5 * (H[0, 0] - H[1, 1]).real
    e = ks * L[0, 1] + H[0, 1]
    r = np.hypot(h, np.abs(e))
    # rows [p + t h, t e] and [t conj(e), p - t h], with p = exp(-i m dt) cos(r dt)
    # and t = -i exp(-i m dt) sin(r dt) / r
    p = np.exp(-1j * dt * m)
    t = -1j * p * np.divide(np.sin(dt * r), r, out=np.full_like(r, dt), where=r != 0)
    p *= np.cos(dt * r)
    u, v = vecs[:, 0], vecs[:, 1]
    np.multiply(u, (p + t * h)[:, None], out=amp[:, 0])
    amp[:, 0] += (t * e)[:, None] * v
    np.multiply(v, (p - t * h)[:, None], out=amp[:, 1])
    amp[:, 1] += (t * e.conj())[:, None] * u
    vecs[...] = amp


def _propagate_chunk(spans: list, ks: np.ndarray, starts: np.ndarray, eig) -> np.ndarray:
    """Product of exp(-i dt (k L + H)) over the spans, applied to every row of
    starts for every k in ks: each eigendecomposition serves all the start
    vectors. eig(L, H, ks) gives eigenvalues W, eigenvectors V and phases d
    (None when there are none) with k L + H = D V diag(W) V^dagger D^dagger,
    D = diag(d), per k; eig None applies each span by _expm_closed_form, for
    tridiagonal blocks of dims 1 and 2. Returns a (len(starts), dim, len(ks))
    array whose [s, :, j] is the propagation of starts[s] at ks[j].

    The vectors live in two (len(ks), dim, len(starts)) buffers that every
    span updates in place, and the result is written into the memory of one
    of them. A real V (the tridiagonal path, the only one with phases) acts
    by batched real matmul on the buffers' float view, whose rows interleave
    the real and imaginary parts of all the columns."""
    vecs = np.empty((len(ks), starts.shape[1], len(starts)), dtype=complex)
    vecs[...] = starts.T
    amp = np.empty_like(vecs)
    for L, H, dt in spans:
        if eig is None:
            _expm_closed_form(L, H, ks, dt, vecs, amp)
            continue
        W, V, d = eig(L, H, ks)
        phases = np.multiply(W, -1j * dt)
        phases = np.exp(phases, out=phases)[:, :, None]
        if d is None:
            # conj(V^T conj(v)) = V^dagger v without a conjugated copy of V
            np.matmul(V.transpose(0, 2, 1), np.conjugate(vecs, out=vecs), out=amp)
            np.conjugate(amp, out=amp)
            amp *= phases
            np.matmul(V, amp, out=vecs)
        else:
            # d is this call's own array: conjugated in place for D^dagger and back for D
            d = np.conjugate(d, out=d)[:, :, None]
            vecs *= d
            np.matmul(V.transpose(0, 2, 1), vecs.view(float), out=amp.view(float))
            amp *= phases
            np.matmul(V, amp.view(float), out=vecs.view(float))
            vecs *= np.conjugate(d, out=d)
    out = amp.reshape(len(starts), starts.shape[1], len(ks))
    np.copyto(out, vecs.transpose(2, 1, 0))
    return out


def _block_labels(spans: list) -> np.ndarray:
    """Label of every index: the smallest index of its connected component
    under the union sparsity pattern of the spans' L and H. Indices in
    different components are never coupled by any span, so each component
    evolves on its own."""
    pattern = sum(np.abs(L) + np.abs(H) for L, H, _ in spans) != 0
    reach = pattern | np.eye(len(pattern), dtype=bool)
    # repeated squaring: each pass doubles the path length reach covers. A
    # boolean matmul runs in numpy's own loop; a float one would page in BLAS
    # code (about 0.4 MB of resident memory) for a few microseconds saved.
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    return reach.argmax(axis=1)


def _blocks(spans: list, dim: int) -> list:
    """(idx, spans, basis, tridiagonal, real) of every block: the connected
    components of the spans' union sparsity pattern, each with the principal
    sub-matrices of every span, its shared eigenbasis (V, lam, mu) or None,
    and whether its spans are tridiagonal (tested only without a basis) and
    real. No span at all (T = 0) gives one block on all indices."""
    labels = _block_labels(spans) if spans else np.zeros(dim, dtype=int)
    blocks = []
    for first in np.flatnonzero(labels == np.arange(dim)):
        idx = np.flatnonzero(labels == first)
        sub = np.ix_(idx, idx)
        block = [(L[sub], H[sub], dt) for L, H, dt in spans]
        basis = _shared_eigenbasis(block, len(idx))
        tridiagonal = basis is None and _is_tridiagonal(block)
        blocks.append((idx, block, basis, tridiagonal, _is_real(block)))
    return blocks


def _is_real(spans: list) -> bool:
    """True when every span's L is real and its H purely imaginary, exactly.
    Then conj(k L + H) = -(-k L + H), so conj U(k) = U(-k) span by span."""
    return all(not np.any(L.imag) and not np.any(H.real) for L, H, _ in spans)


def _is_mirrored(ks: np.ndarray) -> bool:
    """True when ks has even, nonzero length and ks[j] == -ks[-1 - j] for
    every j. The halves are compared _MIRROR_SLICE entries at a time, so the
    test stops at the first slice with a mismatch and makes no array the
    size of the plan."""
    half, odd = divmod(len(ks), 2)
    if odd or not half:
        return False
    pos, neg = ks[half:], ks[half - 1 :: -1]
    return all(
        np.array_equal(pos[i : i + _MIRROR_SLICE], -neg[i : i + _MIRROR_SLICE])
        for i in range(0, half, _MIRROR_SLICE)
    )


def _block_sum(block: tuple, ks: np.ndarray, weights: np.ndarray, u0: np.ndarray, panels):
    """sum_j weights[j] U(ks[j]) u0 over the spans of one analysed block,
    (spans, basis, tridiagonal, real) as _blocks gives it, streamed over
    chunks of budget / dim^2 terms. When all spans share a certified
    eigenbasis V the sum is V (sum_j weights[j] exp(-i (ks[j] lam + mu)) *
    V^dagger u0); otherwise a per-term path propagates term by term.
    A mirrored ks is folded onto its k > 0 half on the shared path when
    panels = (left, off) factors that half, ks[half + m Q + q] = left[m] +
    off[q], and K max|lam| is finite: the half sums to
    S(c_+) + conj(S(conj(c_-))) with S(w) = sum_m A_m (sum_q w[m, q] B_q),
    A = exp(-i left lam), B = exp(-i off lam), summed a chunk of panels at a
    time, times exp(-i mu). On a per-term path it is folded over real spans,
    where U(-k) u0 = conj(U(k) conj(u0)). Returns the sum and the block's
    record: size, path, chunk count, step count and decomposition count."""
    spans, basis, tridiagonal, real = block
    dim = len(u0)
    chunk = max(1, _BATCH_ENTRY_BUDGET // (dim * dim))
    if basis is not None:
        # where k lam overflows, left lam and off lam may not: the sum must stay non-finite
        by_panels = panels is not None and math.isfinite(ks[-1] * np.abs(basis[1]).max())
    fold = _is_mirrored(ks) and (by_panels if basis is not None else real)
    if fold:
        half = len(ks) // 2
        mirror = weights[half - 1 :: -1]
        ks, weights = ks[half:], weights[half:]
    n = len(ks)
    if basis is not None:
        path, steps, decompositions = "shared-eigenbasis", 0, min(len(spans), 1)
        V, lam, mu = basis
        if fold:
            left, off = panels
            n, Q = len(left), len(off)
            chunk = max(1, chunk // Q)
            B = np.exp(-1j * np.multiply.outer(lam, off))
            plus, minus = weights.reshape(n, Q), mirror.reshape(n, Q)

        def chunk_sum(s):
            if not fold:
                terms = np.exp(-1j * (lam[:, None] * ks[s][None, :] + mu[:, None])) * weights[s]
                return terms.sum(axis=1)
            A = np.exp(-1j * np.multiply.outer(lam, left[s]))
            own = (A * (B @ plus[s].T)).sum(axis=1)
            mirrored = (A * (B @ minus[s].T.conj())).sum(axis=1)
            return own + mirrored.conj()
    else:
        path = "tridiagonal" if tridiagonal else "batched-eigh"
        eig = (_eigh_tridiagonal if dim > 2 else None) if tridiagonal else _eigh_dense
        steps = len(spans)
        starts = u0[None, :]
        if fold and np.any(u0.imag):
            starts = np.stack([u0, u0.conj()])

        def chunk_sum(s):
            cols = _propagate_chunk(spans, ks[s], starts, eig)
            if fold:
                # U(-k) u0 = conj(U(k) conj(u0)). The last column propagated
                # conj(u0); for real u0 it is the u0 column, conjugated into a copy
                minus = np.conjugate(cols[-1], out=cols[-1] if len(cols) > 1 else None)
                minus *= mirror[s]
            cols[0] *= weights[s]
            if fold:
                cols[0] += minus
            return cols[0].sum(axis=1)
        decompositions = len(ks) * steps

    total = np.zeros(dim, dtype=complex)
    comp = np.zeros_like(total)
    for start in range(0, n, chunk):
        term = chunk_sum(slice(start, start + chunk)) - comp
        tmp = total + term
        comp = (tmp - total) - term
        total = tmp
    if basis is not None:
        coeff = V.conj().T @ u0
        if fold:
            coeff = np.exp(-1j * mu) * coeff
        total = V @ (total * coeff)
    return total, (dim, path, -(-n // chunk), steps, decompositions)


class _PreparedSum:
    """The schedule analysis of one instance on [0, T], made once for every
    sum over it: the horizon T, the spans (steps counts them), split into
    blocks, each with its shared eigenbasis or its per-term path and realness
    flag (see _blocks). The positivity gate L >= 0 is required first, so an
    instance that fails it raises PreconditionError and is not analysed; any
    failure of the analysis raises PropagationError. Nothing changes after
    construction, so threads may share it.

    sum is the one entry into the weighted sum; apply and residual weigh it
    for lchs_apply and residual_lemma_check, at the analysis's own T.
    """

    def __init__(self, p: ProblemInstance, T: float):
        p.require_gate()
        self.p, self.T = p, T
        spans = _spans(p.schedule, T)
        self.steps = len(spans)
        try:
            self.blocks = _blocks(spans, p.dim)
        except Exception as exc:
            raise PropagationError(f"propagation failed: {exc}") from exc

    def sum(self, plan: SamplingPlan, weigh) -> np.ndarray:
        """sum_j w_j U(k_j, T) u0 over the plan's own nodes, w = weigh(plan).

        The plan is validated before weigh reads it. Each block is summed on
        its own principal sub-matrices, by its own path and with its own
        chunk size (_block_sum); the entries between blocks are exactly zero.
        panels, the (left, off) factors of the plan's k > 0 half, lets a
        shared block fold a mirrored plan. Every step is deterministic, so a
        fixed plan gives the same bytes each call. Any failure inside the
        sum, and a sum that is not finite, raises PropagationError.
        """
        plan.validate()
        u0 = self.p.u0
        out = np.zeros(len(u0), dtype=complex)
        records = []
        try:
            weights, panels = weigh(plan), _composite_panels(plan)
            for idx, *block in self.blocks:
                out[idx], record = _block_sum(block, plan.k, weights, u0[idx], panels)
                records.append(record)
        except PropagationError:
            raise
        except Exception as exc:
            raise PropagationError(f"propagation failed: {exc}") from exc
        _log.debug(
            "weighted unitary sum: path=%s terms=%d decompositions=%d chunks=%d steps=%d "
            "blocks=%d [%s]",
            records[0][1] if len(records) == 1 else "split", plan.size,
            sum(r[4] for r in records), sum(r[2] for r in records), sum(r[3] for r in records),
            len(records), " ".join(f"{r[0]}:{r[1]}" for r in records),
        )
        if not np.all(np.isfinite(out)):
            raise PropagationError("weighted unitary sum is not finite")
        return out

    def apply(self, plan: SamplingPlan) -> np.ndarray:
        """sum_j c_j U(k_j, T) u0, times exp(c T) if the pairs record a shift
        c > 0."""
        out = self.sum(plan, lambda plan: plan.c)
        if self.p.shift > 0:
            out = out * np.exp(self.p.shift * self.T)
        return out

    def residual(self, plan: SamplingPlan) -> float:
        """|| sum_j c_j (1 - i k_j) U(k_j, T) u0 ||; T must be positive."""
        if self.T <= 0:
            raise RangeError(f"T must be positive for the residual check, got {self.T}")
        return float(np.linalg.norm(self.sum(plan, lambda plan: plan.c * (1 - 1j * plan.k))))


def lchs_apply(p: ProblemInstance, plan: SamplingPlan, T: float) -> np.ndarray:
    """Evaluate sum_j c_j U(k_j, T) u0 and unwind the spectral shift.

    The schedule is propagated exactly, span by span. The terms are streamed
    in ascending plan order and reduced deterministically (see
    _PreparedSum.sum). If the pairs record a shift c > 0 the result is
    multiplied by exp(c T). A caller summing many plans over one schedule
    builds the _PreparedSum once and calls its apply.
    """
    return _PreparedSum(p, T).apply(plan)


def oracle_solve(p: ProblemInstance, T: float) -> np.ndarray:
    """Ground-truth solution of du/dt = -A(t) u at time T: the product of
    matrix exponentials of the original (unshifted) generator over the
    schedule's spans, each generator L - shift I + i H.
    """
    u = p.u0.copy()
    for L, H, dt in _spans(p.schedule, T):
        u = matrix_exponential(-(L - p.shift * np.eye(p.dim) + 1j * H) * dt) @ u
    return u


def residual_lemma_check(p: ProblemInstance, plan: SamplingPlan, T: float) -> float:
    """Norm of the f-weighted unitary sum over the plan's own nodes, which
    tends to zero as the window and rule are refined.

    The weight here is the kernel f itself, not g = f/(1 - ik). Every plan
    coefficient is c_j = w_j g(k_j) (w_j the Gauss weight or 2K/Ns), so
    c_j (1 - i k_j) = w_j f(k_j) and the sum is sum_j c_j (1 - i k_j) U(k_j) u0;
    a composite plan realizes the principal value by its symmetric window
    [-K, K]. Requires the positivity gate L >= 0 and T > 0.
    """
    return _PreparedSum(p, T).residual(plan)


def solve(p: ProblemInstance, plan: SamplingPlan, T: float) -> SolveReport:
    """Run the weighted-unitary estimate against the oracle and report.

    The schedule is propagated exactly, one span at a time, and
    propagator_steps is the span count (at least 1).
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    prepared = _PreparedSum(p, T)
    u_lchs = prepared.apply(plan)
    timings["lchs_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    u_oracle = oracle_solve(p, T)
    timings["oracle_s"] = time.perf_counter() - t0

    diff = np.linalg.norm(u_lchs - u_oracle)
    nrm = np.linalg.norm(u_oracle)
    nlchs = np.linalg.norm(u_lchs)
    return SolveReport(
        u_lchs=u_lchs,
        u_oracle=u_oracle,
        rel_error=float(diff / nrm) if nrm > 0 else float("inf"),
        abs_error=float(diff),
        plan_size=plan.size,
        propagator_steps=max(1, prepared.steps),
        wall_times=timings,
        shift_unwound=p.shift > 0,
        norm_ratio=float(np.linalg.norm(p.u0) / nlchs) if nlchs > 0 else float("inf"),
    )
