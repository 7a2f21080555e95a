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
enter through one checked routine: it validates the plan, requires the
positivity gate, and raises PropagationError for any failure inside the sum
and for a sum that is not finite. The sum streams the terms in chunks: a
chunk is propagated and reduced into the running total before the next one
starts, so memory stays O(chunk * dim) however large the plan.

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
  V (sum_j c_j exp(-i (k_j lam + mu)) * V^dagger u0): one row of
  exponentials per term instead of one eigendecomposition, for any number
  of spans. A mirrored plan is folded here too (below).
* Tridiagonal. When every span's L and H are zero outside the tridiagonal
  band (nearest-neighbour operators: the PDE and queue builders), k L + H is
  made real by a diagonal phase similarity and decomposed in real
  arithmetic. With e_j = k L[j, j+1] + H[j, j+1], D = diag(d), d_0 = 1 and
  d_{j+1} = d_j conj(e_j) / |e_j| (1 where e_j = 0), D^dagger (k L + H) D is
  real symmetric tridiagonal with diagonal Re(k L_jj + H_jj) and
  off-diagonal |e_j|. Up to dim 8 one batched real eigh per chunk gives its
  eigenpairs (W, V); above it LAPACK dstevd gives them term by term. The
  span acts as D V exp(-i dt W) V^T D^dagger. Only the band of L and H is
  read; the schedule's pairs have checked both matrices are Hermitian.
* Batched eigh. Any other block is propagated span by span, by stacked
  complex eigendecompositions of k L + H.

One fold rule serves every path. When the abscissae mirror bitwise,
k_j = -k_{N-1-j} (every composite Gauss plan does), the sum runs over the
k > 0 half, each term carrying its mirror's coefficient c_- next to its own
c_+; it is decided once per block.

* Shared eigenbasis: lam is real, so exp(+i k lam) = conj exp(-i k lam) for
  any spans, and with theta = k lam the pair +-k contributes
  cos theta (c_+ + c_-) - i sin theta (c_+ - c_-): half the exponentials.
  exp(-i mu) is common to both and is applied once, to V^dagger u0. cos and
  sin are reduced in turn, so the fold holds half the memory of the
  unfolded sum, never exp(-i k lam) and its conjugate at once.
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

Within a chunk the terms (the +-k pairs of a folded sum) are reduced by
pairwise numpy sums; the chunk partials are added in ascending plan order
(ascending |k| when folded) with compensated summation. The result is
deterministic, so reports are bit-stable for a fixed plan. Each sum logs one
DEBUG record on lchs.evolve: the path (that of the only block, or "split"),
the plan's term count, the eigendecompositions done (folded terms x spans
for a per-term block, 1 for a shared block, 0 for one without spans), the
chunks and steps (eigendecomposed spans) summed over the blocks, and
blocks=n with each block's size:path.
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
from .sampling import SamplingPlan

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

# Tridiagonal blocks up to this dim are decomposed by one batched real eigh
# call per chunk, larger ones by one dstevd call per term. Per term, one
# thread:
#
#     dim   dstevd loop   batched real eigh
#       2     3.95 us        1.04 us
#       4     5.9  us        2.96 us
#       8    11.1  us        9.1  us
#      16    21.3  us       21.6  us
#      63   283    us      386    us
_BATCHED_TRIDIAGONAL_MAX_DIM = 8

# the mirror test of a plan's abscissae compares this many entries at a time
_MIRROR_SLICE = 4096


@dataclass(frozen=True)
class ProblemInstance:
    """A concrete finite problem: a schedule of (L, H) pairs and an initial
    vector.

    dim, shift (the scalar already added to every L in the schedule) and
    lambda0 (the certified post-shift lower bound) are read from the
    schedule. The positivity gate L >= 0, lambda0 >= -SEMIDEFINITE_TOL ||L||,
    is enforced where the unitary-combination identity is used (the one
    checked sum behind lchs_apply and residual_lemma_check), not at
    construction, so that oracle_solve remains available for any Hermitian
    pair.
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
            out = np.empty(2 * len(v))
            out[0::2] = v.real
            out[1::2] = v.imag
            return [float(x) for x in out]

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
    symmetric tridiagonal. Up to _BATCHED_TRIDIAGONAL_MAX_DIM the stacked real
    matrices are decomposed by one batched eigh call, above it by dstevd term
    by term. Only the band of L and H is read. Raises PropagationError if the
    decomposition fails."""
    n, dim = len(ks), len(L)
    diag = ks[:, None] * L.diagonal().real + H.diagonal().real
    e = ks[:, None] * np.diagonal(L, 1) + np.diagonal(H, 1)
    off = np.abs(e)
    phase = np.divide(e.conj(), off, out=np.ones_like(e), where=e != 0)
    d = np.concatenate([np.ones((n, 1), dtype=complex), np.cumprod(phase, axis=1)], axis=1)
    if dim <= _BATCHED_TRIDIAGONAL_MAX_DIM:
        # eigh reads only the lower triangle
        A = np.zeros((n, dim, dim))
        j = np.arange(dim)
        A[:, j, j] = diag
        A[:, j[1:], j[:-1]] = off
        try:
            W, V = np.linalg.eigh(A)
        except np.linalg.LinAlgError as exc:
            raise PropagationError(f"batched tridiagonal eigh failed: {exc}") from exc
        return W, V, d
    W = np.empty((n, dim))
    V = np.empty((n, dim, dim))
    for i in range(n):
        W[i], V[i], info = lapack.dstevd(diag[i], off[i])
        if info != 0:
            raise PropagationError(f"dstevd failed with info = {info} at k = {ks[i]}")
    return W, V, d


def _propagate_chunk(spans: list, ks: np.ndarray, starts: np.ndarray, eig) -> np.ndarray:
    """Product of exp(-i dt (k L + H)) over the spans, applied to every row of
    starts for every k in ks: each eigendecomposition serves all the start
    vectors. eig(L, H, ks) gives eigenvalues W, eigenvectors V and phases d
    (None when there are none) with k L + H = D V diag(W) V^dagger D^dagger,
    D = diag(d), per k. Returns a (len(starts), dim, len(ks)) array whose
    [s, :, j] is the propagation of starts[s] at ks[j]."""
    vecs = np.broadcast_to(starts[:, None, :], (len(starts), len(ks), starts.shape[1]))
    for L, H, dt in spans:
        W, V, d = eig(L, H, ks)
        if d is not None:
            vecs = d.conj() * vecs
        # conj(V^T conj(v)) = V^dagger v without a conjugated copy of V
        amp = np.einsum("nji,snj->sni", V, vecs.conj()).conj()
        amp *= np.exp(-1j * W * dt)
        vecs = np.einsum("nij,snj->sni", V, amp)
        if d is not None:
            vecs = d * vecs
    return np.ascontiguousarray(vecs.transpose(0, 2, 1))


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
    """(idx, spans) of every block: the connected components of the spans'
    union sparsity pattern, each with the principal sub-matrices of every span.
    One connected pattern, or no span at all, gives one block on all indices
    with the spans as given."""
    if not spans or not (labels := _block_labels(spans)).any():
        return [(slice(None), spans)]
    blocks = []
    for first in np.flatnonzero(labels == np.arange(dim)):
        idx = np.flatnonzero(labels == first)
        sub = np.ix_(idx, idx)
        blocks.append((idx, [(L[sub], H[sub], dt) for L, H, dt in spans]))
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


def _block_sum(spans: list, ks: np.ndarray, weights: np.ndarray, u0: np.ndarray):
    """sum_j weights[j] U(ks[j]) u0 over the spans of one block, streamed
    over chunks of budget / dim^2 terms. When all spans share a certified
    eigenbasis V the sum is V (sum_j weights[j] exp(-i (ks[j] lam + mu)) *
    V^dagger u0); otherwise a per-term path decomposes k L + H term by term.
    A mirrored ks is folded onto its k > 0 half on the shared path, where
    the pair +-k contributes exp(-i mu) (cos theta (c_+ + c_-) -
    i sin theta (c_+ - c_-)) with theta = k lam, and on a per-term path over
    real spans, where U(-k) u0 = conj(U(k) conj(u0)). Returns the sum and
    the block's record: size, path, chunk count, step count and
    decomposition count."""
    dim = len(u0)
    basis = _shared_eigenbasis(spans, dim)
    fold = _is_mirrored(ks) and (basis is not None or _is_real(spans))
    if fold:
        half = len(ks) // 2
        mirror = weights[half - 1 :: -1]
        ks, weights = ks[half:], weights[half:]
    if basis is not None:
        path, steps, decompositions = "shared-eigenbasis", 0, min(len(spans), 1)
        V, lam, mu = basis

        def chunk_sum(s):
            if not fold:
                terms = np.exp(-1j * (lam[:, None] * ks[s][None, :] + mu[:, None])) * weights[s]
                return terms.sum(axis=1)
            # cos and sin in turn, so no two (dim, chunk) complex arrays live at once
            theta = lam[:, None] * ks[s][None, :]
            even = (np.cos(theta) * (weights[s] + mirror[s])).sum(axis=1)
            odd = (np.sin(theta, out=theta) * (weights[s] - mirror[s])).sum(axis=1)
            return even - 1j * odd
    else:
        tridiagonal = _is_tridiagonal(spans)
        path = "tridiagonal" if tridiagonal else "batched-eigh"
        eig = _eigh_tridiagonal if tridiagonal else _eigh_dense
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

    chunk = max(1, _BATCH_ENTRY_BUDGET // (dim * dim))
    total = np.zeros(dim, dtype=complex)
    comp = np.zeros_like(total)
    for start in range(0, len(ks), chunk):
        term = chunk_sum(slice(start, start + chunk)) - comp
        tmp = total + term
        comp = (tmp - total) - term
        total = tmp
    if basis is not None:
        coeff = V.conj().T @ u0
        if fold:
            coeff = np.exp(-1j * mu) * coeff
        total = V @ (total * coeff)
    return total, (dim, path, -(-len(ks) // chunk), steps, decompositions)


def _weighted_unitary_sum(
    spans: list, ks: np.ndarray, weights: np.ndarray, u0: np.ndarray
) -> np.ndarray:
    """sum_j weights[j] U(ks[j]) u0 over the spans, streamed over chunks of
    terms.

    The indices are split into the connected components of the spans' union
    sparsity pattern, and each component is summed on its own principal
    sub-matrices, by its own path and with its own chunk size; the entries
    between components are exactly zero. Each chunk is propagated and
    reduced into the running total before the next one starts, so memory is
    O(chunk * dim) for any number of terms. Within a chunk the reduction is
    one pairwise numpy sum over the terms; chunk partials are added in
    ascending order with compensation. Every step is deterministic, so a
    fixed input gives the same bytes each call.
    """
    out = np.zeros(len(u0), dtype=complex)
    records = []
    for idx, block_spans in _blocks(spans, len(u0)):
        out[idx], record = _block_sum(block_spans, ks, weights, u0[idx])
        records.append(record)
    _log.debug(
        "weighted unitary sum: path=%s terms=%d decompositions=%d chunks=%d steps=%d "
        "blocks=%d [%s]",
        records[0][1] if len(records) == 1 else "split", len(ks),
        sum(r[4] for r in records), sum(r[2] for r in records), sum(r[3] for r in records),
        len(records), " ".join(f"{r[0]}:{r[1]}" for r in records),
    )
    return out


def _checked_sum(p: ProblemInstance, plan: SamplingPlan, T: float, weigh) -> np.ndarray:
    """sum_j w_j U(k_j, T) u0 over the plan's own nodes, w = weigh(plan): the
    one entry of lchs_apply and residual_lemma_check into the weighted sum.

    The plan is validated before weigh reads it, and the positivity gate
    L >= 0 is required. Any failure inside the sum, and a sum that is
    not finite, raises PropagationError.
    """
    plan.validate()
    p.require_gate()
    spans = _spans(p.schedule, T)
    try:
        out = _weighted_unitary_sum(spans, plan.k, weigh(plan), p.u0)
    except PropagationError:
        raise
    except Exception as exc:
        raise PropagationError(f"propagation failed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise PropagationError("weighted unitary sum is not finite")
    return out


def lchs_apply(p: ProblemInstance, plan: SamplingPlan, T: float) -> np.ndarray:
    """Evaluate sum_j c_j U(k_j, T) u0 and unwind the spectral shift.

    The schedule is propagated exactly, span by span. The terms are streamed
    in ascending plan order and reduced deterministically (see
    _weighted_unitary_sum). If the pairs record a shift c > 0 the result is
    multiplied by exp(c T).
    """
    out = _checked_sum(p, plan, T, lambda plan: plan.c)
    if p.shift > 0:
        out = out * np.exp(p.shift * T)
    return out


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
    [-K, K]. Requires the positivity gate L >= 0.
    """
    if T <= 0:
        raise RangeError(f"T must be positive for the residual check, got {T}")
    total = _checked_sum(p, plan, T, lambda plan: plan.c * (1 - 1j * plan.k))
    return float(np.linalg.norm(total))


def solve(p: ProblemInstance, plan: SamplingPlan, T: float) -> SolveReport:
    """Run the weighted-unitary estimate against the oracle and report.

    The schedule is propagated exactly, one span at a time, and
    propagator_steps is the span count (at least 1).
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    n = max(1, len(_spans(p.schedule, T)))
    u_lchs = lchs_apply(p, plan, T)
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
        propagator_steps=n,
        wall_times=timings,
        shift_unwound=p.shift > 0,
        norm_ratio=float(np.linalg.norm(p.u0) / nlchs) if nlchs > 0 else float("inf"),
    )
