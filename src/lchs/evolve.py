"""Weighted-unitary propagation and the direct-integration oracle.

The unitary factor for abscissa k is U(k, T), the time-ordered evolution
generated by k L(t) + H(t). A solve applies sum_j c_j U(k_j, T) u0 for the
terms of a SamplingPlan, unwinds any spectral shift by exp(c T), and compares
against the oracle solution of du/dt = -A(t) u.

A ProblemInstance holds only a schedule and an initial vector. Its dim,
shift and lambda0 are read from the schedule's pairs, so the shift that is
unwound, and removed again for the oracle, is always the shift the pairs
record, and the positivity gate lambda0 > 0 always tests the computed
spectrum of the stored L.

Every schedule is piecewise constant and is propagated as one list of
(pair, duration) spans, each span exponentiated exactly: its own spans
clipped to [0, T], the last pair extending past the final breakpoint, so the
result is exact for any T. A constant schedule is the single span (pair, T).

Every weighted sum of unitaries (lchs_apply and residual_lemma_check) goes
through one routine that streams the terms in chunks: a chunk is propagated
and reduced into the running total before the next one starts, so memory
stays O(chunk * dim) however large the plan.

A single span whose L and H share a certified eigenbasis is summed whole
(the first path below). Otherwise the indices are first split into blocks:
the connected components of the union sparsity pattern of |L| + |H| over all
spans. No span couples two blocks, so each block evolves on its own
principal sub-pairs, with its own path and its own chunk of budget / d_b^2
terms, and the entries between blocks are exactly zero. The default lindblad
pair couples only indices 0 and 3, so it takes a 2x2 tridiagonal block and
two 1x1 shared-eigenbasis blocks. Each block takes one of three paths, in
this order.

* Shared eigenbasis. For a single span whose L and H commute, one
  eigendecomposition of a generic combination of L and H diagonalizes both,
  certified by the roundoff-level residual of V^dagger L V and V^dagger H V.
  The sum is then V (sum_j c_j exp(-i (k_j lam + mu) T) * V^dagger u0): one
  row of exponentials per term instead of one eigendecomposition.
* Tridiagonal. When every span's L and H are zero outside the tridiagonal
  band (nearest-neighbour operators: the PDE and queue builders), k L + H is
  made real by a diagonal phase similarity and decomposed in real
  arithmetic. With e_j = k L[j, j+1] + H[j, j+1], D = diag(d), d_0 = 1 and
  d_{j+1} = d_j conj(e_j) / |e_j| (1 where e_j = 0), D^dagger (k L + H) D is
  real symmetric tridiagonal with diagonal Re(k L_jj + H_jj) and
  off-diagonal |e_j|. Up to dim 8 one batched real eigh per chunk gives its
  eigenpairs (W, V); above it LAPACK dstevd gives them term by term. The
  span acts as D V exp(-i dt W) V^T D^dagger. Only the band of L and H is
  read; HermitianPair has checked both matrices are Hermitian.
* Batched eigh. Any other schedule is propagated span by span, by stacked
  complex eigendecompositions of k L + H.

Within a chunk the terms are reduced by one pairwise numpy sum; the chunk
partials are added in ascending plan order with compensated summation. The
result is deterministic, so reports are bit-stable for a fixed plan. Each
sum logs one DEBUG record on lchs.evolve: the path (that of the only block,
or "split"), the plan's term count, the chunks and steps (eigendecomposed
spans) summed over the blocks, and blocks=n with each block's size:path.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionError, PreconditionError, PropagationError, RangeError
from .kernels import KernelSpec, kernel_f
from .linalg import HermitianPair, TimeSchedule, matrix_exponential
from .sampling import SamplingPlan, _composite_nodes

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


@dataclass(frozen=True)
class ProblemInstance:
    """A concrete finite problem: a schedule of (L, H) pairs and an initial
    vector.

    dim, shift (the scalar already added to every L in the schedule) and
    lambda0 (the certified post-shift lower bound) are read from the
    schedule. The positivity gate lambda0 > 0 is enforced where the
    unitary-combination identity is used (lchs_apply, solve,
    residual_lemma_check), not at construction, so that oracle_solve
    remains available for any Hermitian pair.
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
        if not self.lambda0 > 0:
            raise PreconditionError(
                f"positivity gate violated: lambda0 = {self.lambda0:.3e} <= 0 "
                f"for instance {self.label!r}"
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

    def to_dict(self) -> dict:
        def interleave(v):
            out = np.empty(2 * len(v))
            out[0::2] = v.real
            out[1::2] = v.imag
            return [float(x) for x in out]

        return {
            "u_lchs": interleave(self.u_lchs),
            "u_oracle": interleave(self.u_oracle),
            "rel_error": self.rel_error,
            "abs_error": self.abs_error,
            "plan_size": self.plan_size,
            "propagator_steps": self.propagator_steps,
            "shift_unwound": self.shift_unwound,
            "norm_ratio": self.norm_ratio,
        }


def _shared_eigenbasis(pair: HermitianPair):
    """An orthonormal V that diagonalizes both L and H, or None.

    V is the eigenbasis of the generic combination L/||L|| + _MIX H/||H||,
    and it is accepted only if the off-diagonal parts of V^dagger L V and
    V^dagger H V are at roundoff level relative to ||L|| and ||H||
    (Frobenius norms). A non-commuting pair fails that certificate, and so
    does a commuting pair whose combination happens to be degenerate, since
    eigh then returns an arbitrary basis of the degenerate subspace.
    Returns (V, lam, mu) with the diagonals lam of L and mu of H in V.
    """
    norm_L, norm_H = np.linalg.norm(pair.L), np.linalg.norm(pair.H)
    G = pair.L / norm_L if norm_L > 0 else np.zeros_like(pair.L)
    if norm_H > 0:
        G = G + (_MIX / norm_H) * pair.H
    _, V = np.linalg.eigh(G)
    tol = _SHARED_BASIS_ULPS * pair.dim * np.finfo(float).eps
    diagonals = []
    for M, norm in ((pair.L, norm_L), (pair.H, norm_H)):
        D = V.conj().T @ M @ V
        d = np.diagonal(D).real.copy()
        np.fill_diagonal(D, 0.0)
        if np.linalg.norm(D) > tol * norm:
            return None
        diagonals.append(d)
    return V, diagonals[0], diagonals[1]


def _spans(schedule: TimeSchedule, T: float) -> list:
    """The schedule on [0, T] as (pair, duration) spans, each propagated
    exactly; empty for T = 0. These are its own spans clipped to [0, T], the
    last pair extending past the final breakpoint, so a constant schedule
    gives the single span (pair, T).
    """
    if not T >= 0.0:
        raise RangeError(f"T must be nonnegative, got {T}")
    if T == 0.0:
        return []
    ends = np.minimum(np.append(schedule.breakpoints[1:-1], np.inf), T)
    starts = np.minimum(schedule.breakpoints[:-1], T)
    return [(pair, float(b - a)) for pair, a, b in zip(schedule.pairs, starts, ends) if b > a]


def _is_tridiagonal(spans: list) -> bool:
    """True when every span's L and H vanish outside the tridiagonal band."""
    return all(
        not (np.any(np.triu(M, 2)) or np.any(np.tril(M, -2)))
        for pair, _ in spans for M in (pair.L, pair.H)
    )


def _eigh_dense(pair: HermitianPair, ks: np.ndarray):
    """Stacked eigendecompositions of k L + H for every k in ks: (W, V, None)."""
    W, V = np.linalg.eigh(ks[:, None, None] * pair.L[None, :, :] + pair.H[None, :, :])
    return W, V, None


def _eigh_tridiagonal(pair: HermitianPair, ks: np.ndarray):
    """(W, V, d) with k L + H = D V diag(W) V^T D^dagger, D = diag(d), for
    every k in ks, with V real: the phase similarity D makes k L + H real
    symmetric tridiagonal. Up to _BATCHED_TRIDIAGONAL_MAX_DIM the stacked real
    matrices are decomposed by one batched eigh call, above it by dstevd term
    by term. Only the band of L and H is read. Raises PropagationError if the
    decomposition fails."""
    n, dim = len(ks), pair.dim
    diag = ks[:, None] * pair.L.diagonal().real + pair.H.diagonal().real
    e = ks[:, None] * np.diagonal(pair.L, 1) + np.diagonal(pair.H, 1)
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


def _propagate_chunk(spans: list, ks: np.ndarray, u0: np.ndarray, eig) -> np.ndarray:
    """Product of exp(-i dt (k L + H)) over the spans, applied to u0 for every
    k in ks. eig(pair, ks) gives eigenvalues W, eigenvectors V and phases d
    (None when there are none) with k L + H = D V diag(W) V^dagger D^dagger,
    D = diag(d), per k. Returns the propagated vectors as the columns of a
    (dim, len(ks)) array."""
    vecs = np.broadcast_to(u0, (len(ks), len(u0)))
    for pair, dt in spans:
        W, V, d = eig(pair, ks)
        if d is not None:
            vecs = d.conj() * vecs
        # conj(V^T conj(v)) = V^dagger v without a conjugated copy of V
        amp = np.einsum("nji,nj->ni", V, vecs.conj()).conj()
        amp *= np.exp(-1j * W * dt)
        vecs = np.einsum("nij,nj->ni", V, amp)
        if d is not None:
            vecs = d * vecs
    return np.ascontiguousarray(vecs.T)


def _block_labels(spans: list) -> np.ndarray:
    """Label of every index: the smallest index of its connected component
    under the union sparsity pattern of the spans' L and H. Indices in
    different components are never coupled by any span, so each component
    evolves on its own."""
    pattern = sum(np.abs(pair.L) + np.abs(pair.H) for pair, _ in spans) != 0
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


def _sub_block(spans: list, idx: np.ndarray):
    """(idx, spans, basis) of the block on indices idx: the principal
    sub-pairs of every span, and the certified shared eigenbasis of a single
    span, or None."""
    sub = np.ix_(idx, idx)
    sub_spans = [
        (HermitianPair(L=pair.L[sub], H=pair.H[sub], shift=pair.shift), dt) for pair, dt in spans
    ]
    return idx, sub_spans, _shared_eigenbasis(sub_spans[0][0]) if len(spans) == 1 else None


def _block_sum(spans: list, ks: np.ndarray, weights: np.ndarray, u0: np.ndarray, basis):
    """sum_j weights[j] U(ks[j]) u0 over the spans of one block, streamed
    over chunks of budget / dim^2 terms. basis is the certified shared
    eigenbasis of the single span, or None. Returns the sum and the block's
    path, chunk count and step count."""
    dim = len(u0)
    steps = 0
    if not spans:
        path, rows = "identity", 1

        def columns(kc):
            return np.ones((1, len(kc)), dtype=complex)
    elif basis is not None:
        path, rows = "shared-eigenbasis", dim
        V, lam, mu = basis
        T = spans[0][1]

        def columns(kc):
            return np.exp(-1j * T * (lam[:, None] * kc[None, :] + mu[:, None]))
    else:
        tridiagonal = _is_tridiagonal(spans)
        path, rows = ("tridiagonal" if tridiagonal else "batched-eigh"), dim
        eig = _eigh_tridiagonal if tridiagonal else _eigh_dense
        steps = len(spans)

        def columns(kc):
            return _propagate_chunk(spans, kc, u0, eig)

    chunk = max(1, _BATCH_ENTRY_BUDGET // (dim * dim))
    total = np.zeros(rows, dtype=complex)
    comp = np.zeros_like(total)
    for start in range(0, len(ks), chunk):
        cols = columns(ks[start : start + chunk])
        cols *= weights[start : start + chunk]
        term = cols.sum(axis=1) - comp
        tmp = total + term
        comp = (tmp - total) - term
        total = tmp
    if path == "identity":
        total = total[0] * u0
    elif path == "shared-eigenbasis":
        total = V @ (total * (V.conj().T @ u0))
    return total, path, -(-len(ks) // chunk), steps


def _weighted_unitary_sum(
    spans: list, ks: np.ndarray, weights: np.ndarray, u0: np.ndarray
) -> np.ndarray:
    """sum_j weights[j] U(ks[j]) u0 over the spans, streamed over chunks of
    terms.

    A single span with a certified shared eigenbasis is summed whole.
    Otherwise the indices are split into the connected components of the
    spans' union sparsity pattern, and each component is summed on its own
    principal sub-pairs, by its own path and with its own chunk size; the
    entries between components are exactly zero. Each chunk is propagated
    and reduced into the running total before the next one starts, so memory
    is O(chunk * dim) for any number of terms. Within a chunk the reduction
    is one pairwise numpy sum over the terms; chunk partials are added in
    ascending order with compensation. Every step is deterministic, so a
    fixed input gives the same bytes each call.
    """
    basis = _shared_eigenbasis(spans[0][0]) if len(spans) == 1 else None
    labels = None if not spans or basis is not None else _block_labels(spans)
    if labels is None or not labels.any():
        blocks = [(slice(None), spans, basis)]
    else:
        firsts = np.flatnonzero(labels == np.arange(len(u0)))
        blocks = [_sub_block(spans, np.flatnonzero(labels == first)) for first in firsts]
    out = np.zeros(len(u0), dtype=complex)
    records = []
    for idx, block_spans, block_basis in blocks:
        block_u0 = u0[idx]
        out[idx], path, chunks, steps = _block_sum(block_spans, ks, weights, block_u0, block_basis)
        records.append((len(block_u0), path, chunks, steps))
    _log.debug(
        "weighted unitary sum: path=%s terms=%d chunks=%d steps=%d blocks=%d [%s]",
        records[0][1] if len(records) == 1 else "split", len(ks),
        sum(r[2] for r in records), sum(r[3] for r in records), len(records),
        " ".join(f"{size}:{path}" for size, path, _, _ in records),
    )
    return out


def lchs_apply(p: ProblemInstance, plan: SamplingPlan, T: float) -> np.ndarray:
    """Evaluate sum_j c_j U(k_j, T) u0 and unwind the spectral shift.

    The schedule is propagated exactly, span by span. The terms are streamed
    in ascending plan order and reduced deterministically (see
    _weighted_unitary_sum). If the pairs record a shift c > 0 the result is
    multiplied by exp(c T).
    """
    plan.validate()
    p.require_gate()
    spans = _spans(p.schedule, T)
    try:
        out = _weighted_unitary_sum(spans, plan.k, plan.c, p.u0)
    except PropagationError:
        raise
    except Exception as exc:
        raise PropagationError(f"propagation failed: {exc}") from exc
    if p.shift > 0:
        out = out * np.exp(p.shift * T)
    return out


def _oracle_matrix(pair: HermitianPair) -> np.ndarray:
    """Original (unshifted) generator (L - shift I) + i H of one pair."""
    return pair.L - pair.shift * np.eye(pair.dim) + 1j * pair.H


def oracle_solve(p: ProblemInstance, T: float) -> np.ndarray:
    """Ground-truth solution of du/dt = -A(t) u at time T: the product of
    matrix exponentials of the original (unshifted) generator over the
    schedule's spans.
    """
    u = p.u0.copy()
    for pair, dt in _spans(p.schedule, T):
        u = matrix_exponential(-_oracle_matrix(pair) * dt) @ u
    return u


def residual_lemma_check(
    p: ProblemInstance,
    kernel: KernelSpec,
    T: float,
    K: float,
    M: int,
    Q: int,
) -> float:
    """Norm of the f-weighted unitary sum, which tends to zero as the window
    and rule are refined.

    Note the weight here is the kernel f itself, not g = f/(1 - ik); the sum
    realizes the principal value by symmetric truncation to [-K, K]. Requires
    the positivity gate lambda0 > 0.
    """
    p.require_gate()
    if T <= 0:
        raise RangeError(f"T must be positive for the residual check, got {T}")
    ks, wts = _composite_nodes(K, M, Q)
    fvals = np.asarray(kernel_f(kernel, ks), dtype=complex)
    total = _weighted_unitary_sum(_spans(p.schedule, T), ks, wts * fvals, p.u0)
    return float(np.linalg.norm(total))


def solve(p: ProblemInstance, plan: SamplingPlan, T: float) -> SolveReport:
    """Run the weighted-unitary estimate against the oracle and report.

    The schedule is propagated exactly, one span at a time, and
    propagator_steps is the span count (at least 1).
    """
    p.require_gate()
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
