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
so its working set stays near one fixed budget of _BATCH_ENTRY_BUDGET
entries (1 MiB, cache-sized) however large the plan. The budget is divided
by what one term holds on its path: a per-term chunk of budget / dim^2
terms holds chunk * dim^2 eigenvector entries, a shared-eigenbasis chunk of
budget / dim terms holds chunk * dim phases.

The sum is one pipeline. It first splits the indices into blocks: the
connected components of the union sparsity pattern of |L| + |H| over all
spans. No span couples two blocks, so each block evolves on its own
principal sub-matrices, with its own path and a chunk size for its dim and
path, and the entries between blocks are exactly zero. One connected
pattern, or no span at all (T = 0), gives one block on all indices with the
spans as given, not copied. The default lindblad pair couples only indices
0 and 3, so it takes a 2x2 tridiagonal block and two 1x1 shared-eigenbasis
blocks. Each block then takes one of three paths, in this order.

* Shared eigenbasis. When every span's L and H commute with one basis, one
  eigendecomposition of a generic combination of the first span's L and H
  diagonalizes them all, certified span by span by the roundoff-level
  residual of V^dagger L V and V^dagger H V; with no span, V = I. With the
  diagonals integrated over time, lam = sum dt diag(V^dagger L V) and
  mu = sum dt diag(V^dagger H V), the sum is
  V (sum_j c_j exp(-i (k_j lam + mu)) * V^dagger u0): the plan's transfer
  function at the integrated eigenvalues instead of one eigendecomposition
  per term, for any number of spans. A composite plan is summed by panels
  (below). The transfer values sum_j c_j exp(-i (k_j lam + mu)) do not
  depend on u0, so a shared block whose spans are bitwise equal to an
  earlier block's (its twin, marked once per analysis) reuses that block's
  values (lindblad's two 1x1 coherence blocks).
* Tridiagonal. When every span's L and H are zero outside the tridiagonal
  band (nearest-neighbour operators: the PDE and queue builders), k L + H is
  made real by a diagonal phase similarity and decomposed in real
  arithmetic. With e_j = k L[j, j+1] + H[j, j+1], D = diag(d), d_0 = 1 and
  d_{j+1} = d_j conj(e_j) / |e_j| (1 where e_j = 0), D^dagger (k L + H) D is
  real symmetric tridiagonal with diagonal Re(k L_jj + H_jj) and
  off-diagonal |e_j|, and LAPACK dstevd decomposes it term by term. The
  span acts as D V exp(-i dt W) V^T D^dagger, with V^T and V applied by
  batched real matmul to the float view of the complex vectors. A block of
  dim 2 is not decomposed, and sums matrices, not vectors: each term's span
  has the closed-form exponential (_expm_closed_form), with m and h the
  half sum and half difference of the diagonal and r = hypot(h, |e_0|),
  exp(-i m dt) [cos(r dt) - i (sin(r dt) / r) (k L + H - m I)]; a chunk
  multiplies each term's 2x2 matrices across the spans, reduces the
  weighted entries to one 2x2 matrix per weight set (two when folded,
  below) and applies it to that set's start vector once. A 1x1 block
  always has a shared eigenbasis, so the path starts at dim 2. Only the
  band of L and H is read; the schedule's pairs have checked both matrices
  are Hermitian.
* Batched eigh. Any other block is propagated span by span, by stacked
  complex eigendecompositions of k L + H and batched complex matmul.

One fold rule serves every path. When the abscissae mirror bitwise,
k_j = -k_{N-1-j} (every composite Gauss plan does), the sum runs over the
k > 0 half, each term carrying its mirror's coefficient c_- next to its own
c_+. The mirror test runs once per sum; whether a block folds is decided
per block.

* Shared eigenbasis, for a composite plan: lam is real, so
  exp(+i k lam) = conj exp(-i k lam) for any spans, and the sum is
  S(c_+) + conj(S(conj(c_-))) with S(w) = sum_j w_j exp(-i k_j lam). The
  k > 0 nodes lie on panels, k = left_m + off_q bitwise (M panels of Q
  nodes; sampling checks the layout), so exp(-i k lam) =
  exp(-i left_m lam) exp(-i off_q lam) up to one rounding of the node, and
  S(w) = sum_m A_m (sum_q w[m, q] B_q) with A = exp(-i left lam) and
  B = exp(-i off lam): M + Q exponentials per eigenvalue instead of one per
  term. B is formed once per block and A a chunk of budget / (dim Q)
  panels at a time. exp(-i mu) is common to every term and is applied once,
  to V^dagger u0. Where K max|lam| overflows the split phases could stay
  finite while k lam does not, so the sum is then direct, and not finite.
  Any other plan, mirrored or not, is summed directly, term by term.
* Per-term paths, by one rule for every path (closed form, dstevd and
  batched eigh), with the block's mirror class P, I or S = diag((-1)^j),
  decided once per block (_mirror_symmetry; P = I is tested first). With
  h0 = Re H[0, 0] per span, the block is of class P when every span has
  P conj(L) P = L and P conj(H - h0 I) P = -(H - h0 I), exactly. Then
  P conj(k L + H - h0 I) P = -(-k L + H - h0 I), so with U'(k) the product
  over the spans of exp(-i dt (k L + H - h0 I)),
  U(-k) = turn P conj(U'(k)) P, turn = exp(-i sum h0 dt). P = I takes a
  real L and an H that is h0 I plus an imaginary matrix (the PDE, queue
  and lindblad builders, with h0 = 0); P = S takes a diagonal L and a real
  tridiagonal H of constant diagonal (cap with a potential uniform in
  space). With w = P conj(u0) the folded sum is
  turn (sum c_+ U'(|k|) u0 + P conj(sum conj(c_-) U'(|k|) w)): each chunk
  returns the two forward sums, c_+ on u0 and conj(c_-) on w, and the fold
  combines them once, after the reduction. Each |k| is decomposed once,
  half the decompositions, and each span decomposes k L + H - h0 I, whose
  phases stay small (cap's h0 T is 1,024 at T = 1/4). A u0 that is its own
  w (a real u0 with P = I) propagates one column for both sums; any other
  propagates u0 and w. The rule does not take a block whose L is diagonal
  and whose tridiagonal H has a constant diagonal but a non-real band,
  which S U'(k)^dagger S would fold; no builder makes one, and it is
  summed unfolded.

The mirror test compares the two halves a slice at a time and stops at the
first slice that differs, so a Monte Carlo plan, which is not mirrored, costs
one slice, and its sum is unchanged.

A block that decomposes each term (dstevd from dim 3, or batched eigh) sums
over a Chebyshev proxy of its terms, once the fold is decided. The function
it sums, k -> U(k, T) v (v = u0, or w for the mirrored half of a fold, over
the spans less h0 I, which changes U only by a constant factor), is
entire. Off the real axis the Hermitian part of -i (k L + H) is Im k L, so
||U(k, T)|| <= exp(Im k hi) above the axis and exp(Im k lo) below it, with
[lo, hi] = [sum dt lambda0, sum dt ||L||] the bounds of L's spectrum
integrated over the spans, from the pairs' certified lambda0 and normL (a
block's L is a principal sub-matrix, whose spectrum lies within). The proxy
centres that spectrum: it interpolates F(k) = exp(i k sigma) U(k, T) v,
for every column alike, sigma = (lo + hi) / 2, which
grows at most like exp(|Im k| tau) in both half-planes with
tau = (hi - lo) / 2; with L >= 0 that is at most half of sum dt ||L||, since
U is a contraction below the axis. On [min k, max k], of half-width h, the
interpolant of F in the d + 1 Chebyshev points of the second kind is then
within min over rho > 1 of 4 exp(tau h (rho - 1/rho) / 2) rho^-d / (rho - 1)
of it, relative to ||v|| (Trefethen, Approximation Theory and Approximation
Practice, Thm 8.2, on the Bernstein ellipse E_rho). d is the smallest degree
whose certificate is at most _PROXY_TOL (1e-15), so sum_j w_j U(k_j) v is
sum_m W_m U(x_m) v, W_m = exp(i x_m sigma) sum_j w_j exp(-i k_j sigma)
l_m(k_j) with l_m the barycentric Lagrange basis, to within that certificate
times sum |w| ||u0||: the same chunk loop, fold and reduction over d + 1
nodes instead of the plan's terms. d is set by T ||L|| and K, not by the
plan size: on cap at T = 1/4 and eps 1e-4, 53 nodes replace 2,604 folded
terms (80 uncentred). A block keeps its own terms when d + 1 is not below
their count, and its sum is then the direct one, bytewise. The shared
eigenbasis and the dim-2 closed form never take the proxy: there a term
costs less than its row of barycentric weights.

Within a chunk the terms (the k > 0 terms of each weight set of a folded
sum, the panels of a shared one) are reduced by pairwise numpy sums; the
chunk partials are added in ascending plan order (ascending |k| when folded)
with compensated summation, each weight set's on its own. The result is
deterministic, so reports are bit-stable for a fixed plan. Each sum logs one
DEBUG record on lchs.evolve: the path (that of the only block, or "split"),
the plan's term count, the eigendecompositions done (proxy nodes or folded
terms x spans for a per-term block, the closed form included, 1 for a shared
block, a twin included, 0 for one without spans), the chunks and steps
(propagated spans) summed over the blocks, blocks=n with each block's
size:path, and last bound=, the largest certified proxy error of its blocks
relative to sum |w| ||u0||, or 0 when every block summed its terms directly.
A twin's record is the one its sum would have, though its transfer values
are not summed again.
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

# working set of one chunk of the weighted sum, in float64 entries: 2**17 is
# 1 MiB, so a chunk stays in a 2 MiB L2 cache. A per-term path holds one
# eigenvector matrix per term and takes budget / dim^2 terms a chunk; the
# shared eigenbasis holds dim phases per term and takes budget / dim
_BATCH_ENTRY_BUDGET = 2**17

# weight of H in the generic combination L/||L|| + _MIX H/||H|| whose
# eigenbasis is tried as a shared one; an irrational value makes accidental
# degeneracies of the combination unlikely
_MIX = 0.6180339887498949

# the basis counts as shared when the off-diagonal residuals of L and H stay
# below this many units of dim * machine eps, relative to their norms
_SHARED_BASIS_ULPS = 64

# the mirror test of a plan's abscissae compares this many entries at a time
_MIRROR_SLICE = 4096

# a per-term block is summed over its Chebyshev proxy when the certified
# interpolation error is at most this, relative to sum |w| ||u0||
_PROXY_TOL = 1e-15

# the proxy certificate is minimized over rho = exp(s), s in (0, _LOG_RHO_MAX],
# by bisecting its convex logarithm's derivative down to a bracket of this
# relative width
_LOG_RHO_MAX = 64.0
_S_RTOL = 1e-10


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
        if not np.all(np.isfinite(u0)):
            raise RangeError("u0 must be finite")
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


def _intervals(schedule: TimeSchedule, T: float) -> list:
    """The schedule on [0, T] as (pair, duration) intervals; empty for T = 0.
    These are its own intervals clipped to [0, T], the last pair extending
    past the final breakpoint, so a constant schedule gives (pair, T)."""
    if not T >= 0.0:
        raise RangeError(f"T must be nonnegative, got {T}")
    if T == 0.0:
        return []
    ends = np.minimum(np.append(schedule.breakpoints[1:-1], np.inf), T)
    starts = np.minimum(schedule.breakpoints[:-1], T)
    return [(pair, float(b - a)) for pair, a, b in zip(schedule.pairs, starts, ends) if b > a]


def _spans(schedule: TimeSchedule, T: float) -> list:
    """The schedule on [0, T] as (L, H, duration) spans of plain matrices,
    each propagated exactly (_intervals); a constant schedule gives the
    single span (pair.L, pair.H, T).
    """
    return [(pair.L, pair.H, dt) for pair, dt in _intervals(schedule, T)]


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
    sums dim 2 by _expm_closed_form instead. Only the band of L and H is
    read. Raises PropagationError if dstevd fails."""
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


def _expm_closed_form(L: np.ndarray, H: np.ndarray, ks: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt M), M = k L + H of dim 2, for every k in ks, in closed form
    (Higham, Functions of Matrices, 2008, ch. 10): a (2, 2, len(ks)) array
    whose [:, :, j] is the exponential at ks[j]. With a, c the diagonal of M
    (real parts), e = M[0, 1], m = (a + c) / 2, h = (a - c) / 2 and
    r = hypot(h, |e|), M - m I = [[h, e], [conj(e), -h]] squares to r^2 I, so
    exp(-i dt M) = exp(-i m dt) [cos(r dt) I - i (sin(r dt) / r) (M - m I)],
    with sin(r dt) / r = dt at r = 0. Only the band of L and H is read. No
    eigenvector, phase similarity or matmul is formed, only a few vectors
    over ks."""
    m = ks * (0.5 * (L[0, 0] + L[1, 1]).real) + 0.5 * (H[0, 0] + H[1, 1]).real
    h = ks * (0.5 * (L[0, 0] - L[1, 1]).real) + 0.5 * (H[0, 0] - H[1, 1]).real
    e = ks * L[0, 1] + H[0, 1]
    r = np.hypot(h, np.abs(e))
    # rows [p + t h, t e] and [t conj(e), p - t h], with p = exp(-i m dt) cos(r dt)
    # and t = -i exp(-i m dt) sin(r dt) / r
    p = np.exp(-1j * dt * m)
    t = -1j * p * np.divide(np.sin(dt * r), r, out=np.full_like(r, dt), where=r != 0)
    p *= np.cos(dt * r)
    th = t * h
    return np.array([[p + th, t * e], [t * e.conj(), p - th]])


def _propagate_chunk(spans: list, ks: np.ndarray, starts: np.ndarray, eig) -> np.ndarray:
    """Product of exp(-i dt (k L + H)) over the spans, applied to every row of
    starts for every k in ks: each eigendecomposition serves all the start
    vectors. eig(L, H, ks) gives eigenvalues W, eigenvectors V and phases d
    (None when there are none) with k L + H = D V diag(W) V^dagger D^dagger,
    D = diag(d), per k. Every row is propagated forward: the mirrored column
    of a fold is a start vector of its own (_block_sum). Returns a
    (len(starts), dim, len(ks)) array whose [s, :, j] is the propagation of
    starts[s] at ks[j].

    The vectors live in two (len(ks), dim, len(starts)) buffers that every
    span updates in place, and the result is written into the memory of one
    of them. A real V (the tridiagonal path, the only one with phases) acts
    by batched real matmul on the buffers' float view, whose rows interleave
    the real and imaginary parts of all the columns."""
    vecs = np.empty((len(ks), starts.shape[1], len(starts)), dtype=complex)
    vecs[...] = starts.T
    amp = np.empty_like(vecs)
    for L, H, dt in spans:
        W, V, d = eig(L, H, ks)
        phases = np.multiply(W, -1j * dt)
        phases = np.exp(phases, out=phases)[:, :, None]
        if d is None:
            # conj(V^T conj(v)) = V^dagger v without a conjugated copy of V
            np.matmul(V.transpose(0, 2, 1), np.conjugate(vecs, out=vecs), out=amp)
            np.conjugate(amp, out=amp)
        else:
            # d is this call's own array: conjugated in place for D^dagger and back for D
            d = np.conjugate(d, out=d)[:, :, None]
            vecs *= d
            np.matmul(V.transpose(0, 2, 1), vecs.view(float), out=amp.view(float))
        amp *= phases
        if d is None:
            np.matmul(V, amp, out=vecs)
        else:
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
    # union-find over the coupled pairs, each root the smallest index of its
    # tree, in Python and stopping once all indices are joined: no matrix
    # product (a float one would page in BLAS code, about 0.4 MB of resident
    # memory). The pattern is symmetric: L and H are Hermitian.
    root = list(range(len(pattern)))
    joins = len(root) - 1

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    rows, cols = np.nonzero(np.triu(pattern, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not joins:
            break
        a, b = find(i), find(j)
        if a != b:
            root[max(a, b)] = min(a, b)
            joins -= 1
    return np.array([find(i) for i in range(len(root))])


def _blocks(spans: list, dim: int) -> list:
    """(idx, spans, basis, tridiagonal, symmetry, twin) of every block: the
    connected components of the spans' union sparsity pattern, each with the
    principal sub-matrices of every span (the spans themselves for a block
    on all indices), its shared eigenbasis (V, lam, mu) or None, whether its
    spans are tridiagonal (tested only without a basis, from dim 2, since a
    1x1 block always has one), the mirror class a per-term path folds it by
    (_mirror_symmetry, tested only without a basis, since only a per-term
    path reads it), and its twin: the position of the first earlier block
    with a shared basis whose spans are bitwise equal to this one's, whose
    transfer values this block reuses (_block_sum), or None. Only a block
    with a shared basis has a twin. No span at all (T = 0) gives one block
    on all indices."""
    labels = _block_labels(spans) if spans else np.zeros(dim, dtype=int)
    blocks = []
    for first in np.flatnonzero(labels == np.arange(dim)):
        idx = np.flatnonzero(labels == first)
        sub = np.ix_(idx, idx)
        # a block on all indices keeps the spans: no copy of L and H is held
        block = spans if len(idx) == dim else [(L[sub], H[sub], dt) for L, H, dt in spans]
        basis = _shared_eigenbasis(block, len(idx))
        tridiagonal = basis is None and len(idx) > 1 and _is_tridiagonal(block)
        symmetry = None if basis is not None else _mirror_symmetry(block)
        twin = None if basis is None else next(
            (j for j, (_, spans_j, basis_j, *_) in enumerate(blocks)
             if basis_j is not None and _equal_spans(spans_j, block)),
            None,
        )
        blocks.append((idx, block, basis, tridiagonal, symmetry, twin))
    return blocks


def _equal_spans(a: list, b: list) -> bool:
    """True when the spans of two blocks are bitwise equal, matrix by matrix.
    The blocks of one analysis share their durations."""
    return all(
        X.shape == Y.shape and X.tobytes() == Y.tobytes()
        for (La, Ha, _), (Lb, Hb, _) in zip(a, b) for X, Y in ((La, Lb), (Ha, Hb))
    )


# a matrix's four quarters by the parity of row and column: S M S, with
# S = diag((-1)^j), keeps the first two (i + j even) and negates the others
_EVEN, _ODD = slice(0, None, 2), slice(1, None, 2)
_QUARTERS = ((_EVEN, _EVEN), (_ODD, _ODD), (_EVEN, _ODD), (_ODD, _EVEN))


def _mirror_symmetry(spans: list):
    """The class P of a block's mirror symmetry: 1 for P = I, -1 for
    P = S = diag((-1)^j), or None; P = I is tested first.

    With h0 = Re H[0, 0] for each span, the block is of class P when every
    span has P conj(L) P = L and P conj(H - h0 I) P = -(H - h0 I), exactly.
    Entry by entry (P conj(M) P)_ij = p_i p_j conj(M_ij), so L is real on the
    entries P keeps and imaginary on those it negates, and H - h0 I the
    other way round: H's diagonal is h0 throughout. Then
    P conj(k L + H - h0 I) P = -(-k L + H - h0 I) for every real k, and with
    U'(k) the product of the span exponentials exp(-i dt (k L + H - h0 I)),
    U(-k) = turn P conj(U'(k)) P with turn = exp(-i sum h0 dt). P = I takes
    a real L and an H that is h0 I plus an imaginary matrix (parabolic1d,
    mm1, mmc and the lindblad 2x2 block, all with h0 = 0); P = S takes cap's
    diagonal L and real tridiagonal H of constant diagonal. A block whose L
    is diagonal and whose tridiagonal H has a constant diagonal but a
    non-real band is in neither class, though S U'(k)^dagger S would fold
    it: no builder makes one, and it is summed unfolded, which stays exact.
    The entries are read through the quarters, slices with no mask."""
    for parity, kept, negated in ((1, _QUARTERS, ()), (-1, _QUARTERS[:2], _QUARTERS[2:])):
        if all(
            np.all(np.diagonal(H).real == H[0, 0].real)
            # the diagonal, all h0, is the only real part H keeps
            and sum(np.count_nonzero(H[s].real) for s in kept) == len(H) * (H[0, 0].real != 0)
            and not any(np.any(L[s].imag) for s in kept)
            and not any(np.any(L[s].real) or np.any(H[s].imag) for s in negated)
            for L, H, _ in spans
        ):
            return parity
    return None


def _reflect(v: np.ndarray, parity: int) -> np.ndarray:
    """P conj(v), with P = I for parity 1 and S = diag((-1)^j) for -1."""
    out = np.conjugate(v)
    if parity < 0:
        np.negative(out[1::2], out=out[1::2])
    return out


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


def _chebyshev_bound(degree: int, spread: float) -> float:
    """min over rho > 1 of 4 exp(spread (rho - 1/rho) / 2) rho^-degree / (rho - 1).

    A function f of k on [c - h, c + h] that is entire with
    ||f(k)|| <= exp(tau |Im k|) M0 is bounded by exp(tau h (rho - 1/rho) / 2) M0
    on the Bernstein ellipse E_rho of the interval, so its degree-d
    interpolant in Chebyshev points is within 4 M rho^-d / (rho - 1) of f
    (Trefethen, Approximation Theory and Approximation Practice, Thm 8.2):
    with spread = tau h, this bound times M0. In s = log rho the logarithm of
    the bound is convex, so its minimum is found by bisecting the derivative
    spread cosh s - degree - e^s / (e^s - 1) on (0, _LOG_RHO_MAX], down to a
    bracket of relative width _S_RTOL; the bound is taken at the bracket's
    upper end, a rho > 1, so it is valid whatever the precision, which only
    decides how tight it is. An overflowing bound is infinite."""
    lo, hi = 0.0, _LOG_RHO_MAX
    while hi - lo > _S_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if spread * math.cosh(mid) - degree + 1.0 / math.expm1(-mid) > 0:
            hi = mid
        else:
            lo = mid
    log_bound = math.log(4.0) + spread * math.sinh(hi) - degree * hi - math.log(math.expm1(hi))
    return math.exp(log_bound) if log_bound < 700.0 else math.inf


def _chebyshev_degree(spread: float, tol: float, most: int):
    """The smallest degree d in [1, most] with _chebyshev_bound(d, spread) <= tol,
    or None; the degree returned always meets tol.

    At s = log rho the certificate meets tol from the degree
    q(s) = (log(4 / tol) + spread sinh s - log(e^s - 1)) / s on, so the
    answer is ceil(min q) up to rounding. The numerator N is convex, so q is
    quasiconvex and its minimum is found by bisecting the sign of
    s N'(s) - N(s), which rises with s, on (0, _LOG_RHO_MAX]; q at the upper
    end of the bracket starts the search, and stepping d by one while the
    bound decides settles the rounding, a step or two."""
    if most < 1 or not _chebyshev_bound(most, spread) <= tol:
        return None
    top = math.log(4.0 / tol)

    def numerator(s):
        return top + spread * math.sinh(s) - math.log(math.expm1(s))

    lo, hi = 0.0, _LOG_RHO_MAX
    while hi - lo > _S_RTOL * hi:
        mid = 0.5 * (lo + hi)
        slope = spread * math.cosh(mid) + 1.0 / math.expm1(-mid)
        if mid * slope - numerator(mid) > 0:
            hi = mid
        else:
            lo = mid
    degree = min(most, max(1, math.ceil(numerator(hi) / hi)))
    while not _chebyshev_bound(degree, spread) <= tol:
        degree += 1
    while degree > 1 and _chebyshev_bound(degree - 1, spread) <= tol:
        degree -= 1
    return degree


def _chebyshev_proxy(ks: np.ndarray, weight_sets: tuple, growth: float, centre: float):
    """(nodes, mapped, bound): the Chebyshev proxy of the sums
    sum_j w_j f(ks[j]) for each w in weight_sets, or None when it would not
    have fewer terms.

    Each weight set weighs forward columns f(k) = U(k, T) v, up to a
    constant factor (a fold's mirrored half weighs U'(k) w, _block_sum), so
    every set is mapped alike. The function interpolated is the phased
    F(k) = exp(i k centre) f(k), which is entire with
    ||F(k)|| <= exp(|Im k| growth) ||v|| (_block_sum). On [min ks, max ks],
    of half-width h, its interpolant in the d + 1 Chebyshev points of the
    second kind (nodes, ascending) is within
    bound = _chebyshev_bound(d, growth h) of it, relative to ||v||, at the
    smallest d whose bound is at most _PROXY_TOL. So
    sum_j w_j f(ks[j]) = sum_j (w_j exp(-i ks[j] centre)) F(ks[j])
    = sum_m W_m f(nodes[m]), with W_m = exp(i nodes[m] centre)
    sum_j w_j exp(-i ks[j] centre) l_m(ks[j]) and l_m the barycentric
    Lagrange basis (Berrut & Trefethen, SIAM Rev. 46, 501, 2004), to within
    bound sum |w| ||v||: the phases have modulus 1 on the real axis. mapped
    holds one complex W per weight set. With centre = 0 the map is that of
    f itself. None when d + 1 is not below len(ks), or when every k is the
    same.

    The basis is real: l_m(k) = b_m C(k, m) / s(k), with the Cauchy matrix
    C(k, m) = 1 / (k - x_m), s(k) = sum_i b_i C(k, i) and b_m = (-1)^m,
    halved at both ends, so W_m = b_m sum_j C(k_j, m) w_j / s(k_j). C is
    formed a slice of budget / (d + 1) terms at a time in one reused real
    buffer; each slice of a weight set is phased there, and the real and
    imaginary parts of every weight set over s are multiplied by it in one
    real product. A term on a node (the ends always are) takes l = delta,
    with no division by zero."""
    lo, hi = float(ks.min()), float(ks.max())
    half_width = 0.5 * (hi - lo)
    if not half_width > 0:
        return None
    degree = _chebyshev_degree(growth * half_width, _PROXY_TOL, len(ks) - 2)
    if degree is None:
        return None
    m = np.arange(degree + 1)
    nodes = 0.5 * (lo + hi) - half_width * np.cos(np.pi * m / degree)
    nodes[0], nodes[-1] = lo, hi
    b = np.where(m % 2, -1.0, 1.0)
    b[[0, -1]] *= 0.5
    rows = max(1, _BATCH_ENTRY_BUDGET // (degree + 1))
    cauchy = np.empty((min(rows, len(ks)), degree + 1))
    parts = np.empty((2 * len(weight_sets), len(cauchy)))
    total = np.zeros((len(parts), degree + 1))
    for start in range(0, len(ks), rows):
        k = ks[start : start + rows]
        C, v = cauchy[: len(k)], parts[:, : len(k)]
        near = np.minimum(np.searchsorted(nodes, k), degree)
        exact = np.flatnonzero(nodes[near] == k)
        np.subtract.outer(k, nodes, out=C)
        C[exact] = 1.0
        np.reciprocal(C, out=C)
        # a term on node m: the row e_m gives l = b_m e_m / b_m = delta
        C[exact] = 0.0
        C[exact, near[exact]] = 1.0
        s = C @ b
        phase = np.exp(-1j * centre * k)
        for i, w in enumerate(weight_sets):
            w = w[start : start + rows] * phase
            np.divide(w.real, s, out=v[2 * i])
            np.divide(w.imag, s, out=v[2 * i + 1])
        total += v @ C
    total *= b
    phase = np.exp(1j * centre * nodes)
    mapped = [(re + 1j * im) * phase for re, im in zip(total[0::2], total[1::2])]
    return nodes, mapped, _chebyshev_bound(degree, growth * half_width)


def _block_sum(
    block: tuple, ks: np.ndarray, weights: np.ndarray, u0: np.ndarray, panels, mirrored: bool,
    spectrum: tuple, transfer=None,
):
    """sum_j weights[j] U(ks[j]) u0 over the spans of one analysed block,
    (spans, basis, tridiagonal, symmetry) as _blocks gives it, with
    spectrum = (lo, hi) = (sum dt lambda0, sum dt ||L||) the bounds of L's
    spectrum integrated over the spans, streamed over chunks of budget / dim
    terms on the shared path, where a term holds dim phases, and of
    budget / dim^2 terms on a per-term path,
    where it holds a dim x dim eigenvector matrix (or, at dim 2, its
    closed-form exponential). mirrored says whether ks mirror bitwise
    (_is_mirrored), decided once per sum for every block.

    When all spans share a certified eigenbasis V the sum is V (t * V^dagger
    u0) with the transfer values t = sum_j weights[j] exp(-i (ks[j] lam + mu)),
    which do not depend on u0: transfer, the values a block with bitwise-equal
    spans returned for the same plan and weights, is used in place of
    summing them again. A mirrored ks is folded onto its k > 0 half on the
    shared path when panels = (left, off) factors that half,
    ks[half + m Q + q] = left[m] + off[q], and K max|lam| is finite: the half
    sums to S(c_+) + conj(S(conj(c_-))) with
    S(w) = sum_m A_m (sum_q w[m, q] B_q), A = exp(-i left lam),
    B = exp(-i off lam), summed a chunk of panels at a time, and exp(-i mu)
    joins V^dagger u0.

    Otherwise a per-term path propagates term by term. A tridiagonal block of
    dim 2 sums matrices, not vectors: each chunk forms every term's
    closed-form propagator (_expm_closed_form, multiplied across the spans),
    reduces the weighted entries to one 2x2 matrix per weight set and
    applies it to that set's start vector. Any other per-term block
    propagates its start vectors (_propagate_chunk). On a per-term path a
    mirrored ks is folded by the one rule of the block's mirror class P
    (_mirror_symmetry): U(-k) = turn P conj(U'(k)) P, U' over the spans less
    h0 I and turn = exp(-i sum h0 dt), so with w = P conj(u0)
    sum c_+ U(k) u0 + sum c_- U(-k) u0
    = turn (sum c_+ U'(k) u0 + P conj(sum conj(c_-) U'(k) w)).
    Each chunk returns the two forward sums, c_+ on u0 and conj(c_-) on w,
    and the fold combines them once, after the reduction. A u0 that is its
    own w (real, with P = I) propagates one column for both. Each span
    decomposes k L + H - h0 I, so the phases stay small (cap's h0 T is
    1,024 at T = 1/4).

    A block that propagates its start vectors (dstevd or batched eigh) then
    replaces its terms, folded or not, by their Chebyshev proxy
    (_chebyshev_proxy): the d + 1 Chebyshev points on [min ks, max ks], each
    weight set mapped to the nodes. Every column it propagates is
    k -> U'(k) v, which is U(k) v up to the constant factor exp(i sum h0 dt)
    and entire in k. Off the real axis a span
    exp(-i dt (k L + H)) has the logarithmic norm dt Im k lambda, lambda
    L's largest eigenvalue above the axis and its smallest below (the
    Hermitian part of the generator is Im k L), so ||U(k)|| <= exp(Im k hi)
    for Im k >= 0 and exp(Im k lo) for Im k <= 0: with L >= 0, U is a
    contraction below the axis. The proxy interpolates each column times
    the phase exp(+i k sigma), with the centre sigma = (lo + hi) / 2
    (sum dt ||L|| / 2 when lambda0 = 0). That
    scalar shifts L's spectrum to [-(hi - lo) / 2, (hi - lo) / 2], so the
    phased column grows at most like exp(|Im k| (hi - lo) / 2) in both
    half-planes, half the uncentred sum dt ||L||; only L >= 0 is needed
    for that halving, not any symmetry of the block. The sum moves by at
    most the certificate at that rate times sum |w| ||u0||, and the
    certificate is at most _PROXY_TOL. With d + 1 not below the term count
    the terms stay, and the sum is the direct one. Returns the sum, the
    block's record (size, path, chunk count, step count, decomposition count
    and certified proxy bound, 0 without the proxy) and its transfer values
    (None on a per-term path)."""
    spans, basis, tridiagonal, symmetry = block
    dim = len(u0)
    bound = 0.0
    # what one term holds: dim phases on the shared path, a dim x dim
    # eigenvector matrix (or its closed form) on a per-term one
    chunk = max(1, _BATCH_ENTRY_BUDGET // (dim if basis is not None else dim * dim))
    if basis is not None:
        # where k lam overflows, left lam and off lam may not: the sum must stay non-finite
        by_panels = panels is not None and math.isfinite(ks[-1] * np.abs(basis[1]).max())
    fold = mirrored and (by_panels if basis is not None else symmetry is not None)
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
            reflected = (A * (B @ minus[s].T.conj())).sum(axis=1)
            return own + reflected.conj()
    else:
        # one forward sum per weight set: c_+ on u0 and, when folded,
        # conj(c_-) on w = P conj(u0), over the spans less h0 I
        weight_sets, starts, steps = (weights,), u0[None, :], len(spans)
        if fold:
            h0 = [H[0, 0].real for _, H, _ in spans]
            turn = np.exp(-1j * sum(h * dt for h, (_, _, dt) in zip(h0, spans)))
            spans = [(L, H - h * np.eye(dim), dt) for h, (L, H, dt) in zip(h0, spans)]
            weight_sets = (weights, mirror.conj())
            w = _reflect(u0, symmetry)
            if not np.array_equal(w, u0):
                starts = np.stack([u0, w])
        if tridiagonal and dim == 2:
            path = "tridiagonal"

            def chunk_sum(s):
                U = None
                for L, H, dt in spans:
                    step = _expm_closed_form(L, H, ks[s], dt)
                    U = step if U is None else np.einsum("ijn,jkn->ikn", step, U)
                return np.stack([
                    (U * c[s]).sum(axis=2) @ v for c, v in zip(weight_sets, (starts[0], starts[-1]))
                ])
        else:
            path = "tridiagonal" if tridiagonal else "batched-eigh"
            eig = _eigh_tridiagonal if tridiagonal else _eigh_dense
            lo, hi = spectrum
            proxy = _chebyshev_proxy(ks, weight_sets, 0.5 * (hi - lo), 0.5 * (lo + hi))
            if proxy is not None:
                ks, weight_sets, bound = proxy
                n = len(ks)

            def chunk_sum(s):
                cols = _propagate_chunk(spans, ks[s], starts, eig)
                return np.stack([
                    (col * c[s]).sum(axis=1) for c, col in zip(weight_sets, (cols[0], cols[-1]))
                ])
        decompositions = n * steps

    record = (dim, path, -(-n // chunk), steps, decompositions, bound)
    total = transfer
    if total is None:
        total = comp = 0.0
        for start in range(0, n, chunk):
            term = chunk_sum(slice(start, start + chunk)) - comp
            tmp = total + term
            comp = (tmp - total) - term
            total = tmp
    if basis is not None:
        coeff = V.conj().T @ u0
        if fold:
            coeff = np.exp(-1j * mu) * coeff
        return V @ (total * coeff), record, total
    if fold:
        return turn * (total[0] + _reflect(total[1], symmetry)), record, None
    return total[0], record, None


class _PreparedSum:
    """The schedule analysis of one instance on [0, T], made once for every
    sum over it: the horizon T, the spans (steps counts them), split into
    blocks, each with its shared eigenbasis or its per-term path and mirror
    symmetry (see _blocks), and spectrum, the bounds [lo, hi] of L's spectrum
    integrated over the spans, (sum dt lambda0, sum dt ||L||). A per-term
    block's Chebyshev proxy interpolates exp(i k sigma) U(k, T) v with
    sigma = (lo + hi) / 2, which grows at most like exp(|Im k| (hi - lo) / 2)
    off the real axis (_block_sum); the gate L >= 0 makes lo about 0, so the
    rate is about half of sum dt ||L||, the growth of U itself above the
    axis. The positivity gate is required first, so an instance that fails
    it raises PreconditionError and is not analysed; any failure of the
    analysis raises PropagationError. Nothing changes after construction.

    sum is the one entry into the weighted sum; apply and residual weigh it
    for lchs_apply and residual_lemma_check, at the analysis's own T.
    """

    def __init__(self, p: ProblemInstance, T: float):
        p.require_gate()
        self.p, self.T = p, T
        intervals = _intervals(p.schedule, T)
        spans = [(pair.L, pair.H, dt) for pair, dt in intervals]
        self.steps = len(spans)
        # L's spectrum lies in [lambda0, normL], integrated over the spans:
        # ||U(k, T)|| <= exp(Im k hi) above the real axis and exp(Im k lo) below it
        self.spectrum = (
            sum(pair.lambda0 * dt for pair, dt in intervals),
            sum(pair.normL * dt for pair, dt in intervals),
        )
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
        shared block fold a mirrored plan; whether the plan mirrors is tested
        once here, for every block. A block with a twin takes its twin's
        transfer values from this sum. Every step is deterministic, so a
        fixed plan gives the same bytes each call. Any failure inside the
        sum, and a sum that is not finite, raises PropagationError.
        """
        plan.validate()
        u0 = self.p.u0
        out = np.zeros(len(u0), dtype=complex)
        records = []
        transfers = []
        try:
            weights, panels, mirrored = weigh(plan), _composite_panels(plan), _is_mirrored(plan.k)
            for idx, *block, twin in self.blocks:
                out[idx], record, transfer = _block_sum(
                    block, plan.k, weights, u0[idx], panels, mirrored, self.spectrum,
                    None if twin is None else transfers[twin],
                )
                records.append(record)
                transfers.append(transfer)
        except PropagationError:
            raise
        except Exception as exc:
            raise PropagationError(f"propagation failed: {exc}") from exc
        _log.debug(
            "weighted unitary sum: path=%s terms=%d decompositions=%d chunks=%d steps=%d "
            "blocks=%d [%s] bound=%.3g",
            records[0][1] if len(records) == 1 else "split", plan.size,
            sum(r[4] for r in records), sum(r[2] for r in records), sum(r[3] for r in records),
            len(records), " ".join(f"{r[0]}:{r[1]}" for r in records), max(r[5] for r in records),
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
