import dataclasses
import logging
import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

import lchs.evolve as ev
from lchs import (
    PreconditionError,
    ProblemInstance,
    PropagationError,
    RangeError,
    TimeSchedule,
    build_cap_schrodinger,
    build_parabolic_1d,
    composite_plan,
    hermitian_split,
    lchs_apply,
    mc_plan,
    oracle_solve,
    plan_from_accuracy,
    residual_lemma_check,
    solve,
)
from lchs.harness import build_problem
from lchs.kernels import kernel_f
from lchs.linalg import HermitianPair, shift_pair
from lchs.sampling import _composite_nodes
from lchs.problems import absorbing_layer

from conftest import propagate, random_hermitian, random_unitary


def scalar_instance(value=1.0):
    pair = hermitian_split(np.array([[value]], dtype=complex))
    return ProblemInstance.from_pair(pair, np.array([1.0 + 0j]), label="scalar")


def random_gated_instance(rng, dim, lam_lo=0.2, lam_hi=1.2, h_scale=1.0):
    U = random_unitary(rng, dim)
    lam = rng.uniform(lam_lo, lam_hi, dim)
    L = (U * lam) @ U.conj().T
    H = random_hermitian(rng, dim, scale=h_scale)
    pair = hermitian_split(L + 1j * H)
    u0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    u0 /= np.linalg.norm(u0)
    return ProblemInstance.from_pair(pair, u0)


class TestPropagateUnitary:
    def test_k_zero_diagonal_H(self):
        # at k = 0 the coupled L drops out; it is semidefinite, as the gate
        # that every weighted sum requires asks
        rng = np.random.default_rng(0)
        W = random_hermitian(rng, 2, scale=3.0)
        L = W @ W
        H = np.diag([1.0, 2.0]).astype(complex)
        pair = HermitianPair(L=L, H=H)
        u0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        p = ProblemInstance.from_pair(pair, u0)
        out = propagate(p, 0.0, 1.0)
        expected = np.array([np.exp(-1j), np.exp(-2j)]) / np.sqrt(2.0)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_scalar_phase(self):
        p = scalar_instance(1.0)
        out = propagate(p, 2.0, 1.0)
        assert out[0] == pytest.approx(np.exp(-2j), abs=1e-13)

    def test_norm_preservation(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            dim = int(rng.integers(2, 12))
            p = random_gated_instance(rng, dim)
            k = rng.uniform(-30.0, 30.0)
            out = propagate(p, k, rng.uniform(0.1, 3.0))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    def test_t_zero(self):
        p = scalar_instance()
        assert propagate(p, 3.0, 0.0)[0] == 1.0

    def test_negative_t_rejected(self):
        # clipping a piecewise schedule to [0, T] would leave no span at all
        p1, p2 = (hermitian_split(np.array([[v]], dtype=complex)) for v in (1.0, 2.0))
        sched = TimeSchedule.piecewise([0.0, 0.5, 1.0], [p1, p2])
        p = ProblemInstance(schedule=sched, u0=np.array([1.0 + 0j]))
        for inst in (p, scalar_instance()):
            with pytest.raises(RangeError):
                propagate(inst, 1.0, -0.5)


class TestLchsApply:
    def test_identity_at_t_zero(self, beta_kernel):
        rng = np.random.default_rng(2)
        p = random_gated_instance(rng, 6)
        plan = plan_from_accuracy(beta_kernel, 1e-4, 0.0, 1.0)
        out = lchs_apply(p, plan, 0.0)
        assert np.linalg.norm(out - p.u0) <= 3e-4

    def test_scalar_decay(self, beta_kernel):
        p = scalar_instance(1.0)
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, 1.0)
        out = lchs_apply(p, plan, 1.0)
        assert abs(out[0] - np.exp(-1.0)) <= 1e-3

    def test_commuting_diagonal(self, beta_kernel):
        A = np.diag([1.0 + 1j, 2.0 + 0j])
        pair = hermitian_split(A)
        p = ProblemInstance.from_pair(pair, np.array([1.0, 1.0], dtype=complex))
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, 2.0)
        out = lchs_apply(p, plan, 1.0)
        expected = np.array([np.exp(-(1.0 + 1j)), np.exp(-2.0)])
        assert np.max(np.abs(out - expected) / np.abs(expected)) <= 1e-3

    def test_commuting_factorization(self, beta_kernel):
        # [L, H] = 0: the result must match exp(-LT) exp(-iHT) u0
        L = np.diag([0.5, 1.5])
        H = np.diag([2.0, -1.0])
        pair = HermitianPair(L=L.astype(complex), H=H.astype(complex))
        u0 = np.array([0.6, 0.8], dtype=complex)
        p = ProblemInstance.from_pair(pair, u0)
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, 1.5)
        out = lchs_apply(p, plan, 1.0)
        expected = np.exp(-np.diagonal(L)) * np.exp(-1j * np.diagonal(H)) * u0
        assert np.max(np.abs(out - expected)) <= 1e-3

    def test_gate_enforced(self, beta_kernel):
        pair = hermitian_split(np.array([[-1.0]], dtype=complex))
        p = ProblemInstance.from_pair(pair, np.array([1.0 + 0j]))
        plan = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 1.0)
        with pytest.raises(PreconditionError):
            lchs_apply(p, plan, 1.0)

    def test_shift_unwinding_matches_direct(self, beta_kernel):
        # solve (A + cI) with unwinding vs solve A directly
        rng = np.random.default_rng(8)
        p_direct = random_gated_instance(rng, 4, lam_lo=0.5, lam_hi=1.0)
        pair = p_direct.schedule.pairs[0]
        c = max(0.0, 1.5 - pair.lambda0)
        assert c > 0
        shifted = shift_pair(HermitianPair(L=pair.L - 0.0 * np.eye(4), H=pair.H), c)
        p_shifted = ProblemInstance.from_pair(shifted, p_direct.u0)
        plan = plan_from_accuracy(beta_kernel, 1e-5, 1.0, 2.0)
        u_direct = lchs_apply(p_direct, plan, 1.0)
        u_unwound = lchs_apply(p_shifted, plan, 1.0)
        assert np.linalg.norm(u_direct - u_unwound) / np.linalg.norm(u_direct) <= 1e-4


class TestOracle:
    def test_diagonal(self):
        pair = hermitian_split(np.diag([1.0, 2.0]))
        p = ProblemInstance.from_pair(pair, np.array([1.0, 1.0], dtype=complex))
        out = oracle_solve(p, 1.0)
        assert np.allclose(out, [np.exp(-1.0), np.exp(-2.0)], rtol=1e-12)

    def test_uniform_decay_with_shifted_L(self):
        # L = lambda0 I commutes with everything: pure exponential decay
        rng = np.random.default_rng(1)
        H = random_hermitian(rng, 4, scale=2.0)
        pair = HermitianPair(
            L=0.3 * np.eye(4, dtype=complex), H=H, shift=0.0
        )
        u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = ProblemInstance.from_pair(pair, u0)
        out = oracle_solve(p, 2.0)
        assert np.linalg.norm(out) == pytest.approx(
            np.exp(-0.3 * 2.0) * np.linalg.norm(u0), rel=1e-10
        )

    def test_unshifts_before_integrating(self):
        lam, c = 1.0, 0.7
        pair = HermitianPair(
            L=np.array([[lam + c]], dtype=complex),
            H=np.zeros((1, 1), dtype=complex),
            shift=c,
        )
        p = ProblemInstance.from_pair(pair, np.array([1.0 + 0j]))
        out = oracle_solve(p, 1.0)
        assert out[0] == pytest.approx(np.exp(-lam), rel=1e-12)

    def test_piecewise_aligned_stepping(self):
        # piecewise-constant schedule: product of interval exponentials
        p1 = hermitian_split(np.array([[1.0]], dtype=complex))
        p2 = hermitian_split(np.array([[2.0 + 1j]], dtype=complex))
        sched = TimeSchedule.piecewise([0.0, 0.4, 1.0], [p1, p2])
        p = ProblemInstance(
            schedule=sched, u0=np.array([1.0 + 0j])
        )
        out = oracle_solve(p, 1.0)
        expected = np.exp(-(2.0 + 1j) * 0.6) * np.exp(-0.4)
        assert out[0] == pytest.approx(expected, rel=1e-10)

    def test_t_zero(self):
        p = scalar_instance()
        assert oracle_solve(p, 0.0)[0] == 1.0

class TestResidualLemma:
    def test_scalar_cauchy_tends_to_zero(self, cauchy_kernel):
        # analytic continuation puts the only pole at k = i, so the principal
        # value integral vanishes; the truncated sum must shrink as the window
        # and rule are refined
        p = scalar_instance(1.0)
        for T in (1.0, 0.1):
            coarse = residual_lemma_check(p, composite_plan(cauchy_kernel, 16.0, 64, 6), T)
            fine = residual_lemma_check(p, composite_plan(cauchy_kernel, 1024.0, 4096, 10), T)
            assert fine < coarse
            assert fine <= 2e-2

    def test_beta_ladder_scalar(self, beta_kernel):
        p = scalar_instance(1.0)
        residuals = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            plan = plan_from_accuracy(beta_kernel, eps, 1.0, 1.0)
            residuals.append(residual_lemma_check(p, plan, 1.0))
        assert all(b <= 1.1 * a for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] <= 1e-4

    def test_random_4x4_reaches_tolerance(self, beta_kernel):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        pair = hermitian_split(A)
        shifted = shift_pair(pair, max(0.0, 0.5 - pair.lambda0))
        u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u0 /= np.linalg.norm(u0)
        p = ProblemInstance.from_pair(shifted, u0)
        normL = float(np.max(np.abs(np.linalg.eigvalsh(shifted.L))))
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, normL)
        r = residual_lemma_check(p, plan, 1.0)
        assert r <= 1e-3

    @pytest.mark.parametrize("kernel, eps", [("cauchy_kernel", 1e-2), ("beta_kernel", 1e-4)])
    def test_plan_coefficients_carry_f(self, kernel, eps, request):
        # the check weighs the plan's own nodes by c (1 - ik): with c = w g and
        # g = f / (1 - ik) that is the Gauss weight times f, to roundoff
        kernel = request.getfixturevalue(kernel)
        plan = plan_from_accuracy(kernel, eps, 1.0, 1.0)
        k, w = _composite_nodes(plan.K, plan.meta["M"], plan.meta["Q"])
        assert np.array_equal(k, plan.k)
        wf = w * kernel_f(kernel, k)
        gap = np.abs(plan.c * (1 - 1j * plan.k) - wf)
        assert np.all(gap <= 4 * np.spacing(np.abs(wf)))

    def test_gate_required(self, beta_kernel):
        pair = hermitian_split(np.array([[-0.5]], dtype=complex))
        p = ProblemInstance.from_pair(pair, np.array([1.0 + 0j]))
        with pytest.raises(PreconditionError):
            residual_lemma_check(p, composite_plan(beta_kernel, 8.0, 16, 4), 1.0)


class TestSolve:
    def test_scalar_report(self, beta_kernel):
        p = scalar_instance(1.0)
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, 1.0)
        rep = solve(p, plan, 1.0)
        assert rep.rel_error <= 1e-3
        assert rep.plan_size == plan.size
        assert rep.propagator_steps >= 1
        assert not rep.shift_unwound
        assert rep.norm_ratio == pytest.approx(np.exp(1.0), rel=1e-3)
        assert set(rep.wall_times) == {"lchs_s", "oracle_s"}

    def test_t_zero_report(self, beta_kernel):
        p = scalar_instance(1.0)
        plan = plan_from_accuracy(beta_kernel, 1e-4, 0.0, 1.0)
        rep = solve(p, plan, 0.0)
        assert rep.rel_error <= 3e-4

    def test_report_serialization(self, beta_kernel):
        p = scalar_instance(1.0)
        plan = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 1.0)
        d = solve(p, plan, 1.0).to_dict()
        assert len(d["u_lchs"]) == 2 * p.dim
        assert d["u_lchs"][0] == pytest.approx(np.exp(-1.0), rel=1e-3)
        assert d["rel_error"] >= 0.0

    def test_oracle_agreement_ensemble(self, beta_kernel):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            p = random_gated_instance(rng, dim)
            T = rng.uniform(0.25, 2.0)
            normL = float(np.max(np.abs(np.linalg.eigvalsh(p.schedule.pairs[0].L))))
            plan = plan_from_accuracy(beta_kernel, 1e-3, T, normL)
            rep = solve(p, plan, T)
            worst = max(worst, rep.rel_error)
        assert worst <= 1e-3


class TestCheckedSum:
    """lchs_apply and residual_lemma_check enter the weighted sum through one
    checked routine, so both map its failures the same way."""

    def test_eigh_failure_raises_propagation_error(self, beta_kernel, monkeypatch):
        p = random_gated_instance(np.random.default_rng(5), 3)
        plan = composite_plan(beta_kernel, 4.0, 4, 4)

        def failing(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(ev.np.linalg, "eigh", failing)
        for entry in (lchs_apply, residual_lemma_check):
            with pytest.raises(PropagationError, match="Eigenvalues did not converge"):
                entry(p, plan, 1.0)

    def test_non_finite_sum_raises_propagation_error(self, beta_kernel):
        # the gate passes (lambda0 = 1e307), but k L overflows on [-40, 40]
        L = 1e307 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=complex)
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            H[i, j], H[j, i] = 0.3j, -0.3j
        p = ProblemInstance.from_pair(HermitianPair(L=L, H=H), np.ones(3))
        assert p.lambda0 > 0
        plan = composite_plan(beta_kernel, 40.0, 4, 4)
        with np.errstate(all="ignore"):
            for entry in (lchs_apply, residual_lemma_check):
                with pytest.raises(PropagationError, match="not finite"):
                    entry(p, plan, 0.25)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan])
    def test_non_finite_u0_rejected_at_construction(self, bad):
        u0 = np.array([1.0, bad, 0.5])
        pair = HermitianPair(L=np.eye(3, dtype=complex), H=np.zeros((3, 3), dtype=complex))
        with pytest.raises(RangeError, match="u0 must be finite"):
            ProblemInstance.from_pair(pair, u0)

    def test_plan_validated_before_weights_are_formed(self, beta_kernel):
        plan = composite_plan(beta_kernel, 4.0, 4, 4)
        short = dataclasses.replace(plan, c=plan.c[:-1])
        for entry in (lchs_apply, residual_lemma_check):
            with pytest.raises(RangeError, match="abscissae but"):
                entry(scalar_instance(1.0), short, 1.0)

    def test_solve_runs_the_gate_once(self, beta_kernel, monkeypatch):
        calls = []
        gate = ProblemInstance.require_gate
        monkeypatch.setattr(
            ProblemInstance, "require_gate", lambda self: calls.append(1) or gate(self)
        )
        solve(scalar_instance(1.0), composite_plan(beta_kernel, 4.0, 4, 4), 1.0)
        assert calls == [1]

    def test_gate_runs_before_the_analysis(self, monkeypatch):
        p = ProblemInstance.from_pair(hermitian_split(np.array([[-0.5 + 0.3j]])), np.ones(1))
        monkeypatch.setattr(ev, "_spans", lambda *args: pytest.fail("analysed a gate-failing instance"))
        with pytest.raises(PreconditionError):
            ev._PreparedSum(p, 1.0)

    def test_shift_unwound_at_the_analysis_horizon(self, beta_kernel):
        p = build_problem("lindblad", {})
        assert p.shift > 0
        T = 0.75
        plan = plan_from_accuracy(beta_kernel, 1e-3, T, p.meta["normL"])
        prepared = ev._PreparedSum(p, T)
        unwound = prepared.sum(plan, lambda plan: plan.c) * np.exp(p.shift * T)
        assert prepared.apply(plan).tobytes() == unwound.tobytes()
        assert lchs_apply(p, plan, T).tobytes() == unwound.tobytes()

    def test_residual_needs_positive_T(self, beta_kernel):
        with pytest.raises(RangeError, match="must be positive"):
            residual_lemma_check(scalar_instance(1.0), composite_plan(beta_kernel, 4.0, 4, 4), 0.0)


def commuting_instance(rng, lam, mu):
    """L = U diag(lam) U^dagger, H = U diag(mu) U^dagger for a random U."""
    U = random_unitary(rng, len(lam))
    L = (U * np.asarray(lam, dtype=float)) @ U.conj().T
    H = (U * np.asarray(mu, dtype=float)) @ U.conj().T
    pair = hermitian_split(L + 1j * H)
    u0 = rng.standard_normal(len(lam)) + 1j * rng.standard_normal(len(lam))
    return ProblemInstance.from_pair(pair, u0 / np.linalg.norm(u0))


def shared_basis(p, T=1.0):
    """_shared_eigenbasis of the spans of p on [0, T]."""
    return ev._shared_eigenbasis(ev._spans(p.schedule, T), p.dim)


def paths_agree(p, plan, T, monkeypatch, tol, test="_shared_eigenbasis"):
    """lchs_apply as chosen from the input vs with one path test stubbed to
    decline. Declining _shared_eigenbasis sends the sum to the next path that
    applies (tridiagonal for banded pairs, else batched eigh); declining
    _is_tridiagonal sends a banded non-commuting pair to batched eigh."""
    decline = {"_shared_eigenbasis": None, "_is_tridiagonal": False}[test]
    fast = lchs_apply(p, plan, T)
    with monkeypatch.context() as m:
        m.setattr(ev, test, lambda *args: decline)
        slow = lchs_apply(p, plan, T)
    assert np.linalg.norm(fast - slow) <= tol * np.linalg.norm(p.u0)
    return fast


def decline_proxy(m):
    """Sum every per-term block directly, over the plan's own terms: m (a
    monkeypatch or its context) stubs the Chebyshev proxy to decline."""
    m.setattr(ev, "_chebyshev_proxy", lambda *args: None)


class TestSharedEigenbasis:
    @pytest.mark.parametrize("name, T", [("parabolic1d", 1.0 / 256.0), ("blackhole", 1.0)])
    def test_matches_batched_eigh_on_default_builders(self, name, T, beta_kernel, monkeypatch):
        p = build_problem(name, {})
        assert shared_basis(p) is not None
        plan = plan_from_accuracy(beta_kernel, 1e-4, T, p.meta["normL"])
        paths_agree(p, plan, T, monkeypatch, 1e-12)

    def test_rotated_pair_with_degenerate_L(self, beta_kernel, monkeypatch):
        # L has two doubly degenerate eigenvalues; H splits both, so only the
        # combination fixes the shared basis
        rng = np.random.default_rng(31)
        p = commuting_instance(rng, [0.5, 1.0, 1.0, 2.0, 2.0, 3.0], [0.3, -1.0, 0.7, 0.2, -0.4, 1.1])
        assert shared_basis(p) is not None
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, 3.0)
        out = paths_agree(p, plan, 1.0, monkeypatch, 1e-12)
        assert np.linalg.norm(out - oracle_solve(p, 1.0)) <= 1e-4

    @pytest.mark.parametrize("name", ["cap", "mm1"])
    def test_non_commuting_builders_fail_the_certificate(self, name):
        assert shared_basis(build_problem(name, {})) is None

    def test_non_commuting_falls_back(self, beta_kernel, monkeypatch):
        p = build_problem("mm1", {})
        plan = plan_from_accuracy(beta_kernel, 1e-4, 0.25, p.meta["normL"])
        out = paths_agree(p, plan, 0.25, monkeypatch, 0.0)
        assert np.linalg.norm(out - oracle_solve(p, 0.25)) <= 1e-4 * np.linalg.norm(p.u0)

    def test_degenerate_combination_falls_back(self, beta_kernel, monkeypatch):
        # commuting pair with lam/|lam| + _MIX mu/|mu| equal on the first two
        # eigenvectors: eigh may return any basis of that plane, which does
        # not diagonalize L, so the certificate must reject it
        lam = np.array([1.0, 2.0, 3.0])
        a = (lam[1] - lam[0]) / (np.linalg.norm(lam) * ev._MIX)
        mu = np.array([a, 0.0, np.sqrt(1.0 - a * a)])
        p = commuting_instance(np.random.default_rng(5), lam, mu)
        assert shared_basis(p) is None
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, 3.0)
        out = paths_agree(p, plan, 1.0, monkeypatch, 0.0)
        assert np.linalg.norm(out - oracle_solve(p, 1.0)) <= 1e-4

    @staticmethod
    def heat_slices(a, slices, T):
        """parabolic1d on 17 grid points with b = c = 0, sliced in time."""
        return build_parabolic_1d(
            a=a, b=lambda x, t: 0.0, c=lambda x, t: 0.0, N_grid=17, T=T, time_slices=slices
        )

    @pytest.mark.parametrize("slices", [2, 4])
    def test_commuting_spans_share_one_eigenbasis(self, slices, beta_kernel, monkeypatch, caplog):
        # two slices of a = 1 repeat one pair; with a = s(t) (1 + x) every
        # slice's L is a multiple of the first, so one basis serves all spans
        T, eps = 1.0 / 256.0, 1e-4
        w = 2.0 * np.pi / T
        a = (lambda x, t: 1.0) if slices == 2 else (
            lambda x, t: (1.0 + 0.5 * np.sin(w * t)) * (1.0 + x)
        )
        p = self.heat_slices(a, slices, T)
        assert len(ev._spans(p.schedule, T)) == slices
        plan = plan_from_accuracy(beta_kernel, eps, T, p.meta["normL"])
        counts = logged_counts(p, plan, T, caplog)
        assert caplog.records[0].getMessage().startswith(
            "weighted unitary sum: path=shared-eigenbasis "
        )
        assert (counts["decompositions"], counts["steps"], counts["blocks"]) == (1, 0, 1)
        out = paths_agree(p, plan, T, monkeypatch, 1e-12)
        assert np.linalg.norm(out - oracle_solve(p, T)) <= eps * np.linalg.norm(p.u0)

    def test_second_span_failing_the_certificate_falls_back(self, beta_kernel, caplog):
        # a = 1 on the first half and 1 + x on the second: the two L do not
        # commute, so the second span rejects the first span's basis
        T, eps = 1.0 / 256.0, 1e-3
        p = self.heat_slices(lambda x, t: 1.0 if t < T / 2.0 else 1.0 + x, 2, T)
        first = ProblemInstance.from_pair(p.schedule.pairs[0], p.u0)
        assert shared_basis(first, T) is not None
        assert shared_basis(p, T) is None
        plan = plan_from_accuracy(beta_kernel, eps, T, p.meta["normL"])
        assert logged_path(p, plan, T, caplog) == "tridiagonal"
        out = lchs_apply(p, plan, T)
        assert np.linalg.norm(out - oracle_solve(p, T)) <= eps * np.linalg.norm(p.u0)

    def test_t_zero_sums_the_weights_on_the_shared_path(self, beta_kernel, caplog):
        # no span: one block on all indices with V = I and no decomposition
        p = random_gated_instance(np.random.default_rng(2), 6)
        plan = plan_from_accuracy(beta_kernel, 1e-4, 0.0, 1.0)
        caplog.set_level(logging.DEBUG, logger="lchs.evolve")
        caplog.clear()
        out = lchs_apply(p, plan, 0.0)
        assert [r.getMessage() for r in caplog.records] == [
            f"weighted unitary sum: path=shared-eigenbasis terms={plan.size} "
            "decompositions=0 chunks=1 steps=0 blocks=1 [6:shared-eigenbasis] bound=0"
        ]
        assert np.linalg.norm(out - plan.c.sum() * p.u0) <= 1e-14 * np.linalg.norm(p.u0)

    def test_one_debug_record_per_sum(self, beta_kernel, caplog, monkeypatch):
        # the fold and chunk counts of the direct sums; the proxy's are
        # pinned by test_record_counts_the_proxy_nodes
        monkeypatch.setattr(ev, "_BATCH_ENTRY_BUDGET", 4000)
        decline_proxy(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="lchs.evolve")
        # blackhole's diagonal pair splits into two 1x1 blocks. lindblad's L
        # and H couple indices 0 and 3 only: a 2x2 tridiagonal block and two
        # 1x1 blocks, each with its own chunk size. The third entry is the
        # fold: the shared blocks sum the mirrored plan over its k > 0 half,
        # the real lindblad block and mm1 decompose each |k| once, and so
        # does cap by its mirror class P = S.
        shared = "shared-eigenbasis"
        for name, blocks in (
            ("blackhole", [(1, shared, 2), (1, shared, 2)]),
            ("lindblad", [(2, "tridiagonal", 2), (1, shared, 2), (1, shared, 2)]),
            ("cap", [(63, "tridiagonal", 2)]), ("mm1", [(16, "tridiagonal", 2)]),
        ):
            p = build_problem(name, {})
            plan = plan_from_accuracy(beta_kernel, 1e-3, 0.25, p.meta["normL"])
            caplog.clear()
            lchs_apply(p, plan, 0.25)
            path = blocks[0][1] if len(blocks) == 1 else "split"
            chunks = sum(
                -(-(plan.size // fold) // (4000 // (size if b == shared else size**2)))
                for size, b, fold in blocks
            )
            decompositions = sum(1 if b == shared else plan.size // fold for _, b, fold in blocks)
            steps = sum(b != shared for _, b, _ in blocks)
            listed = " ".join(f"{size}:{b}" for size, b, _ in blocks)
            assert [r.getMessage() for r in caplog.records] == [
                f"weighted unitary sum: path={path} terms={plan.size} "
                f"decompositions={decompositions} chunks={chunks} "
                f"steps={steps} blocks={len(blocks)} [{listed}] bound=0"
            ]


def hermitian_band(diag, sup):
    """Hermitian tridiagonal matrix with the given diagonal and superdiagonal."""
    return np.diag(np.asarray(diag, dtype=complex)) + np.diag(sup, 1) + np.diag(np.conj(sup), -1)


def random_band(rng, n, lo, hi):
    """n complex numbers with moduli in [lo, hi] and uniform phases."""
    return rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(size=n))


def tridiagonal_instance(rng, dim, vanish=None):
    """Non-commuting pair with complex Hermitian tridiagonal L and H. L's
    diagonal in [1, 2] dominates its off-diagonal (moduli <= 0.4), so
    lambda0 >= 0.2. vanish = (j, k) sets H[j, j+1] = -k L[j, j+1], so that
    e_j = k L[j, j+1] + H[j, j+1] is exactly zero at that k."""
    l_sup = random_band(rng, dim - 1, 0.1, 0.4)
    h_sup = random_band(rng, dim - 1, 0.2, 1.0)
    if vanish is not None:
        j, k = vanish
        h_sup[j] = -k * l_sup[j]
    L = hermitian_band(rng.uniform(1.0, 2.0, dim), l_sup)
    H = hermitian_band(rng.uniform(-1.0, 1.0, dim), h_sup)
    u0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ProblemInstance.from_pair(HermitianPair(L=L, H=H), u0 / np.linalg.norm(u0))


def logged_path(p, plan, T, caplog):
    """The path named by the debug record of one lchs_apply."""
    caplog.set_level(logging.DEBUG, logger="lchs.evolve")
    caplog.clear()
    lchs_apply(p, plan, T)
    (record,) = caplog.records
    return record.getMessage().split("path=")[1].split()[0]


class TestTridiagonalPath:
    """Banded pairs are decomposed in real arithmetic after a phase
    similarity; the reference is batched eigh on the same plan."""

    T = 0.25

    @pytest.mark.parametrize("name", ["cap", "mm1", "mmc"])
    def test_matches_batched_eigh_on_default_builders(self, name, beta_kernel, monkeypatch, caplog):
        p = build_problem(name, {})
        plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, p.meta["normL"])
        assert logged_path(p, plan, self.T, caplog) == "tridiagonal"
        paths_agree(p, plan, self.T, monkeypatch, 1e-12, test="_is_tridiagonal")

    def test_off_diagonal_vanishing_at_a_plan_node(self, beta_kernel, monkeypatch, caplog):
        # at the plan node k*, e_2 is exactly zero and its phase falls back to 1
        plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, 2.8)
        k_star = plan.k[plan.size // 3]
        p = tridiagonal_instance(np.random.default_rng(11), 6, vanish=(2, k_star))
        pair = p.schedule.pairs[0]
        assert k_star * pair.L[2, 3] + pair.H[2, 3] == 0
        assert logged_path(p, plan, self.T, caplog) == "tridiagonal"
        out = paths_agree(p, plan, self.T, monkeypatch, 1e-12, test="_is_tridiagonal")
        assert np.linalg.norm(out - oracle_solve(p, self.T)) <= 1e-4

    def test_identically_zero_off_diagonal(self, beta_kernel, monkeypatch, caplog):
        # L[j, j+1] = H[j, j+1] = 0: the band splits into two coupled blocks,
        # each propagated on its own
        p = tridiagonal_instance(np.random.default_rng(12), 6)
        L, H = (M.copy() for M in (p.schedule.pairs[0].L, p.schedule.pairs[0].H))
        for M in (L, H):
            M[2, 3] = M[3, 2] = 0.0
        p = ProblemInstance.from_pair(HermitianPair(L=L, H=H), p.u0)
        plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, 2.8)
        assert logged_path(p, plan, self.T, caplog) == "split"
        out = paths_agree(p, plan, self.T, monkeypatch, 1e-12, test="_is_tridiagonal")
        assert np.linalg.norm(out - oracle_solve(p, self.T)) <= 1e-4

    def test_dense_pairs_take_batched_eigh(self, beta_kernel, caplog):
        # lindblad's 4x4 pair couples only indices 0 and 3: it splits into a
        # 2x2 block and two 1x1 blocks
        dense = random_gated_instance(np.random.default_rng(13), 5)  # ||L|| <= 1.2
        for p, path in ((build_problem("lindblad", {}), "split"), (dense, "batched-eigh")):
            plan = plan_from_accuracy(beta_kernel, 1e-3, self.T, p.meta.get("normL", 1.2))
            assert logged_path(p, plan, self.T, caplog) == path

    @staticmethod
    def two_span_instance(pairs):
        u0 = np.array([1.0, 0.5j, -0.25, 0.75])[: pairs[0].dim]
        return ProblemInstance(schedule=TimeSchedule.piecewise([0.0, 0.1, 1.0], pairs), u0=u0)

    @staticmethod
    def tridiagonal_pairs(*seeds, dim=4):
        rngs = map(np.random.default_rng, seeds)
        return [tridiagonal_instance(rng, dim).schedule.pairs[0] for rng in rngs]

    def test_one_dense_span_sends_every_span_to_batched_eigh(self, beta_kernel, caplog):
        tri1, tri2 = self.tridiagonal_pairs(14, 15)
        dense = random_gated_instance(np.random.default_rng(16), 4).schedule.pairs[0]
        plan = plan_from_accuracy(beta_kernel, 1e-3, self.T, 2.8)
        for pairs, path in (((tri1, tri2), "tridiagonal"), ((tri1, dense), "batched-eigh")):
            assert logged_path(self.two_span_instance(pairs), plan, self.T, caplog) == path

    def test_spans_match_expm_product(self):
        pairs = self.tridiagonal_pairs(14, 15)
        p = self.two_span_instance(pairs)
        k = 2.7
        ref = expm_product([(pairs[0], 0.1), (pairs[1], self.T - 0.1)], k) @ p.u0
        assert np.linalg.norm(propagate(p, k, self.T) - ref) <= 1e-12 * np.linalg.norm(p.u0)

    def test_repeated_calls_are_bit_stable(self, beta_kernel, monkeypatch):
        monkeypatch.setattr(ev, "_BATCH_ENTRY_BUDGET", 256 * 100)  # chunks of 100 terms
        p = build_problem("mm1", {})
        plan = plan_from_accuracy(beta_kernel, 1e-3, self.T, p.meta["normL"])
        first = lchs_apply(p, plan, self.T).tobytes()
        for _ in range(3):
            assert lchs_apply(p, plan, self.T).tobytes() == first

    def test_dstevd_failure_raises(self, beta_kernel, monkeypatch):
        def failing(d, e):
            return d, np.eye(len(d)), 3

        monkeypatch.setattr(ev, "lapack", types.SimpleNamespace(dstevd=failing))
        p = build_problem("mm1", {})
        plan = plan_from_accuracy(beta_kernel, 1e-3, self.T, p.meta["normL"])
        with pytest.raises(PropagationError, match="dstevd failed with info = 3"):
            lchs_apply(p, plan, self.T)


def tridiagonal_branch_calls(monkeypatch):
    """Count the dstevd calls of the per-term tridiagonal branch."""
    calls = []

    def counting(d, e):
        calls.append(len(d))
        return lapack.dstevd(d, e)

    monkeypatch.setattr(ev, "lapack", types.SimpleNamespace(dstevd=counting))
    return calls


def eigenpair_sum(p, plan, T, eig=ev._eigh_tridiagonal):
    """The reference for the closed-form matrix sum: (idx, sum) with idx the
    indices of p's 2x2 tridiagonal block and sum = sum_j c_j U(k_j, T) u0 on
    it, unwound by exp(shift T). Every term of the plan, unfolded, carries
    its own vector, propagated span by span through eig's eigenpairs
    k L + H = D V diag(W) V^T D^dagger, phases and matmul, and the terms are
    summed pairwise. The default eig decomposes each phase-rotated band by
    dstevd."""
    blocks = ev._blocks(ev._spans(p.schedule, T), p.dim)
    [(idx, spans)] = [
        (idx, spans) for idx, spans, _, tridiagonal, *_ in blocks if tridiagonal and len(idx) == 2
    ]
    u = np.repeat(p.u0[idx][:, None], plan.size, axis=1)
    for L, H, dt in spans:
        W, V, d = eig(L, H, plan.k)
        u = np.einsum("nji,jn->in", V, d.T.conj() * u)
        u = d.T * np.einsum("nij,jn->in", V, np.exp(-1j * dt * W.T) * u)
    return idx, (u * plan.c).sum(axis=1) * np.exp(p.shift * T)


def closed_form_eigenpairs(L, H, ks):
    """(W, V, d) of a 2x2 tridiagonal k L + H = D V diag(W) V^T D^dagger in
    closed form, the decomposition the tridiagonal path propagated dim 2
    with before _expm_closed_form: after the phase similarity
    d = (1, conj(e) / |e|), [[a, b], [b, c]] = m I + r [[cos 2phi, sin 2phi],
    [sin 2phi, -cos 2phi]] with phi = atan2(b, (a - c) / 2) / 2."""
    a, c = (ks * L[i, i].real + H[i, i].real for i in (0, 1))
    e = ks * L[0, 1] + H[0, 1]
    b = np.abs(e)
    d = np.ones((len(ks), 2), dtype=complex)
    np.divide(e.conj(), b, out=d[:, 1], where=e != 0)
    m, h = 0.5 * (a + c), 0.5 * (a - c)
    r = np.hypot(h, b)
    phi = 0.5 * np.arctan2(b, h)
    cos, sin = np.cos(phi), np.sin(phi)
    V = np.stack([-sin, cos, cos, sin], axis=1).reshape(len(ks), 2, 2)
    return np.stack([m - r, m + r], axis=1), V, d


def closed_form_propagator(pair, k, dt):
    """exp(-i dt (k L + H)) of a 2x2 pair from _expm_closed_form."""
    return ev._expm_closed_form(pair.L, pair.H, np.array([k]), dt)[:, :, 0]


class TestTridiagonalBranches:
    """Tridiagonal blocks of dims 1 and 2 are propagated by their closed-form
    exponential for all terms at once, larger ones decomposed by dstevd term
    by term; both agree with the batched-eigh path on the same plan."""

    T = 0.25

    @pytest.mark.parametrize("dim, vanish", [(2, False), (2, True), (4, True), (8, False)])
    def test_batched_matches_dstevd(self, dim, vanish, beta_kernel, monkeypatch, caplog):
        plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, 2.8)
        k_star = plan.k[plan.size // 3]
        p = tridiagonal_instance(
            np.random.default_rng(30 + dim), dim, vanish=(dim // 2 - 1, k_star) if vanish else None
        )
        assert logged_path(p, plan, self.T, caplog) == "tridiagonal"
        calls = tridiagonal_branch_calls(monkeypatch)
        decline_proxy(monkeypatch)
        # the complex pair is not folded: one dstevd call per term above dim 2
        out = paths_agree(p, plan, self.T, monkeypatch, 1e-12, test="_is_tridiagonal")
        assert calls == ([] if dim == 2 else [dim] * plan.size)
        assert np.linalg.norm(out - oracle_solve(p, self.T)) <= 1e-4 * np.linalg.norm(p.u0)

    @staticmethod
    def dim2_instance(case, k_star):
        """A 2x2 tridiagonal pair whose phase-rotated k L + H = [[a, b], [b, c]]
        has h = (a - c)/2 = 0 at every k ("h=0"), b = 0 at the plan node k*
        ("b=0"), or both, so that k* L + H is a multiple of I ("h=b=0")."""
        l_sup, h_sup = 0.3 * np.exp(0.7j), 0.8 * np.exp(-1.9j)
        if case != "h=0":
            h_sup = -k_star * l_sup
        l_diag, h_diag = ([1.5, 1.5], [0.25, 0.25]) if case != "b=0" else ([1.2, 1.8], [0.5, -0.3])
        L, H = hermitian_band(l_diag, [l_sup]), hermitian_band(h_diag, [h_sup])
        u0 = np.array([0.6 - 0.2j, -0.3 + 0.7j])
        return ProblemInstance.from_pair(HermitianPair(L=L, H=H), u0)

    @pytest.mark.parametrize("case", ["h=0", "b=0", "h=b=0"])
    def test_closed_form_degenerate_cases_match_dstevd(
        self, case, beta_kernel, monkeypatch, caplog
    ):
        plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, 2.8)
        k_star = plan.k[plan.size // 3]
        p = self.dim2_instance(case, k_star)
        pair = p.schedule.pairs[0]
        U = closed_form_propagator(pair, k_star, self.T)
        ref = expm_product([(pair, self.T)], k_star)
        assert np.linalg.norm(U - ref) <= 1e-13 * abs(k_star)
        if case == "h=b=0":
            # r = 0: exp(-i T m I) exactly, a multiple of I
            assert U[0, 1] == U[1, 0] == 0 and U[0, 0] == U[1, 1]
            # k* L + H = m I makes H = m I - k* L commute with L: decline the
            # shared eigenbasis so that the pair takes the tridiagonal path
            monkeypatch.setattr(ev, "_shared_eigenbasis", lambda spans, dim: None)
        assert logged_path(p, plan, self.T, caplog) == "tridiagonal"
        calls = tridiagonal_branch_calls(monkeypatch)
        closed = lchs_apply(p, plan, self.T)
        assert calls == []
        idx, looped = eigenpair_sum(p, plan, self.T)
        assert np.linalg.norm(closed[idx] - looped) <= 1e-12 * np.linalg.norm(p.u0)
        assert np.linalg.norm(closed - oracle_solve(p, self.T)) <= 1e-4 * np.linalg.norm(p.u0)

    @staticmethod
    def real_two_span_instance():
        """Two spans of 2x2 pairs with a real L and a purely imaginary H, so
        that a mirrored plan folds, and a complex u0."""
        pairs = [
            HermitianPair(L=hermitian_band(l_diag, [l_sup]), H=hermitian_band([0.0, 0.0], [h_sup]))
            for l_diag, l_sup, h_sup in (([1.2, 1.6], 0.3, 0.5j), ([1.9, 1.1], -0.2, -0.8j))
        ]
        u0 = np.array([0.6 - 0.2j, -0.3 + 0.7j])
        return ProblemInstance(schedule=TimeSchedule.piecewise([0.0, 0.1, 1.0], pairs), u0=u0)

    @pytest.mark.parametrize("case", ["two-span", "h=0", "b=0", "h=b=0"])
    def test_matrix_sum_matches_eigenpairs_on_special_pairs(
        self, case, beta_kernel, monkeypatch, caplog
    ):
        # two real spans, folded (each |k| once, u0 and conj(u0) from one
        # matrix per term), and the degenerate pairs, complex and so unfolded
        plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, 2.8)
        if case == "two-span":
            p, terms = self.real_two_span_instance(), plan.size // 2
        else:
            p, terms = self.dim2_instance(case, plan.k[plan.size // 3]), plan.size
            if case == "h=b=0":
                monkeypatch.setattr(ev, "_shared_eigenbasis", lambda spans, dim: None)
        spans = len(ev._spans(p.schedule, self.T))
        assert spans == (2 if case == "two-span" else 1)
        closed, counts = counted_apply(p, plan, self.T, caplog)
        assert counts["decompositions"] == terms * spans
        idx, eigenpairs = eigenpair_sum(p, plan, self.T, closed_form_eigenpairs)
        scale = np.linalg.norm(p.u0) * np.exp(p.shift * self.T)
        assert np.linalg.norm(closed[idx] - eigenpairs) <= 2e-15 * scale

    def test_two_closed_form_spans_match_expm_product(self):
        pairs = TestTridiagonalPath.tridiagonal_pairs(14, 15, dim=2)
        p = TestTridiagonalPath.two_span_instance(pairs)
        k = 2.7
        ref = expm_product([(pairs[0], 0.1), (pairs[1], self.T - 0.1)], k) @ p.u0
        assert np.linalg.norm(propagate(p, k, self.T) - ref) <= 1e-12 * np.linalg.norm(p.u0)

    def test_closed_form_at_large_phase(self):
        # r dt about 1e3: both the closed form and the reference lose about
        # r dt units of roundoff to the phases, and no more
        pair = self.dim2_instance("b=0", 0.0).schedule.pairs[0]
        k, dt = 500.0, 5.0
        L, H = pair.L, pair.H
        h = 0.5 * (k * (L[0, 0] - L[1, 1]) + H[0, 0] - H[1, 1]).real
        r = np.hypot(h, abs(k * L[0, 1] + H[0, 1]))
        assert 900 <= r * dt <= 1100
        ref = expm_product([(pair, dt)], k)
        gap = np.linalg.norm(closed_form_propagator(pair, k, dt) - ref)
        assert gap <= 8 * r * dt * np.finfo(float).eps

    def test_builder_dims_above_cut_off_keep_dstevd(self, beta_kernel, monkeypatch):
        calls = tridiagonal_branch_calls(monkeypatch)
        decline_proxy(monkeypatch)
        p = build_problem("mm1", {})
        plan = plan_from_accuracy(beta_kernel, 1e-3, self.T, p.meta["normL"])
        lchs_apply(p, plan, self.T)
        # mm1 is real and the plan mirrored: one dstevd per |k|
        assert calls == [p.dim] * (plan.size // 2)

    def test_lindblad_decomposes_nothing_larger_than_2x2(self, beta_kernel, monkeypatch):
        dims = []
        for name in ("_expm_closed_form", "_eigh_tridiagonal", "_eigh_dense"):
            def spy(L, H, ks, *rest, real=getattr(ev, name)):
                dims.extend([len(L)] * len(ks))
                return real(L, H, ks, *rest)

            monkeypatch.setattr(ev, name, spy)
        p = build_problem("lindblad", {})
        plan = plan_from_accuracy(beta_kernel, 1e-3, self.T, p.meta["normL"])
        lchs_apply(p, plan, self.T)
        # the 2x2 block is real and the plan mirrored: one decomposition per |k|
        assert dims == [2] * (plan.size // 2)

    @staticmethod
    def lindblad_complex_u0():
        p = build_problem("lindblad", {})
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return dataclasses.replace(p, u0=u0 / np.linalg.norm(u0))

    @pytest.mark.parametrize("T", [0.25, 1.0, 16.0])
    @pytest.mark.parametrize("method", ["gaussian", "monte-carlo"])
    def test_lindblad_matches_the_eigenpair_propagation(self, T, method, beta_kernel):
        # a folded Gaussian plan (u0 and conj(u0) columns) and a Monte Carlo
        # one; the closed-form eigenpairs, phases and matmul are the reference
        p = self.lindblad_complex_u0()
        if method == "gaussian":
            plan = plan_from_accuracy(beta_kernel, 1e-4, T, p.meta["normL"])
        else:
            plan = mc_plan(beta_kernel, 44.25, 16_000, 9)
        closed = lchs_apply(p, plan, T)
        idx, eigenpairs = eigenpair_sum(p, plan, T, closed_form_eigenpairs)
        scale = np.linalg.norm(p.u0) * np.exp(p.shift * T)
        assert np.linalg.norm(closed[idx] - eigenpairs) <= 2e-15 * scale

    @pytest.mark.parametrize("columns", [1, 2])
    def test_closed_form_peaks_no_higher_than_eigenpairs(self, columns):
        # 10,000 terms in one chunk: the whole closed-form matrix sum against
        # the eigenpair propagation of one column over every k (unfolded) or
        # of u0 and conj(u0) over the 5,000 k > 0 of a mirrored plan (folded)
        p = self.lindblad_complex_u0()
        [(idx, *analysed, _)] = [
            b for b in ev._blocks(ev._spans(p.schedule, 1.0), p.dim) if len(b[0]) == 2
        ]
        ks = np.sort(np.random.default_rng(4).uniform(-44.25, 44.25, 10_000))
        if columns == 2:
            ks = np.concatenate([-ks[5_000:][::-1], ks[5_000:]])
        weights = np.full(len(ks), 1e-4 + 0j)
        starts = np.stack([p.u0[idx], p.u0[idx].conj()])[:columns]

        def peak(fn, *args):
            fn(*args)  # warm-up
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        spectrum = (0.0, p.schedule.normL * 1.0)
        closed = peak(ev._block_sum, analysed, ks, weights, p.u0[idx], None, columns == 2, spectrum)
        propagated = ks[len(ks) // 2 :] if columns == 2 else ks
        eigenpairs = peak(
            ev._propagate_chunk, analysed[0], propagated, starts, closed_form_eigenpairs
        )
        assert closed <= eigenpairs


def one_block(spans):
    """_block_labels stub that keeps every index in one block."""
    return np.zeros(len(spans[0][0]), dtype=int)


def block_diagonal_instance(rng):
    """dim 8 with a dense 3x3 block on indices (0, 3, 6), a tridiagonal 4x4
    block on (1, 2, 5, 7) and a 1x1 block on (4,), interleaved so that the
    block results must be scattered back to the right entries."""
    blocks = (
        ([0, 3, 6], random_gated_instance(rng, 3).schedule.pairs[0]),
        ([1, 2, 5, 7], tridiagonal_instance(rng, 4).schedule.pairs[0]),
        ([4], HermitianPair(L=np.array([[0.7 + 0j]]), H=np.array([[-0.4 + 0j]]))),
    )
    L, H = np.zeros((8, 8), dtype=complex), np.zeros((8, 8), dtype=complex)
    for idx, pair in blocks:
        L[np.ix_(idx, idx)] = pair.L
        H[np.ix_(idx, idx)] = pair.H
    u0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return ProblemInstance.from_pair(HermitianPair(L=L, H=H), u0 / np.linalg.norm(u0))


class TestBlockSplit:
    """Indices that no span couples are propagated as separate blocks, each
    by its own path."""

    def test_blocks_match_unsplit_run_and_oracle(self, beta_kernel, monkeypatch, caplog):
        p = block_diagonal_instance(np.random.default_rng(21))
        T, eps = 0.5, 1e-4
        normL = float(np.max(np.linalg.eigvalsh(p.schedule.pairs[0].L)))
        plan = plan_from_accuracy(beta_kernel, eps, T, normL)
        caplog.set_level(logging.DEBUG, logger="lchs.evolve")
        caplog.clear()
        split = lchs_apply(p, plan, T)
        (record,) = caplog.records
        assert re.search(
            r"blocks=3 \[3:batched-eigh 4:tridiagonal 1:shared-eigenbasis\] bound=\S+$",
            record.getMessage(),
        )
        monkeypatch.setattr(ev, "_block_labels", one_block)
        assert logged_path(p, plan, T, caplog) == "batched-eigh"
        whole = lchs_apply(p, plan, T)
        assert np.linalg.norm(split - whole) <= 1e-12 * np.linalg.norm(p.u0)
        assert np.linalg.norm(split - oracle_solve(p, T)) <= eps * np.linalg.norm(p.u0)

    def test_coupling_in_one_span_keeps_one_block(self, beta_kernel, caplog):
        first, second = (
            tridiagonal_instance(np.random.default_rng(s), 4).schedule.pairs[0] for s in (23, 24)
        )
        L, H = first.L.copy(), first.H.copy()
        for M in (L, H):
            M[1, 2] = M[2, 1] = 0.0
        first = HermitianPair(L=L, H=H)
        u0 = np.array([1.0, 0.5j, -0.25, 0.75])
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, 2.8)
        alone = ProblemInstance.from_pair(first, u0)
        assert logged_path(alone, plan, 1.0, caplog) == "split"
        # only the second span couples (0, 1) to (2, 3)
        p = ProblemInstance(schedule=TimeSchedule.piecewise([0.0, 0.1, 1.0], [first, second]), u0=u0)
        assert logged_path(p, plan, 1.0, caplog) == "tridiagonal"
        assert re.search(r"blocks=1 \[4:tridiagonal\] bound=\S+$", caplog.records[0].getMessage())
        out = lchs_apply(p, plan, 1.0)
        assert np.linalg.norm(out - oracle_solve(p, 1.0)) <= 1e-4 * np.linalg.norm(u0)

    @pytest.mark.parametrize("support", [[0, 3], [1], [2]])
    def test_unreached_entries_are_exactly_zero(self, support, beta_kernel):
        lindblad = build_problem("lindblad", {})
        u0 = np.zeros(4, dtype=complex)
        u0[support] = [0.6, 0.8j][: len(support)]
        p = ProblemInstance(schedule=lindblad.schedule, u0=u0)
        plan = plan_from_accuracy(beta_kernel, 1e-4, 0.25, lindblad.meta["normL"])
        out = lchs_apply(p, plan, 0.25)
        rest = np.setdiff1d(np.arange(4), support)
        assert np.all(out[rest] == 0)
        assert np.all(out[support] != 0)
        assert np.linalg.norm(out - oracle_solve(p, 0.25)) <= 1e-4

    def test_residual_check_matches_unsplit_run(self, beta_kernel, monkeypatch):
        p = build_problem("lindblad", {})
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, p.meta["normL"])
        args = (p, plan, 1.0)
        split = residual_lemma_check(*args)
        monkeypatch.setattr(ev, "_block_labels", one_block)
        assert split == pytest.approx(residual_lemma_check(*args), rel=0, abs=1e-14)

    @pytest.mark.parametrize("name", ["lindblad", "blackhole"])
    def test_split_sum_certifies_no_block(self, name, beta_kernel, monkeypatch):
        # the builder certified its pairs once; the blocks are plain
        # sub-matrices, so the sum computes no spectrum
        p = build_problem(name, {})
        plan = plan_from_accuracy(beta_kernel, 1e-4, 0.25, p.meta["normL"])
        calls = []

        def eigvalsh(*args, real=np.linalg.eigvalsh, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        lchs_apply(p, plan, 0.25)
        assert calls == []

    @pytest.mark.parametrize("case, groups", [
        ("path", [range(9)]),
        ("two-components", [range(4), range(4, 9)]),
        ("dense", [range(9)]),
        ("isolated", [range(3), [3], range(4, 9)]),
        ("permuted", [[6, 1, 4], [0, 8], [7, 2, 5, 3]]),
    ])
    def test_labels_are_the_smallest_index_of_each_component(self, case, groups):
        # each group is coupled as a path, or fully when dense; its couplings
        # alternate between L and H and between two spans, so only their
        # union joins a group
        pattern = [np.zeros((9, 9), dtype=complex) for _ in range(4)]
        edges = [(i, j) for g in groups for i in g for j in g if i < j] if case == "dense" else [
            (a, b) for g in groups for a, b in zip(list(g), list(g)[1:])
        ]
        for n, (i, j) in enumerate(edges):
            pattern[n % 4][i, j] = pattern[n % 4][j, i] = 1.0 + 0.5j * (n % 4 // 2)
        spans = [(pattern[0], pattern[2], 0.5), (pattern[1], pattern[3], 0.5)]
        expected = np.empty(9, dtype=int)
        for g in groups:
            expected[list(g)] = min(g)
        assert ev._block_labels(spans).tolist() == expected.tolist()

    @pytest.mark.parametrize("name", ["cap", "mm1", "mmc"])
    def test_connected_builders_stay_whole(self, name):
        p = build_problem(name, {})
        assert not np.any(ev._block_labels(ev._spans(p.schedule, 0.25)))

    @staticmethod
    def twin_instance():
        """dim 4 with one commuting 2x2 pair on indices (0, 2) and the same
        pair, bitwise, on (1, 3), and a complex u0."""
        L2 = np.array([[1.0, 0.3], [0.3, 1.4]], dtype=complex)
        H2 = 0.5 * L2 - 0.2 * np.eye(2)
        L, H = np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)
        for idx in ([0, 2], [1, 3]):
            L[np.ix_(idx, idx)], H[np.ix_(idx, idx)] = L2, H2
        u0 = np.array([0.5 + 0.1j, -0.3j, 0.7, 0.2 - 0.4j])
        return ProblemInstance.from_pair(HermitianPair(L=L, H=H), u0)

    @pytest.mark.parametrize("method", ["gaussian", "monte-carlo"])
    @pytest.mark.parametrize("name", ["lindblad", "twin-pairs"])
    def test_equal_shared_blocks_share_their_transfer_values(
        self, name, method, beta_kernel, monkeypatch, caplog
    ):
        # lindblad's two 1x1 coherence blocks are equal; so are the two 2x2
        # blocks of the twin pairs. The later block reuses the earlier one's
        # transfer values, with the same bytes and the same record as
        # summing them again.
        T = 0.5
        p = build_problem("lindblad", {}) if name == "lindblad" else self.twin_instance()
        twins = [None, None, 1] if name == "lindblad" else [None, 0]
        assert [b[-1] for b in ev._blocks(ev._spans(p.schedule, T), p.dim)] == twins
        if method == "gaussian":
            plan = plan_from_accuracy(beta_kernel, 1e-4, T, p.schedule.pairs[0].normL)
        else:
            plan = mc_plan(beta_kernel, 44.25, 3_000, 5)
        reused, counts = counted_apply(p, plan, T, caplog)
        monkeypatch.setattr(ev, "_equal_spans", lambda a, b: False)
        assert [b[-1] for b in ev._blocks(ev._spans(p.schedule, T), p.dim)] == [None] * len(twins)
        summed, summed_counts = counted_apply(p, plan, T, caplog)
        assert reused.tobytes() == summed.tobytes()
        assert counts == summed_counts
        if method == "gaussian":
            assert np.linalg.norm(reused - oracle_solve(p, T)) <= 1e-4 * np.linalg.norm(p.u0)


def counted_apply(p, plan, T, caplog):
    """lchs_apply and the integer fields (terms, decompositions, chunks,
    steps, blocks) of its debug record."""
    caplog.set_level(logging.DEBUG, logger="lchs.evolve")
    caplog.clear()
    out = lchs_apply(p, plan, T)
    (record,) = caplog.records
    return out, {key: int(value) for key, value in re.findall(r"(\w+)=(\d+)", record.getMessage())}


def logged_counts(p, plan, T, caplog):
    """The integer fields of the debug record of one lchs_apply."""
    return counted_apply(p, plan, T, caplog)[1]


def real_dense_pair(rng, dim):
    """Dense pair of a real generator A = L + iH: L real symmetric with
    spectrum in [0.2, 1.2], H = i S / 2 with S real antisymmetric."""
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    L = (Q * rng.uniform(0.2, 1.2, dim)) @ Q.T
    S = rng.standard_normal((dim, dim))
    return HermitianPair(L=(0.5 * (L + L.T)).astype(complex), H=0.5j * (S - S.T))


# a spatially varying real potential: cap's H then has no constant diagonal
VARYING_V_R = {"kind": "gaussian", "amplitude": 50.0, "center": 0.5, "width": 0.1}


class TestMirrorFold:
    """For a real generator (L real, H purely imaginary: the mirror class
    P = I with h0 = 0) U(-k) = conj U(k) span by span, so a per-term path decomposes each |k| of a mirrored plan
    once and applies it to u0 and conj(u0). The reference is the same sum
    with the fold declined."""

    T = 0.25

    @staticmethod
    def instance(setup, complex_u0):
        """(instance, normL, shared blocks) for one setup, with a random
        real or complex u0."""
        rng = np.random.default_rng(41)
        if setup in ("mm1", "mmc", "lindblad"):
            base = build_problem(setup, {})
            schedule, normL = base.schedule, base.meta["normL"]
        elif setup == "real-dense":
            schedule, normL = TimeSchedule.constant(real_dense_pair(rng, 5)), 1.2
        else:  # two-span
            pairs = [real_dense_pair(rng, 4) for _ in range(2)]
            schedule, normL = TimeSchedule.piecewise([0.0, 0.1, 1.0], pairs), 1.2
        u0 = rng.standard_normal(schedule.dim)
        if complex_u0:
            u0 = u0 + 1j * rng.standard_normal(schedule.dim)
        shared_blocks = 2 if setup == "lindblad" else 0
        return ProblemInstance(schedule=schedule, u0=u0 / np.linalg.norm(u0)), normL, shared_blocks

    @pytest.mark.parametrize("complex_u0", [False, True])
    @pytest.mark.parametrize(
        "setup, path",
        [("mm1", "tridiagonal"), ("mmc", "tridiagonal"), ("lindblad", "split"),
         ("real-dense", "batched-eigh"), ("two-span", "batched-eigh")],
    )
    def test_folded_matches_unfolded(self, setup, path, complex_u0, beta_kernel, monkeypatch, caplog):
        # the fold itself, over the plan's own terms
        decline_proxy(monkeypatch)
        p, normL, shared_blocks = self.instance(setup, complex_u0)
        plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, normL)
        spans = len(ev._spans(p.schedule, self.T))
        assert logged_path(p, plan, self.T, caplog) == path
        counts = logged_counts(p, plan, self.T, caplog)
        assert counts["decompositions"] == plan.size // 2 * spans + shared_blocks
        folded = lchs_apply(p, plan, self.T)
        monkeypatch.setattr(ev, "_mirror_symmetry", lambda spans: None)
        counts = logged_counts(p, plan, self.T, caplog)
        assert counts["decompositions"] == plan.size * spans + shared_blocks
        unfolded = lchs_apply(p, plan, self.T)
        assert np.linalg.norm(folded - unfolded) <= 1e-13 * np.linalg.norm(p.u0)
        assert np.linalg.norm(folded - oracle_solve(p, self.T)) <= 1e-4 * np.linalg.norm(p.u0)

    def test_real_u0_propagates_one_column(self, beta_kernel, monkeypatch):
        columns = []
        propagate_chunk = ev._propagate_chunk

        def spy(spans, ks, starts, eig):
            columns.append(len(starts))
            return propagate_chunk(spans, ks, starts, eig)

        monkeypatch.setattr(ev, "_propagate_chunk", spy)
        p = build_problem("mm1", {})
        assert not np.any(p.u0.imag)
        plan = plan_from_accuracy(beta_kernel, 1e-3, self.T, p.meta["normL"])
        one = lchs_apply(p, plan, self.T)
        assert columns and set(columns) == {1}
        columns.clear()
        lchs_apply(self.instance("mm1", True)[0], plan, self.T)
        assert columns and set(columns) == {2}
        # propagating conj(u0) = u0 as a column of its own gives the same bytes

        def both(spans, ks, starts, eig):
            return propagate_chunk(spans, ks, np.concatenate([starts, starts.conj()]), eig)

        monkeypatch.setattr(ev, "_propagate_chunk", both)
        assert lchs_apply(p, plan, self.T).tobytes() == one.tobytes()

    @pytest.mark.parametrize("name", ["mm1", "lindblad"])
    def test_residual_check_matches_unfolded(self, name, beta_kernel, monkeypatch):
        p = build_problem(name, {})
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, p.meta["normL"])
        args = (p, plan, 1.0)
        folded = residual_lemma_check(*args)
        monkeypatch.setattr(ev, "_mirror_symmetry", lambda spans: None)
        assert folded == pytest.approx(residual_lemma_check(*args), rel=0, abs=1e-14)

    @pytest.mark.parametrize(
        "case", ["cap-varying-V_R", "coupled-L", "blackhole", "mc-mm1", "mc-two-span"]
    )
    def test_unfolded_cases_decompose_every_term(self, case, beta_kernel, monkeypatch, caplog):
        decline_proxy(monkeypatch)
        # neither symmetry holds: this cap's and this blackhole's H are not
        # imaginary and have no constant diagonal, and the coupled-L pair's
        # H is real with a constant diagonal but its L has an off-diagonal;
        # a Monte Carlo plan is not mirrored. blackhole's L = gamma I
        # commutes with H, so the shared eigenbasis is declined to reach a
        # per-term path.
        if case == "cap-varying-V_R":
            p = build_problem("cap", {"V_R": VARYING_V_R})
            plan = plan_from_accuracy(beta_kernel, 1e-3, self.T, p.meta["normL"])
        elif case == "coupled-L":
            L = hermitian_band([1.2, 1.5, 1.9, 1.4, 1.6], [0.3, 0.2, 0.35, 0.25])
            H = hermitian_band([0.7] * 5, [-1.0] * 4)
            p = ProblemInstance.from_pair(HermitianPair(L=L, H=H), np.ones(5))
            assert shared_basis(p) is None
            plan = plan_from_accuracy(beta_kernel, 1e-3, self.T, 2.5)
        elif case == "blackhole":
            p = build_problem("blackhole", {"H": {"re": [[1.0, 0.3], [0.3, -1.0]]}})
            plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, p.meta["normL"])
            monkeypatch.setattr(ev, "_shared_eigenbasis", lambda spans, dim: None)
        else:
            p = self.instance(case[3:], True)[0]
            plan = mc_plan(beta_kernel, 44.25, 3_000, 2)
        counts = logged_counts(p, plan, self.T, caplog)
        assert counts["blocks"] == 1
        assert counts["decompositions"] == plan.size * counts["steps"]
        assert counts["steps"] == len(ev._spans(p.schedule, self.T))


class TestChiralFold:
    """cap's spans have a diagonal L and a real tridiagonal H of constant
    diagonal h0, the mirror class P = S = diag((-1)^j): S conj(H - h0 I) S =
    -(H - h0 I), so U(-k) = exp(-i sum h0 dt) S conj(U'(k)) S with U'(k) the
    product of the span exponentials of k L + H - h0 I. A per-term path
    decomposes each |k| of a mirrored plan once and propagates u0 and
    w = S conj(u0). The reference is the same sum with the fold declined."""

    T = 0.25

    @staticmethod
    def instance(case):
        """cap's default, the same with a complex u0, or three slices of a
        cap whose V_R is uniform in space and varies in time, so that every
        span has its own h0."""
        if case == "three-slices":
            return build_cap_schrodinger(
                V_R=lambda x, t: 25.0 + 100.0 * t, V_I=absorbing_layer(5.0, 0.7, 0.9),
                hbar=1.0, N_grid=17, T=TestChiralFold.T, time_slices=3,
            )
        p = build_problem("cap", {})
        if case == "complex-u0":
            rng = np.random.default_rng(23)
            u0 = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
            p = dataclasses.replace(p, u0=u0 / np.linalg.norm(u0))
        return p

    @staticmethod
    def unfolded(monkeypatch, fn, *args):
        with monkeypatch.context() as m:
            m.setattr(ev, "_mirror_symmetry", lambda spans: None)
            return fn(*args)

    @pytest.mark.parametrize("case", ["cap", "complex-u0", "three-slices"])
    def test_folded_matches_unfolded(self, case, beta_kernel, monkeypatch, caplog):
        # the fold itself, over the plan's own terms
        decline_proxy(monkeypatch)
        p = self.instance(case)
        spans = ev._spans(p.schedule, self.T)
        assert len(spans) == (3 if case == "three-slices" else 1)
        assert len({H[0, 0] for _, H, _ in spans}) == len(spans)
        [(_, _, _, tridiagonal, symmetry, _)] = ev._blocks(spans, p.dim)
        assert tridiagonal and symmetry == -1
        plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, p.meta["normL"])
        folded, counts = counted_apply(p, plan, self.T, caplog)
        assert counts["decompositions"] == plan.size // 2 * len(spans)
        unfolded, counts = self.unfolded(monkeypatch, counted_apply, p, plan, self.T, caplog)
        assert counts["decompositions"] == plan.size * len(spans)
        scale = np.linalg.norm(p.u0)
        assert np.linalg.norm(folded - unfolded) <= 1e-12 * scale
        assert np.linalg.norm(folded - oracle_solve(p, self.T)) <= 1e-4 * scale
        residual = residual_lemma_check(p, plan, self.T)
        reference = self.unfolded(monkeypatch, residual_lemma_check, p, plan, self.T)
        assert abs(residual - reference) <= 1e-12 * scale


def mirror_class_pair(rng, dim, parity, h0, band=False):
    """A gated pair of mirror class P, P = I for parity 1 and
    S = diag((-1)^j) for -1: L = (X + P conj(X) P) / 2 lifted to
    lambda0 = 0.2 and H = h0 I + (Y - P conj(Y) P) / 2, for random Hermitian
    X and Y, tridiagonal when band. Every entry of L is then exactly real
    or imaginary, as P asks, and so is every entry of H - h0 I."""
    p = np.where(np.arange(dim) % 2, parity, 1)
    sign = np.outer(p, p)
    X, Y = (random_hermitian(rng, dim) for _ in range(2))
    if band:
        X, Y = (np.triu(np.tril(M, 1), -1) for M in (X, Y))
    L = 0.5 * (X + sign * X.conj())
    L = L + (0.2 - np.linalg.eigvalsh(L)[0]) * np.eye(dim)
    return HermitianPair(L=L, H=h0 * np.eye(dim) + 0.5 * (Y - sign * Y.conj()))


class TestOneFoldRule:
    """Every per-term block of mirror class P (P = I or S = diag((-1)^j))
    folds by U(-k) = turn P conj(U'(k)) P, with U' the product of the span
    exponentials of k L + H - h0 I and turn = exp(-i sum h0 dt): on the
    closed form of dim 2, on dstevd and on batched eigh, for any h0."""

    T = 0.25

    @staticmethod
    def spans(path, parity):
        """Two spans of class P with h0 = 3.0 and -1.25 on one path's block."""
        dim, band = {"closed-form": (2, True), "dstevd": (5, True), "eigh": (4, False)}[path]
        rng = np.random.default_rng(17 + parity)
        pairs = [mirror_class_pair(rng, dim, parity, h0, band) for h0 in (3.0, -1.25)]
        return [(pair.L, pair.H, dt) for pair, dt in zip(pairs, (0.1, 0.15))]

    @pytest.mark.parametrize("parity", [1, -1])
    @pytest.mark.parametrize("path", ["closed-form", "dstevd", "eigh"])
    def test_mirror_column_matches_expm(self, path, parity):
        # U(-k) v = turn P conj(U'(k) P conj(v)) from the decompositions at
        # +k, against expm of each span's -i dt (-k L + H)
        spans = self.spans(path, parity)
        assert ev._mirror_symmetry(spans) == parity
        dim, k = len(spans[0][0]), 2.7
        P = np.diag(np.where(np.arange(dim) % 2, parity, 1)).astype(float)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        turn = np.exp(-1j * sum(H[0, 0].real * dt for _, H, dt in spans))
        shifted = [(L, H - H[0, 0].real * np.eye(dim), dt) for L, H, dt in spans]
        w = P @ v.conj()
        if path == "closed-form":
            column = w
            for L, H, dt in shifted:
                column = ev._expm_closed_form(L, H, np.array([k]), dt)[:, :, 0] @ column
        else:
            eig = ev._eigh_tridiagonal if path == "dstevd" else ev._eigh_dense
            column = ev._propagate_chunk(shifted, np.array([k]), w[None, :], eig)[0, :, 0]
        expected = v
        for L, H, dt in spans:
            expected = scipy.linalg.expm(-1j * dt * (-k * L + H)) @ expected
        assert np.linalg.norm(turn * P @ column.conj() - expected) <= 1e-13

    def test_symmetry_tested_only_without_a_shared_basis(self, monkeypatch):
        # lindblad's 2x2 block is per-term, its two 1x1 blocks and
        # parabolic1d's one block share an eigenbasis
        tested = []
        mirror_symmetry = ev._mirror_symmetry
        monkeypatch.setattr(
            ev, "_mirror_symmetry", lambda spans: tested.append(len(spans[0][0])) or mirror_symmetry(spans)
        )
        for name, sizes in (("lindblad", [2]), ("parabolic1d", [])):
            tested.clear()
            p = build_problem(name, {})
            ev._blocks(ev._spans(p.schedule, self.T), p.dim)
            assert tested == sizes

    @staticmethod
    def instance(case):
        """The instance of one case: S-class of dim 2 (the closed
        form), dense, or dense over two spans; dense I-class with h0 != 0;
        or the dense S-class pair with one diagonal entry of H moved off h0."""
        rng = np.random.default_rng(29)
        parity = 1 if case == "I-dense" else -1
        dim = 2 if case == "S-dim2" else 5
        pairs = [mirror_class_pair(rng, dim, parity, 2.5)]
        if case == "S-dense-two-span":
            pairs.append(mirror_class_pair(rng, dim, parity, -4.0))
        if case == "S-one-entry-off":
            H = pairs[0].H.copy()
            H[2, 2] += 0.25
            pairs = [HermitianPair(L=pairs[0].L, H=H)]
        schedule = TimeSchedule.piecewise([0.0, 0.1, 1.0], pairs) if len(pairs) == 2 else (
            TimeSchedule.constant(pairs[0])
        )
        u0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return ProblemInstance(schedule=schedule, u0=u0 / np.linalg.norm(u0))

    @pytest.mark.parametrize("case, path", [
        ("S-dim2", "tridiagonal"), ("S-dense", "batched-eigh"),
        ("S-dense-two-span", "batched-eigh"), ("I-dense", "batched-eigh"),
    ])
    def test_added_classes_fold(self, case, path, beta_kernel, monkeypatch, caplog):
        p = self.instance(case)
        spans = ev._spans(p.schedule, self.T)
        assert all(H[0, 0].real != 0 for _, H, _ in spans)
        [(_, _, basis, _, symmetry, _)] = ev._blocks(spans, p.dim)
        assert basis is None and symmetry == (1 if case == "I-dense" else -1)
        plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, p.schedule.normL)
        assert logged_path(p, plan, self.T, caplog) == path
        folded, counts = counted_apply(p, plan, self.T, caplog)
        with monkeypatch.context() as m:
            m.setattr(ev, "_mirror_symmetry", lambda spans: None)
            unfolded, unfolded_counts = counted_apply(p, plan, self.T, caplog)
        assert counts["decompositions"] < unfolded_counts["decompositions"]
        scale = np.abs(plan.c).sum() * np.linalg.norm(p.u0) * np.exp(p.shift * self.T)
        assert np.linalg.norm(folded - unfolded) <= 1e-13 * scale
        assert np.linalg.norm(folded - oracle_solve(p, self.T)) <= 1e-4 * np.linalg.norm(p.u0)

    def test_one_entry_off_stays_unfolded(self, beta_kernel, monkeypatch, caplog):
        p = self.instance("S-one-entry-off")
        spans = ev._spans(p.schedule, self.T)
        assert ev._mirror_symmetry(spans) is None
        plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, p.schedule.normL)
        out, counts = counted_apply(p, plan, self.T, caplog)
        with monkeypatch.context() as m:
            m.setattr(ev, "_mirror_symmetry", lambda spans: None)
            unfolded, unfolded_counts = counted_apply(p, plan, self.T, caplog)
        assert counts == unfolded_counts
        assert out.tobytes() == unfolded.tobytes()


class TestFoldCoverage:
    # eigendecompositions of each builder default at eps 1e-4, T = 1/4: the
    # shared blocks decompose once per block; lindblad's 2x2 block (P = I)
    # once per |k| of the mirrored plan; mm1, mmc (P = I) and cap (P = S)
    # once per node of the Chebyshev proxy on the k > 0 half. A change that
    # drops a fold changes its count: the unfolded proxy spans [-K, K]; so
    # does one that drops the proxy's centring of L's spectrum (90, 90, 80).
    @pytest.mark.parametrize("name, decompositions", [
        ("parabolic1d", 1), ("mm1", 58), ("mmc", 58), ("cap", 53), ("lindblad", 2090),
        ("blackhole", 2),
    ])
    def test_builder_defaults_keep_their_folds(self, name, decompositions, beta_kernel, caplog):
        p = build_problem(name, {})
        plan = plan_from_accuracy(beta_kernel, 1e-4, 0.25, p.meta["normL"])
        assert logged_counts(p, plan, 0.25, caplog)["decompositions"] == decompositions


def logged_bound(message):
    """The bound= field that ends a debug record."""
    return float(re.search(r" bound=(\S+)$", message).group(1))


class TestChebyshevProxy:
    """A per-term block sums k -> U(k, T) v over the Chebyshev points of
    [min k, max k] with barycentric weights, at the smallest degree whose
    certified interpolation error is at most _PROXY_TOL sum |w| ||u0||. The
    reference is the direct sum over the plan's own terms, with the proxy
    declined."""

    T = 0.25

    @staticmethod
    def case(name, beta_kernel):
        """(instance, plan, T) for one case; a suffix -T1 or -T4 sets T."""
        name, _, horizon = name.partition("-T")
        T = float(horizon) if horizon else TestChebyshevProxy.T
        if name.startswith("cap"):
            p = TestChiralFold.instance(name[4:])
            if name == "cap-real-u0":
                u0 = np.random.default_rng(29).standard_normal(p.dim)
                p = dataclasses.replace(p, u0=u0 / np.linalg.norm(u0))
        elif name in ("mm1", "mmc", "two-span"):  # complex u0
            p = TestMirrorFold.instance(name, True)[0]
        else:  # mc-<builder>: a Monte Carlo plan, not mirrored
            return build_problem(name[3:], {}), mc_plan(beta_kernel, 44.25, 3_000, 2), T
        return p, plan_from_accuracy(beta_kernel, 1e-4, T, p.schedule.normL), T

    @staticmethod
    def proxy_and_direct(p, plan, T, weigh, monkeypatch, caplog):
        """The weighted sum over the proxy with its debug record, and the
        direct sum over the plan's own terms."""
        caplog.set_level(logging.DEBUG, logger="lchs.evolve")
        caplog.clear()
        proxy = ev._PreparedSum(p, T).sum(plan, weigh)
        (record,) = caplog.records
        with monkeypatch.context() as m:
            decline_proxy(m)
            direct = ev._PreparedSum(p, T).sum(plan, weigh)
        return proxy, direct, record.getMessage()

    @pytest.mark.parametrize("name, terms, weights", [
        ("cap-real-u0", 2, "c"), ("cap-complex-u0", 2, "c"), ("cap-three-slices", 2, "c"),
        ("mm1", 2, "c"), ("mm1-T4", 2, "c"), ("two-span", 2, "c"), ("mc-mm1", 1, "c"),
        ("mc-cap", 1, "c"), ("cap-complex-u0", 2, "residual"), ("mm1", 2, "residual"),
        ("two-span", 2, "residual"), ("mc-cap", 1, "residual"), ("mmc", 2, "c"),
        ("cap-complex-u0-T1", 2, "c"), ("cap-real-u0-T1", 2, "c"), ("mm1-T1", 2, "c"),
        ("mmc-T1", 2, "c"), ("mc-mmc", 1, "c"), ("mc-mm1-T1", 1, "c"), ("mc-mmc-T1", 1, "c"),
    ])
    def test_matches_the_direct_sum(self, name, terms, weights, beta_kernel, monkeypatch, caplog):
        # terms: 2 when the plan folds onto its k > 0 half, 1 for a Monte
        # Carlo plan, which does not; weights c, or c (1 - ik) of the
        # residual check
        p, plan, T = self.case(name, beta_kernel)
        weigh = (lambda plan: plan.c) if weights == "c" else (lambda plan: plan.c * (1 - 1j * plan.k))
        proxy, direct, message = self.proxy_and_direct(p, plan, T, weigh, monkeypatch, caplog)
        counts = {key: int(value) for key, value in re.findall(r"(\w+)=(\d+)", message)}
        spans = len(ev._spans(p.schedule, T))
        assert counts["decompositions"] < plan.size // terms * spans
        assert counts["decompositions"] % spans == 0
        assert 0 < logged_bound(message) <= ev._PROXY_TOL
        scale = np.abs(weigh(plan)).sum() * np.linalg.norm(p.u0)
        assert np.linalg.norm(proxy - direct) <= 1e-13 * scale

    def test_unfolded_cap_at_t1_is_within_the_node_roundoff(self, beta_kernel, monkeypatch, caplog):
        # dstevd propagates cap at T = 1 to within about 3e-13 of expm per
        # node (1.2e-12 at most); the 166 nodes of this unfolded Monte Carlo
        # plan average those errors less than its 3,000 terms do, so here the
        # proxy lies 1.5e-13 from the direct sum, above the 1e-13 of the
        # other cases, while the interpolation itself is certified to 9.4e-16
        p, plan, T = self.case("mc-cap-T1", beta_kernel)
        proxy, direct, message = self.proxy_and_direct(
            p, plan, T, lambda plan: plan.c, monkeypatch, caplog
        )
        assert 0 < logged_bound(message) <= ev._PROXY_TOL
        scale = np.abs(plan.c).sum() * np.linalg.norm(p.u0)
        assert np.linalg.norm(proxy - direct) <= 2e-13 * scale

    def test_small_plan_keeps_the_direct_bytes(self, beta_kernel, monkeypatch, caplog):
        # 32 k > 0 terms, fewer than the proxy's 43 nodes on cap
        p = build_problem("cap", {})
        plan = composite_plan(beta_kernel, 44.25, 4, 8)
        out, counts = counted_apply(p, plan, self.T, caplog)
        assert counts["decompositions"] == plan.size // 2
        assert logged_bound(caplog.records[0].getMessage()) == 0
        decline_proxy(monkeypatch)
        assert lchs_apply(p, plan, self.T).tobytes() == out.tobytes()

    def test_proxy_needs_fewer_terms(self):
        # d + 1 nodes replace the terms only when there are more of them
        growth = 2.0
        degree = ev._chebyshev_degree(growth * 4.0, ev._PROXY_TOL, 400)
        weights = np.ones(degree + 2, dtype=complex)
        few = np.linspace(1.0, 9.0, degree + 1)
        assert ev._chebyshev_proxy(few, (weights[:-1],), growth, 0.0) is None
        more = np.linspace(1.0, 9.0, degree + 2)
        nodes, (mapped,), bound = ev._chebyshev_proxy(more, (weights,), growth, 0.0)
        assert len(nodes) == len(mapped) == degree + 1
        assert bound == ev._chebyshev_bound(degree, growth * 4.0) <= ev._PROXY_TOL

    def test_record_counts_the_proxy_nodes(self, beta_kernel, caplog):
        for name, nodes, chunks, bound in (("cap", 53, 2, "2.38e-16"), ("mm1", 58, 1, "4.38e-16")):
            p = build_problem(name, {})
            plan = plan_from_accuracy(beta_kernel, 1e-4, self.T, p.meta["normL"])
            logged_path(p, plan, self.T, caplog)
            assert caplog.records[0].getMessage() == (
                f"weighted unitary sum: path=tridiagonal terms={plan.size} "
                f"decompositions={nodes} chunks={chunks} steps=1 blocks=1 "
                f"[{p.dim}:tridiagonal] bound={bound}"
            )

    @pytest.mark.parametrize("spread", [0.0, 0.3, 5.0, 40.0, 300.0])
    @pytest.mark.parametrize("tol", [1e-6, 1e-15])
    def test_degree_matches_a_scan_over_rho(self, spread, tol):
        # the certificate on a fine grid of s = log rho in (0, 64]
        s = np.linspace(0.0, ev._LOG_RHO_MAX, 2_000_001)[1:]
        base = math.log(4.0) + spread * np.sinh(s) - np.log(np.expm1(s))

        def scanned(degree):
            return float(np.exp(np.min(base - degree * s)))

        degree = ev._chebyshev_degree(spread, tol, 10_000)
        assert scanned(degree) <= tol * (1 + 1e-9)
        assert degree == 1 or scanned(degree - 1) > tol
        for d in (degree - 1, degree, degree + 7):
            if d >= 1:
                assert ev._chebyshev_bound(d, spread) == pytest.approx(scanned(d), rel=1e-6)

    @pytest.mark.parametrize("tol", [1e-15, 1e-9, 1e-3])
    def test_degree_is_the_smallest_that_meets_tol(self, tol):
        # on 400 spreads over [0.01, 2000]: the bound at d meets tol, at d - 1 not
        for spread in np.geomspace(0.01, 2000.0, 400):
            degree = ev._chebyshev_degree(spread, tol, 100_000)
            assert ev._chebyshev_bound(degree, spread) <= tol
            assert degree == 1 or ev._chebyshev_bound(degree - 1, spread) > tol

    def test_degree_is_monotone(self):
        spreads = [0.0, 0.1, 1.0, 3.0, 10.0, 31.9, 100.0, 1000.0]
        degrees = [ev._chebyshev_degree(x, ev._PROXY_TOL, 100_000) for x in spreads]
        assert degrees == sorted(degrees) and degrees[-1] > degrees[0]
        tols = [1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-18]
        degrees = [ev._chebyshev_degree(31.9, tol, 100_000) for tol in tols]
        assert degrees == sorted(degrees) and degrees[-1] > degrees[0]
        assert ev._chebyshev_degree(1000.0, ev._PROXY_TOL, 100) is None

    def test_weights_reproduce_polynomials(self):
        # sum_j w_j q(k_j) = sum_m W_m q(x_m) for q of degree at most d
        rng = np.random.default_rng(12)
        ks = rng.uniform(1.0, 9.0, 500)
        weights = (rng.standard_normal(500) + 1j * rng.standard_normal(500), rng.standard_normal(500))
        nodes, mapped, _ = ev._chebyshev_proxy(ks, weights, 0.5, 0.0)
        q = np.polynomial.Chebyshev(rng.standard_normal(len(nodes)), domain=[ks.min(), ks.max()])
        for w, W in zip(weights, mapped):
            assert abs(w @ q(ks) - W @ q(nodes)) <= 1e-13 * np.abs(w).sum() * np.abs(q.coef).sum()

    def test_term_on_a_node_takes_the_delta(self):
        # the ends of the interval are always nodes; an interior term on a
        # node adds its weight to that node alone, with no division by zero
        ks = np.linspace(1.0, 9.0, 300)
        nodes, (before,), _ = ev._chebyshev_proxy(ks, (np.ones(300),), 0.5, 0.0)
        j = len(nodes) // 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (after,), _ = ev._chebyshev_proxy(
                np.append(ks, nodes[j]), (np.append(np.ones(300), 2.5),), 0.5, 0.0
            )
        step = np.zeros(len(nodes))
        step[j] = 2.5
        assert np.all(np.isfinite(after))
        assert np.abs(after - before - step).max() <= 1e-13


class TestCentredCertificate:
    """The proxy interpolates exp(i k sigma) U(k, T) v with sigma the centre
    of L's spectrum integrated over the spans, [lo, hi] =
    _PreparedSum.spectrum, which grows at most like
    exp(|Im k| (hi - lo) / 2) off the real axis: at most half the uncentred
    rate sum dt ||L||, since L >= 0."""

    @staticmethod
    def instance(name):
        """(instance, T): cap, mm1, the two-span batched-eigh pair or a dense
        complex pair on the batched-eigh path."""
        if name in ("cap", "mm1"):
            return build_problem(name, {}), 0.25
        if name == "two-span":
            return TestMirrorFold.instance("two-span", True)[0], 1.0
        return random_gated_instance(np.random.default_rng(17), 5), 1.0

    @pytest.mark.parametrize("name", ["cap", "mm1", "two-span", "dense"])
    def test_phased_propagator_meets_the_centred_growth(self, name):
        p, T = self.instance(name)
        lo, hi = ev._PreparedSum(p, T).spectrum
        centre, rate = 0.5 * (lo + hi), 0.5 * (hi - lo)
        assert lo >= -1e-12 * hi and rate <= 0.5 * hi * (1 + 1e-12)

        def norm(k):
            U = np.eye(p.dim, dtype=complex)
            for L, H, dt in ev._spans(p.schedule, T):
                U = scipy.linalg.expm(-1j * dt * (k * L + H)) @ U
            return np.linalg.norm(U, 2)

        rng = np.random.default_rng(3)
        ks = np.concatenate([rng.uniform(-10, 10, 8) + 1j * rng.uniform(-2, 2, 8), [2j, -2j]])
        for k in ks:
            assert abs(np.exp(1j * k * centre)) * norm(k) <= math.exp(abs(k.imag) * rate) * (1 + 1e-10)
        # without the phase the centred rate fails far enough above the axis
        assert norm(40j / T) > math.exp(40 / T * rate)

    @pytest.mark.parametrize("name", ["parabolic1d", "mm1", "mmc", "cap", "lindblad", "blackhole"])
    @pytest.mark.parametrize("T", [0.25, 1.0])
    def test_centred_degree_is_at_most_the_uncentred(self, name, T, beta_kernel):
        p = build_problem(name, {})
        plan = plan_from_accuracy(beta_kernel, 1e-4, T, p.meta["normL"])
        half = plan.k[plan.size // 2 :]
        h = 0.5 * (half.max() - half.min())
        lo, hi = ev._PreparedSum(p, T).spectrum
        centred = ev._chebyshev_degree(0.5 * (hi - lo) * h, ev._PROXY_TOL, 1_000_000)
        assert centred <= ev._chebyshev_degree(hi * h, ev._PROXY_TOL, 1_000_000)


class TestSharedFold:
    """On the shared-eigenbasis path lam is real, so exp(+i k lam) =
    conj exp(-i k lam) and a mirrored plan is summed over its k > 0 half,
    with exp(-i mu) applied once to V^dagger u0. The reference is the same
    sum with the mirror test declined."""

    @staticmethod
    def instance(case):
        """(instance, T, normL) on the shared path: the default parabolic1d
        (H = 0), a commuting pair with mu != 0 and a complex u0, or two
        commuting spans with different lam and mu."""
        if case == "parabolic1d":
            p = build_problem("parabolic1d", {})
            return p, 1.0 / 256.0, p.meta["normL"]
        rng = np.random.default_rng(17)
        if case == "commuting":
            return commuting_instance(rng, [0.5, 1.0, 1.5, 2.0], [1.0, -0.5, 0.25, 2.0]), 1.0, 2.0
        U = random_unitary(rng, 4)
        pairs = [
            hermitian_split((U * (np.asarray(lam) + 1j * np.asarray(mu))) @ U.conj().T)
            for lam, mu in (([0.5, 1.0, 1.5, 2.0], [1.0, -0.5, 0.25, 2.0]),
                            ([1.2, 0.3, 0.9, 0.6], [-0.7, 0.4, 1.5, 0.1]))
        ]
        u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        schedule = TimeSchedule.piecewise([0.0, 0.4, 1.0], pairs)
        return ProblemInstance(schedule=schedule, u0=u0 / np.linalg.norm(u0)), 1.0, 2.0

    @staticmethod
    def unfolded(monkeypatch, fn, *args):
        with monkeypatch.context() as m:
            m.setattr(ev, "_is_mirrored", lambda ks: False)
            return fn(*args)

    @pytest.mark.parametrize("case", ["parabolic1d", "commuting", "two-spans"])
    def test_folded_matches_unfolded(self, case, beta_kernel, monkeypatch, caplog):
        p, T, normL = self.instance(case)
        plan = plan_from_accuracy(beta_kernel, 1e-4, T, normL)
        assert logged_path(p, plan, T, caplog) == "shared-eigenbasis"
        assert len(ev._spans(p.schedule, T)) == (2 if case == "two-spans" else 1)
        if case != "parabolic1d":
            assert np.any(shared_basis(p, T)[2])  # mu != 0
        folded = lchs_apply(p, plan, T)
        unfolded = self.unfolded(monkeypatch, lchs_apply, p, plan, T)
        assert np.linalg.norm(folded - unfolded) <= 1e-13 * np.linalg.norm(p.u0)
        assert np.linalg.norm(folded - oracle_solve(p, T)) <= 1e-4 * np.linalg.norm(p.u0)

    @pytest.mark.parametrize("case", ["parabolic1d", "two-spans"])
    def test_residual_check_matches_unfolded(self, case, beta_kernel, monkeypatch):
        p, T, normL = self.instance(case)
        plan = plan_from_accuracy(beta_kernel, 1e-4, T, normL)
        folded = residual_lemma_check(p, plan, T)
        unfolded = self.unfolded(monkeypatch, residual_lemma_check, p, plan, T)
        assert abs(folded - unfolded) <= 1e-13 * np.linalg.norm(p.u0)

    def test_monte_carlo_plan_keeps_the_unfolded_bytes(self, beta_kernel):
        # a Monte Carlo plan is not mirrored: one chunk of
        # exp(-i (k lam + mu)) c, summed, then V (. * V^dagger u0)
        p, T, _ = self.instance("commuting")
        plan = mc_plan(beta_kernel, 44.25, 3_000, 5)
        V, lam, mu = shared_basis(p, T)
        terms = np.exp(-1j * (lam[:, None] * plan.k[None, :] + mu[:, None])) * plan.c
        expected = V @ (terms.sum(axis=1) * (V.conj().T @ p.u0))
        assert lchs_apply(p, plan, T).tobytes() == expected.tobytes()

    def test_fold_peaks_no_higher_than_unfolded(self, beta_kernel, monkeypatch):
        # the heat plan: 688 panels of 12 nodes, folded in one chunk at dim 15
        p, T, normL = self.instance("parabolic1d")
        plan = plan_from_accuracy(beta_kernel, 1e-4, T, normL)
        assert plan.meta["M"] <= ev._BATCH_ENTRY_BUDGET // p.dim // plan.meta["Q"]

        def peak(*args):
            lchs_apply(*args)  # warm-up
            tracemalloc.start()
            try:
                lchs_apply(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        unfolded = self.unfolded(monkeypatch, peak, p, plan, T)
        assert peak(p, plan, T) <= unfolded


class TestPanelSum:
    """A composite plan's k > 0 nodes are panel left ends plus node offsets,
    k = left_m + off_q bitwise, so a shared block sums exp(-i k lam) as
    exp(-i left_m lam) exp(-i off_q lam), a chunk of panels at a time. The
    reference is the direct sum over every node, reached by declining the
    mirror test."""

    @staticmethod
    def panel_budget(p, plan, panels):
        """_BATCH_ENTRY_BUDGET for chunks of `panels` panels at p.dim (a
        shared block takes budget // dim terms, budget // dim // Q panels),
        one term short of the next whole panel so the term and panel
        chunkings differ."""
        return p.dim * (plan.meta["Q"] * (panels + 1) - 1)

    @pytest.mark.parametrize("case", ["parabolic1d", "commuting", "two-spans"])
    def test_panels_match_direct_sum_over_several_chunks(self, case, beta_kernel, monkeypatch, caplog):
        p, T, normL = TestSharedFold.instance(case)
        plan = plan_from_accuracy(beta_kernel, 1e-4, T, normL)
        M, Q = plan.meta["M"], plan.meta["Q"]
        panels = -(-M // 4)  # four chunks, the last one short
        monkeypatch.setattr(ev, "_BATCH_ENTRY_BUDGET", self.panel_budget(p, plan, panels))
        counts = logged_counts(p, plan, T, caplog)
        assert counts["chunks"] == -(-M // panels) == 4
        for fn, unwrap in ((lchs_apply, np.asarray), (residual_lemma_check, lambda r: np.array([r]))):
            factored = unwrap(fn(p, plan, T))
            direct = unwrap(TestSharedFold.unfolded(monkeypatch, fn, p, plan, T))
            assert np.linalg.norm(factored - direct) <= 1e-13 * np.linalg.norm(p.u0)

    def test_node_off_the_layout_takes_the_direct_sum(self, beta_kernel, monkeypatch, caplog):
        # one k > 0 node and its mirror moved one ulp: the plan still
        # mirrors, but no panel factors it, so every node is summed directly
        p, T, normL = TestSharedFold.instance("commuting")
        plan = plan_from_accuracy(beta_kernel, 1e-4, T, normL)
        half, j = plan.size // 2, 5 * plan.meta["Q"] + 3
        k = plan.k.copy()
        k[half + j] = np.nextafter(k[half + j], np.inf)
        k[half - 1 - j] = -k[half + j]
        moved = dataclasses.replace(plan, k=k)
        assert ev._is_mirrored(moved.k)
        assert ev._composite_panels(moved) is None
        counts = logged_counts(p, moved, T, caplog)
        assert counts["chunks"] == -(-moved.size // (ev._BATCH_ENTRY_BUDGET // p.dim))
        out = lchs_apply(p, moved, T)
        direct = TestSharedFold.unfolded(monkeypatch, lchs_apply, p, moved, T)
        assert out.tobytes() == direct.tobytes()
        assert np.linalg.norm(out - lchs_apply(p, plan, T)) <= 1e-13 * np.linalg.norm(p.u0)

    def test_phase_overflow_is_not_hidden_by_the_panels(self, beta_kernel):
        # k lam overflows at the last nodes (39.7 x 5e306 > 1.8e308) while
        # left lam and off lam stay finite; the split would hide that
        L = np.diag([5e306, 4e306]).astype(complex)
        H = np.diag([1.0, -1.0]).astype(complex)
        p = ProblemInstance.from_pair(HermitianPair(L=L, H=H), np.ones(2))
        plan = composite_plan(beta_kernel, 40.0, 4, 4)
        left, off = ev._composite_panels(plan)
        with np.errstate(all="ignore"):
            assert np.isfinite(left[-1] * 5e306) and not np.isfinite(plan.k[-1] * 5e306)
            for entry in (lchs_apply, residual_lemma_check):
                with pytest.raises(PropagationError, match="not finite"):
                    entry(p, plan, 1.0)


class TestStreamedReduction:
    # 32,000 entries: at dim 4, chunks of 2,000 terms on a per-term path
    # (budget // dim^2) and of 8,000 on the shared one (budget // dim), so
    # the plans below span several chunks without making the test heavy
    BUDGET = 32_000

    @staticmethod
    def dim4_instance(commuting):
        if commuting:
            return commuting_instance(np.random.default_rng(2), [0.5, 1.0, 1.5, 2.0], [1.0, -0.5, 0.25, 2.0])
        return build_problem("lindblad", {})

    def assert_peak_independent_of_plan_size(self, p, beta_kernel, monkeypatch):
        monkeypatch.setattr(ev, "_BATCH_ENTRY_BUDGET", self.BUDGET)
        plans = [mc_plan(beta_kernel, 44.25, ns, 1) for ns in (8_000, 32_000)]
        lchs_apply(p, plans[0], 0.25)  # warm-up
        peaks = []
        for plan in plans:
            tracemalloc.start()
            try:
                lchs_apply(p, plan, 0.25)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    @pytest.mark.parametrize("commuting", [False, True])
    def test_peak_memory_independent_of_plan_size(self, commuting, beta_kernel, monkeypatch):
        p = self.dim4_instance(commuting)
        self.assert_peak_independent_of_plan_size(p, beta_kernel, monkeypatch)

    @pytest.mark.parametrize("name, T, ns, path, power", [
        ("cap", 0.25, 2_000, "tridiagonal", 2),
        ("parabolic1d", 1.0 / 256.0, 20_000, "shared-eigenbasis", 1),
    ])
    def test_chunk_is_budget_over_what_a_term_holds(
        self, name, T, ns, path, power, beta_kernel, monkeypatch, caplog
    ):
        # a per-term path holds a dim x dim eigenvector matrix per term, the
        # shared eigenbasis dim phases; a Monte Carlo plan is not folded.
        # The per-term chunks are those of the plan's own terms.
        decline_proxy(monkeypatch)
        p = build_problem(name, {})
        plan = mc_plan(beta_kernel, 44.25, ns, 3)
        assert logged_path(p, plan, T, caplog) == path
        chunks = logged_counts(p, plan, T, caplog)["chunks"]
        assert chunks == -(-ns // (ev._BATCH_ENTRY_BUDGET // p.dim**power)) > 1

    def test_peak_memory_independent_of_plan_size_tridiagonal(self, beta_kernel, monkeypatch):
        p = tridiagonal_instance(np.random.default_rng(8), 4)
        assert shared_basis(p) is None
        self.assert_peak_independent_of_plan_size(p, beta_kernel, monkeypatch)

    @pytest.mark.parametrize("name, folded, columns", [("mm1", True, 2), ("cap", True, 2)])
    def test_tridiagonal_peak_is_eigenvectors_plus_buffers(
        self, name, folded, columns, beta_kernel, caplog
    ):
        # O(chunk * dim^2): one chunk's real eigenvector stack, one dstevd
        # call (its V and W for one term, and its LAPACK workspace of
        # 1 + 4 dim + dim^2 doubles and 3 + 5 dim ints) plus a fixed number
        # of (chunk, dim, columns) complex buffers. The propagation that
        # copied its vectors at every step peaked at 3.8 (mm1) and 5.5 (cap,
        # unfolded, one column) such buffers above the eigenvectors; 6 admits
        # both. cap (P = S) always propagates u0 and S conj(u0).
        T = 0.25
        p = build_problem(name, {})
        if name == "mm1":  # a complex u0 propagates u0 and conj(u0)
            rng = np.random.default_rng(5)
            u0 = rng.standard_normal(p.dim) + 1j * rng.standard_normal(p.dim)
            p = dataclasses.replace(p, u0=u0)
        plan = plan_from_accuracy(beta_kernel, 1e-4, T, p.meta["normL"])
        assert logged_path(p, plan, T, caplog) == "tridiagonal"
        chunk = min(plan.size // 2 if folded else plan.size, ev._BATCH_ENTRY_BUDGET // p.dim**2)
        eigenvectors = chunk * p.dim**2 * 8
        dstevd = (p.dim**2 + p.dim) * 8 + (1 + 4 * p.dim + p.dim**2) * 8 + (3 + 5 * p.dim) * 4
        buffer = chunk * p.dim * columns * 16
        tracemalloc.start()
        try:
            lchs_apply(p, plan, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= eigenvectors + dstevd + 6 * buffer

    @pytest.mark.parametrize("commuting", [False, True])
    def test_reduction_matches_fsum(self, commuting, beta_kernel, monkeypatch):
        monkeypatch.setattr(ev, "_BATCH_ENTRY_BUDGET", self.BUDGET)
        p = self.dim4_instance(commuting)
        pair = p.schedule.pairs[0]
        T = 0.25
        plan = mc_plan(beta_kernel, 44.25, 10_000, 4)
        w, V = np.linalg.eigh(plan.k[:, None, None] * pair.L + pair.H)
        amp = np.einsum("nji,j->ni", V.conj(), p.u0) * np.exp(-1j * w * T)
        terms = plan.c[:, None] * np.einsum("nij,nj->ni", V, amp)
        ref = np.array([
            complex(math.fsum(terms[:, i].real), math.fsum(terms[:, i].imag))
            for i in range(p.dim)
        ])
        out = lchs_apply(p, plan, T) * np.exp(-p.shift * T)
        assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("commuting", [False, True])
    def test_chunked_sum_is_bit_stable(self, commuting, beta_kernel, monkeypatch):
        monkeypatch.setattr(ev, "_BATCH_ENTRY_BUDGET", self.BUDGET)
        p = self.dim4_instance(commuting)
        plan = mc_plan(beta_kernel, 44.25, 20_000, 9)
        first = lchs_apply(p, plan, 0.25).tobytes()
        for _ in range(3):
            assert lchs_apply(p, plan, 0.25).tobytes() == first

    def test_stepped_chunks_match_one_chunk(self, beta_kernel, monkeypatch):
        base = random_hermitian(np.random.default_rng(6), 3, scale=1.0)

        def rule(t):
            return HermitianPair(
                L=(1.0 + 0.5 * t) * np.eye(3, dtype=complex), H=np.cos(3.0 * t) * base,
                shift=0.0,
            )

        # six slices of [0, 1], each carrying the rule sampled at its midpoint
        bp = np.linspace(0.0, 1.0, 7)
        sched = TimeSchedule.piecewise(bp, [rule(t) for t in 0.5 * (bp[:-1] + bp[1:])])
        p = ProblemInstance(schedule=sched, u0=np.array([1.0, 0.5j, -0.25]))
        plan = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 1.5)
        whole = lchs_apply(p, plan, 1.0)
        monkeypatch.setattr(ev, "_BATCH_ENTRY_BUDGET", 9 * 500)
        chunked = lchs_apply(p, plan, 1.0)
        assert np.linalg.norm(whole - chunked) <= 1e-14 * np.linalg.norm(whole)


def expm_product(spans, k=None):
    """Reference propagation with scipy: the product of exp(-dt A) over the
    (pair, dt) spans, A = L + iH, or A = i (k L + H) when k is given."""
    import scipy.linalg

    def gen(pair):
        return pair.L + 1j * pair.H if k is None else 1j * (k * pair.L + pair.H)

    out = np.eye(spans[0][0].dim, dtype=complex)
    for pair, dt in spans:
        out = scipy.linalg.expm(-dt * gen(pair)) @ out
    return out


def gated_pairs(seed, n, dim=4):
    rng = np.random.default_rng(seed)
    return [random_gated_instance(rng, dim).schedule.pairs[0] for _ in range(n)]


class TestSpanPropagation:
    """Piecewise schedules are propagated exactly, span by span."""

    @staticmethod
    def two_span_instance():
        # one breakpoint at t = 0.3, away from any midpoint of a uniform grid
        pairs = gated_pairs(41, 2)
        sched = TimeSchedule.piecewise([0.0, 0.3, 1.0], pairs)
        u0 = np.array([1.0, -0.5j, 0.25, 0.75 + 0.5j])
        p = ProblemInstance(schedule=sched, u0=u0)
        normL = max(float(np.max(np.linalg.eigvalsh(q.L))) for q in pairs)
        return p, pairs, normL

    def test_constant_schedule_is_one_span(self):
        pair = gated_pairs(42, 1)[0]
        ((L, H, dt),) = ev._spans(TimeSchedule.constant(pair), 0.3)
        assert L is pair.L and H is pair.H and dt == 0.3
        assert ev._spans(TimeSchedule.constant(pair), 0.0) == []

    def test_two_span_apply_matches_expm_product(self, beta_kernel):
        p, (p1, p2), normL = self.two_span_instance()
        eps = 1e-3
        plan = plan_from_accuracy(beta_kernel, eps, 1.0, normL)
        out = lchs_apply(p, plan, 1.0)
        ref = expm_product([(p1, 0.3), (p2, 0.7)]) @ p.u0
        assert np.linalg.norm(out - ref) <= eps * np.linalg.norm(p.u0)

    def test_two_span_solve_meets_eps_in_two_spans(self, beta_kernel):
        p, _, normL = self.two_span_instance()
        eps = 1e-3
        plan = plan_from_accuracy(beta_kernel, eps, 1.0, normL)
        rep = solve(p, plan, 1.0)
        assert rep.propagator_steps == 2
        assert rep.abs_error <= eps * np.linalg.norm(p.u0)

    def test_cap_time_slices_match_one_slice(self, beta_kernel):
        # cap with time_slices: one pair per slice, both tridiagonal, so the
        # two exact spans go through the tridiagonal path
        T = 0.5
        cp = dict(
            V_R=lambda x, t: 0.0, V_I=absorbing_layer(5.0, 0.7, 0.9), hbar=1.0, N_grid=65
        )
        one = build_cap_schrodinger(**cp, T=T)
        two = build_cap_schrodinger(**cp, T=T, time_slices=2)
        assert len(two.schedule.pairs) == 2
        assert len(ev._spans(two.schedule, T)) == 2
        plan = plan_from_accuracy(beta_kernel, 1e-3, T, one.meta["normL"])
        diff = lchs_apply(two, plan, T) - lchs_apply(one, plan, T)
        assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(one.u0)

    def test_parabolic_time_slices_match_one_slice(self, beta_kernel):
        # constant coefficients: both slices carry the same pair, so two exact
        # spans must reproduce the single constant span to roundoff
        T = 1.0 / 256.0
        pc = dict(
            a=lambda x, t: 1.0, b=lambda x, t: 0.0, c=lambda x, t: 0.0, N_grid=17
        )
        one = build_parabolic_1d(**pc, T=T)
        two = build_parabolic_1d(**pc, T=T, time_slices=2)
        assert len(two.schedule.pairs) == 2
        assert np.array_equal(two.schedule.breakpoints, [0.0, T / 2.0, T])
        plan = plan_from_accuracy(beta_kernel, 1e-3, T, one.meta["normL"])
        rep = solve(two, plan, T)
        assert rep.propagator_steps == 2
        u_one = lchs_apply(one, plan, T)
        assert np.linalg.norm(rep.u_lchs - u_one) <= 1e-12 * np.linalg.norm(one.u0)

    @pytest.mark.parametrize("T, spans", [
        (0.35, ((0, 0.2), (1, 0.15))),                 # T inside the second span
        (1.3, ((0, 0.2), (1, 0.3), (2, 0.8))),         # last pair extends past 0.9
    ])
    def test_clipping(self, T, spans):
        pairs = gated_pairs(43, 3)
        sched = TimeSchedule.piecewise([0.0, 0.2, 0.5, 0.9], pairs)
        u0 = np.array([0.5, 1.0j, -0.25, 1.0])
        p = ProblemInstance(schedule=sched, u0=u0)
        ref_spans = [(pairs[i], dt) for i, dt in spans]
        k = 2.7
        U = propagate(p, k, T)
        ref = expm_product(ref_spans, k) @ u0
        assert np.linalg.norm(U - ref) <= 1e-12 * np.linalg.norm(u0)
        ref = expm_product(ref_spans) @ u0
        assert np.linalg.norm(oracle_solve(p, T) - ref) <= 1e-12 * np.linalg.norm(ref)

class TestTimeSlicing:
    """Midpoint slicing of a time-dependent generator converges at second
    order, and each sliced schedule is still solved to eps."""

    T = 1.0 / 64.0

    def build(self, slices):
        # a(x, t) depends on x and t and b(x, t) != 0, so the slices do not
        # commute and the slicing error is well above roundoff
        w = 2.0 * np.pi / self.T
        pc = dict(
            a=lambda x, t: 1.0 + 0.5 * x * np.sin(w * t),
            b=lambda x, t: 4.0 * np.cos(w * t),
            c=lambda x, t: 0.0,
            N_grid=9,
        )
        x = np.arange(1, 8) / 8.0
        return build_parabolic_1d(**pc, T=self.T, time_slices=slices, u0=x * (1.0 - x) * np.exp(x))

    def test_second_order_slicing_and_lchs_within_eps(self, beta_kernel):
        ref = oracle_solve(self.build(256), self.T)
        eps = 1e-3
        errors = []
        for slices in (2, 4, 8, 16):
            p = self.build(slices)
            assert len(ev._spans(p.schedule, self.T)) == slices
            u_oracle = oracle_solve(p, self.T)
            errors.append(np.linalg.norm(u_oracle - ref) / np.linalg.norm(p.u0))
            plan = plan_from_accuracy(beta_kernel, eps, self.T, p.meta["normL"])
            u_lchs = lchs_apply(p, plan, self.T)
            assert np.linalg.norm(u_lchs - u_oracle) <= eps * np.linalg.norm(p.u0)
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(3.0 <= r <= 5.0 for r in ratios), (errors, ratios)


class TestCertificateFromPairs:
    """dim, shift and lambda0 of an instance are read from its pairs."""

    def test_certificate_not_an_instance_argument(self):
        pair = hermitian_split(np.array([[1.0]], dtype=complex))
        for key, value in (("lambda0", 1.0), ("shift", 0.0), ("dim", 1)):
            with pytest.raises(TypeError):
                ProblemInstance(
                    schedule=TimeSchedule.constant(pair), u0=np.array([1.0 + 0j]), **{key: value}
                )

    def test_negative_pair_fails_gate(self, beta_kernel):
        pair = hermitian_split(np.array([[-0.5 + 0.3j]]))
        p = ProblemInstance.from_pair(pair, np.array([1.0 + 0j]))
        assert p.lambda0 == -0.5
        plan = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 1.0)
        with pytest.raises(PreconditionError):
            lchs_apply(p, plan, 1.0)
        with pytest.raises(PreconditionError):
            solve(p, plan, 1.0)

    @pytest.mark.parametrize("lowest", [0.0, -1e-14])
    def test_semidefinite_passes_gate(self, beta_kernel, lowest):
        # an exact zero mode, and one computed as roundoff below zero: the
        # LCHS identity needs only L >= 0
        pair = HermitianPair(L=np.diag([lowest, 1.0]).astype(complex), H=np.diag([1.0, -1.0]))
        p = ProblemInstance.from_pair(pair, np.array([1.0, 1.0 + 0j]))
        assert p.lambda0 == lowest
        p.require_gate()
        rep = solve(p, plan_from_accuracy(beta_kernel, 1e-4, 1.0, 1.0), 1.0)
        assert rep.abs_error <= 1e-4 * np.linalg.norm(p.u0)

    def test_past_tolerance_fails_gate(self):
        # -1e-11 ||L|| is ten times past the tolerance of the gate
        pair = HermitianPair(L=np.diag([-1e-11, 1.0]).astype(complex), H=np.zeros((2, 2)))
        p = ProblemInstance.from_pair(pair, np.array([1.0, 1.0 + 0j]))
        with pytest.raises(PreconditionError, match="positivity gate violated"):
            p.require_gate()

    def test_shift_read_from_pairs(self, beta_kernel):
        # the instance is given no shift: unwinding and the oracle must both
        # use the 1.0 that shift_pair recorded on the pair
        import scipy.linalg

        rng = np.random.default_rng(31)
        base = random_gated_instance(rng, 4).schedule.pairs[0]
        shifted = shift_pair(base, 1.0)
        u0 = np.array([1.0, -0.5j, 0.25, 0.75 + 0.5j])
        p = ProblemInstance(schedule=TimeSchedule.constant(shifted), u0=u0)
        assert p.shift == 1.0
        T, eps = 1.0, 1e-4
        normL = float(np.max(np.linalg.eigvalsh(shifted.L)))
        rep = solve(p, plan_from_accuracy(beta_kernel, eps, T, normL), T)
        ref = scipy.linalg.expm(-(shifted.L - np.eye(4) + 1j * shifted.H) * T) @ u0
        assert rep.shift_unwound
        assert np.linalg.norm(rep.u_oracle - ref) <= 1e-12 * np.linalg.norm(u0)
        assert np.linalg.norm(rep.u_lchs - ref) <= eps * np.linalg.norm(u0)
