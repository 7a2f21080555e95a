import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from lchs import (
    RangeError,
    composite_plan,
    gauss_legendre,
    lchs_apply,
    mc_plan,
    mc_size_from_accuracy,
    plan_from_accuracy,
    weight_g,
)
from lchs.harness import build_problem
from lchs.kernels import make_kernel
from lchs.sampling import (
    GENERATOR_ID,
    NS_MAX,
    Q_MAX,
    SamplingPlan,
    _composite_nodes,
    _composite_panels,
    _mc_terms,
    quadrature_order,
)


def composite_plan_reference(kernel, K, M, Q):
    """Coefficients w * g(k) with g evaluated at every node."""
    k, w = _composite_nodes(K, M, Q)
    return w * np.asarray(weight_g(kernel, k), dtype=complex)


class TestGaussLegendre:
    def test_midpoint_rule(self):
        x, w = gauss_legendre(1)
        assert abs(x[0]) <= 1e-15
        assert w[0] == pytest.approx(2.0, abs=1e-15)

    def test_two_nodes(self):
        x, w = gauss_legendre(2)
        assert np.allclose(x, [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)], atol=1e-15)
        assert np.allclose(w, [1.0, 1.0], atol=1e-15)

    def test_three_nodes(self):
        x, w = gauss_legendre(3)
        assert np.allclose(x, [-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)], atol=1e-15)
        assert np.allclose(w, [5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0], atol=1e-15)

    @pytest.mark.parametrize("Q", list(range(1, 21)))
    def test_polynomial_exactness(self, Q):
        x, w = gauss_legendre(Q)
        assert abs(np.sum(w) - 2.0) <= 1e-14
        for p in range(2 * Q):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            assert abs(np.dot(w, x**p) - exact) <= 1e-13

    @pytest.mark.parametrize("Q", [4, 9, 17, 33, 64])
    def test_matches_reference_implementation(self, Q):
        # Golub-Welsch: nodes are the eigenvalues of the Jacobi matrix of the
        # Legendre recurrence, weights 2 v_0^2 from its eigenvectors
        n = np.arange(1, Q)
        xr, V = scipy.linalg.eigh_tridiagonal(np.zeros(Q), n / np.sqrt(4.0 * n * n - 1.0))
        wr = 2.0 * V[0] ** 2
        x, w = gauss_legendre(Q)
        assert np.max(np.abs(x - xr)) <= 1e-14
        assert np.max(np.abs(w - wr)) <= 1e-14

    def test_range_errors(self):
        for bad in (0, -1, 65):
            with pytest.raises(RangeError):
                gauss_legendre(bad)

    def test_rule_is_memoized_and_read_only(self, monkeypatch, beta_kernel):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def spy(Q):
            calls.append(Q)
            return leggauss(Q)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
        gauss_legendre.cache_clear()
        first = composite_plan(beta_kernel, 44.25, 174, 7)
        x, w = gauss_legendre(7)
        second = composite_plan(beta_kernel, 44.25, 174, 7)
        assert calls == [7]
        assert np.array_equal(x, leggauss(7)[0]) and np.array_equal(w, leggauss(7)[1])
        assert first.k.tobytes() == second.k.tobytes() and first.c.tobytes() == second.c.tobytes()
        for a in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_range_error_raises_on_every_call(self):
        gauss_legendre.cache_clear()
        for _ in range(2):
            with pytest.raises(RangeError, match="Q must lie in"):
                gauss_legendre(Q_MAX + 1)
        assert gauss_legendre.cache_info().currsize == 0


class TestCompositePlan:
    def test_single_node_midpoints(self, cauchy_kernel):
        plan = composite_plan(cauchy_kernel, 1.0, 1, 1)
        assert plan.size == 2
        assert np.allclose(plan.k, [-0.5, 0.5])
        # weight h = 1 on each subinterval, coefficient = g(+-1/2)
        expected = 1.0 / (np.pi * 1.25)
        assert np.allclose(plan.c, [expected, expected], rtol=1e-14)

    def test_sum_matches_adaptive_quadrature(self, beta_kernel):
        plan = composite_plan(beta_kernel, 5.0, 16, 8)
        re, _ = scipy.integrate.quad(
            lambda k: weight_g(beta_kernel, k).real, -5.0, 5.0, limit=400
        )
        im, _ = scipy.integrate.quad(
            lambda k: weight_g(beta_kernel, k).imag, -5.0, 5.0, limit=400
        )
        assert abs(np.sum(plan.c) - (re + 1j * im)) <= 1e-8

    def test_sum_near_one_minus_tail(self, cauchy_kernel):
        from lchs import choose_truncation

        K = choose_truncation(cauchy_kernel, 1e-2).K
        M = int(np.ceil(K * np.e))
        plan = composite_plan(cauchy_kernel, K, M, 10)
        s = np.sum(plan.c).real
        assert 1.0 - 2e-2 <= s <= 1.0 + 1e-12

    def test_riemann_consistency(self, cauchy_kernel):
        # Q = 1 composite rule is the midpoint rule: O(1/M^2) error
        exact = (2.0 / np.pi) * np.arctan(4.0)
        errs = []
        for M in (8, 16, 32, 64):
            plan = composite_plan(cauchy_kernel, 4.0, M, 1)
            errs.append(abs(np.sum(plan.c).real - exact))
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= e1 / 2.0

    def test_ascending_order(self, beta_kernel):
        plan = composite_plan(beta_kernel, 3.0, 5, 4)
        assert np.all(np.diff(plan.k) > 0)
        assert np.max(np.abs(plan.k)) <= 3.0

    @pytest.mark.parametrize("Q", [1, 4, 7, 12])
    @pytest.mark.parametrize("K, M", [(1.0, 1), (63.81, 261), (44.25, 174)])
    def test_nodes_and_weights_mirror_exactly(self, K, M, Q):
        # evolve folds +-k pairs of a real generator only on a bitwise mirror
        k, w = _composite_nodes(K, M, Q)
        assert np.array_equal(k, -k[::-1])
        assert np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("family", ["cauchy", "beta"])
    def test_coefficients_mirror_from_half_the_weights(self, family, monkeypatch):
        # g(-k) = conj g(k), so g is evaluated on the k > 0 half only
        import lchs.sampling as sampling

        seen = []

        def spy(spec, k):
            seen.append(len(k))
            return weight_g(spec, k)

        monkeypatch.setattr(sampling, "weight_g", spy)
        kernel = make_kernel(family)
        plan = composite_plan(kernel, 44.25, 174, 7)
        assert seen == [plan.size // 2]
        assert np.array_equal(plan.c, plan.c[::-1].conj())
        assert np.array_equal(plan.c, composite_plan_reference(kernel, 44.25, 174, 7))

    def test_independent_constructions_byte_identical(self, beta_kernel):
        a = composite_plan(beta_kernel, 6.0, 9, 4)
        b = composite_plan(beta_kernel, 6.0, 9, 4)
        assert np.array_equal(a.k, b.k)
        assert np.array_equal(a.c, b.c)
        assert a.meta == b.meta

    @pytest.mark.parametrize("Q", [1, 4, 12])
    @pytest.mark.parametrize("K, M", [(1.0, 1), (63.81, 261), (44.25, 1500)])
    def test_panels_factor_the_positive_half_exactly(self, beta_kernel, K, M, Q):
        # evolve sums a shared block by panels only on this bitwise layout
        plan = composite_plan(beta_kernel, K, M, Q)
        left, off = _composite_panels(plan)
        assert len(left) == M and len(off) == Q and left[0] == 0.0
        assert np.array_equal((left[:, None] + off).ravel(), plan.k[plan.size // 2 :])

    def test_panels_of_other_plans_are_none(self, beta_kernel):
        plan = composite_plan(beta_kernel, 44.25, 174, 7)
        half = plan.size // 2
        assert _composite_panels(mc_plan(beta_kernel, 44.25, 2 * half, 1)) is None
        for meta in ({}, {"M": 174}, {"M": 173, "Q": 7}, {"M": 174, "Q": 8}, {"M": 87, "Q": 14}):
            assert _composite_panels(dataclasses.replace(plan, meta=meta)) is None
        # one node one ulp off the layout, in the first panel and in a later one
        for j in (3, 5 * 7 + 2, half - 1):
            k = plan.k.copy()
            k[half + j] = np.nextafter(k[half + j], np.inf)
            assert _composite_panels(dataclasses.replace(plan, k=k)) is None

    @pytest.mark.parametrize("M, Q", [(10**12, 8), (NS_MAX // 16 + 1, 8)])
    def test_oversized_plan_rejected(self, beta_kernel, M, Q):
        # NS_MAX terms at most, the cap Monte Carlo plans have
        with pytest.raises(RangeError, match=f"exceeds {NS_MAX}"):
            composite_plan(beta_kernel, 20.0, M, Q)


class TestPlanFromAccuracy:
    def test_node_budget_ratio(self, beta_kernel):
        n3 = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 1.0).size
        n6 = plan_from_accuracy(beta_kernel, 1e-6, 1.0, 1.0).size
        bound = 2.2 * (np.log(1e6) / np.log(1e3)) ** (1.0 + 1.0 / 0.75)
        assert n6 / n3 <= bound

    def test_doubling_normL_doubles_M(self, beta_kernel):
        m1 = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 2.0).meta["M"]
        m2 = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 4.0).meta["M"]
        assert abs(m2 - 2 * m1) <= 1
        q1 = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 2.0).meta["Q"]
        q2 = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 4.0).meta["Q"]
        assert q1 == q2

    def test_doubling_T_doubles_M(self, beta_kernel):
        m1 = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 2.0).meta["M"]
        m2 = plan_from_accuracy(beta_kernel, 1e-3, 2.0, 2.0).meta["M"]
        assert abs(m2 - 2 * m1) <= 1

    def test_subinterval_cap_resolves_weight(self, beta_kernel):
        # when T ||L|| < 1 the step rule alone would under-resolve g; the
        # plan must still integrate it accurately
        plan = plan_from_accuracy(beta_kernel, 1e-4, 0.01, 0.5)
        assert abs(np.sum(plan.c) - 1.0) <= 1e-4

    def test_quadrature_order_formula(self):
        assert quadrature_order(64.0, 1e-4) == int(np.ceil(np.log2(64.0 / 1e-4) / 2)) + 2

    def test_input_validation(self, beta_kernel):
        with pytest.raises(RangeError):
            plan_from_accuracy(beta_kernel, 2.0, 1.0, 1.0)
        with pytest.raises(RangeError):
            plan_from_accuracy(beta_kernel, 1e-3, -1.0, 1.0)
        with pytest.raises(RangeError):
            plan_from_accuracy(beta_kernel, 1e-3, 1.0, -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_T_or_normL_rejected(self, beta_kernel, bad):
        # NaN used to size a 24-term plan (M = 1), inf to divide by zero
        with pytest.raises(RangeError, match="T must be"):
            plan_from_accuracy(beta_kernel, 1e-3, bad, 1.0)
        with pytest.raises(RangeError, match="normL must be"):
            plan_from_accuracy(beta_kernel, 1e-3, 1.0, bad)

    @pytest.mark.parametrize("T, M", [
        (1e308, "inf"),  # T ||L|| overflows to inf, so h = 0
        (1e7, "3.60852e+09"),  # the subinterval ends alone would take 27 GiB
    ])
    def test_oversized_plan_rejected_before_allocating(self, beta_kernel, T, M):
        tracemalloc.start()
        try:
            with pytest.raises(RangeError, match=re.escape(f"M = {M}, Q = 10, exceeds {NS_MAX}")):
                plan_from_accuracy(beta_kernel, 1e-3, T, 3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_zero_normL_accepted(self, beta_kernel):
        # L = 0 passes the positivity gate unshifted; the step is capped at 1/e
        plan = plan_from_accuracy(beta_kernel, 1e-3, 1.0, 0.0)
        assert plan.meta["M"] == plan_from_accuracy(beta_kernel, 1e-3, 1.0, 1e-3).meta["M"]


class TestMonteCarlo:
    def test_single_term_bound(self, beta_kernel):
        plan = mc_plan(beta_kernel, 7.0, 1, 123)
        assert plan.size == 1
        assert abs(plan.c[0]) <= 2.0 * 7.0

    def test_determinism(self, beta_kernel):
        a = mc_plan(beta_kernel, 10.0, 512, 99)
        b = mc_plan(beta_kernel, 10.0, 512, 99)
        assert np.array_equal(a.k, b.k)
        assert np.array_equal(a.c, b.c)
        assert a.meta == b.meta
        assert a.meta["generator"] == GENERATOR_ID

    def test_different_seeds_differ(self, beta_kernel):
        a = mc_plan(beta_kernel, 10.0, 64, 1)
        b = mc_plan(beta_kernel, 10.0, 64, 2)
        assert not np.array_equal(a.k, b.k)

    def test_unbiased_coefficient_sum(self, beta_kernel):
        K, Ns = 10.0, 500
        sums = np.array(
            [np.sum(mc_plan(beta_kernel, K, Ns, s).c) for s in range(200)]
        )
        re, _ = scipy.integrate.quad(
            lambda k: weight_g(beta_kernel, k).real, -K, K, limit=400
        )
        tol = 3.0 * (2.0 * K / np.sqrt(200.0 * Ns))
        assert abs(sums.mean() - re) <= tol

    def test_variance_bound(self, beta_kernel):
        K, Ns = 8.0, 256
        sums = np.array(
            [np.sum(mc_plan(beta_kernel, K, Ns, s).c) for s in range(120)]
        )
        var = np.mean(np.abs(sums - sums.mean()) ** 2)
        assert var <= (2.0 * K) ** 2 / Ns * 1.5

    def test_uniformity_chi_square(self, beta_kernel):
        # 16-bin chi-square on the abscissae; 99.9% quantile of chi2(15) ~ 37.7
        plan = mc_plan(beta_kernel, 1.0, 16000, 7)
        counts, _ = np.histogram(plan.k, bins=16, range=(-1.0, 1.0))
        expected = 1000.0
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 <= 37.7

    def test_abscissae_in_window(self, beta_kernel):
        plan = mc_plan(beta_kernel, 3.0, 1000, 11)
        assert np.all(np.abs(plan.k) <= 3.0)

    def test_negative_seed_rejected(self, beta_kernel):
        # numpy's Philox raises a bare ValueError for it
        with pytest.raises(RangeError, match="seed must be >= 0, got -1"):
            mc_plan(beta_kernel, 3.0, 8, -1)


class TestMonteCarloTerms:
    """_mc_terms(kernel, K, Ns, seed, start) is the terms [start, Ns) of
    mc_plan(kernel, K, Ns, seed), drawn without drawing the first start."""

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_terms_match_the_full_plan_bitwise(self, seed, beta_kernel):
        full = mc_plan(beta_kernel, 44.25, 1000, seed)
        # every residue of start mod 4: a Philox counter step yields four words
        for start in (0, 1, 2, 3, 4, 5, 6, 7, 500, 997, 998, 999):
            terms = _mc_terms(beta_kernel, 44.25, 1000, seed, start)
            assert terms.k.tobytes() == full.k[start:].tobytes()
            assert terms.c.tobytes() == full.c[start:].tobytes()
            assert terms.K == full.K and terms.method == full.method
            assert terms.meta == ({**full.meta, "start": start} if start else full.meta)

    def test_evaluates_g_on_the_new_terms_only(self, beta_kernel, monkeypatch):
        import lchs.sampling as sampling

        sizes = []
        real = sampling.weight_g
        monkeypatch.setattr(
            sampling, "weight_g", lambda kernel, k: sizes.append(len(k)) or real(kernel, k)
        )
        _mc_terms(beta_kernel, 44.25, 16_000, 1, 8_000)
        assert sizes == [8_000]

    @pytest.mark.parametrize("start", [-1, 1000, 1001])
    def test_start_outside_the_plan_rejected(self, start, beta_kernel):
        expected = re.escape(f"start must lie in [0, Ns) = [0, 1000), got {start}")
        with pytest.raises(RangeError, match=expected):
            _mc_terms(beta_kernel, 44.25, 1000, 3, start)


class TestValidate:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_K_rejected_at_construction(self, beta_kernel, bad):
        with pytest.raises(RangeError, match="K must be positive and finite"):
            composite_plan(beta_kernel, bad, 4, 4)
        with pytest.raises(RangeError, match="K must be positive and finite"):
            mc_plan(beta_kernel, bad, 8, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_abscissa_rejected(self, beta_kernel, bad):
        # NaN compares False against K, so the window check alone lets it in
        plan = mc_plan(beta_kernel, 3.0, 8, 1)
        k = plan.k.copy()
        k[3] = bad
        bad_plan = dataclasses.replace(plan, k=k)
        with pytest.raises(RangeError, match="not finite"):
            bad_plan.validate()
        with pytest.raises(RangeError, match="not finite"):
            lchs_apply(build_problem("blackhole"), bad_plan, 1.0)

    @pytest.mark.parametrize("n_c", [7, 9])
    def test_length_mismatch_rejected(self, beta_kernel, n_c):
        plan = mc_plan(beta_kernel, 3.0, 8, 1)
        c = np.resize(plan.c, n_c)
        with pytest.raises(RangeError, match="8 abscissae but"):
            dataclasses.replace(plan, c=c).validate()


    def test_validate_makes_no_plan_sized_temporary(self):
        # 4M terms: abs(k) and abs(c) as whole arrays would be 32 MB each
        n = 4_000_000
        plan = SamplingPlan(method="gaussian", k=np.linspace(-1.0, 1.0, n),
                            c=np.full(n, 1e-7 + 1e-7j), K=1.0)
        plan.validate()  # warm-up
        tracemalloc.start()
        try:
            plan.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert plan.coefficient_l1() == pytest.approx(n * abs(1e-7 + 1e-7j), rel=1e-12)

    @pytest.mark.parametrize("where", [0, 70_000, -1])
    def test_window_and_summability_checked_everywhere(self, beta_kernel, where):
        plan = mc_plan(beta_kernel, 3.0, 140_000, 1)
        k = plan.k.copy()
        k[where] = 3.0 * (1 + 1e-9) * (-1 if where == 0 else 1)
        with pytest.raises(RangeError, match="outside"):
            dataclasses.replace(plan, k=k).validate()
        c = plan.c.copy()
        c[where] = np.inf
        with pytest.raises(RangeError, match="not absolutely summable"):
            dataclasses.replace(plan, c=c).validate()


class TestMcSize:
    def test_values(self):
        assert mc_size_from_accuracy(0.1, 1.0) == 400
        assert mc_size_from_accuracy(0.1, 10.0) == 40000

    def test_quarter_scaling(self):
        assert mc_size_from_accuracy(0.05, 1.0) == 4 * mc_size_from_accuracy(0.1, 1.0)

    def test_range_error(self):
        with pytest.raises(RangeError):
            mc_size_from_accuracy(1e-4, 100.0)
