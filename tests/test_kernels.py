import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.integrate

import lchs.kernels as kernels
from lchs import (
    QuadratureError,
    RangeError,
    check_normalization,
    choose_truncation,
    make_kernel,
    tail_mass,
    weight_g,
)
from lchs.kernels import K_MAX, KernelSpec, _abs_g_beta, _beta_tail_remainder, kernel_f
from lchs.sampling import composite_plan


class TestEvalKernel:
    """Values of the kernel f on the real axis, through kernel_f."""

    def test_cauchy_at_zero(self, cauchy_kernel):
        assert kernel_f(cauchy_kernel, 0.0) == pytest.approx(1.0 / np.pi, rel=1e-14)

    def test_cauchy_at_one(self, cauchy_kernel):
        # 1/(pi (1 + i)) = (1 - i) / (2 pi)
        val = kernel_f(cauchy_kernel, 1.0)
        assert val == pytest.approx((1.0 - 1j) / (2.0 * np.pi), rel=1e-14)

    def test_beta_half_at_zero(self, beta_half_kernel):
        # closed form exp(sqrt(2)) / (2 pi e), checked against independent
        # arbitrary-precision evaluation
        expected = 0.24083011669508238
        assert kernel_f(beta_half_kernel, 0.0) == pytest.approx(expected, rel=1e-12)


class TestWeightG:
    def test_cauchy_values(self, cauchy_kernel):
        assert weight_g(cauchy_kernel, 0.0) == pytest.approx(1.0 / np.pi, rel=1e-14)
        assert weight_g(cauchy_kernel, 1.0) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)

    def test_cauchy_is_real(self, cauchy_kernel):
        ks = np.linspace(-20, 20, 41)
        g = weight_g(cauchy_kernel, ks)
        assert np.max(np.abs(np.imag(g))) <= 1e-16
        assert np.allclose(np.real(g), 1.0 / (np.pi * (1.0 + ks**2)))

    def test_beta_matches_definition_and_bound(self, beta_half_kernel):
        k = 3.0
        g = weight_g(beta_half_kernel, k)
        f = kernel_f(beta_half_kernel, k)
        assert g == pytest.approx(f / (1.0 - 1j * k), rel=1e-14)
        assert abs(g) <= 1.0 / np.sqrt(1.0 + k * k)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75, 0.9, 0.95])
    def test_beta_real_form_matches_complex_power(self, beta):
        # the reference is the complex power (1 + ik)^b. Both forms lose
        # about r = |1 + ik|^b units of roundoff to the phase r sin(b atan k),
        # so the bound is 8 eps (1 + r): under 1e-13 while r < 56
        k = np.concatenate([np.linspace(-500.0, 500.0, 20_001), np.geomspace(1e-8, 500.0, 2_000)])
        k = np.concatenate([k, -k[20_001:]])
        ref = np.exp(2.0**beta - (1.0 + 1j * k) ** beta) / (2.0 * np.pi) / (1.0 - 1j * k)
        g = weight_g(make_kernel("beta", beta), k)
        r = np.abs(1.0 + 1j * k) ** beta
        assert np.all(np.abs(g - ref) <= 8 * np.finfo(float).eps * (1.0 + r) * np.abs(ref))

    def test_g_bound_on_grid(self, beta_kernel, cauchy_kernel):
        ks = np.linspace(-50, 50, 501)
        for spec in (beta_kernel, cauchy_kernel):
            g = np.abs(weight_g(spec, ks))
            assert np.all(g <= 1.0 / np.sqrt(1.0 + ks**2) + 1e-15)


class TestNormalization:
    def test_cauchy_residual(self, cauchy_kernel):
        assert check_normalization(cauchy_kernel) <= 1e-12

    @pytest.mark.parametrize("beta", [0.5, 0.75, 0.9])
    def test_beta_residual(self, beta):
        spec = make_kernel("beta", beta)
        assert check_normalization(spec) <= 1e-10

    def test_independent_rule_cross_check(self, beta_kernel):
        # composite Gauss-Legendre (different node family from the adaptive
        # quadrature used at construction) must agree on the integral
        K = choose_truncation(beta_kernel, 1e-12).K
        plan = composite_plan(beta_kernel, K, int(np.ceil(K)), 12)
        total = complex(np.sum(plan.c))
        assert abs(total - 1.0) <= 1e-8


class TestMakeKernel:
    @pytest.mark.parametrize(
        "family, beta",
        [("cauchy", None), ("beta", 0.25), ("beta", 0.5), ("beta", 0.75), ("beta", 0.9)],
    )
    def test_no_quadrature(self, monkeypatch, family, beta):
        # the weight integral is 2 pi f(-i) = 1 by the residue theorem, so
        # construction never integrates
        def refuse(*args, **kwargs):
            raise AssertionError("make_kernel called the quadrature")

        monkeypatch.setattr(kernels, "_gauss_kronrod", refuse)
        spec = make_kernel(family, beta)
        assert (spec.family, spec.beta) == (family, beta)

    @pytest.mark.parametrize("beta", [0.5, 0.75, 2.0])
    def test_cauchy_rejects_a_beta(self, beta):
        # the cauchy family has no exponent, so a beta is an error, not dropped
        for make in (KernelSpec, make_kernel):
            with pytest.raises(RangeError, match=f"cauchy family takes no beta, got {beta}"):
                make("cauchy", beta)

    def test_f_at_pole_of_weight(self):
        # the residue identity rests on f(-i) = 1 / (2 pi) for both families
        from lchs.kernels import _f

        for family, beta in (("cauchy", None), ("beta", 0.3), ("beta", 0.75)):
            assert complex(_f(family, beta, -1j)) == pytest.approx(
                1.0 / (2.0 * np.pi), rel=1e-15
            )


class TestDecay:
    def test_cauchy_linear_decay_bound(self, cauchy_kernel):
        ks = np.logspace(0, 6, 200)
        vals = ks * np.abs(kernel_f(cauchy_kernel, ks))
        assert np.max(vals) <= 1.0 / np.pi + 1e-12

    def test_beta_decay_sup_stabilizes(self, beta_kernel):
        # running sup of |k| |f(k)| over one log grid must stop growing well
        # before the far tail
        grid = np.logspace(0, 6, 600)
        vals = grid * np.abs(kernel_f(beta_kernel, grid))
        running = np.maximum.accumulate(vals)
        assert np.isfinite(running[-1])
        assert running[-1] == running[np.searchsorted(grid, 1e3)]


class TestTruncation:
    def test_cauchy_closed_form_inversion(self, cauchy_kernel):
        t = choose_truncation(cauchy_kernel, 1e-2)
        assert t.K == pytest.approx(63.6567, rel=5e-3)
        assert t.epsilon_tail <= 1e-2

    def test_cauchy_half(self, cauchy_kernel):
        t = choose_truncation(cauchy_kernel, 0.5)
        assert t.K == pytest.approx(1.0, rel=2e-3)

    def test_certificate_holds(self, beta_kernel):
        for eps in (1e-2, 1e-4, 1e-6):
            t = choose_truncation(beta_kernel, eps)
            assert t.epsilon_tail <= eps

    def test_monotone_in_eps(self, beta_kernel, cauchy_kernel):
        eps_grid = [0.3, 0.1, 1e-2, 1e-3, 1e-4]
        for spec in (beta_kernel, cauchy_kernel):
            ks = [choose_truncation(spec, e).K for e in eps_grid]
            assert all(k2 >= k1 for k1, k2 in zip(ks, ks[1:]))

    def test_beta_polylog_growth(self, beta_half_kernel):
        k6 = choose_truncation(beta_half_kernel, 1e-6).K
        k3 = choose_truncation(beta_half_kernel, 1e-3).K
        bound = (np.log(1e6) / np.log(1e3)) ** (1.0 / 0.5) * 1.5
        assert 1.0 <= k6 / k3 <= bound

    def test_cauchy_window_cap(self, cauchy_kernel):
        with pytest.raises(RangeError, match="beta"):
            choose_truncation(cauchy_kernel, 1e-8)

    def test_eps_bounds(self, beta_kernel):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(RangeError):
                choose_truncation(beta_kernel, bad)


def _linear_scan_truncation(spec, eps_tail):
    """Reference: the grid bracket found by scanning K = 2^j upward, then the
    same bisection as choose_truncation."""
    lo = hi = None
    grid = [2.0**j for j in range(-20, 21) if 2.0**j < K_MAX] + [K_MAX]
    for K in grid:
        if tail_mass(spec, K) <= eps_tail:
            hi = K
            break
        lo = K
    if hi is None:
        raise RangeError("window exceeds K_MAX")
    if lo is not None:
        while (hi - lo) / hi > 1e-3:
            mid = 0.5 * (lo + hi)
            if tail_mass(spec, mid) <= eps_tail:
                hi = mid
            else:
                lo = mid
    return hi, tail_mass(spec, hi)


def spy_tail_mass(monkeypatch):
    """Record the K of every tail_mass call that choose_truncation makes."""
    import lchs.kernels as kernels

    calls = []
    tail = kernels.tail_mass
    monkeypatch.setattr(kernels, "tail_mass", lambda s, K: calls.append(K) or tail(s, K))
    return calls


class TestTruncationSearch:
    """The bracketed search against the linear grid scan it replaced."""

    @pytest.mark.parametrize("family, beta", [
        ("cauchy", None), ("beta", 0.25), ("beta", 0.5), ("beta", 0.75), ("beta", 0.9),
    ])
    @pytest.mark.parametrize("eps_tail", [
        0.5, 0.1, 1e-2, 1e-3, 1e-4 / 3, 1e-4, 1e-6, 1e-8, 1e-11, 1.0 - 1e-7,
    ])
    def test_matches_linear_scan(self, family, beta, eps_tail):
        spec = make_kernel(family, beta)
        try:
            expected = _linear_scan_truncation(spec, eps_tail)
        except RangeError:
            with pytest.raises(RangeError, match="beta"):
                choose_truncation(spec, eps_tail)
            return
        t = choose_truncation(spec, eps_tail)
        assert (t.K, t.epsilon_tail) == expected

    def test_smallest_grid_point(self, cauchy_kernel):
        t = choose_truncation(cauchy_kernel, 1.0 - 1e-7)
        assert t.K == 2.0**-20
        assert t.epsilon_tail <= 1.0 - 1e-7

    def test_tail_mass_call_count(self, monkeypatch, beta_kernel):
        calls = spy_tail_mass(monkeypatch)
        choose_truncation.cache_clear()  # an earlier test may have memoized this choice
        choose_truncation(beta_kernel, 1e-4 / 3)
        assert len(calls) <= 16  # 37 with the linear grid scan

    def test_choice_is_memoized(self, monkeypatch, beta_kernel):
        calls = spy_tail_mass(monkeypatch)
        choose_truncation.cache_clear()
        first = choose_truncation(beta_kernel, 1e-4 / 3)
        searched = len(calls)
        assert searched > 0
        # an equal spec built anew hits the same entry
        assert choose_truncation(make_kernel("beta", 0.75), 1e-4 / 3) is first
        assert len(calls) == searched

    def test_range_error_raises_on_every_call(self, monkeypatch, cauchy_kernel):
        calls = spy_tail_mass(monkeypatch)
        for _ in range(2):
            calls.clear()
            with pytest.raises(RangeError, match="beta"):
                choose_truncation(cauchy_kernel, 1e-8)
            assert calls  # searched again, not answered from a cache


class TestTailMass:
    def test_cauchy_closed_form_vs_numeric(self, cauchy_kernel):
        for K in (1.0, 10.0, 100.0):
            closed = tail_mass(cauchy_kernel, K)
            numeric, _ = scipy.integrate.quad(
                lambda k: 1.0 / (np.pi * (1.0 + k * k)), K, np.inf
            )
            assert abs(closed - 2.0 * numeric) <= 1e-10

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75, 0.9, 0.95])
    def test_scalar_integrand_matches_abs_weight(self, beta):
        # the real-form integrand of the tail quadrature, on an array
        spec = make_kernel("beta", beta)
        ks = np.linspace(0.0, 500.0, 4001)
        scalar = _abs_g_beta(ks, beta)
        reference = np.abs(weight_g(spec, ks))
        assert np.all(reference > 0)
        assert np.max(np.abs(scalar - reference) / reference) <= 1e-13

    @pytest.mark.parametrize("eps_tail, K", [
        (1e-3 / 3, 44.25), (1e-4 / 3, 63.8125), (1e-6 / 3, 108.9375),
    ])
    def test_beta_windows_unchanged(self, beta_kernel, eps_tail, K):
        # the windows of the numpy integrand the scalar one replaced
        assert choose_truncation(beta_kernel, eps_tail).K == K

    def test_beta_bound_dominates_numeric(self, beta_kernel):
        for K in (5.0, 20.0, 50.0):
            bound = tail_mass(beta_kernel, K)
            numeric, _ = scipy.integrate.quad(
                lambda k: np.abs(weight_g(beta_kernel, k)), K, K + 400.0, limit=400
            )
            assert bound >= 2.0 * numeric

    @pytest.mark.parametrize("family, beta", [("cauchy", None), ("beta", 0.75)])
    def test_K_must_be_positive(self, family, beta):
        # NaN fails K > 0 too, instead of giving a NaN mass
        spec = make_kernel(family, beta)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(RangeError, match="K must be positive"):
                tail_mass(spec, bad)

    @pytest.mark.parametrize("family, beta", [("cauchy", None), ("beta", 0.75)])
    def test_infinite_K_has_no_tail(self, family, beta):
        # the beta quadrature runs on the empty [inf, inf]
        assert tail_mass(make_kernel(family, beta), math.inf) == 0.0


def quad_tail_mass(spec, K):
    """tail_mass of the beta family with QUADPACK's qags (scipy) in place of
    the package's Gauss-Kronrod routine, at the same tolerances."""
    K_cut = max(4.0 * K, K + 200.0)
    main, _ = scipy.integrate.quad(
        lambda k: _abs_g_beta(k, spec.beta), K, K_cut, limit=400, epsabs=1e-16, epsrel=1e-12
    )
    return 2.0 * main + _beta_tail_remainder(spec, K_cut)


class TestGaussKronrod:
    """The adaptive 7/15-point Gauss-Kronrod routine behind tail_mass and
    check_normalization."""

    def test_rules_exact_on_polynomials(self):
        # Gauss on 7 nodes is exact to degree 13, Kronrod on 15 to degree 22
        x = kernels._GK_NODES
        for degree in range(24):
            exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
            assert abs(kernels._GK_KRONROD @ x**degree - exact) <= 1e-15
            if degree <= 13:
                assert abs(kernels._GK_GAUSS @ x**degree - exact) <= 1e-15

    def test_smooth_integral(self):
        value, err = kernels._gauss_kronrod(np.sin, 0.0, 3.0)
        assert abs(value - (1.0 - np.cos(3.0))) <= 1e-14
        assert err <= 1e-12 * value

    def test_interval_limit_raises(self):
        # about 160,000 periods: 400 subintervals of 15 nodes cannot resolve them
        with pytest.raises(QuadratureError, match="more than 400 subintervals"):
            kernels._gauss_kronrod(lambda x: np.cos(1e3 * x), 0.0, 1e3)

    @pytest.mark.parametrize("beta", [0.25, 0.4, 0.5, 0.6, 0.75, 0.8, 0.9, 0.95])
    def test_windows_match_qags(self, monkeypatch, beta):
        # the same search on a QUADPACK tail mass gives the same K bit for
        # bit, and a tail mass within 1e-11 relative, for eps_tail from
        # 10^-1 / 3 down to 10^-13 / 3
        spec = make_kernel("beta", beta)
        eps_tails = [10.0 ** (-j / 2) / 3.0 for j in range(2, 27)]
        ours = [choose_truncation.__wrapped__(spec, eps) for eps in eps_tails]
        monkeypatch.setattr(kernels, "tail_mass", quad_tail_mass)
        for eps, t in zip(eps_tails, ours):
            ref = choose_truncation.__wrapped__(spec, eps)
            assert t.K == ref.K
            assert abs(t.epsilon_tail - ref.epsilon_tail) <= 1e-11 * ref.epsilon_tail


def test_solve_path_loads_no_quadrature_library():
    # a window, a plan and one weighted sum on cap, in a fresh interpreter
    script = textwrap.dedent("""
        import sys
        import lchs
        from lchs.harness import build_problem
        kernel = lchs.make_kernel("beta", 0.75)
        lchs.choose_truncation(kernel, 1e-4 / 3)
        p = build_problem("cap", {})
        plan = lchs.plan_from_accuracy(kernel, 1e-4, 0.25, p.meta["normL"])
        lchs.lchs_apply(p, plan, 0.25)
        print("scipy.integrate" in sys.modules)
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"]
