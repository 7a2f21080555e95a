import warnings

import numpy as np
import pytest
import scipy.linalg

from lchs import (
    BuildError,
    HermiticityError,
    LindbladSpec,
    RangeError,
    build_blackhole,
    build_cap_schrodinger,
    build_lindblad,
    build_mm1,
    build_mmc,
    build_parabolic_1d,
    lchs_apply,
    oracle_solve,
    plan_from_accuracy,
    solve,
)
from lchs.harness import DEFAULT_PARAMS, build_problem
from lchs.problems import (
    absorbing_layer,
    amplitude_damping_spec,
    gaussian_packet,
    lindblad_superoperator,
    preset_callable,
    queue_generator,
    unvec_density,
    vec_density,
)

one = lambda x, t: 1.0
zero = lambda x, t: 0.0


class TestParabolic:
    def test_heat_stencil_exact(self):
        inst = build_parabolic_1d(a=one, b=zero, c=zero, N_grid=5)
        h = 0.25
        expected = (np.diag([2.0, 2.0, 2.0]) - np.diag([1.0, 1.0], 1)
                    - np.diag([1.0, 1.0], -1)) / h**2
        pair = inst.schedule.pairs[0]
        assert np.array_equal(pair.L.real, expected)
        assert np.max(np.abs(pair.L.imag)) == 0.0
        assert np.max(np.abs(pair.H)) == 0.0
        assert inst.shift == 0.0  # Dirichlet Laplacian is already positive

    def test_heat_eigenvalues_closed_form(self):
        inst = build_parabolic_1d(a=one, b=zero, c=zero, N_grid=17)
        h = 1.0 / 16.0
        w = np.linalg.eigvalsh(inst.schedule.pairs[0].L)
        j = np.arange(1, 16)
        expected = (4.0 / h**2) * np.sin(j * np.pi * h / 2.0) ** 2
        assert np.allclose(np.sort(w), np.sort(expected), rtol=1e-10)

    def test_norm_quadruples_with_grid(self):
        norms = {}
        for N in (17, 33):
            norms[N] = build_parabolic_1d(a=one, b=zero, c=zero, N_grid=N).meta["normL"]
        ratio = norms[33] / norms[17]
        assert 4.0 * 0.9 <= ratio <= 4.0 * 1.1

    def test_advection_reaction_matches_dense_assembly(self):
        # a=1, b=2, c=1: L + iH must reproduce the plain (non-symmetrized)
        # central-difference discretization of -u'' + 2u' + u
        inst = build_parabolic_1d(a=one, b=lambda x, t: 2.0, c=one, N_grid=9)
        pair = inst.schedule.pairs[0]
        A = pair.L + 1j * pair.H
        n = 7
        h = 1.0 / 8.0
        dense = np.zeros((n, n), dtype=complex)
        for r in range(n):
            dense[r, r] = 2.0 / h**2 + 1.0
            if r + 1 < n:
                dense[r, r + 1] = -1.0 / h**2 + 2.0 / (2.0 * h)
            if r - 1 >= 0:
                dense[r, r - 1] = -1.0 / h**2 - 2.0 / (2.0 * h)
        assert np.max(np.abs(A - dense)) <= 1e-12

    def test_variable_coefficients_hermitian(self):
        inst = build_parabolic_1d(
            a=lambda x, t: 1.0 + 0.5 * x,
            b=lambda x, t: np.sin(3 * x),
            c=lambda x, t: x * x,
            N_grid=21,
        )
        pair = inst.schedule.pairs[0]
        assert np.max(np.abs(pair.L - pair.L.conj().T)) <= 1e-12
        assert np.max(np.abs(pair.H - pair.H.conj().T)) <= 1e-12

    def test_ellipticity_violation_names_point(self):
        with pytest.raises(BuildError, match="ellipticity"):
            build_parabolic_1d(a=lambda x, t: 1.0 - 2.0 * x, b=zero, c=zero, N_grid=9)

    def test_time_slices_build_piecewise(self):
        # coefficients sampled at interval midpoints, a single slice included:
        # a = 1.125 on the first of four slices, 1.5 on the only one
        for slices, a_first in ((4, 1.125), (1, 1.5)):
            inst = build_parabolic_1d(
                a=lambda x, t: 1.0 + t, b=zero, c=zero, N_grid=9, T=1.0, time_slices=slices
            )
            assert len(inst.schedule.pairs) == slices
            first = inst.schedule.pairs[0].L[0, 0].real
            assert first == pytest.approx(2 * a_first / (1 / 8) ** 2, rel=1e-12)

    def test_default_u0_is_sine(self):
        inst = build_parabolic_1d(a=one, b=zero, c=zero, N_grid=9)
        x = np.arange(1, 8) / 8.0
        assert np.allclose(inst.u0, np.sin(np.pi * x))


class TestQueues:
    def test_mm1_generator_rows(self):
        Q = queue_generator(1.0, 2.0, 1, 4)
        assert np.array_equal(Q[0], [-3.0, 1.0, 0.0, 0.0])
        assert np.array_equal(Q[1], [2.0, -3.0, 1.0, 0.0])
        assert np.array_equal(Q[3], [0.0, 0.0, 2.0, -3.0])

    def test_interior_rows_conserve(self):
        Q = queue_generator(1.3, 0.7, 1, 10)
        sums = Q.sum(axis=1)
        assert np.max(np.abs(sums[1:-1])) <= 1e-14

    def test_mm1_split_entries(self):
        # A = -Q^T flips the sign of the Hermitian part relative to splitting
        # Q itself and leaves the anti-Hermitian part unchanged
        inst = build_mm1(1.0, 2.0, n_trunc=4)
        pair = inst.schedule.pairs[0]
        L = pair.L - pair.shift * np.eye(4)
        assert np.allclose(np.diagonal(L), 3.0)
        assert np.allclose(np.diagonal(L, 1), -1.5)
        assert np.allclose(np.diagonal(pair.H, 1), 0.5j)
        assert np.allclose(np.diagonal(pair.H, -1), -0.5j)

    def test_mm1_shift_default(self):
        # the Hermitian part is already positive definite: no shift
        inst = build_mm1(1.0, 2.0, n_trunc=16)
        assert inst.lambda0 == pytest.approx(0.05108070094829323, rel=1e-10)
        assert inst.shift == 0.0

    def test_probability_conservation(self):
        inst = build_mm1(1.0, 2.0, n_trunc=64)
        u = oracle_solve(inst, 1.0)
        assert abs(np.sum(u) - 1.0) <= 1e-8

    def test_mmc_reduces_to_mm1(self):
        a = queue_generator(1.0, 2.0, 1, 8)
        b = queue_generator(1.0, 2.0, 1, 8)
        assert np.array_equal(a, b)
        inst1 = build_mm1(1.0, 2.0, n_trunc=8)
        instc = build_mmc(1.0, 2.0, servers=1, n_trunc=8)
        assert np.array_equal(inst1.schedule.pairs[0].L, instc.schedule.pairs[0].L)
        assert np.array_equal(inst1.schedule.pairs[0].H, instc.schedule.pairs[0].H)

    def test_mmc_level_dependent_diagonal(self):
        Q = queue_generator(1.0, 1.0, 2, 4)
        assert np.array_equal(np.diagonal(Q), [-2.0, -3.0, -3.0, -3.0])
        assert Q[1, 0] == 2.0  # two servers active once two customers present
        assert Q[2, 1] == 2.0

    def test_mmc_norm_bound(self):
        lam, mu, servers = 1.0, 1.0, 2
        inst = build_mmc(lam, mu, servers=servers, n_trunc=32)
        normL = inst.meta["normL"]
        assert normL <= 2.0 * (lam + servers * mu)

    def test_servers_validation(self):
        with pytest.raises(RangeError, match="servers must be >= 1"):
            build_mmc(1.0, 1.0, servers=0, n_trunc=8)
        with pytest.raises(RangeError, match="lambda_rate must be positive"):
            queue_generator(-1.0, 1.0, 1, 8)


class TestCap:
    def test_free_particle_unitary_after_unwinding(self, beta_kernel):
        # V_I = 0 gives L = 0, which passes the gate: nothing to unwind
        inst = build_cap_schrodinger(V_R=zero, V_I=lambda x: 0.0, hbar=1.0, N_grid=33)
        assert inst.shift == 0.0
        assert inst.lambda0 == 0.0
        assert inst.meta["normL"] == 0.0
        plan = plan_from_accuracy(beta_kernel, 1e-4, 0.5, inst.meta["normL"])
        rep = solve(inst, plan, 0.5)
        assert not rep.shift_unwound
        assert np.linalg.norm(rep.u_lchs) == pytest.approx(1.0, rel=1e-3)
        assert rep.abs_error <= 1e-4

    def test_gain_rejected(self):
        with pytest.raises(BuildError, match="V_I"):
            build_cap_schrodinger(V_R=zero, V_I=lambda x: 0.1, hbar=1.0, N_grid=17)

    def test_L_norm_is_max_layer_depth(self):
        depth, hbar = 5.0, 0.5
        inst = build_cap_schrodinger(
            V_R=zero, V_I=absorbing_layer(depth, 0.7, 0.9), hbar=hbar, N_grid=201
        )
        nodes = inst.meta["grid"]
        vmax = max(-absorbing_layer(depth, 0.7, 0.9)(x) for x in nodes)
        assert inst.meta["normL"] == pytest.approx(vmax / hbar, rel=1e-12)

    def test_packet_absorption(self, beta_kernel):
        inst = build_cap_schrodinger(
            V_R=zero, V_I=absorbing_layer(5.0, 0.7, 0.9), hbar=1.0, N_grid=65,
            packet={"x0": 0.35, "sigma": 0.05, "p0": 30.0},
        )
        norms_or, norms_lchs = [], []
        for T in (0.008, 0.014, 0.02):
            u_or = oracle_solve(inst, T)
            plan = plan_from_accuracy(beta_kernel, 1e-3, T, inst.meta["normL"])
            u_l = lchs_apply(inst, plan, T)
            norms_or.append(np.linalg.norm(u_or))
            norms_lchs.append(np.linalg.norm(u_l))
        assert norms_or[0] > norms_or[1] > norms_or[2]  # strictly absorbing
        for a, b in zip(norms_or, norms_lchs):
            assert abs(a - b) / a <= 1e-2

    @pytest.mark.parametrize("hbar, packet, name", [
        (float("nan"), None, "hbar"), (float("inf"), None, "hbar"), (0.0, None, "hbar"),
        (1.0, {"sigma": 0.0}, "packet sigma"), (1.0, {"sigma": -0.05}, "packet sigma"),
        (1.0, {"sigma": float("nan")}, "packet sigma"), (1.0, {"sigma": float("inf")}, "packet sigma"),
        (1.0, {"x0": float("nan")}, "packet x0"), (1.0, {"x0": float("inf")}, "packet x0"),
        (1.0, {"p0": float("nan")}, "packet p0"), (1.0, {"p0": -float("inf")}, "packet p0"),
    ], ids=["hbar-nan", "hbar-inf", "hbar-0", "sigma-0", "sigma-negative", "sigma-nan", "sigma-inf",
            "x0-nan", "x0-inf", "p0-nan", "p0-minus-inf"])
    def test_bad_scalar_named_before_evaluation(self, hbar, packet, name):
        # neither potential is evaluated and numpy warns of nothing
        def never(*args):
            raise AssertionError("potential evaluated")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match=f"^{name} must be"):
                build_cap_schrodinger(V_R=never, V_I=never, hbar=hbar, N_grid=17, packet=packet)

    @pytest.mark.parametrize("domain", [
        (0.0, float("inf")), (-float("inf"), 1.0), (-1e308, 1e308), (float("nan"), 1.0),
        (0.0, float("nan")), (1.0, 1.0), (1.0, 0.0),
    ], ids=["hi-inf", "lo-minus-inf", "width-overflows", "lo-nan", "hi-nan", "empty", "reversed"])
    def test_bad_domain_named_before_evaluation(self, domain):
        # with a packet given, an infinite domain reached numpy's invalid-value
        # warning before; it is now a RangeError naming domain, from the
        # builder and through build_problem
        def never(*args):
            raise AssertionError("potential evaluated")

        packet = {"x0": 0.5, "sigma": 0.1}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="^domain must be finite"):
                build_cap_schrodinger(
                    V_R=never, V_I=never, hbar=1.0, N_grid=17, domain=domain, packet=packet
                )
            with pytest.raises(RangeError, match="^domain must be finite"):
                build_problem("cap", {"domain": list(domain), "packet": packet})

    def test_kinetic_sign(self):
        # H must be -(hbar/2) * discrete Laplacian + V_R / hbar
        inst = build_cap_schrodinger(V_R=one, V_I=lambda x: 0.0, hbar=2.0, N_grid=5)
        h = 0.25
        H = inst.schedule.pairs[0].H
        assert H[0, 0] == pytest.approx(2.0 / h**2 + 0.5, rel=1e-12)
        assert H[0, 1] == pytest.approx(-1.0 / h**2, rel=1e-12)


class TestLindblad:
    def test_no_dissipation_identity(self):
        spec = LindbladSpec(H_sys=np.zeros((2, 2)), jump_ops=[])
        S = lindblad_superoperator(spec)
        assert np.max(np.abs(S)) == 0.0
        inst = build_lindblad(spec)
        u = oracle_solve(inst, 1.0)
        assert np.allclose(u, inst.u0, atol=1e-12)

    def test_amplitude_damping_closed_form(self, beta_kernel):
        rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        inst = build_lindblad(amplitude_damping_spec(1.0), rho0=rho0)
        u_or = oracle_solve(inst, 1.0)
        rho_T = unvec_density(u_or, 2)
        assert rho_T[1, 1].real == pytest.approx(np.exp(-1.0), abs=1e-6)
        assert abs(np.trace(rho_T) - 1.0) <= 1e-10
        plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, inst.meta["normL"])
        rho_l = unvec_density(lchs_apply(inst, plan, 1.0), 2)
        assert rho_l[1, 1].real == pytest.approx(np.exp(-1.0), abs=1e-3)

    def test_vectorization_convention(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        R = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = vec_density(X @ R @ Y)
        rhs = np.kron(Y.T, X) @ vec_density(R)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_superoperator_matches_rhs(self):
        rng = np.random.default_rng(8)
        H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H = 0.5 * (H + H.conj().T)
        Lj = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        spec = LindbladSpec(H_sys=H, jump_ops=[Lj])
        S = lindblad_superoperator(spec)
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = rho @ rho.conj().T
        rhs = (
            -1j * (H @ rho - rho @ H)
            + Lj @ rho @ Lj.conj().T
            - 0.5 * (Lj.conj().T @ Lj @ rho + rho @ Lj.conj().T @ Lj)
        )
        assert np.allclose(S @ vec_density(rho), vec_density(rhs), atol=1e-12)

    def test_trace_and_positivity_random(self):
        rng = np.random.default_rng(13)
        for n in (2, 3):
            for _ in range(4):
                H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                H = 0.5 * (H + H.conj().T)
                jumps = [
                    rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(rng.integers(1, 3))
                ]
                W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                rho0 = W @ W.conj().T
                rho0 /= np.trace(rho0).real
                inst = build_lindblad(LindbladSpec(H_sys=H, jump_ops=jumps), rho0=rho0)
                rho_T = unvec_density(oracle_solve(inst, 0.7), n)
                assert abs(np.trace(rho_T) - 1.0) <= 1e-9
                assert np.min(np.linalg.eigvalsh(0.5 * (rho_T + rho_T.conj().T))) >= -1e-9

    def test_L_norm_bound_single_jump(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            Lj = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            spec = LindbladSpec(H_sys=np.zeros((2, 2)), jump_ops=[Lj])
            inst = build_lindblad(spec)
            assert inst.meta["normL"] <= 2.0 * np.linalg.norm(Lj, 2) ** 2 + 1e-9

    def test_hermiticity_enforced(self):
        with pytest.raises(HermiticityError):
            LindbladSpec(H_sys=np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestBlackhole:
    def test_norm_decay_exact(self):
        H = np.diag([1.0, -1.0])
        inst = build_blackhole(H, 0.5)
        u = oracle_solve(inst, 1.0)
        assert np.linalg.norm(u) == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert inst.lambda0 == pytest.approx(0.5, abs=1e-14)
        assert inst.shift == 0.0

    def test_closed_form_componentwise(self, beta_kernel):
        H = np.diag([1.0, -1.0])
        inst = build_blackhole(H, 0.5)
        plan = plan_from_accuracy(beta_kernel, 1e-5, 1.0, 0.5)
        u = lchs_apply(inst, plan, 1.0)
        expected = np.exp(-0.5) * scipy.linalg.expm(-1j * H) @ inst.u0
        assert np.max(np.abs(u - expected) / np.abs(expected)) <= 1e-4

    def test_large_gamma_stresses_step_rule(self, beta_kernel):
        # the estimate's error budget is absolute, so a relative target must
        # be scaled by the decay ||u(T)|| / ||u0|| = exp(-gamma T)
        rng = np.random.default_rng(2)
        H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = 0.5 * (H + H.conj().T)
        gamma, T = 10.0, 1.0
        inst = build_blackhole(H, gamma)
        plan = plan_from_accuracy(beta_kernel, 1e-3 * np.exp(-gamma * T), T, gamma)
        rep = solve(inst, plan, T)
        assert rep.rel_error <= 1e-3

    def test_validation(self):
        with pytest.raises(BuildError):
            build_blackhole(np.eye(2), 0.0)
        with pytest.raises(HermiticityError):
            build_blackhole(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestHelpers:
    def test_presets(self):
        assert preset_callable(2.5)(0.3, 0.0) == 2.5
        assert preset_callable({"kind": "constant", "value": -1.0})(0.1, 0.0) == -1.0
        poly = preset_callable({"kind": "polynomial", "coeffs": [1.0, 0.0, 2.0]})
        assert poly(3.0, 0.0) == pytest.approx(19.0)
        gauss = preset_callable(
            {"kind": "gaussian", "amplitude": 2.0, "center": 0.5, "width": 0.1}
        )
        assert gauss(0.5, 0.0) == pytest.approx(2.0)
        with pytest.raises(BuildError):
            preset_callable({"kind": "mystery"})

    def test_absorbing_layer_support(self):
        v = absorbing_layer(3.0, 0.6, 0.8)
        assert v(0.5) == 0.0
        assert v(0.85) == 0.0
        assert v(0.7) == pytest.approx(-3.0)
        assert v(0.65) < 0.0

    def test_gaussian_packet_normalized(self):
        x = np.linspace(0, 1, 101)
        psi = gaussian_packet(x, 0.4, 0.05, 20.0, 1.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_default_instances_gated(self):
        for name in DEFAULT_PARAMS:
            inst = build_problem(name, {})
            inst.require_gate()
            assert np.linalg.norm(inst.u0) > 0
            assert inst.meta["normL"] > 0

    def test_only_lindblad_shifts(self):
        # the deficit of amplitude damping at gamma = 1 is (sqrt(2) - 1) / 2
        for name in DEFAULT_PARAMS:
            expected = (np.sqrt(2.0) - 1.0) / 2.0 if name == "lindblad" else 0.0
            assert build_problem(name).shift == pytest.approx(expected, abs=1e-12), name
        assert build_problem("cap").lambda0 == 0.0


class TestResidualAcrossBuilders:
    def test_residual_decreases_for_every_builder(self, beta_kernel):
        # the truncated oscillatory integral wobbles pointwise with K, so the
        # cross-builder check asserts overall decrease across the refinement
        # ladder rather than per-step monotonicity
        from lchs import residual_lemma_check
        from lchs.problems import (
            build_blackhole,
            build_cap_schrodinger,
            build_lindblad,
            build_mm1,
            build_parabolic_1d,
            absorbing_layer,
            amplitude_damping_spec,
        )

        small = {
            "parabolic1d": build_parabolic_1d(a=one, b=zero, c=zero, N_grid=5),
            "mm1": build_mm1(1.0, 2.0, n_trunc=8),
            "cap": build_cap_schrodinger(
                V_R=zero, V_I=absorbing_layer(5.0, 0.7, 0.9), hbar=1.0, N_grid=17
            ),
            "lindblad": build_lindblad(amplitude_damping_spec(1.0)),
            "blackhole": build_blackhole(np.diag([1.0, -1.0]), 0.5),
        }
        T = 0.5
        for name, inst in small.items():
            residuals = []
            for eps in (1e-1, 1e-3, 1e-5):
                plan = plan_from_accuracy(beta_kernel, eps, T, inst.meta["normL"])
                residuals.append(residual_lemma_check(inst, plan, T))
            assert residuals[-1] < residuals[0], (name, residuals)
            assert residuals[-1] <= 1e-3, (name, residuals)
