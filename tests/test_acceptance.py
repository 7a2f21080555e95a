"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`."""

import numpy as np
import scipy.linalg

from lchs import (
    ProblemInstance,
    build_mm1,
    build_mmc,
    build_parabolic_1d,
    check_normalization,
    choose_truncation,
    gauss_legendre,
    hermitian_split,
    lchs_apply,
    make_kernel,
    mc_plan,
    oracle_solve,
    plan_from_accuracy,
    residual_lemma_check,
    solve,
)
from lchs.harness import DEFAULT_PARAMS, RunConfig, build_problem, fit_scaling, run_convergence
from lchs.linalg import shift_pair
from lchs.problems import amplitude_damping_spec, build_lindblad, unvec_density

from conftest import random_unitary


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


one = lambda x, t: 1.0
zero = lambda x, t: 0.0


def scalar_instance():
    pair = hermitian_split(np.array([[1.0]]))
    return ProblemInstance.from_pair(pair, np.array([1.0 + 0j]), label="scalar")


def test_01_identity_reproduction(beta_kernel):
    """T = 0 must reproduce the initial vector for every builder default."""
    worst = 0.0
    for name in DEFAULT_PARAMS:
        inst = build_problem(name, {})
        plan = plan_from_accuracy(beta_kernel, 1e-4, 0.0, inst.meta["normL"])
        u = lchs_apply(inst, plan, 0.0)
        rel = np.linalg.norm(u - inst.u0) / np.linalg.norm(inst.u0)
        worst = max(worst, rel)
    report(1, worst <= 3e-4, f"identity reproduction worst rel_error {worst:.3e} <= 3e-4")


def test_02_scalar_decay(beta_kernel):
    p = scalar_instance()
    plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, 1.0)
    rep = solve(p, plan, 1.0)
    err = abs(rep.u_lchs[0] - np.exp(-1.0))
    report(2, err <= 1e-3, f"|u - exp(-1)| = {err:.3e} <= 1e-3 (N = {rep.plan_size})")


def test_03_blackhole_closed_form(beta_kernel):
    p = build_problem("blackhole", {})
    H = np.diag([1.0, -1.0])
    plan = plan_from_accuracy(beta_kernel, 1e-5, 1.0, p.meta["normL"])
    u = lchs_apply(p, plan, 1.0)
    expected = np.exp(-0.5) * (scipy.linalg.expm(-1j * H) @ p.u0)
    err = float(np.max(np.abs(u - expected) / np.abs(expected)))
    report(3, err <= 1e-4, f"componentwise relative error {err:.3e} <= 1e-4")


def test_04_oracle_equivalence_sweep(beta_kernel):
    rng = np.random.default_rng(2024)
    errs = []
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        U = random_unitary(rng, dim)
        lam = rng.uniform(0.2, 1.2, dim)
        L = (U * lam) @ U.conj().T
        W = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Hh = 0.5 * (W + W.conj().T)
        Hh *= rng.uniform(0.2, 2.0) / max(np.abs(np.linalg.eigvalsh(Hh)).max(), 1e-12)
        pair = hermitian_split(L + 1j * Hh)
        assert pair.lambda0 >= 0.2 - 1e-9
        assert np.linalg.norm(L + 1j * Hh, 2) <= 5.0
        u0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        u0 /= np.linalg.norm(u0)
        T = rng.uniform(0.25, 2.0)
        inst = ProblemInstance.from_pair(pair, u0)
        normL = float(np.max(np.abs(np.linalg.eigvalsh(pair.L))))
        plan = plan_from_accuracy(beta_kernel, 1e-3, T, normL)
        errs.append(solve(inst, plan, T).rel_error)
    errs = np.array(errs)
    n_tight = int((errs <= 1e-3).sum())
    ok = n_tight >= 95 and bool((errs <= 3e-3).all())
    report(4, ok, f"{n_tight}/100 within 1e-3, max {errs.max():.3e} <= 3e-3")


def test_05_gaussian_node_scaling(beta_kernel):
    inst = build_parabolic_1d(a=one, b=zero, c=zero, N_grid=9)
    normL = inst.meta["normL"]
    # doubling the norm must double the subinterval count (ceil rounding)
    m1 = plan_from_accuracy(beta_kernel, 1e-2, 1.0, normL).meta["M"]
    m2 = plan_from_accuracy(beta_kernel, 1e-2, 1.0, 2.0 * normL).meta["M"]
    ok_m = abs(m2 - 2 * m1) <= 1
    # grid route realizing the doubling: N_grid x sqrt(2) (rounded) doubles
    # the discretized norm, 1/h^2 scaling
    coarse = build_parabolic_1d(a=one, b=zero, c=zero, N_grid=33).meta["normL"]
    fine = build_parabolic_1d(
        a=one, b=zero, c=zero, N_grid=round(33 * np.sqrt(2.0))
    ).meta["normL"]
    ratio = fine / coarse
    ok_grid = 1.8 <= ratio <= 2.2
    # node count proportional to T
    Ts = [0.25, 0.5, 1.0, 2.0]
    Ns = [plan_from_accuracy(beta_kernel, 1e-2, T, normL).size for T in Ts]
    fit = fit_scaling(Ts, Ns)
    ok_t = abs(fit.slope - 1.0) <= 0.1
    report(
        5,
        ok_m and ok_grid and ok_t,
        f"M doubling {m1}->{m2} (|diff| = {abs(m2 - 2 * m1)}), grid norm ratio "
        f"{ratio:.3f}, N~T slope {fit.slope:.4f}",
    )


def test_06_quadrature_order_decay(beta_kernel):
    K = choose_truncation(beta_kernel, 1e-11).K  # tail floor < 1e-10
    cfg = RunConfig.from_dict(
        {
            "schema_version": 1,
            "problem": {"name": "blackhole", "params": {"H": {"diag": [1.0, -1.0]}, "gamma": 0.5}},
            "kernel": {"family": "beta", "beta": 0.75},
            "method": "gaussian",
            "accuracy": {"K": K, "M": 100, "Q": 2},
            "T": 1.0,
        }
    )
    result = run_convergence(cfg, "Q", [2, 3, 4, 5, 6, 7, 8])
    errs = np.array([r["rel_error"] for r in result.rows])
    qs = np.arange(2, 9)
    mask = errs > 1e-10  # points before the floor
    slope = np.polyfit(qs[mask], np.log2(errs[mask]), 1)[0]
    report(
        6,
        slope <= -1.0 and mask.sum() >= 4,
        f"log2 slope {slope:.2f} <= -1 over {int(mask.sum())} pre-floor points "
        f"(errors {errs[0]:.1e} -> {errs[-1]:.1e})",
    )


def test_07_monte_carlo_convergence(beta_kernel):
    p = scalar_instance()
    u_ref = np.exp(-1.0)
    K = choose_truncation(beta_kernel, 1e-6).K
    sizes = [100, 1000, 10000, 100000]
    mean_errs = []
    stderr_ok = True
    for Ns in sizes:
        ests = []
        for seed in range(20):
            plan = mc_plan(beta_kernel, K, Ns, seed)
            ests.append(complex(lchs_apply(p, plan, 1.0)[0]))
        ests = np.array(ests)
        mean_errs.append(float(np.mean(np.abs(ests - u_ref) / u_ref)))
        emp_std = float(np.sqrt(np.sum(np.abs(ests - ests.mean()) ** 2) / (len(ests) - 1)))
        if emp_std > 2.0 * K / np.sqrt(Ns):
            stderr_ok = False
    fit = fit_scaling(sizes, mean_errs)
    ok = abs(fit.slope + 0.5) <= 0.1 and stderr_ok
    report(
        7,
        ok,
        f"MC slope {fit.slope:.3f} in [-0.6, -0.4]; empirical std within "
        f"2K/sqrt(Ns) at every Ns: {stderr_ok}",
    )


def test_08_truncation_law(beta_half_kernel, cauchy_kernel):
    k6 = choose_truncation(beta_half_kernel, 1e-6).K
    k3 = choose_truncation(beta_half_kernel, 1e-3).K
    ratio = k6 / k3
    bound = (np.log(1e6) / np.log(1e3)) ** 2 * 1.5
    ok_beta = 1.0 <= ratio <= bound
    worst_rel = 0.0
    for eps in (1e-1, 1e-2, 1e-3):
        K = choose_truncation(cauchy_kernel, eps).K
        exact = np.tan(np.pi * (1.0 - eps) / 2.0)
        worst_rel = max(worst_rel, abs(K - exact) / exact)
    ok_cauchy = worst_rel <= 5e-3
    report(
        8,
        ok_beta and ok_cauchy,
        f"beta K-ratio {ratio:.3f} in [1, {bound:.1f}]; cauchy inversion "
        f"worst rel diff {worst_rel:.2e} (3 digits)",
    )


def test_09_residual_lemma(beta_kernel):
    instances = [("scalar", scalar_instance(), 1.0)]
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pair = hermitian_split(A)
    shifted = shift_pair(pair, max(0.0, 0.5 - pair.lambda0))
    u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u0 /= np.linalg.norm(u0)
    inst4 = ProblemInstance.from_pair(shifted, u0, label="random4x4")
    normL4 = float(np.max(np.abs(np.linalg.eigvalsh(shifted.L))))
    instances.append(("random4x4", inst4, normL4))

    ok_all = True
    details = []
    for name, inst, normL in instances:
        residuals = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            plan = plan_from_accuracy(beta_kernel, eps, 1.0, normL)
            residuals.append(residual_lemma_check(inst, plan, 1.0))
        monotone = all(b <= 1.1 * a for a, b in zip(residuals, residuals[1:]))
        reaches = min(residuals) <= 1e-4
        ok_all = ok_all and monotone and reaches
        details.append(f"{name}: {residuals[0]:.1e}->{residuals[-1]:.1e} mono={monotone}")
    report(9, ok_all, "; ".join(details))


def test_10_application_invariants(beta_kernel):
    checks = []

    norm_a = build_parabolic_1d(a=one, b=zero, c=zero, N_grid=33).meta["normL"]
    norm_b = build_parabolic_1d(a=one, b=zero, c=zero, N_grid=66).meta["normL"]
    ratio = norm_b / norm_a
    checks.append(("grid norm x4", 3.6 <= ratio <= 4.4))

    inst = build_mm1(1.0, 2.0, n_trunc=64)
    mass = abs(np.sum(oracle_solve(inst, 1.0)) - 1.0)
    checks.append(("mm1 mass conservation", mass <= 1e-8))

    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    lb = build_lindblad(amplitude_damping_spec(1.0), rho0=rho0)
    pop_or = unvec_density(oracle_solve(lb, 1.0), 2)[1, 1].real
    checks.append(("damping oracle pop", abs(pop_or - np.exp(-1.0)) <= 1e-6))
    plan = plan_from_accuracy(beta_kernel, 1e-4, 1.0, lb.meta["normL"])
    pop_l = unvec_density(lchs_apply(lb, plan, 1.0), 2)[1, 1].real
    checks.append(("damping estimate pop", abs(pop_l - np.exp(-1.0)) <= 1e-3))

    rng = np.random.default_rng(9)
    ok_jump = True
    for _ in range(5):
        Lj = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        from lchs import LindbladSpec

        li = build_lindblad(LindbladSpec(H_sys=np.zeros((2, 2)), jump_ops=[Lj]))
        if li.meta["normL"] > 2.0 * np.linalg.norm(Lj, 2) ** 2 + 1e-9:
            ok_jump = False
    checks.append(("lindblad norm bound", ok_jump))

    lam, mu, servers = 1.0, 1.0, 2
    mmc = build_mmc(lam, mu, servers=servers, n_trunc=32)
    checks.append(("queue norm bound", mmc.meta["normL"] <= 2.0 * (lam + servers * mu)))

    ok = all(flag for _, flag in checks)
    report(10, ok, "; ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks))


def test_11_kernel_suite():
    residuals = {}
    residuals["cauchy"] = check_normalization(make_kernel("cauchy"))
    for beta in (0.5, 0.75, 0.9):
        residuals[f"beta{beta}"] = check_normalization(make_kernel("beta", beta))
    ok_norm = all(r <= 1e-10 for r in residuals.values())

    ok_gl = True
    for Q in range(1, 21):
        x, w = gauss_legendre(Q)
        for power in range(2 * Q):
            exact = 0.0 if power % 2 else 2.0 / (power + 1)
            if abs(np.dot(w, x**power) - exact) > 1e-13:
                ok_gl = False
    worst = max(residuals.values())
    report(
        11,
        ok_norm and ok_gl,
        f"normalization residuals max {worst:.2e} <= 1e-10; "
        f"Gauss-Legendre exact to degree 2Q-1 for Q <= 20: {ok_gl}",
    )
