import numpy as np
import pytest

from lchs import (
    DimensionError,
    HermiticityError,
    ProblemInstance,
    RangeError,
    TimeSchedule,
    hermitian_split,
    matrix_exponential,
    spectral_shift,
)
from lchs.linalg import SEMIDEFINITE_TOL, HermitianPair, is_semidefinite, shift_pair

from conftest import propagate, random_hermitian, random_unitary


def mm1_generator(lam, mu, n):
    Q = np.zeros((n, n))
    for j in range(n):
        Q[j, j] = -(lam + mu)
        if j + 1 < n:
            Q[j, j + 1] = lam
        if j >= 1:
            Q[j, j - 1] = mu
    return Q


class TestHermitianSplit:
    def test_real_scalar(self):
        pair = hermitian_split(np.array([[1.0]]))
        assert pair.L[0, 0] == 1.0
        assert pair.H[0, 0] == 0.0

    def test_imaginary_scalar(self):
        pair = hermitian_split(np.array([[1j]]))
        assert pair.L[0, 0] == 0.0
        assert pair.H[0, 0] == 1.0

    def test_mm1_truncation(self):
        # 4x4 queue generator with lam=1, mu=2, split directly
        Q = mm1_generator(1.0, 2.0, 4)
        pair = hermitian_split(Q)
        assert np.allclose(np.diagonal(pair.L), -3.0)
        assert np.allclose(np.diagonal(pair.L, 1), 1.5)
        assert np.allclose(np.diagonal(pair.H, 1), 0.5j)
        assert np.allclose(np.diagonal(pair.H, -1), -0.5j)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for dim in (2, 7, 33, 128, 256):
            A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            pair = hermitian_split(A)
            assert np.max(np.abs(pair.L + 1j * pair.H - A)) <= 1e-12
            assert np.max(np.abs(pair.L - pair.L.conj().T)) <= 1e-12
            assert np.max(np.abs(pair.H - pair.H.conj().T)) <= 1e-12

    def test_lambda0_is_computed(self):
        pair = hermitian_split(np.diag([3.0, -2.0, 5.0]))
        assert pair.lambda0 == pytest.approx(-2.0, abs=1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            hermitian_split(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(RangeError):
            hermitian_split(np.array([[np.inf, 0], [0, 1.0]]))

    def test_empty_rejected(self):
        with pytest.raises(DimensionError, match="nonempty"):
            hermitian_split(np.zeros((0, 0)))


def min_eigenvalue(L) -> float:
    """Smallest eigenvalue of L, as the lambda0 certificate of a pair."""
    return HermitianPair(L=L, H=0 * L).lambda0


class TestMinEigenvalue:
    def test_diagonal(self):
        assert min_eigenvalue(np.diag([1.0, 2.0])) == pytest.approx(1.0)

    def test_pauli_x(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert min_eigenvalue(X) == pytest.approx(-1.0, abs=1e-14)

    def test_dirichlet_stencil_closed_form(self):
        # interior Laplacian on 32 grid points, h = 1/31; eigenvalues are
        # (4/h^2) sin^2(j pi h / 2) for j = 1..30
        N_grid = 32
        h = 1.0 / (N_grid - 1)
        n = N_grid - 2
        L = (np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1)
             - np.diag(np.ones(n - 1), -1)) / h**2
        expected = (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2
        assert min_eigenvalue(L) == pytest.approx(expected, rel=1e-10)

    def test_relative_accuracy_random(self):
        rng = np.random.default_rng(5)
        for dim in (8, 64, 300):
            U = random_unitary(rng, dim)
            lam = np.sort(rng.uniform(0.5, 50.0, dim))
            L = (U * lam) @ U.conj().T
            got = min_eigenvalue(L)
            assert abs(got - lam[0]) / lam[0] <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityError):
            min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPairCertificate:
    """A pair computes its own lambda0; the caller cannot set it."""

    def test_lambda0_not_an_argument(self):
        with pytest.raises(TypeError):
            HermitianPair(L=np.eye(2), H=np.zeros((2, 2)), lambda0=1.0)

    def test_lambda0_computed_at_construction(self):
        pair = HermitianPair(L=np.diag([-0.5, 2.0]).astype(complex), H=np.zeros((2, 2)))
        assert pair.lambda0 == -0.5
        assert pair.normL == 2.0

    def test_non_hermitian_L_rejected(self):
        with pytest.raises(HermiticityError):
            HermitianPair(L=np.array([[1.0, 1.0], [0.0, 1.0]]), H=np.zeros((2, 2)))

    def test_non_hermitian_H_rejected(self):
        # propagation reads one triangle of H, so a non-Hermitian H would be
        # propagated silently wrong
        with pytest.raises(HermiticityError):
            HermitianPair(L=np.eye(2), H=np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectralShift:
    def test_already_positive(self):
        sched = TimeSchedule.constant(hermitian_split(np.diag([1.0, 2.0])))
        shifted = spectral_shift(sched)
        assert shifted.shift == 0.0
        assert shifted is sched
        assert shifted.lambda0 == pytest.approx(1.0)

    def test_negative_diag(self):
        # shifted by the deficit -lambda0 only, to lambda0 = 0
        sched = TimeSchedule.constant(hermitian_split(np.diag([-3.0, -1.0])))
        shifted = spectral_shift(sched)
        assert shifted.shift == pytest.approx(3.0, abs=1e-12)
        assert shifted.lambda0 == pytest.approx(0.0, abs=1e-12)
        assert shifted.normL == pytest.approx(2.0, abs=1e-12)

    def test_mm1_L_shift(self):
        # the Hermitian part of the queue generator is positive definite
        Q = mm1_generator(1.0, 2.0, 8)
        pair = hermitian_split(-Q.T)
        lam_min = np.linalg.eigvalsh(pair.L)[0]
        assert lam_min > 0
        sched = TimeSchedule.constant(pair)
        shifted = spectral_shift(sched)
        assert shifted.shift == max(0.0, -lam_min) == 0.0
        assert shifted is sched

    def test_solution_recovery(self):
        # exp(cT) expm(-(A + cI)T) u0 must equal expm(-AT) u0
        rng = np.random.default_rng(7)
        for dim, T in ((4, 0.1), (16, 1.0), (64, 1.0)):
            A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            shifted = spectral_shift(TimeSchedule.constant(hermitian_split(A)))
            c = shifted.shift
            assert c > 0
            u0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            u0 /= np.linalg.norm(u0)
            (pair,) = shifted.pairs
            A_shift = pair.L + 1j * pair.H
            lhs = np.exp(c * T) * (matrix_exponential(-A_shift * T) @ u0)
            rhs = matrix_exponential(-A * T) @ u0
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-9

    @pytest.mark.parametrize("L", [
        np.zeros((3, 3)), np.diag([0.0, 1.0, 2.0]), np.diag([-1e-14, 1.0, 2.0]),
    ], ids=["zero", "exact-zero-mode", "roundoff-negative"])
    def test_semidefinite_not_shifted(self, L):
        sched = TimeSchedule.constant(HermitianPair(L=L.astype(complex), H=np.zeros((3, 3))))
        assert is_semidefinite(sched)
        shifted = spectral_shift(sched)
        assert shifted.shift == 0.0
        assert shifted is sched

    def test_past_tolerance_shifted(self):
        # -1e-11 ||L|| is ten times past SEMIDEFINITE_TOL
        assert SEMIDEFINITE_TOL == 1e-12
        pair = HermitianPair(L=np.diag([-1e-11, 1.0]).astype(complex), H=np.zeros((2, 2)))
        sched = TimeSchedule.constant(pair)
        assert not is_semidefinite(sched)
        shifted = spectral_shift(sched)
        assert shifted.shift == 1e-11
        assert is_semidefinite(shifted)

    def test_piecewise_schedule_shifted_uniformly(self):
        # only the second pair fails the gate; both take its deficit 0.5,
        # the shift every pair records and the one unwound
        first = hermitian_split(np.diag([0.25, 1.0]) + 1j * np.diag([1.0, -1.0]))
        second = hermitian_split(np.array([[-0.5, 0.2], [0.2, 2.0]]))
        sched = TimeSchedule.piecewise([0.0, 0.4, 1.0], [first, second])
        assert not is_semidefinite(sched)
        shifted = spectral_shift(sched)
        c = -second.lambda0
        assert shifted.shift == c
        assert [pair.shift for pair in shifted.pairs] == [c, c]
        for pair, old in zip(shifted.pairs, sched.pairs):
            assert np.array_equal(pair.L, old.L + c * np.eye(2))
            assert np.array_equal(pair.H, old.H)
        assert np.array_equal(shifted.breakpoints, sched.breakpoints)
        assert is_semidefinite(shifted)

    def test_schedule_passing_gate_comes_back_unchanged(self):
        pairs = [hermitian_split(np.diag([0.0, 1.0])), hermitian_split(np.diag([2.0, 0.5]))]
        sched = TimeSchedule.piecewise([0.0, 0.5, 1.0], pairs)
        shifted = spectral_shift(sched)
        assert shifted is sched
        assert shifted.shift == 0.0

    def test_shift_pair_recertifies(self):
        p = hermitian_split(np.diag([-1.0, 2.0]))
        s = shift_pair(shift_pair(p, 1.0), 0.5)
        assert s.lambda0 == pytest.approx(0.5, abs=1e-12)
        assert s.shift == pytest.approx(1.5)
        assert np.array_equal(s.H, p.H)


class TestMatrixExponential:
    def test_zero(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_decay(self):
        E = matrix_exponential(np.diag([-1.0, -2.0]))
        assert E[0, 0] == pytest.approx(0.36787944117144233, rel=1e-12)
        assert E[1, 1] == pytest.approx(0.1353352832366127, rel=1e-12)

    def test_pauli_rotation(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        E = matrix_exponential(-1j * np.pi / 2 * X)
        assert np.max(np.abs(E - (-1j * X))) <= 1e-12

    def test_against_eigendecomposition(self):
        rng = np.random.default_rng(3)
        for dim in (2, 16, 64, 128):
            H = random_hermitian(rng, dim, scale=3.0)
            w, V = np.linalg.eigh(H)
            ref = (V * np.exp(w)) @ V.conj().T
            got = matrix_exponential(H)
            assert np.linalg.norm(got - ref, 2) / np.linalg.norm(ref, 2) <= 1e-9
            # normal (non-Hermitian) case: unitary conjugation of complex diag
            U = random_unitary(rng, dim)
            lam = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            N = (U * lam) @ U.conj().T
            ref = (U * np.exp(lam)) @ U.conj().T
            got = matrix_exponential(N)
            assert np.linalg.norm(got - ref, 2) / np.linalg.norm(ref, 2) <= 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises(self):
        with pytest.raises(RangeError):
            matrix_exponential(np.diag([1e5, 1e5]))


def unitary_step(G, dt, v):
    """exp(-i G dt) v through the package's one propagator: the one-term
    weighted unitary sum at k = 0 for the pair L = 0, H = G."""
    G = np.asarray(G, dtype=complex)
    pair = HermitianPair(L=np.zeros_like(G), H=G)
    return propagate(ProblemInstance.from_pair(pair, v), 0.0, dt)


class TestUnitaryStep:
    def test_dt_zero(self):
        v = np.array([1.0 + 2j, 3.0])
        out = unitary_step(np.diag([1.0, 2.0]), 0.0, v)
        assert np.array_equal(out, v)

    def test_pauli_quarter_turn(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = unitary_step(X, np.pi / 2, np.array([1.0, 0.0]))
        assert np.max(np.abs(out - np.array([0.0, -1j]))) <= 1e-12

    def test_diagonal_phases(self):
        out = unitary_step(np.diag([1.0, 2.0]), 1.0, np.array([1.0, 1.0]))
        assert np.allclose(out, [np.exp(-1j), np.exp(-2j)], atol=1e-13)

    def test_norm_preservation_many(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            dim = int(rng.integers(1, 24))
            G = random_hermitian(rng, dim, scale=rng.uniform(0.1, 5.0))
            dt = rng.uniform(0.0, 10.0)
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            out = unitary_step(G, dt, v)
            nv = np.linalg.norm(v)
            assert abs(np.linalg.norm(out) - nv) <= 1e-10 * nv

    def test_large_dim_path(self):
        # a large dimension must still be accurate and norm preserving
        rng = np.random.default_rng(23)
        dim = 520
        d = rng.uniform(-2.0, 2.0, dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out = unitary_step(np.diag(d), 0.7, v)
        ref = np.exp(-1j * d * 0.7) * v
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) <= 1e-10


class TestTimeSchedule:
    def test_piecewise_lookup(self):
        p1 = hermitian_split(np.diag([1.0]))
        p2 = hermitian_split(np.diag([2.0]))
        s = TimeSchedule.piecewise([0.0, 0.5, 1.0], [p1, p2])
        assert s.pair_at(0.2).L[0, 0] == 1.0
        assert s.pair_at(0.7).L[0, 0] == 2.0
        assert s.pair_at(1.0).L[0, 0] == 2.0
        assert s.lambda0 == pytest.approx(1.0)

    def test_pairs_must_share_shift(self):
        p = hermitian_split(np.diag([1.0, 2.0]))
        q = shift_pair(p, 1.0)
        with pytest.raises(RangeError, match="shifts"):
            TimeSchedule.piecewise([0.0, 0.5, 1.0], [p, q])
        s = TimeSchedule.piecewise([0.0, 0.5, 1.0], [shift_pair(p, 1.0), q])
        assert s.shift == 1.0

    def test_breakpoints_must_ascend(self):
        p = hermitian_split(np.diag([1.0]))
        with pytest.raises(RangeError):
            TimeSchedule.piecewise([0.0, 0.5, 0.5], [p, p])
        with pytest.raises(RangeError):
            TimeSchedule.piecewise([0.1, 0.5], [p])

    def test_constant_is_one_pair_on_half_line(self):
        p = hermitian_split(np.diag([1.0, 2.0]))
        s = TimeSchedule.constant(p)
        assert s.pairs == (p,)
        assert s.breakpoints.tolist() == [0.0, np.inf]
        assert s.pair_at(0.0) is p and s.pair_at(1e6) is p
