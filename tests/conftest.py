import numpy as np
import pytest

from lchs import evolve, make_kernel


@pytest.fixture(scope="session")
def beta_kernel():
    return make_kernel("beta", 0.75)


@pytest.fixture(scope="session")
def beta_half_kernel():
    return make_kernel("beta", 0.5)


@pytest.fixture(scope="session")
def cauchy_kernel():
    return make_kernel("cauchy")


def random_hermitian(rng, dim, scale=1.0):
    W = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = 0.5 * (W + W.conj().T)
    top = np.max(np.abs(np.linalg.eigvalsh(H)))
    return H * (scale / top) if top > 0 else H


def random_unitary(rng, dim):
    W = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(W)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def propagate(p, k, T):
    """U(k, T) u0 for an instance: the package's weighted unitary sum with
    the single term k and weight 1."""
    blocks = evolve._blocks(evolve._spans(p.schedule, T), p.dim)
    return evolve._weighted_unitary_sum(blocks, np.array([float(k)]), np.ones(1), p.u0)
