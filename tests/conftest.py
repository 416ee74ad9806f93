import json
import pathlib

import numpy as np
import pytest

from momt import DensityMatrix, LindbladSet
from momt.verify import rand_general_stack, rand_herm, rand_skew_stack  # noqa: F401

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def rand_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_density(rng, n, min_eig=0.05):
    """Strictly positive unit-trace matrix with spectrum >= min_eig, exactly."""
    u = rand_unitary(rng, n)
    lam = min_eig + rng.dirichlet(np.ones(n)) * (1.0 - n * min_eig)
    return DensityMatrix(u @ np.diag(lam) @ u.conj().T, strict=True)


def rand_lindblad(rng, count, n):
    return LindbladSet([rand_herm(rng, n) for _ in range(count)])


@pytest.fixture
def pauli():
    return LindbladSet([SX, SY, SZ])


@pytest.fixture
def sz_only():
    return LindbladSet([SZ])


@pytest.fixture
def swap_endpoints():
    r0 = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    r1 = DensityMatrix(np.diag([0.1, 0.9]).astype(complex))
    return r0, r1


@pytest.fixture(scope="session")
def frozen_fixture():
    with open(FIXTURES / "pauli_geodesic.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def three_level_pair():
    """A 3-level operator set and a mild endpoint pair.

    At n = 2 the weighted operator does not depend on the density, so the
    linear path is already the exact minimizer and the optimizer never
    iterates; three levels make the solve genuinely nonlinear.
    """
    rng = np.random.default_rng(42)
    l = LindbladSet([rand_herm(rng, 3), rand_herm(rng, 3)])
    base = np.eye(3) / 3
    moves = []
    for _ in range(2):
        d = rand_herm(rng, 3)
        d -= np.trace(d) / 3 * np.eye(3)
        moves.append(0.12 * d / np.linalg.norm(d))
    r0 = DensityMatrix(base + moves[0], strict=True)
    r1 = DensityMatrix(base + moves[1], strict=True)
    return l, r0, r1
