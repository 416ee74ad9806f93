import json
import pathlib
import signal

import numpy as np
import pytest

from momt import DensityMatrix, LindbladSet, vec_h
from momt.elliptic import _systems
from momt.lindblad import div_blocks
from momt.verify import rand_general_stack, rand_herm, rand_skew_stack  # noqa: F401

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
#: wall-clock seconds any one test may take, 30x the slowest tier-1 test
WALL_BUDGET_S = 30.0

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


def restricted_data(l: LindbladSet, rhos, fs):
    """(A_k, c_k) of (K, n, n) weights and right-hand sides: A_k = C^T T(rho_k) C
    as the solver assembles it (elliptic._systems) and c_k = C^T vec_h(f_k)."""
    return _systems(l, vec_h(rhos)), vec_h(fs) @ l.complement_vecs


def unvec_stack(x: np.ndarray, count: int, n: int) -> np.ndarray:
    """The raw complex (count, n, n) stack of x = all real parts, then all imaginary parts."""
    x = np.asarray(x, dtype=float)
    half = x.size // 2
    return (x[:half] + 1j * x[half:]).reshape(count, n, n)


def momentum_divergence_matrix(l: LindbladSet) -> np.ndarray:
    """Real matrix of m |-> vec_h( div(m - m_*)/2 ) on general-stack coordinates.

    Columns follow unvec_stack's layout: all real parts of m, then all
    imaginary parts, each in C order.  Used to sample feasible momentum perturbations:
    the null space of this matrix is exactly the set of directions that
    leave the continuity picture unchanged.
    """
    unit = np.eye(l.count * l.n * l.n).reshape(-1, l.count, l.n, l.n)
    m = np.concatenate([unit, 1j * unit])  # unvec_stack of every coordinate vector
    y = m - np.conj(np.swapaxes(m, -1, -2))
    return vec_h(0.5 * div_blocks(l, y)).T


@pytest.fixture(autouse=True)
def wall_budget():
    """Fail a test that runs past WALL_BUDGET_S: a wrong gradient makes solves
    crawl to max_iter, which the clock would otherwise be the first to notice."""
    def expire(signum, frame):
        pytest.fail(f"test ran past its wall budget of {WALL_BUDGET_S:g} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WALL_BUDGET_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


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
