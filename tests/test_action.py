import numpy as np
import pytest

from momt import (
    DensityMatrix,
    DimensionMismatch,
    DualPoint,
    ExtendedValue,
    HermitianMatrix,
    InfeasibleDualPoint,
    OperatorStack,
    SymmetryError,
    fenchel_gap,
    gradient,
    initial_path,
    kinetic,
    legendre_feasible,
    optimize_geodesic,
    path_cost,
    trace_lower_bound,
)
from conftest import rand_density, rand_general_stack, rand_herm


def gram(blocks):
    return np.einsum("kji,kjl->il", np.conj(blocks), blocks)


def loop_kinetic(rho, m, eps_pd=1e-10):
    """Reference F(rho, m) for one matrix: None where infinite, else the value.

    One eigendecomposition per call: w = V diag(1/lambda) V^* on a positive
    definite rho, the pseudo-inverse on a singular PSD rho whose kernel
    every block of m kills, infinite otherwise.
    """
    r = 0.5 * (rho + rho.conj().T)
    evals, vecs = np.linalg.eigh(r)
    if evals[0] < -eps_pd:
        return None
    zero = evals <= eps_pd
    p_ker = vecs[:, zero] @ vecs[:, zero].conj().T
    if np.linalg.norm(np.einsum("kij,jl->kil", m, p_ker)) > 1e-9 * np.linalg.norm(m):
        return None
    inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=~zero)
    w = vecs @ np.diag(inv) @ vecs.conj().T
    return 0.5 * float(np.trace(gram(m) @ w).real)


def nodes_with_midpoints(mids):
    """Nodes rho_0..rho_K whose interval midpoints are the given matrices."""
    nodes = [mids[0]]
    for mid in mids:
        nodes.append(2.0 * mid - nodes[-1])
    return np.array(nodes)


def test_extended_value_tags():
    v = ExtendedValue.of(1.5)
    assert v.finite and v.value == 1.5
    inf = ExtendedValue.infinity()
    assert not inf.finite and inf.value is None
    with pytest.raises(ValueError):
        ExtendedValue(finite=True)
    with pytest.raises(ValueError):
        ExtendedValue(finite=False, value=3.0)


def test_kinetic_positive_definite_formula():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        rho = rand_density(rng, n)
        m = rand_general_stack(rng, int(rng.integers(1, 4)), n)
        val = kinetic(rho, m)
        assert val.finite
        direct = 0.5 * np.trace(gram(m.blocks) @ np.linalg.inv(rho.mat)).real
        np.testing.assert_allclose(val.value, direct, rtol=1e-11)
        assert val.value >= 0


def test_kinetic_negative_weight_is_infinite():
    m = rand_general_stack(np.random.default_rng(1), 1, 2)
    assert not kinetic(np.diag([1.5, -0.5]), m).finite


def test_kinetic_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kinetic(np.eye(2) / 2, rand_general_stack(np.random.default_rng(2), 1, 3))


@pytest.mark.parametrize("rho, m, error", [
    (np.array([[1.0, 5.0], [0.0, 1.0]]), np.ones((3, 2, 2)), SymmetryError),
    (np.diag([np.nan, 0.5]), np.ones((3, 2, 2)), SymmetryError),
    (np.eye(2) / 2, np.full((1, 2, 2), np.inf), ValueError),
], ids=["non-hermitian-weight", "nan-weight", "infinite-momentum"])
def test_kinetic_gates_its_inputs(rho, m, error):
    # the weight passes HermitianMatrix's gate and the momentum must be finite,
    # rather than a symmetrized-away defect or a numpy warning deciding the value
    with pytest.raises(error):
        kinetic(rho, m)


def test_kinetic_boundary_rule():
    # rank-one rho: finite only for momenta annihilating the kernel
    rho = np.diag([1.0, 0.0]).astype(complex)
    good = np.zeros((1, 2, 2), dtype=complex)
    good[0, 0, 0] = 2.0
    good[0, 1, 0] = 1.0  # columns in ker allowed only if m kills ker(rho)
    val = kinetic(rho, OperatorStack(good, flavor="general"))
    assert val.finite
    # m^* m rho^+ = diag-block arithmetic: (4 + 1) / (2 * 1)
    np.testing.assert_allclose(val.value, 2.5, rtol=1e-12)

    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0, 0, 1] = 1.0  # hits the kernel vector e_1
    assert not kinetic(rho, OperatorStack(bad, flavor="general")).finite
    # the range test is relative to |m|: a kernel leak within 1e-9 |m| is rounding
    # at every scale of m, and one beyond it is not
    for scale in (1e-3, 1.0, 1e3):
        for leak, finite in ((1e-10, True), (5e-10, True), (1.5e-9, False), (1e-8, False)):
            m = good.copy()
            m[0, 0, 1] = leak * np.linalg.norm(good)
            assert kinetic(rho, OperatorStack(scale * m, flavor="general")).finite is finite
    # a zero momentum leaks nothing: F = 0 on the singular rho too
    assert kinetic(rho, np.zeros((1, 2, 2))) == ExtendedValue.of(0.0)


def test_kinetic_epsilon_limit_consistency():
    # the boundary value is the limit of the strictly positive values
    rng = np.random.default_rng(3)
    v = np.array([[1.0], [1.0]]) / np.sqrt(2)
    rho = (v @ v.conj().T).astype(complex)
    m_blocks = np.array([rng.standard_normal((2, 2)) @ (v @ v.conj().T)])
    m = OperatorStack(m_blocks, flavor="general")
    at_boundary = kinetic(rho, m).value
    for eps in (1e-4, 1e-6):
        reg = DensityMatrix((1 - eps) * rho + eps * np.eye(2) / 2)
        diff = abs(kinetic(reg, m).value - at_boundary)
        assert diff <= 10 * eps * max(1.0, at_boundary)


def test_kinetic_sup_representation():
    # F equals the sup of <a; rho> + b.m over the feasible dual cone:
    # no feasible point exceeds it, and the optimal pair attains it
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho = rand_density(rng, 2)
        m = rand_general_stack(rng, 2, 2)
        f_val = kinetic(rho, m).value
        best = -np.inf
        for _ in range(200):
            b = rand_general_stack(rng, 2, 2)
            a = HermitianMatrix(-0.5 * gram(b.blocks))
            pairing = f_val - fenchel_gap(rho, m, DualPoint(a=a, b=b))
            best = max(best, pairing)
        assert best <= f_val + 1e-12
        # optimal candidate: b = m rho^{-1}, a = -(1/2) b^* b
        b_opt = OperatorStack(
            np.einsum("kij,jl->kil", m.blocks, np.linalg.inv(rho.mat)),
            flavor="general")
        a_opt = HermitianMatrix(-0.5 * gram(b_opt.blocks))
        gap = fenchel_gap(rho, m, DualPoint(a=a_opt, b=b_opt))
        assert abs(gap) <= 1e-9 * max(1.0, f_val)


def test_legendre_feasibility_borderline():
    rng = np.random.default_rng(5)
    b = rand_general_stack(rng, 2, 2)
    g = gram(b.blocks)
    exact = DualPoint(a=HermitianMatrix(-0.5 * g), b=b)
    assert legendre_feasible(exact)
    above = DualPoint(a=HermitianMatrix(-0.5 * g + 1e-3 * np.eye(2)), b=b)
    assert not legendre_feasible(above)
    below = DualPoint(a=HermitianMatrix(-0.5 * g - 1e-3 * np.eye(2)), b=b)
    assert legendre_feasible(below)


def test_legendre_bound_follows_the_gram_term():
    # the boundary pair of large operators is rounding of size |b|^2 above 0
    rng = np.random.default_rng(5)
    for scale in (1e3, 1e6):
        b = OperatorStack(scale * rand_general_stack(rng, 2, 3).blocks, flavor="general")
        assert legendre_feasible(DualPoint(a=HermitianMatrix(-0.5 * gram(b.blocks)), b=b))
    # a large eigenvalue of a away from the top one does not widen the bound
    wide = DualPoint(a=HermitianMatrix(np.diag([-1e10, 0.1])), b=np.zeros((1, 2, 2)))
    assert not legendre_feasible(wide)
    with pytest.raises(InfeasibleDualPoint):
        fenchel_gap(np.diag([1e-12, 1.0 - 1e-12]), np.zeros((1, 2, 2)), wide)


NAN_A = np.array([[np.nan, 0.0], [0.0, -1.0]])
ZERO_B = np.zeros((1, 2, 2))


@pytest.mark.parametrize("a, b, error", [
    (NAN_A, ZERO_B, SymmetryError),
    (np.array([[-1.0, 5.0], [0.0, -1.0]]), ZERO_B, SymmetryError),
    (-np.eye(2), np.full((1, 2, 2), np.inf), ValueError),
], ids=["nan-a", "non-hermitian-a", "infinite-b"])
def test_legendre_feasible_gates_its_dual_point(a, b, error):
    # a NaN a once read as feasible (a NaN eigenvalue compares false) and an
    # infinite b reached eigvalsh; the dual point passes the wrapper types' gates
    rng = np.random.default_rng(8)
    with pytest.raises(error):
        legendre_feasible(DualPoint(a=a, b=b))
    with pytest.raises(error):
        fenchel_gap(rand_density(rng, 2), rand_general_stack(rng, 1, 2), DualPoint(a=a, b=b))


def test_fenchel_gap_rejects_infeasible_points():
    rng = np.random.default_rng(6)
    b = rand_general_stack(rng, 1, 2)
    bad = DualPoint(a=HermitianMatrix(np.eye(2)), b=b)
    with pytest.raises(InfeasibleDualPoint):
        fenchel_gap(rand_density(rng, 2), rand_general_stack(rng, 1, 2), bad)


def test_fenchel_gap_requires_finite_kinetic():
    rng = np.random.default_rng(7)
    b = rand_general_stack(rng, 1, 2)
    p = DualPoint(a=HermitianMatrix(-gram(b.blocks)), b=b)
    bad_m = np.zeros((1, 2, 2), dtype=complex)
    bad_m[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        fenchel_gap(np.diag([1.0, 0.0]), OperatorStack(bad_m, flavor="general"), p)


def test_trace_lower_bound_sampled():
    rng = np.random.default_rng(8)
    for _ in range(200):
        rho = rand_density(rng, int(rng.integers(2, 4)))
        m = rand_general_stack(rng, int(rng.integers(1, 3)), rho.n)
        assert trace_lower_bound(rho, m)


def test_trace_lower_bound_tight_for_aligned_rank_one():
    # equality holds when rho is rank one and m is supported on its range
    rho = np.diag([1.0, 0.0]).astype(complex)
    blocks = np.zeros((1, 2, 2), dtype=complex)
    blocks[0, 0, 0] = 3.0
    m = OperatorStack(blocks, flavor="general")
    val = kinetic(rho, m).value
    np.testing.assert_allclose(val, np.linalg.norm(m.blocks) ** 2 / 2, rtol=1e-12)
    assert trace_lower_bound(rho, m)


def test_trace_lower_bound_gate_and_infinite_kinetic():
    m = OperatorStack(np.ones((1, 2, 2), dtype=complex), flavor="general")
    with pytest.raises(ValueError, match="positive trace"):
        trace_lower_bound(np.diag([1.0, -1.0]), m)
    # m reaches the kernel of diag(1, 0), so F is infinite and the bound vacuous
    assert not kinetic(np.diag([1.0, 0.0]), m).finite
    assert trace_lower_bound(np.diag([1.0, 0.0]), m)


def test_path_cost_finite_and_infinite(pauli, swap_endpoints):
    r0, r1 = swap_endpoints
    path = initial_path(pauli, r0, r1, 8)
    val = path_cost(path)
    assert val.finite and val.value > 0
    # corrupt one interval with a momentum that hits a singular midpoint
    sing = np.diag([1.0, 0.0]).astype(complex)
    bad_m = np.zeros((1, 3, 2, 2), dtype=complex)
    bad_m[0, 0, 0, 1] = 1.0

    class TinyPath:
        K = 1
        densities = np.array([sing, sing])
        momenta = bad_m

    assert not path_cost(TinyPath()).finite


def test_kinetic_values_match_scalar_loop(three_level_pair, pauli, swap_endpoints):
    for l, (r0, r1) in [(three_level_pair[0], three_level_pair[1:]), (pauli, swap_endpoints)]:
        res = optimize_geodesic(l, r0, r1)
        nodes, ms = res.path.densities, res.path.momenta
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        ref = [loop_kinetic(mid, m) for mid, m in zip(mids, ms)]
        np.testing.assert_allclose(res.hamiltonian, ref, rtol=1e-14)
        np.testing.assert_allclose([kinetic(mid, m).value for mid, m in zip(mids, ms)],
                                   ref, rtol=1e-14)


def test_path_cost_mixed_midpoints():
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    pd = rand_density(rng, 3).mat
    singular = q @ np.diag([0.0, 0.4, 0.6]) @ q.conj().T
    negative = q @ np.diag([-1e-3, 0.4, 0.601]) @ q.conj().T
    ms = rand_general_stack(rng, 2, 3).blocks
    fits = ms @ (singular @ np.linalg.pinv(singular))  # blocks that kill ker(singular)

    class TinyPath:
        def __init__(self, mids, momenta):
            self.K = len(mids)
            self.densities = nodes_with_midpoints(mids)
            self.momenta = np.array(momenta)

    path = TinyPath([pd, singular, pd], [ms, fits, 2.0 * ms])
    mids = 0.5 * (path.densities[:-1] + path.densities[1:])
    values = [kinetic(mid, m).value for mid, m in zip(mids, path.momenta)]
    ref = [loop_kinetic(mid, m) for mid, m in zip(mids, path.momenta)]
    assert None not in ref
    np.testing.assert_allclose(values, ref, rtol=1e-14)
    val = path_cost(path)
    assert val.finite
    np.testing.assert_allclose(val.value, sum(v / 3 for v in ref), rtol=1e-14)

    # a momentum that leaks into ker(singular), or a midpoint that is not PSD
    for bad in (TinyPath([pd, singular, pd], [ms, ms, ms]),
                TinyPath([pd, negative, singular], [ms, ms, fits])):
        mids = 0.5 * (bad.densities[:-1] + bad.densities[1:])
        values = [kinetic(mid, m) for mid, m in zip(mids, bad.momenta)]
        assert not values[1].finite
        assert values[0].finite and values[2].finite
        np.testing.assert_allclose(values[0].value, loop_kinetic(mids[0], bad.momenta[0]),
                                   rtol=1e-14)
        assert not path_cost(bad).finite
