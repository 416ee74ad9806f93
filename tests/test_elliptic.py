import numpy as np
import pytest
from scipy.linalg import null_space

import momt.elliptic

from momt import (
    EPS_PD,
    DensityMatrix,
    DimensionMismatch,
    HermitianMatrix,
    InfeasibleRHS,
    LindbladSet,
    OperatorStack,
    SingularWeight,
    SolverConfig,
    WeightedOperator,
    WeightError,
    gradient,
    hermitian_basis,
    inner_product,
    kinetic,
    momentum_min_check,
    optimize_geodesic,
    poincare_constant,
    project_kernel,
    quadratic_form,
    solve_potential,
    unvec_h,
    vec_h,
)
from momt.elliptic import solve_restricted
from momt.hermitian import hermitian_part
from conftest import (
    SZ,
    momentum_divergence_matrix,
    rand_density,
    rand_herm,
    rand_lindblad,
    rand_skew_stack,
    rand_unitary,
    restricted_data,
    unvec_stack,
)
from oracles.weighted_oracle import apply_weighted


def feasible_rhs(rng, l):
    c = l.complement_vecs
    return HermitianMatrix(unvec_h(c @ rng.standard_normal(c.shape[1]), l.n))


def test_quadratic_form_value_and_sign():
    rng = np.random.default_rng(0)
    rho = rand_density(rng, 3)
    v = rand_skew_stack(rng, 2, 3)
    q = quadratic_form(rho, v)
    direct = sum(np.trace(rho.mat @ b.conj().T @ b).real for b in v.blocks)
    np.testing.assert_allclose(q, direct, rtol=1e-12)
    assert q >= 0


def test_quadratic_form_zero_iff_zero_stack():
    rng = np.random.default_rng(1)
    rho = rand_density(rng, 2)
    v = rand_skew_stack(rng, 2, 2)
    assert quadratic_form(rho, v) > 1e-6
    zero = OperatorStack(np.zeros((2, 2, 2), dtype=complex), flavor="skew")
    assert quadratic_form(rho, zero) == 0.0


@pytest.mark.parametrize("v, error", [
    (np.full((1, 2, 2), np.nan), ValueError),
    (np.full((1, 2, 2), np.inf), ValueError),
    (np.ones((2, 2)), DimensionMismatch),
    (np.ones((1, 2, 3)), DimensionMismatch),
], ids=["nan", "infinite", "flat", "non-square"])
def test_quadratic_form_gates_its_stack(v, error):
    # as kinetic gates its momentum: a NaN stack once returned nan, and an
    # infinite one reached the matmul and its RuntimeWarning
    with pytest.raises(error):
        quadratic_form(np.eye(2) / 2, v)


def test_weight_rejects_negative():
    rng = np.random.default_rng(2)
    v = rand_skew_stack(rng, 1, 2)
    with pytest.raises(WeightError):
        quadratic_form(np.diag([1.5, -0.5]), v)


def test_weighted_operator_two_routes():
    # matrix representation vs direct blockwise evaluation, 20 seeded cases
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        l = rand_lindblad(rng, int(rng.integers(1, 4)), n)
        rho = rand_density(rng, n)
        x = rand_herm(rng, n)
        via_matrix = WeightedOperator(l, rho).apply(x).mat
        direct = apply_weighted(l, rho, x).mat
        np.testing.assert_allclose(via_matrix, direct,
                                   atol=1e-12 * max(1, np.linalg.norm(direct)))


def applied_matrix(w):
    """The n^2 x n^2 matrix of w.apply in the hermitian_basis coordinates."""
    return np.array([vec_h(w.apply(b).mat) for b in hermitian_basis(w.lindblad.n)]).T


def test_weighted_matrix_symmetric_psd(pauli):
    rng = np.random.default_rng(4)
    w = WeightedOperator(pauli, rand_density(rng, 2))
    m = applied_matrix(w)
    np.testing.assert_allclose(m, m.T, atol=1e-13)
    assert np.linalg.eigvalsh(m)[0] >= -1e-12


def test_weighted_kernel_matches_gradient_kernel(pauli, sz_only):
    rng = np.random.default_rng(5)
    for l in (pauli, sz_only):
        w = WeightedOperator(l, rand_density(rng, 2))
        evals = np.linalg.eigvalsh(applied_matrix(w))
        # as many (near-)zero eigenvalues as the gradient kernel dimension
        assert np.sum(evals < 1e-10) == l.kernel_dim
        assert w.restricted_min_eig > 0.1


def test_solve_potential_residual_and_bound(pauli):
    rng = np.random.default_rng(6)
    for _ in range(25):
        rho = rand_density(rng, 2)
        f = feasible_rhs(rng, pauli)
        w = WeightedOperator(pauli, rho)
        x = solve_potential(w, f)
        resid = np.linalg.norm(w.apply(x).mat - f.mat)
        fnorm = np.linalg.norm(f.mat)
        assert resid <= 1e-9 * max(fnorm, 1.0)
        assert fnorm >= w.restricted_min_eig * x.norm() - 1e-12
        # solution lives in the complement
        assert project_kernel(pauli, x.mat).norm() < 1e-12


def test_solve_potential_pseudo_inverse_oracle():
    # at rho = I/n the weighted matrix is exactly grad^T grad / n, so the
    # Moore-Penrose route is an independent oracle for the restricted solve
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        l = rand_lindblad(rng, int(rng.integers(1, 4)), n)
        if l.complement_vecs.shape[1] == 0:
            continue
        f = feasible_rhs(rng, l)
        mixed = DensityMatrix(np.eye(n) / n)
        x = solve_potential(WeightedOperator(l, mixed), f)
        oracle = np.linalg.pinv(l.grad_matrix.T @ l.grad_matrix / n,
                                rcond=1e-12) @ vec_h(f.mat)
        np.testing.assert_allclose(vec_h(x.mat), oracle, atol=1e-9)


def test_solve_potential_rejects_kernel_component(pauli):
    with pytest.raises(InfeasibleRHS):
        solve_potential(WeightedOperator(pauli, np.eye(2) / 2),
                        HermitianMatrix(np.eye(2)))


def test_solve_potential_rejects_singular_weight(pauli):
    w = WeightedOperator(pauli, np.diag([1.0, 0.0]))
    with pytest.raises(SingularWeight):
        solve_potential(w, HermitianMatrix(SZ))


def test_poincare_worked_values(pauli, sz_only):
    mixed = DensityMatrix(np.eye(2) / 2)
    np.testing.assert_allclose(poincare_constant(sz_only, mixed), 2.0, atol=1e-12)
    np.testing.assert_allclose(poincare_constant(pauli, mixed), 4.0, atol=1e-12)


def test_poincare_degenerate_warns():
    full = LindbladSet([np.eye(2)])
    with pytest.warns(RuntimeWarning):
        assert poincare_constant(full, DensityMatrix(np.eye(2) / 2)) == 0.0
    with pytest.warns(RuntimeWarning):
        c = poincare_constant(LindbladSet([SZ]), DensityMatrix(np.diag([1.0, 0.0])))
    assert c == 0.0


def test_poincare_constant_reuses_the_weight_spectrum(monkeypatch):
    # a DensityMatrix weight brings its cached smallest eigenvalue, so the
    # only eigvalsh is the restricted system's
    rng = np.random.default_rng(9)
    l = rand_lindblad(rng, 2, 3)
    rho = rand_density(rng, 3)
    rho.min_eig()
    eigvalsh, shapes = np.linalg.eigvalsh, []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    c = poincare_constant(l, rho)
    d = l.complement_vecs.shape[1]
    assert shapes == [(d, d)] and d != 3
    monkeypatch.undo()
    assert c == poincare_constant(l, rho.mat)


def test_weighted_operator_builds_its_matrices_on_first_read():
    # solve_potential does not read restricted_min_eig, so a fresh operator
    # forms no eigenvalues; read later, it is the one of A = C^T T(rho) C
    rng = np.random.default_rng(10)
    l = rand_lindblad(rng, 3, 4)
    rho = rand_density(rng, 4)
    w = WeightedOperator(l, rho)
    solve_potential(w, feasible_rhs(rng, l))
    assert "restricted_min_eig" not in vars(w)
    a = momt.elliptic._systems(l, vec_h(rho.mat)[None])[0]
    assert w.restricted_min_eig == float(np.linalg.eigvalsh(a)[0])


def test_weighted_operator_assembles_its_system_once(monkeypatch):
    # apply, restricted_min_eig, repr and every solve_potential read the one
    # read-only A = C^T T(rho) C that the operator assembled
    rng = np.random.default_rng(12)
    l = rand_lindblad(rng, 3, 3)
    rho, f = rand_density(rng, 3), feasible_rhs(rng, l)
    calls, systems = [], momt.elliptic._systems
    monkeypatch.setattr(momt.elliptic, "_systems",
                        lambda *args: calls.append(args) or systems(*args))
    w = WeightedOperator(l, rho)
    assert w.apply(f).mat.shape == (3, 3) and w.restricted_min_eig > 0
    first, second = solve_potential(w, f), solve_potential(w, f)
    repr(w)
    assert len(calls) == 1 and not w.restricted.flags.writeable
    assert np.array_equal(first.mat, second.mat)


def test_poincare_inequality_sampled(pauli):
    rng = np.random.default_rng(8)
    rho = rand_density(rng, 2)
    c = poincare_constant(pauli, rho)
    worst = 0.0
    for _ in range(200):
        x = rand_herm(rng, 2)
        resid = x - project_kernel(pauli, x).mat
        lhs = quadratic_form(rho, gradient(pauli, resid))
        worst = min(worst, lhs - c * np.linalg.norm(resid) ** 2)
    assert worst >= -1e-10


def test_momentum_min_check_strong_duality(pauli):
    rng = np.random.default_rng(10)
    for _ in range(20):
        rho = rand_density(rng, 2)
        f = feasible_rhs(rng, pauli)
        mc = momentum_min_check(pauli, rho, f)
        np.testing.assert_allclose(mc.primal_min, mc.dual_max,
                                   rtol=1e-9, atol=1e-12)
        # reported optimum really is grad(X) rho
        v = gradient(pauli, mc.potential)
        np.testing.assert_allclose(
            mc.optimal_m.blocks,
            np.einsum("kij,jl->kil", v.blocks, rho.mat), atol=1e-11)


def test_momentum_minimum_beats_feasible_perturbations(pauli):
    rng = np.random.default_rng(11)
    a = momentum_divergence_matrix(pauli)
    null = null_space(a)
    assert null.shape[1] > 0
    for _ in range(5):
        rho = rand_density(rng, 2)
        mc = momentum_min_check(pauli, rho, feasible_rhs(rng, pauli))
        for _ in range(20):
            delta = unvec_stack(null @ rng.standard_normal(null.shape[1]),
                                pauli.count, pauli.n)
            m2 = OperatorStack(mc.optimal_m.blocks + delta, flavor="general")
            val = kinetic(rho, m2).value
            assert val >= mc.primal_min - 1e-10


def test_momentum_divergence_matrix_consistency(pauli):
    # columns really compute div((m - m^*)/2) on the unvec_stack coordinates
    rng = np.random.default_rng(12)
    from momt import divergence

    for l in (pauli, rand_lindblad(np.random.default_rng(13), 2, 3)):
        shape = (l.count, l.n, l.n)
        m = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        y = m - np.conj(np.transpose(m, (0, 2, 1)))
        lhs = momentum_divergence_matrix(l) @ np.concatenate([m.real.ravel(), m.imag.ravel()])
        rhs = vec_h(0.5 * divergence(l, OperatorStack(y, flavor="skew")).mat)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_inner_product_against_quadratic_route(pauli):
    # <T_rho X; X> must equal Q_rho(grad X): the operator is the form's matrix
    rng = np.random.default_rng(15)
    rho = rand_density(rng, 2)
    x = rand_herm(rng, 2)
    lhs = inner_product(WeightedOperator(pauli, rho).apply(x), HermitianMatrix(x))
    rhs = quadratic_form(rho, gradient(pauli, x))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_weight_tensor_matches_blockwise_oracle(sz_only):
    # vec_h(rho) @ W is C^T T(rho) C for any Hermitian rho: T is linear in it.
    # Oracle: ref[a, e] = vec_h(h_a) . vec_h(T(rho) h_e), h_a = unvec_h(C e_a),
    # with T applied block by block from gradient and divergence
    rng = np.random.default_rng(12)
    sets = [rand_lindblad(rng, 3, 2), rand_lindblad(rng, 2, 3), rand_lindblad(rng, 2, 6),
            sz_only]
    for l in sets:
        n, d = l.n, l.complement_vecs.shape[1]
        rhos = np.array([rand_density(rng, n).mat, rand_density(rng, n).mat,
                         rand_herm(rng, n), rand_herm(rng, n)])  # PD, then indefinite
        evals = np.linalg.eigvalsh(rhos[2:])
        assert evals[:, 0].max() < 0 < evals[:, -1].min()
        got = (vec_h(rhos) @ l.weight_tensor.reshape(n * n, d * d)).reshape(-1, d, d)
        hs = unvec_h(l.complement_vecs.T, n)
        for g, rho in zip(got, rhos):
            t_hs = np.array([vec_h(apply_weighted(l, HermitianMatrix(rho), h).mat)
                             for h in hs])
            ref = vec_h(hs) @ t_hs.T
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("n", [2, 3, 6])
def test_solve_potential_is_one_interval_of_solve_potentials(n):
    rng = np.random.default_rng(20 + n)
    l = rand_lindblad(rng, 2, n)
    rho, f = rand_density(rng, n), feasible_rhs(rng, l)
    got = solve_potential(WeightedOperator(l, rho), f)
    xs, _ = solve_restricted(*restricted_data(l, rho.mat[None], f.mat[None]))
    expect = HermitianMatrix(unvec_h(xs @ l.complement_vecs.T, n)[0])
    assert np.array_equal(got.mat, expect.mat)


@pytest.mark.parametrize("n", [2, 3])
def test_restricted_weight_gate_at_the_floor(n):
    # solve_potential gates the weight on the smallest eigenvalue that its
    # WeightedOperator computed: 0.1 % below EPS_PD fails, 0.1 % above passes
    # (a NaN weight already stops in WeightedOperator)
    rng = np.random.default_rng(30 + n)
    l = rand_lindblad(rng, 2, n)
    f = feasible_rhs(rng, l)
    for scale, singular in [(1 - 1e-3, True), (1 + 1e-3, False)]:
        lam = np.full(n, (1.0 - EPS_PD * scale) / (n - 1))
        lam[0] = EPS_PD * scale
        u = rand_unitary(rng, n)
        w = WeightedOperator(l, hermitian_part(u @ np.diag(lam) @ u.conj().T))
        if singular:
            with pytest.raises(SingularWeight, match="min eigenvalue"):
                solve_potential(w, f)
        else:
            assert solve_potential(w, f).n == n


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_restricted_system_is_bounded_below_by_its_weight(n):
    # <X; T_rho X> = tr(rho sum_j (grad_j X)^* grad_j X) >= lambda_min(rho) |grad X|^2,
    # so A(rho) >= lambda_min(rho) A(I): a weight above EPS_PD (the gate of
    # solve_potential and the endpoints) or the line search's 1e-8 floor gives a
    # positive-definite system, and solve_restricted does not factor it again
    rng = np.random.default_rng(40 + n)
    l = rand_lindblad(rng, 3, n)
    rhos = []
    for floor in (1.001 * EPS_PD, 1e-8):
        for _ in range(4):
            lam = np.concatenate([[floor], (1 - floor) * rng.dirichlet(np.ones(n - 1))])
            u = rand_unitary(rng, n)
            rhos.append(hermitian_part(u @ np.diag(lam) @ u.conj().T))
    rhos = np.array(rhos + [np.eye(n) / n])
    tcs, _ = restricted_data(l, rhos, np.zeros_like(rhos))
    identity_low = np.linalg.eigvalsh(restricted_data(l, np.eye(n)[None],
                                                         np.zeros((1, n, n)))[0])[0, 0]
    lows = np.linalg.eigvalsh(tcs)[:, 0]
    bounds = np.linalg.eigvalsh(rhos)[:, 0] * identity_low
    rounding = 1e-14 * np.linalg.norm(tcs, ord=2, axis=(-2, -1))
    assert identity_low > 0 and np.all(lows >= bounds - rounding), (lows, bounds)
    assert abs(lows[-1] - identity_low / n) <= 1e-12 * identity_low / n


def test_solve_potentials_gates(pauli, three_level_pair, monkeypatch):
    rng = np.random.default_rng(13)
    rhos = np.array([rand_density(rng, 2).mat for _ in range(3)])
    fs = np.array([feasible_rhs(rng, pauli).mat for _ in range(3)])
    tcs, fcs = restricted_data(pauli, rhos, fs)
    xs, _ = solve_restricted(tcs, fcs)
    assert xs.shape == (3, 3) and tcs.shape == (3, 3, 3)
    # _systems only assembles: a singular weight and a kernel
    # component pass through it, and solve_potential is the gate that refuses them
    singular, identity = np.diag([1.0, 0.0]), fs[2] + 1e-3 * np.eye(2)
    restricted_data(pauli, np.array([singular, rhos[2]]), np.array([fs[1], identity]))
    with pytest.raises(SingularWeight):
        solve_potential(WeightedOperator(pauli, singular), fs[1])
    with pytest.raises(InfeasibleRHS):
        solve_potential(WeightedOperator(pauli, rhos[2]), identity)
    # an operator set with empty ker(grad)^perp has only zero potentials
    flat = LindbladSet([np.eye(2)])
    assert flat.complement_vecs.shape[1] == 0
    tcs, fcs = restricted_data(flat, rhos, np.zeros_like(fs))
    xs, _ = solve_restricted(tcs, fcs)
    assert xs.shape == (3, 0) and tcs.shape == (3, 0, 0)
    assert np.array_equal(unvec_h(xs @ flat.complement_vecs.T, 2), np.zeros((3, 2, 2)))
    # the residual gate still runs, in restricted form, on every system
    monkeypatch.setattr(momt.elliptic, "RESIDUAL_RTOL", -1.0)
    with pytest.raises(RuntimeError, match="residual"):
        solve_restricted(*restricted_data(pauli, rhos, fs))
    l, r0, r1 = three_level_pair
    with pytest.raises(RuntimeError, match="residual"):
        optimize_geodesic(l, r0, r1, SolverConfig(K=4))
