import json

import numpy as np
import pytest
from scipy.linalg import expm

from momt import (
    DensityMatrix,
    DimensionMismatch,
    FlavorError,
    HermitianMatrix,
    LindbladSet,
    OperatorStack,
    SymmetryError,
    divergence,
    gradient,
    hermitian_basis,
    heat_flow,
    inner_product,
    laplacian,
    optimize_geodesic,
    project_kernel,
    unvec_h,
    vec_h,
)
from momt.cli import main
from momt.elliptic import IllConditioned, WeightedOperator, solve_potential
from momt.io import load_problem
from momt.verify import _rand_complement, _rand_density
from conftest import (FIXTURES, SX, SY, SZ, rand_density, rand_herm, rand_lindblad,
                      rand_skew_stack)


def test_gradient_blockwise_definition(pauli):
    rng = np.random.default_rng(0)
    x = rand_herm(rng, 2)
    g = gradient(pauli, x)
    assert g.flavor == "skew"
    for lk, blk in zip((SX, SY, SZ), g.blocks):
        np.testing.assert_allclose(blk, lk @ x - x @ lk, atol=1e-14)


def test_construction_rejects_non_hermitian():
    from momt import SymmetryError

    with pytest.raises(SymmetryError):
        LindbladSet([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_wrapped_operators_are_not_checked_again():
    # parse_problem wraps each operator before LindbladSet sees it, and the set
    # trusts that check: an array swapped in behind a wrapper's gate is taken
    # as it is, where the same raw array is rejected
    op = HermitianMatrix(SX)
    op.mat = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    l = LindbladSet([op, HermitianMatrix(SZ)])
    assert np.array_equal(l.ops[0], op.mat)
    with pytest.raises(SymmetryError):
        LindbladSet([op.mat, SZ])


def test_adjointness_random_sets():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        l = rand_lindblad(rng, int(rng.integers(1, 5)), n)
        x = rand_herm(rng, n)
        y = rand_skew_stack(rng, l.count, n)
        lhs = inner_product(gradient(l, x), y)
        rhs = inner_product(HermitianMatrix(x), divergence(l, y))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, abs(lhs)))


def test_divergence_requires_skew_flavor(pauli):
    rng = np.random.default_rng(2)
    blocks = np.array([rand_herm(rng, 2) for _ in range(3)])
    with pytest.raises(FlavorError):
        divergence(pauli, OperatorStack(blocks, flavor="general"))
    with pytest.raises(FlavorError):  # a general stack is refused even with skew blocks
        divergence(pauli, OperatorStack(1j * blocks, flavor="general"))


def test_divergence_dimension_check(pauli):
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatch):
        divergence(pauli, rand_skew_stack(rng, 2, 2))


def test_laplacian_two_routes():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        l = rand_lindblad(rng, int(rng.integers(1, 4)), n)
        x = rand_herm(rng, n)
        closed = laplacian(l, x).mat
        composed = -divergence(l, gradient(l, x)).mat
        np.testing.assert_allclose(closed, composed, atol=1e-12 * max(1, np.linalg.norm(closed)))


def test_laplacian_of_stiff_operators_is_hermitian():
    # at |L_k| ~ 100 the closed form's rounding defect (1.3e-12 here) exceeds
    # the wrapper's symmetry gate, so laplacian must take the Hermitian part
    rng = np.random.default_rng(0)
    a, b = rand_herm(rng, 3), rand_herm(rng, 3)
    lap = laplacian(LindbladSet([100 * a, 100 * b]), np.eye(3) / 3)
    np.testing.assert_array_equal(lap.mat, lap.mat.conj().T)
    np.testing.assert_allclose(lap.mat, 0, atol=1e-10)


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_gradient_of_stiff_potentials_is_skew(tmp_path, scale):
    # on F2 the commutators' rounding defect grows with |L_k| |X| past the skew
    # gate (3.6e-12 at s = 1e6), so gradient must take the skew part it computes
    # (the parent refused 3 of these 20 draws at 1e6 and 7 at 1e8)
    l = load_problem(f2_problem(tmp_path, scale)).lindblad
    rng = np.random.default_rng(1234)
    tested = 0
    for _ in range(20):
        w = WeightedOperator(l, _rand_density(rng, l.n))
        try:
            x = solve_potential(w, _rand_complement(rng, l))
        except IllConditioned:  # one draw at 1e8: the residual gate's regime, not gradient's
            continue
        g = gradient(l, x).blocks
        np.testing.assert_array_equal(g, -np.conj(np.swapaxes(g, -1, -2)))
        tested += 1
    assert tested >= 19


def test_grad_matrix_shape_and_action(pauli):
    assert pauli.grad_matrix.shape == (3 * 4, 4)
    rng = np.random.default_rng(5)
    x = rand_herm(rng, 2)
    top = pauli.grad_matrix @ vec_h(x)
    assert top.dtype.kind == "f"
    # squared length of the coordinate image equals the stack norm squared
    np.testing.assert_allclose(np.linalg.norm(top),
                               gradient(pauli, x).norm(), rtol=1e-12)


def test_kernel_dimensions(pauli, sz_only):
    assert pauli.kernel_dim == 1
    assert sz_only.kernel_dim == 2
    full = LindbladSet([np.eye(2)])
    assert full.kernel_dim == 4
    assert full.complement_vecs.shape[1] == 0


def test_kernel_identity_is_first_element(pauli, sz_only):
    for l in (pauli, sz_only):
        np.testing.assert_allclose(unvec_h(l.kernel_vecs[:, 0], l.n),
                                   np.eye(l.n) / np.sqrt(l.n), atol=1e-12)


def test_sz_kernel_is_diagonal_span(sz_only):
    # matrices commuting with sigma_z = all diagonal matrices
    for b in unvec_h(sz_only.kernel_vecs.T, 2):
        off = b - np.diag(np.diag(b))
        assert np.linalg.norm(off) < 1e-12
        assert gradient(sz_only, b).norm() < 1e-12


def test_projection_properties(pauli, sz_only):
    rng = np.random.default_rng(6)
    for l in (pauli, sz_only):
        x = rand_herm(rng, 2)
        p = project_kernel(l, x)
        p2 = project_kernel(l, p.mat)
        np.testing.assert_allclose(p.mat, p2.mat, atol=1e-13)
        # residual orthogonal to every kernel element
        for b in unvec_h(l.kernel_vecs.T, l.n):
            assert abs(inner_product(HermitianMatrix(b), HermitianMatrix(x - p.mat))) < 1e-12


def test_complement_orthogonal_to_kernel(pauli, sz_only):
    for l in (pauli, sz_only):
        cross = l.kernel_vecs.T @ l.complement_vecs
        assert np.linalg.norm(cross) < 1e-12


def f2_problem(tmp_path, scale) -> str:
    """flat_cost_qutrit21.json (K = 8) with operators[0]'s (2, 2) entry times scale."""
    doc = json.loads((FIXTURES / "flat_cost_qutrit21.json").read_text())
    doc["lindblad"]["operators"][0]["re"][2][2] *= scale
    path = tmp_path / f"f2_{scale:g}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _near_cut_set(eps):
    # a diagonal operator's kernel is every diagonal matrix; eps * H cuts it down
    # with singular values of size eps, next to the KERNEL_RTOL rank cut
    rng = np.random.default_rng(4)
    return [np.diag(rng.standard_normal(4)), eps * rand_herm(rng, 4)]


def _block_set():
    # two operators diag(A_i, b_i, c_i), blocks 2 + 1 + 1: the kernel is spanned
    # by the three block projectors
    rng = np.random.default_rng(6)
    ops = []
    for _ in range(2):
        op = np.zeros((4, 4), dtype=complex)
        op[:2, :2], op[2, 2], op[3, 3] = rand_herm(rng, 2), *rng.standard_normal(2)
        ops.append(op)
    return ops


@pytest.mark.parametrize("make, kernel_dim", [
    (lambda tmp: load_problem(f2_problem(tmp, 1.0)).lindblad, 1),
    (lambda tmp: load_problem(f2_problem(tmp, 1e6)).lindblad, 1),
    (lambda tmp: load_problem(f2_problem(tmp, 1e9)).lindblad, 1),
    (lambda tmp: LindbladSet(_near_cut_set(1e-10)), 2),
    (lambda tmp: LindbladSet(_near_cut_set(1e-9)), 1),
    (lambda tmp: LindbladSet([SZ]), 2),
    (lambda tmp: LindbladSet(_block_set()), 3),
], ids=["f2-1", "f2-1e6", "f2-1e9", "near-cut-1e-10", "near-cut-1e-9", "sz-only", "blocks-2-1-1"])
def test_kernel_holds_identity_and_an_orthogonal_complement(tmp_path, make, kernel_dim):
    # I/sqrt(n) is split off before the rank decision, so [kernel | complement] is
    # orthonormal at every operator scale and next to the rank cut, where an SVD
    # complement is orthogonal to the literal I only up to its subspace error
    l = make(tmp_path)
    q = np.column_stack([l.kernel_vecs, l.complement_vecs])
    assert np.abs(q.T @ q - np.eye(l.n * l.n)).max() <= 1e-13
    assert np.array_equal(l.kernel_vecs[:, 0], vec_h(np.eye(l.n)) / np.sqrt(l.n))
    assert l.kernel_dim == kernel_dim
    assert l.kernel_dim + l.complement_vecs.shape[1] == l.n * l.n


@pytest.mark.parametrize("scale", [1e6, 1e9], ids=["1e6", "1e9"])
def test_mixed_scale_solve_keeps_unit_trace(tmp_path, capsys, scale):
    # F2: with the complement orthogonal to I, no iterate leaves trace 1; the heat
    # flow's central difference steps in the set's time unit, and the momentum
    # row's gradient is no longer refused by the skew gate (s = 1e9 meets the
    # residual gate's IllConditioned there)
    problem = f2_problem(tmp_path, scale)
    spec = load_problem(problem)
    assert optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config).trace_drift <= 1e-14
    main(["verify", problem, "--suite", "all", "--json"])
    checks = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["unit trace along every solver iterate"]
    assert checks["heat flow solves rho' = laplacian(rho)/2"]
    assert checks["constrained momentum primal equals dual"] or scale == 1e9


def test_heat_flow_trace_and_positivity(pauli):
    rng = np.random.default_rng(7)
    # a random start at t = 1, and the rank-one diag(1, 0) at t = 5
    for rho, t in ((rand_density(rng, 2), 1.0),
                   (DensityMatrix(np.diag([1.0, 0.0]).astype(complex)), 5.0)):
        out = heat_flow(pauli, rho, t)
        np.testing.assert_allclose(np.trace(out.mat).real, 1.0, atol=1e-10)
        assert out.min_eig() >= -1e-8


def test_heat_flow_limit_is_kernel_projection(pauli, sz_only):
    rng = np.random.default_rng(8)
    for l in (pauli, sz_only):
        rho = rand_density(rng, 2)
        target = project_kernel(l, rho.mat).mat
        out = heat_flow(l, rho, 14.0)
        np.testing.assert_allclose(out.mat, target, atol=1e-8)


def test_heat_flow_matches_matrix_exponential(pauli, sz_only):
    # independent oracle: exponentiate the matrix of rho -> -(1/2) grad^T grad rho
    # assembled from the coordinate representation, not from the closed form;
    # sz_only's kernel is 2-dimensional, so its rank cut drops two singular values
    rng = np.random.default_rng(12)
    cases = [(pauli, DensityMatrix(np.diag([0.9, 0.1]).astype(complex))),
             (sz_only, rand_density(rng, 2)),
             (rand_lindblad(rng, 2, 3), rand_density(rng, 3)),
             (rand_lindblad(rng, 3, 4), rand_density(rng, 4))]
    for l, rho in cases:
        gen = -0.5 * l.grad_matrix.T @ l.grad_matrix
        exact = np.linalg.multi_dot([expm(0.7 * gen), vec_h(rho.mat)])
        approx = heat_flow(l, rho, 0.7)
        np.testing.assert_allclose(vec_h(approx.mat), exact, atol=1e-6)


def test_heat_flow_reuses_the_kernel_decomposition(pauli, monkeypatch):
    # the kernel's SVD of grad_matrix already diagonalizes the generator, so a
    # flow factors no matrix of its own
    rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(1) or eigh(*a, **kw))
    heat_flow(pauli, rho, 0.7)
    assert not calls


def test_generator_matrix_matches_laplacian_columns(pauli, sz_only):
    rng = np.random.default_rng(9)
    for l in (pauli, sz_only, rand_lindblad(rng, 2, 3), rand_lindblad(rng, 3, 4)):
        cols = [vec_h(0.5 * laplacian(l, b).mat) for b in hermitian_basis(l.n)]
        gen = -0.5 * l.grad_matrix.T @ l.grad_matrix
        np.testing.assert_allclose(gen, np.array(cols).T, rtol=0, atol=1e-12)


def test_heat_flow_step_gate_and_zero_time(pauli):
    rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    with pytest.raises(ValueError, match="t_final"):  # the time gate
        heat_flow(pauli, rho, -1.0)
    # no time to flow: the start state comes back unchanged
    assert np.array_equal(heat_flow(pauli, rho, 0.0).mat, rho.mat)


def test_thin_svd_kernel_matches_full_svd(monkeypatch):
    # the kernel build reads only s and vh; the thin SVD must give the same
    # bases, bit for bit, as the full one that also forms the unused U
    rng = np.random.default_rng(11)
    sets = [[SZ], [SX, SY, SZ], [SX, SZ]]
    sets += [[rand_herm(rng, n) for _ in range(count)]
             for n in (2, 3, 5, 8) for count in (1, 2, 3)]
    thin = [LindbladSet(ops) for ops in sets]
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, full_matrices=True, **kw: svd(a, full_matrices=True, **kw))
    for ops, l in zip(sets, thin):
        full = LindbladSet(ops)
        assert np.array_equal(l.kernel_vecs, full.kernel_vecs)
        assert np.array_equal(l.complement_vecs, full.complement_vecs)
