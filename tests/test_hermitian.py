import numpy as np
import pytest

from momt import (
    DensityMatrix,
    DimensionMismatch,
    DualPoint,
    ExtendedValue,
    FlavorError,
    HermitianMatrix,
    LindbladSet,
    NotPositive,
    NotUnitTrace,
    OperatorStack,
    ParseError,
    SymmetryError,
    WeightedOperator,
    feasibility_gap,
    fenchel_gap,
    gradient,
    heat_flow,
    initial_path,
    hermitian_basis,
    inner_product,
    kinetic,
    laplacian,
    legendre_feasible,
    matrix_from_literal,
    matrix_to_literal,
    momentum_min_check,
    optimize_geodesic,
    poincare_constant,
    project_kernel,
    quadratic_form,
    solve_potential,
    unvec_h,
    vec_h,
    vec_s,
)
from momt.elliptic import solve_restricted
from momt.hermitian import gram
from momt.lindblad import _square, grad_blocks
from conftest import (SX, SY, SZ, rand_density, rand_general_stack, rand_herm, rand_skew_stack,
                      restricted_data, unvec_stack)


def test_hermitian_symmetrizes_small_defects():
    a = np.array([[1.0, 0.3 + 1e-14j], [0.3, 2.0]])
    h = HermitianMatrix(a)
    np.testing.assert_allclose(h.mat, h.mat.conj().T)


def test_hermitian_rejects_large_defects():
    a = np.array([[1.0, 0.3 + 0.1j], [0.3, 2.0]])
    with pytest.raises(SymmetryError):
        HermitianMatrix(a)


def test_hermitian_mat_is_read_only():
    h = HermitianMatrix(np.eye(2))
    with pytest.raises(ValueError):
        h.mat[0, 0] = 5.0


def test_density_trace_gate():
    with pytest.raises(NotUnitTrace):
        DensityMatrix(np.diag([0.5, 0.4]))


def test_density_positivity_gate():
    with pytest.raises(NotPositive):
        DensityMatrix(np.diag([1.2, -0.2]))
    # non-strict admits the boundary, strict does not
    boundary = np.diag([1.0, 0.0]).astype(complex)
    checked = DensityMatrix(boundary)
    with pytest.raises(NotPositive):
        DensityMatrix(boundary, strict=True)
    # re-checking an admitted density still runs the strict spectrum gate
    with pytest.raises(NotPositive):
        DensityMatrix(checked, strict=True)


def test_density_from_density_reuses_checked_base():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    strict = DensityMatrix(rho, strict=True)
    assert strict.mat is rho.mat
    assert np.array_equal(strict.mat, DensityMatrix(rho.mat, strict=True).mat)


def test_min_eig_computed_once(monkeypatch):
    # mat is read-only, so the spectrum is computed once per checked array
    rho = rand_density(np.random.default_rng(5), 4)
    assert rho.min_eig() == np.linalg.eigvalsh(rho.mat)[0]

    def refuse(*args):
        raise AssertionError("a checked spectrum was computed again")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    strict = DensityMatrix(rho, strict=True)
    assert strict.min_eig() == rho.min_eig()
    monkeypatch.undo()
    # the shared value still meets the strict gate's threshold
    with pytest.raises(NotPositive):
        DensityMatrix(DensityMatrix(np.diag([1.0, 0.0])), strict=True)


def test_checked_matrix_is_shared_not_checked_again(monkeypatch):
    # a wrapper's array is read-only, so wrapping it again shares the array
    # and its cached spectrum: no copy, no range or symmetry check, no
    # second eigvalsh; a stack of the asked flavor (a skew one serves as
    # general) shares its blocks the same way
    rng = np.random.default_rng(6)
    h = HermitianMatrix(rand_herm(rng, 3))
    rho = rand_density(np.random.default_rng(7), 3)
    lows = [h.min_eig(), rho.min_eig()]
    general, skew = rand_general_stack(rng, 2, 3), rand_skew_stack(rng, 2, 3)
    h2, rho2 = HermitianMatrix(np.diag([1.0, -1.0])), rand_density(np.random.default_rng(8), 2)

    def refuse(*args, **kwargs):
        raise AssertionError("a checked matrix was checked again")

    for name in ("eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name in ("isfinite", "abs", "array", "asarray", "conj", "swapaxes"):
        monkeypatch.setattr(np, name, refuse)
    shared = [HermitianMatrix(h), HermitianMatrix(rho)]
    assert [type(g) for g in shared] == [HermitianMatrix, HermitianMatrix]
    assert all(g.mat is w.mat for g, w in zip(shared, (h, rho)))
    assert [g.min_eig() for g in shared] == lows
    stacks = [(OperatorStack(general), general), (OperatorStack(skew, flavor="skew"), skew),
              (OperatorStack(skew), skew)]
    assert all(s.blocks is w.blocks for s, w in stacks)
    assert [s.flavor for s, _ in stacks] == ["general", "skew", "general"]
    # the set-size gate shares a wrapper's array, and a weighted operator
    # admits its weight once for both its weight and its size checks
    assert _square(PAULI_SET, h2) is h2.mat
    assert WeightedOperator(PAULI_SET, rho2).rho is rho2.mat


def test_stack_flavor_enforcement():
    rng = np.random.default_rng(3)
    h = rand_herm(rng, 3)
    OperatorStack(np.array([1j * h]), flavor="skew")
    with pytest.raises(FlavorError):
        OperatorStack(np.array([h + 0.2j * np.eye(3)]), flavor="hermitian")
    with pytest.raises(FlavorError):
        OperatorStack(np.array([h]), flavor="skew")
    with pytest.raises(FlavorError):
        OperatorStack(np.array([h]), flavor="nonsense")


NAN, INF = float("nan"), float("inf")
MIXED = np.eye(2) / 2
NAN_WEIGHT = np.diag([NAN, 0.5])


@pytest.mark.parametrize("call, error", [
    (lambda: DensityMatrix([[NAN, 0], [0, 0.5]]), SymmetryError),
    (lambda: HermitianMatrix([[0, INF], [0, 0]]), SymmetryError),
    (lambda: OperatorStack(np.full((1, 2, 2), NAN)), ValueError),
    (lambda: OperatorStack(np.full((1, 2, 2), NAN), flavor="skew"), ValueError),
    (lambda: solve_potential(WeightedOperator(LindbladSet([SX, SY, SZ]), MIXED),
                             np.diag([NAN, 0])), SymmetryError),
    (lambda: solve_restricted(*restricted_data(
        LindbladSet([SX, SY, SZ]), MIXED[None], np.diag([NAN, 0])[None])), RuntimeError),
    (lambda: heat_flow(LindbladSet([SX, SY, SZ]), MIXED, NAN), ValueError),
    (lambda: heat_flow(LindbladSet([SX, SY, SZ]), MIXED, INF), ValueError),
    (lambda: feasibility_gap(LindbladSet([SX, SY, SZ]), np.diag([NAN, 0.5]), MIXED),
     SymmetryError),
    (lambda: kinetic(np.diag([NAN, 0.5]), np.ones((3, 2, 2))), ValueError),
    (lambda: ExtendedValue.of(NAN), ValueError),
    (lambda: quadratic_form(NAN_WEIGHT, np.ones((3, 2, 2))), SymmetryError),
    (lambda: poincare_constant(LindbladSet([SX, SY, SZ]), NAN_WEIGHT), SymmetryError),
    (lambda: WeightedOperator(LindbladSet([SX, SY, SZ]), NAN_WEIGHT), SymmetryError),
    (lambda: momentum_min_check(LindbladSet([SX, SY, SZ]), NAN_WEIGHT, SZ), SymmetryError),
    (lambda: gradient(LindbladSet([SX, SY, SZ]), np.diag([NAN, 0])), SymmetryError),
    (lambda: laplacian(LindbladSet([SX, SY, SZ]), np.diag([INF, 0])), SymmetryError),
    # finite entries whose squares or A + A^* overflow: above MAX_ENTRY, refused as non-finite
    (lambda: HermitianMatrix(np.diag([1e308, 1e308])), SymmetryError),
    (lambda: HermitianMatrix([[0, 1e300], [-1e300, 0]]), SymmetryError),
    (lambda: OperatorStack([[[0, 1e300], [1e300, 0]]], flavor="skew"), ValueError),
    (lambda: kinetic(MIXED, np.full((1, 2, 2), 1e200)), ValueError),
    (lambda: quadratic_form(MIXED, np.full((1, 2, 2), 1e200)), ValueError),
    (lambda: legendre_feasible(DualPoint(a=-np.eye(2), b=np.full((1, 2, 2), 1e200))), ValueError),
], ids=["density", "hermitian-inf", "general-stack", "skew-stack", "potential-residual",
        "restricted-residual", "heat-flow-nan-time", "heat-flow-inf-time",
        "feasibility-gap-nan", "kinetic",
        "extended-value", "quadratic-form-weight", "poincare-weight", "weighted-operator-weight",
        "momentum-check-weight", "gradient-nan", "laplacian-inf", "hermitian-huge-diagonal",
        "hermitian-huge-skew", "skew-stack-huge", "kinetic-huge", "quadratic-form-huge",
        "legendre-huge"])
def test_gates_fail_closed_on_non_finite_input(call, error):
    # a NaN compares false both ways, so a gate written "x > bound" waves it through;
    # an overflowing norm reads inf, and inf <= SYM_TOL * inf passes a defect test
    with pytest.raises(error):
        call()


PAULI_SET = LindbladSet([SX, SY, SZ])
QUTRIT = np.eye(3) / 3


@pytest.mark.parametrize("call, error", [
    (lambda: optimize_geodesic(PAULI_SET, QUTRIT, QUTRIT), DimensionMismatch),
    (lambda: initial_path(PAULI_SET, QUTRIT, QUTRIT, 4), DimensionMismatch),
    (lambda: feasibility_gap(PAULI_SET, QUTRIT, QUTRIT), DimensionMismatch),
    (lambda: poincare_constant(PAULI_SET, QUTRIT), DimensionMismatch),
    (lambda: momentum_min_check(PAULI_SET, QUTRIT, SZ), DimensionMismatch),
    (lambda: momentum_min_check(PAULI_SET, MIXED, np.diag([1.0, -1.0, 0.0])),
     DimensionMismatch),
    (lambda: solve_potential(WeightedOperator(PAULI_SET, MIXED), np.diag([1.0, -1.0, 0.0])),
     DimensionMismatch),
    (lambda: solve_potential(WeightedOperator(PAULI_SET, MIXED), 1j * SZ), SymmetryError),
    (lambda: HermitianMatrix(np.zeros((0, 0))), DimensionMismatch),
    (lambda: LindbladSet([np.zeros((0, 0))]), DimensionMismatch),
    (lambda: LindbladSet([]), DimensionMismatch),
    (lambda: LindbladSet([SX, np.eye(3)]), DimensionMismatch),
    (lambda: OperatorStack(np.zeros((2, 2))), DimensionMismatch),
    (lambda: quadratic_form(MIXED, np.ones((3, 3, 3))), DimensionMismatch),
    (lambda: legendre_feasible(DualPoint(a=HermitianMatrix(QUTRIT),
                                         b=OperatorStack(np.ones((1, 2, 2))))),
     DimensionMismatch),
    (lambda: heat_flow(LindbladSet([SX, SZ]), [[0.5, 0.3], [0, 0.5]], 0.1), SymmetryError),
    (lambda: heat_flow(LindbladSet([SX, SZ]), QUTRIT, 0.1), DimensionMismatch),
    (lambda: feasibility_gap(PAULI_SET, [[0.5, 0.3], [0, 0.5]], MIXED), SymmetryError),
    (lambda: project_kernel(PAULI_SET, [[0.5, 0.3], [0, 0.5]]), SymmetryError),
    # a non-Hermitian X whose image is (skew-)Hermitian, even zero, stops at the input
    (lambda: gradient(LindbladSet([SZ]), np.diag([1j, 0])), SymmetryError),
    (lambda: laplacian(PAULI_SET, 1j * np.eye(2)), SymmetryError),
    (lambda: WeightedOperator(PAULI_SET, MIXED).apply([[0, 1], [0, 0]]), SymmetryError),
    (lambda: WeightedOperator(PAULI_SET, MIXED).apply(QUTRIT), DimensionMismatch),
    (lambda: fenchel_gap(DensityMatrix(np.diag([0.7, 0.3])), np.zeros((3, 2, 2)),
                         DualPoint(a=HermitianMatrix(-np.eye(3)),
                                   b=OperatorStack(np.zeros((3, 3, 3))))),
     DimensionMismatch),
], ids=["geodesic", "initial-path", "feasibility-gap", "poincare", "momentum-check-weight",
        "momentum-check-rhs", "potential-rhs", "potential-non-hermitian-rhs",
        "empty-hermitian", "empty-operator", "no-operator", "mixed-operators", "flat-stack",
        "quadratic-form", "legendre-dual-point", "heat-flow-non-hermitian-start",
        "heat-flow-start-size", "feasibility-gap-non-hermitian",
        "project-kernel-non-hermitian", "gradient-non-hermitian", "laplacian-non-hermitian",
        "apply-non-hermitian", "apply-size", "fenchel-dual-point-size"])
def test_gates_reject_wrong_size_or_symmetry(call, error):
    # a 3 x 3 input against 2-level operators, a skew right-hand side or an
    # empty matrix stops at the input gate, before any product or solve
    with pytest.raises(error):
        call()


def test_inner_product_real_for_hermitian_pairs():
    rng = np.random.default_rng(4)
    x = HermitianMatrix(rand_herm(rng, 3))
    y = HermitianMatrix(rand_herm(rng, 3))
    v = inner_product(x, y)
    assert isinstance(v, float)
    # trace form, computed the long way
    np.testing.assert_allclose(v, np.trace(x.mat.conj().T @ y.mat).real,
                               atol=1e-13)


def test_inner_product_stacks_and_mismatch():
    rng = np.random.default_rng(5)
    a = rand_general_stack(rng, 2, 3)
    b = rand_general_stack(rng, 2, 3)
    v = inner_product(a, b)
    direct = sum(np.trace(a.blocks[k].conj().T @ b.blocks[k]) for k in range(2))
    np.testing.assert_allclose(v, direct, atol=1e-13)
    with pytest.raises(DimensionMismatch):
        inner_product(a, rand_general_stack(rng, 3, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hermitian_basis_orthonormal(n):
    basis = hermitian_basis(n)
    assert basis.shape == (n * n, n, n)
    gram = np.einsum("aij,bij->ab", np.conj(basis), basis)
    np.testing.assert_allclose(gram, np.eye(n * n), atol=1e-13)
    for b in basis:
        np.testing.assert_allclose(b, b.conj().T, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vec_h_isometric_round_trip(n):
    rng = np.random.default_rng(10 + n)
    x = rand_herm(rng, n)
    v = vec_h(x)
    assert v.dtype.kind == "f"
    np.testing.assert_allclose(np.linalg.norm(v), np.linalg.norm(x), rtol=1e-13)
    np.testing.assert_allclose(unvec_h(v, n), x, atol=1e-13)


@pytest.mark.parametrize("n", range(1, 11))
def test_vec_gemm_matches_einsum_oracle(n):
    # the GEMMs against the flattened basis give the einsum contraction's bits
    basis = hermitian_basis(n)
    rng = np.random.default_rng(30 + n)
    a = np.array([rand_herm(rng, n) for _ in range(5)])
    a[rng.random(a.shape) < 0.2] = 0.0
    a[rng.random(a.shape) < 0.2] = -0.0
    x = rng.standard_normal((5, n * n))
    x[rng.random(x.shape) < 0.2] = -0.0
    ref_vec = np.einsum("aij,...ij->...a", np.conj(basis), a).real
    np.testing.assert_array_equal(vec_h(a), ref_vec)
    np.testing.assert_array_equal(vec_h(a[2]), ref_vec[2])
    np.testing.assert_array_equal(
        vec_s(1j * a), np.einsum("aij,...ij->...a", np.conj(basis), -1j * (1j * a)).real)
    np.testing.assert_array_equal(unvec_h(x, n), np.einsum("...a,aij->...ij", x, basis))
    np.testing.assert_array_equal(unvec_h(x[0], n), np.einsum("a,aij->ij", x[0], basis))


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_commutator_and_gram_gemms_match_block_loops(n, count):
    # grad_blocks and gram against one product per block, relative to the
    # size of the products, for 0, 1 and 2 leading axes and a strided view
    rng = np.random.default_rng(50 + 10 * count + n)
    l = LindbladSet([rand_herm(rng, n) for _ in range(count)])
    shape = (4, 3, count, n, n)
    stacks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for blocks in (stacks[0, 0], stacks[0], stacks, stacks[::2, :, :, ::-1].swapaxes(-1, -2)):
        xs = blocks[..., 0, :, :]
        got_grad, got_gram = grad_blocks(l, xs), gram(blocks)
        assert got_grad.shape == xs.shape[:-2] + (count, n, n)
        assert got_gram.shape == xs.shape
        for idx in np.ndindex(xs.shape[:-2]):
            x, bs = xs[idx], blocks[idx]
            ref_grad = np.array([op @ x - x @ op for op in l.ops])
            scale = max(np.linalg.norm(op) for op in l.ops) * np.linalg.norm(x)
            np.testing.assert_allclose(got_grad[idx], ref_grad, rtol=0, atol=1e-14 * scale)
            ref_gram = sum(b.conj().T @ b for b in bs)
            np.testing.assert_allclose(got_gram[idx], ref_gram, rtol=0,
                                       atol=1e-14 * np.linalg.norm(bs) ** 2)


def test_vec_s_round_trip():
    rng = np.random.default_rng(11)
    s = 1j * rand_herm(rng, 3)
    np.testing.assert_allclose(1j * unvec_h(vec_s(s), 3), s, atol=1e-13)


def test_unvec_stack_layout():
    # the coordinates are all real parts, then all imaginary parts, in C order
    rng = np.random.default_rng(12)
    m = rand_general_stack(rng, 3, 2).blocks
    x = np.concatenate([m.real.ravel(), m.imag.ravel()])
    got = unvec_stack(x, 3, 2)
    assert got.shape == (3, 2, 2)
    np.testing.assert_array_equal(got, m)


def test_vec_h_pairing_matches_inner_product():
    # the whole point of the coordinates: real dot product = trace pairing
    rng = np.random.default_rng(13)
    x, y = rand_herm(rng, 4), rand_herm(rng, 4)
    np.testing.assert_allclose(
        float(vec_h(x) @ vec_h(y)),
        inner_product(HermitianMatrix(x), HermitianMatrix(y)),
        atol=1e-12,
    )
    a, b = 1j * rand_herm(rng, 4), 1j * rand_herm(rng, 4)
    np.testing.assert_allclose(float(vec_s(a) @ vec_s(b)),
                               np.sum(np.conj(a) * b).real, atol=1e-12)


def test_matrix_literal_round_trip():
    rng = np.random.default_rng(14)
    a = rand_herm(rng, 3) + 1j * 0  # generic complex also fine
    lit = matrix_to_literal(a)
    assert set(lit) == {"n", "re", "im"}
    np.testing.assert_array_equal(matrix_from_literal(lit), a)
    bad = dict(lit, re=[[1.0, 2.0]])
    with pytest.raises(ParseError):
        matrix_from_literal(bad)


@pytest.mark.parametrize("literal, message", [
    ({"n": 1, "re": [["0.9"]], "im": [[True]]}, r"\$\.re\[0\]\[0\]: expected float"),
    ({"n": 1, "re": [[10 ** 400]], "im": [[0.0]]},
     r"\$\.re\[0\]\[0\]: number is outside the float range"),
    ({"n": 2, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
     r"\$\.re: expected 2 lists of 2 numbers"),
    ({"n": 1, "re": [[1.0]], "im": [[None]]}, r"\$\.im\[0\]\[0\]: expected float"),
], ids=["string-and-bool", "beyond-float-range", "ragged-row", "null"])
def test_matrix_from_literal_gates_every_entry(literal, message):
    # the reader is the literal format's gate: it refuses what a problem file refuses,
    # naming the entry, instead of converting a string, a bool or null, or leaking numpy
    with pytest.raises(ParseError, match=message):
        matrix_from_literal(literal)


def test_stack_indexing():
    blocks = np.array([SX, SZ])
    s = OperatorStack(blocks, flavor="general")
    assert s.blocks.shape == (2, 2, 2)
    np.testing.assert_array_equal(s.blocks[1], SZ)
    np.testing.assert_allclose(s.norm(), np.sqrt(4.0))


def test_skew_stack_norm():
    rng = np.random.default_rng(15)
    y = rand_skew_stack(rng, 2, 3)
    np.testing.assert_allclose(y.norm(), np.linalg.norm(y.blocks), rtol=1e-13)
