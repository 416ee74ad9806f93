"""Weighted elliptic machinery.

For a weight rho >= 0 the central object is the self-adjoint map

    T_rho : X  |->  div( (grad(X) rho + rho grad(X)) / 2 ),

whose quadratic form is <X; T_rho X> = Q_rho(grad X) with
Q_rho(v) = tr(rho v^* v).  Restricted to ker(grad)^perp the map is
positive definite whenever rho is, which yields:

* solve_potential — the unique X in ker(grad)^perp with T_rho X = f;
  solve_potentials does the same for K weights, from one contraction of
  the operator set's cached weight tensor and one batched Cholesky, and
  returns ker(grad)^perp coordinates and the restricted systems it solved,
* poincare_constant — the smallest restricted eigenvalue (the sharp
  constant c in Q_rho(grad(X - proj X)) >= c |X - proj X|^2),
* momentum_min_check — the primal/dual pair certifying that m = grad(X) rho
  minimizes the kinetic cost among all momenta with a prescribed
  divergence picture.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hermitian import (
    EPS_PD,
    DimensionMismatch,
    HermitianMatrix,
    OperatorStack,
    _entries,
    gram,
    hermitian_basis,
    inner_product,
    unvec_h,
    unvec_stack,
    vec_h,
)
from .lindblad import LindbladSet, divergence, gradient


# residual bound of every potential solve: |T x - f| <= RESIDUAL_RTOL * max(|f|, 1)
RESIDUAL_RTOL = 1e-9


class WeightError(ValueError):
    """The weight matrix is not positive semidefinite."""


class SingularWeight(ValueError):
    """The weight matrix is singular (or nearly so) where strict positivity is required."""


class InfeasibleRHS(ValueError):
    """Right-hand side has a component inside ker(grad); no potential exists."""


def _weight(rho) -> np.ndarray:
    r = _entries(rho)
    r = 0.5 * (r + r.conj().T)
    lo = float(np.linalg.eigvalsh(r)[0])
    if lo < -EPS_PD:
        raise WeightError(f"weight has negative eigenvalue {lo:.3e}")
    return r


def quadratic_form(rho, v) -> float:
    """Q_rho(v) = tr(rho v^* v), summing the block Gram matrix; >= 0."""
    r = _weight(rho)
    blocks = _entries(v)
    if blocks.shape[1] != r.shape[0]:
        raise DimensionMismatch("weight and stack dimensions differ")
    return float(np.trace(r @ gram(blocks)).real)


def _weighted_stack(l: LindbladSet, rhos: np.ndarray) -> np.ndarray:
    """T(rho_k) for a (K, n, n) stack of weights: (K, n^2, n^2), real symmetric.

    T = sum_j G_j^T R G_j with G_j the rows of grad_matrix for operator j
    (skew coordinates by Hermitian coordinates) and R(rho)_{ab} =
    Re tr(B_a B_b rho), the matrix of v |-> (v rho + rho v)/2 on skew
    coordinates.
    """
    n, n2, big_k = l.n, l.n * l.n, rhos.shape[0]
    basis = hermitian_basis(n)
    # rows (k, b) of b_rho hold (B_b rho_k)^T flattened, so the product with
    # the flattened basis sums tr(B_a B_b rho_k); (n^3, n) @ rhos forms every
    # B_b rho_k in K calls instead of K n^2
    b_rho = np.swapaxes((basis.reshape(-1, n) @ rhos).reshape(-1, n, n), -1, -2)
    r = (b_rho.reshape(-1, n2) @ basis.reshape(n2, n2).T).real.reshape(big_k, n2, n2)
    r = 0.5 * (r + np.swapaxes(r, -1, -2))
    g = l.grad_matrix.reshape(l.count, n2, n2)
    t = (np.swapaxes(g, -1, -2) @ (r[:, None] @ g)).sum(axis=1)
    return 0.5 * (t + np.swapaxes(t, -1, -2))


def _restrict(l: LindbladSet, t: np.ndarray) -> np.ndarray:
    """C^T T C on ker(grad)^perp for a stack of weighted matrices, symmetrized."""
    c = l.complement_vecs
    tc = c.T @ t @ c
    return 0.5 * (tc + np.swapaxes(tc, -1, -2))


def _check_weights(rhos: np.ndarray) -> None:
    lo = float(np.linalg.eigvalsh(rhos)[:, 0].min())
    if lo <= EPS_PD:
        raise SingularWeight(
            f"weight min eigenvalue {lo:.3e} <= {EPS_PD:.1e}; the restricted "
            "system is not safely invertible"
        )


def _solve_stack(l: LindbladSet, tc: np.ndarray, fv: np.ndarray,
                 rtol: float) -> np.ndarray:
    """Coordinates x_k of the potentials C x_k with A_k x_k = C^T f_k: (K, d).

    tc is the (K, d, d) stack of restricted systems A_k = C^T T_k C.  The
    batched Cholesky factorization of all K is the positive-definite gate;
    one batched LU solve then gives the potentials.  Every gate of
    solve_potential is evaluated over the whole stack.  T_k maps into
    ker(grad)^perp, so |T_k C x_k - f_k| is read in restricted form as
    sqrt(|A_k x_k - C^T f_k|^2 + |K^T f_k|^2), K = kernel_vecs.
    """
    fnorm = np.linalg.norm(fv, axis=-1)
    kpart = np.linalg.norm(fv @ l.kernel_vecs, axis=-1)
    # the relative gate alone would reject float-noise-sized right-hand
    # sides whose "kernel component" is pure rounding error
    bad = (kpart > 1e-10 * fnorm) & (kpart > 1e-14)
    if bad.any():
        k = int(np.argmax(bad))
        raise InfeasibleRHS(
            f"right-hand side has kernel component {kpart[k]:.3e} (|f| = {fnorm[k]:.3e}); "
            "solvability requires f orthogonal to ker(grad)"
        )
    # numpy has no batched triangular solve, so the factor only gates
    np.linalg.cholesky(tc)
    fc = fv @ l.complement_vecs
    xc = np.linalg.solve(tc, fc[..., None])[..., 0]
    residual = np.hypot(np.linalg.norm((tc @ xc[..., None])[..., 0] - fc, axis=-1), kpart)
    over = residual > rtol * np.maximum(fnorm, 1.0)
    if over.any():
        raise RuntimeError(
            f"potential solve residual {residual[np.argmax(over)]:.3e} exceeds "
            "tolerance; the weighted operator is badly conditioned"
        )
    return xc


def solve_potentials(l: LindbladSet, rhos: np.ndarray, fs: np.ndarray):
    """solve_potential for K raw (n, n) weights and right-hand sides at once.

    rhos and fs are (K, n, n) Hermitian stacks.  T is linear in its weight,
    so the systems A_k = C^T T(rho_k) C (C = complement_vecs) are one GEMM,
    vec_h(rho_k) @ l.weight_tensor, with no n^2 x n^2 matrix formed.
    Returns the (K, d) coordinates x_k of the potentials X_k = unvec_h(C x_k)
    and the (K, d, d) systems A_k.  Raises as solve_potential does if any
    system fails a gate.
    """
    _check_weights(rhos)
    n2, d = l.n * l.n, l.complement_vecs.shape[1]
    tc = (vec_h(rhos) @ l.weight_tensor.reshape(n2, d * d)).reshape(len(rhos), d, d)
    return _solve_stack(l, tc, vec_h(fs), RESIDUAL_RTOL), tc


class WeightedOperator:
    """T_rho with its real symmetric matrix representation.

    Attributes: lindblad, rho (raw Hermitian ndarray), matrix_rep
    (n^2 x n^2 real symmetric PSD), restricted_min_eig (smallest
    eigenvalue on ker(grad)^perp; 0 when the complement is empty).
    """

    def __init__(self, lindblad: LindbladSet, rho):
        self.lindblad = lindblad
        self.rho = _weight(rho)
        if self.rho.shape != (lindblad.n, lindblad.n):
            raise DimensionMismatch("weight dimension does not match operator set")
        self.matrix_rep = _weighted_stack(lindblad, self.rho[None])[0]
        self._restricted = _restrict(lindblad, self.matrix_rep)
        if self._restricted.shape[0] == 0:
            self.restricted_min_eig = 0.0
        else:
            self.restricted_min_eig = float(np.linalg.eigvalsh(self._restricted)[0])

    def apply(self, x) -> HermitianMatrix:
        return HermitianMatrix(unvec_h(self.matrix_rep @ vec_h(x), self.lindblad.n))

    def __repr__(self):
        return (f"WeightedOperator(n={self.lindblad.n}, "
                f"restricted_min_eig={self.restricted_min_eig:.6g})")


def assemble_weighted(l: LindbladSet, rho) -> WeightedOperator:
    """Build T_rho (matrix representation + restricted smallest eigenvalue)."""
    return WeightedOperator(l, rho)


def solve_potential(w: WeightedOperator, f, rtol: float = RESIDUAL_RTOL) -> HermitianMatrix:
    """The unique X in ker(grad)^perp with T_rho X = f (rho strictly positive).

    Raises InfeasibleRHS if f has a kernel component beyond 1e-10 |f|,
    SingularWeight if rho is not safely positive definite.  The returned
    X satisfies |T X - f| <= rtol * max(|f|, 1) and the stability bound
    |f| >= restricted_min_eig * |X|.  This is the K = 1 case of
    solve_potentials, on the operator's already assembled matrix.
    """
    _check_weights(w.rho[None])
    l = w.lindblad
    xc = _solve_stack(l, w._restricted[None], vec_h(f)[None], rtol)
    return HermitianMatrix(unvec_h((xc @ l.complement_vecs.T)[0], l.n))


def poincare_constant(l: LindbladSet, rho) -> float:
    """Sharp constant c with Q_rho(grad(X - proj X)) >= c |X - proj X|^2.

    Equals the smallest eigenvalue of T_rho on ker(grad)^perp.  For a
    singular weight (or a gradient with full kernel) the constant
    degenerates; 0 is returned with a warning instead of an error.
    """
    r = _weight(rho)
    lo = float(np.linalg.eigvalsh(r)[0])
    if lo <= EPS_PD or l.complement_vecs.shape[1] == 0:
        warnings.warn(
            "degenerate weight or trivial gradient: the sharp constant is 0 "
            "and the inequality may lose strictness",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return WeightedOperator(l, r).restricted_min_eig


@dataclass
class MomentumCheck:
    primal_min: float
    dual_max: float
    optimal_m: OperatorStack
    potential: HermitianMatrix


def momentum_min_check(l: LindbladSet, rho, f) -> MomentumCheck:
    """Primal/dual values of the constrained momentum problem.

    primal_min = (1/2) <m; m rho^{-1}> at the reconstructed optimum
    m = grad(X) rho, dual_max = <f; X> - (1/2) Q_rho(grad X) at Y = X;
    the two agree (strong duality of a linearly-constrained quadratic).
    """
    r = _weight(rho)
    w = WeightedOperator(l, r)
    x = solve_potential(w, f)
    v = gradient(l, x)
    m = OperatorStack(np.einsum("kij,jl->kil", v.blocks, r), flavor="general")
    rinv = np.linalg.inv(r)
    rinv = 0.5 * (rinv + rinv.conj().T)
    primal = 0.5 * float(np.trace(gram(m.blocks) @ rinv).real)
    dual = float(inner_product(HermitianMatrix(f), x)) - 0.5 * quadratic_form(r, v)
    return MomentumCheck(primal_min=primal, dual_max=dual, optimal_m=m, potential=x)


def momentum_divergence_matrix(l: LindbladSet) -> np.ndarray:
    """Real matrix of m |-> vec_h( div(m - m_*)/2 ) on general-stack coordinates.

    Columns follow the vec_stack convention (all real parts, then all
    imaginary parts).  Used to sample feasible momentum perturbations:
    the null space of this matrix is exactly the set of directions that
    leave the continuity picture unchanged.
    """
    big_n, n = l.count, l.n
    dof = 2 * big_n * n * n
    cols = np.zeros((n * n, dof))
    for p in range(dof):
        x = np.zeros(dof)
        x[p] = 1.0
        m = unvec_stack(x, big_n, n)
        y = m - np.conj(np.transpose(m, (0, 2, 1)))
        cols[:, p] = vec_h(0.5 * divergence(l, OperatorStack(y, flavor="skew")).mat)
    return cols


__all__ = [
    "WeightError", "SingularWeight", "InfeasibleRHS",
    "WeightedOperator", "MomentumCheck",
    "quadratic_form", "assemble_weighted", "solve_potential",
    "poincare_constant",
    "momentum_min_check", "momentum_divergence_matrix",
]
