"""Weighted elliptic machinery.

For a weight rho >= 0 the central object is the self-adjoint map

    T_rho : X  |->  div( (grad(X) rho + rho grad(X)) / 2 ),

whose quadratic form is <X; T_rho X> = Q_rho(grad X) with
Q_rho(v) = tr(rho v^* v).  Restricted to ker(grad)^perp the map is
positive definite whenever rho is.  T_rho is assembled one way only, as
A = C^T T_rho C (C = complement_vecs), one contraction of the operator
set's cached weight_tensor; WeightedOperator's matrix_rep is C A C^T.  The
first use on a LindbladSet builds the tensor (about 50 ms at n = 10).
This yields:

* solve_potential — the unique X in ker(grad)^perp with T_rho X = f;
  it is the K = 1 case of solve_potentials, which solves K weights from
  one contraction and one batched Cholesky, and returns ker(grad)^perp
  coordinates and the restricted systems it solved,
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
    hermitian_part,
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
    r = hermitian_part(rho)
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


def _systems(l: LindbladSet, rhos: np.ndarray) -> np.ndarray:
    """A_k = C^T T(rho_k) C = vec_h(rho_k) @ l.weight_tensor for (K, n, n) weights: (K, d, d)."""
    n2, d = l.n * l.n, l.complement_vecs.shape[1]
    return (vec_h(rhos) @ l.weight_tensor.reshape(n2, d * d)).reshape(len(rhos), d, d)


def solve_potentials(l: LindbladSet, rhos: np.ndarray, fs: np.ndarray):
    """solve_potential for K raw (n, n) weights and right-hand sides at once.

    rhos and fs are (K, n, n) Hermitian stacks; the systems A_k are one GEMM
    (_systems), with no n^2 x n^2 matrix formed.  Returns the (K, d)
    coordinates x_k of the potentials X_k = unvec_h(C x_k) and the A_k.
    Every gate of solve_potential runs over the whole stack, with the
    batched Cholesky of all A_k as the positive-definite gate.  T_k maps
    into ker(grad)^perp, so the residual |T_k X_k - f_k| is read in
    restricted form as sqrt(|A_k x_k - C^T f_k|^2 + |K^T f_k|^2), K = kernel_vecs.
    """
    lo = float(np.linalg.eigvalsh(rhos)[:, 0].min())
    if lo <= EPS_PD:
        raise SingularWeight(
            f"weight min eigenvalue {lo:.3e} <= {EPS_PD:.1e}; the restricted "
            "system is not safely invertible"
        )
    tc = _systems(l, rhos)
    fv = vec_h(fs)
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
    over = residual > RESIDUAL_RTOL * np.maximum(fnorm, 1.0)
    if over.any():
        raise RuntimeError(
            f"potential solve residual {residual[np.argmax(over)]:.3e} exceeds "
            "tolerance; the weighted operator is badly conditioned"
        )
    return xc, tc


class WeightedOperator:
    """T_rho with its real symmetric matrix representation.

    Attributes: lindblad, rho (raw Hermitian ndarray), matrix_rep
    (n^2 x n^2 real symmetric PSD), restricted_min_eig (smallest
    eigenvalue on ker(grad)^perp; 0 when the complement is empty).

    Both come from A = C^T T(rho) C: T vanishes on ker(grad) and maps into
    ker(grad)^perp, so matrix_rep = C A C^T exactly.  The first operator on
    a LindbladSet builds its weight tensor (about 50 ms at n = 10).
    """

    def __init__(self, lindblad: LindbladSet, rho):
        self.lindblad = lindblad
        self.rho = _weight(rho)
        if self.rho.shape != (lindblad.n, lindblad.n):
            raise DimensionMismatch("weight dimension does not match operator set")
        a = _systems(lindblad, self.rho[None])[0]
        c = lindblad.complement_vecs
        m = c @ a @ c.T
        self.matrix_rep = 0.5 * (m + m.T)
        self.restricted_min_eig = float(np.linalg.eigvalsh(a)[0]) if a.size else 0.0

    def apply(self, x) -> HermitianMatrix:
        return HermitianMatrix(unvec_h(self.matrix_rep @ vec_h(x), self.lindblad.n))

    def __repr__(self):
        return (f"WeightedOperator(n={self.lindblad.n}, "
                f"restricted_min_eig={self.restricted_min_eig:.6g})")


def assemble_weighted(l: LindbladSet, rho) -> WeightedOperator:
    """Build T_rho (matrix representation + restricted smallest eigenvalue)."""
    return WeightedOperator(l, rho)


def solve_potential(w: WeightedOperator, f) -> HermitianMatrix:
    """The unique X in ker(grad)^perp with T_rho X = f (rho strictly positive).

    Raises InfeasibleRHS if f has a kernel component beyond 1e-10 |f|,
    SingularWeight if rho is not safely positive definite.  The returned
    X satisfies |T X - f| <= RESIDUAL_RTOL * max(|f|, 1) and the stability
    bound |f| >= restricted_min_eig * |X|.  This is the K = 1 case of
    solve_potentials.
    """
    l = w.lindblad
    xc, _ = solve_potentials(l, w.rho[None], _entries(f)[None])
    return HermitianMatrix(unvec_h(xc @ l.complement_vecs.T, l.n)[0])


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
    x = solve_potential(WeightedOperator(l, r), f)
    v = gradient(l, x)
    m = OperatorStack(np.einsum("kij,jl->kil", v.blocks, r), flavor="general")
    rinv = hermitian_part(np.linalg.inv(r))
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
