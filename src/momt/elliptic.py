"""Weighted elliptic machinery.

For a weight rho >= 0 the central object is the self-adjoint map

    T_rho : X  |->  div( (grad(X) rho + rho grad(X)) / 2 ),

whose quadratic form is <X; T_rho X> = Q_rho(grad X) with
Q_rho(v) = tr(rho v^* v) >= lambda_min(rho) |v|^2.  So the restricted
system A(rho) = C^T T_rho C (C = complement_vecs) has A(rho) >=
lambda_min(rho) A(I) > 0, and a weight gated above EPS_PD gives a
positive-definite A.  A is one contraction of the operator set's cached
weight_tensor (built on first use, about 50 ms at n = 10), and
WeightedOperator's matrix_rep is C A C^T.  This yields:

* restricted_systems and solve_restricted — the one potential solve, for
  K weights and right-hand sides at once.  restricted_systems only
  assembles (A_k, C^T f_k), and geodesic trials assemble theirs through
  _systems.  solve_restricted, called on every trial, runs one batched
  inverse and one check, the residual gate: did it solve each system?
  (The solver's floor test makes every A_k positive definite; its slope
  test judges the Newton direction.)
* solve_potential — the unique X in ker(grad)^perp with T_rho X = f, the
  K = 1 case of those two, and the gate of a caller's weight and f,
* poincare_constant — the smallest restricted eigenvalue (the sharp
  constant c in Q_rho(grad(X - proj X)) >= c |X - proj X|^2),
* momentum_min_check — the primal/dual pair certifying that m = grad(X) rho
  minimizes the kinetic cost among all momenta with a prescribed
  divergence picture.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hermitian import (
    EPS_PD,
    HermitianMatrix,
    OperatorStack,
    _stack_blocks,
    gram,
    hermitian_part,
    inner_product,
    unvec_h,
    vec_h,
)
from .lindblad import LindbladSet, _square, gradient


# residual bound of every potential solve: |A x - c| <= RESIDUAL_RTOL * max(|c|, 1)
RESIDUAL_RTOL = 1e-9


class WeightError(ValueError):
    """The weight matrix is not positive semidefinite."""


class SingularWeight(ValueError):
    """The weight matrix is singular (or nearly so) where strict positivity is required."""


class InfeasibleRHS(ValueError):
    """Right-hand side has a component inside ker(grad); no potential exists."""


class IllConditioned(RuntimeError):
    """A potential solve failed the residual gate: A_k is too ill-conditioned."""


def _weight(rho):
    """(HermitianMatrix(rho).mat, its cached min_eig()): SymmetryError on a
    non-finite or non-Hermitian weight, WeightError below -EPS_PD."""
    h = HermitianMatrix(rho)
    lo = h.min_eig()
    if lo < -EPS_PD:
        raise WeightError(f"weight has negative eigenvalue {lo:.3e}")
    return h.mat, lo


def quadratic_form(rho, v) -> float:
    """Q_rho(v) = tr(rho v^* v), summing the block Gram matrix; >= 0.

    The gate of a caller's inputs: rho passes _weight's, v _stack_blocks's.
    """
    r, _ = _weight(rho)
    return float(np.trace(r @ gram(_stack_blocks(v, r.shape[0]))).real)


def _systems(l: LindbladSet, coords: np.ndarray) -> np.ndarray:
    """A_k = C^T T(rho_k) C = coords_k @ l.weight_tensor for (K, n^2) vec_h(rho_k): (K, d, d)."""
    n2, d = l.n * l.n, l.complement_vecs.shape[1]
    return (coords @ l.weight_tensor.reshape(n2, d * d)).reshape(len(coords), d, d)


def _kernel_excess(kpart, fnorm):
    """Where a kernel component kpart rules out a potential for an f with |f| = fnorm."""
    # the relative gate alone would reject float-noise-sized f as infeasible
    return (kpart > 1e-10 * fnorm) & (kpart > 1e-14)


def restricted_systems(l: LindbladSet, rhos: np.ndarray, fs: np.ndarray):
    """Restricted data of K weights and right-hand sides: (A_k, c_k).

    rhos and fs are (K, n, n) Hermitian stacks.  A_k = C^T T(rho_k) C is one
    GEMM (_systems), with no n^2 x n^2 matrix formed, and c_k = C^T vec_h(f_k)
    (C = complement_vecs).  It only assembles: each entry point gates its own
    inputs and f's kernel part (solve_potential, the solver's endpoints).
    """
    return _systems(l, vec_h(rhos)), vec_h(fs) @ l.complement_vecs


def solve_restricted(tcs: np.ndarray, fcs: np.ndarray):
    """x_k = A_k^{-1} c_k for K restricted systems, and the inverses A_k^{-1}.

    tcs and fcs are the (K, d, d) and (K, d) arrays of K restricted systems.  Each
    caller gated its weights above EPS_PD (_endpoint_guard, _Reduced.feasible,
    solve_potential), so A_k >= lambda_min(rho_k) A(I) > 0 and one batched
    inverse gives every x_k.  The one check, the residual gate |A_k x_k - c_k|
    <= RESIDUAL_RTOL * max(|c_k|, 1), which a NaN fails, decides whether it
    solved each system; the kernel part of f_k is its caller's gate's.
    """
    ainv = np.linalg.inv(tcs)
    xcs = (ainv @ fcs[..., None])[..., 0]
    res = (tcs @ xcs[..., None])[..., 0] - fcs
    residual = np.sqrt((res * res).sum(axis=-1))
    ok = residual <= RESIDUAL_RTOL * np.maximum(np.sqrt((fcs * fcs).sum(axis=-1)), 1.0)
    if not ok.all():  # a NaN residual fails
        raise IllConditioned(
            f"potential solve residual {residual[np.argmin(ok)]:.3e} exceeds "
            "tolerance; the weighted operator is badly conditioned"
        )
    return xcs, ainv


class WeightedOperator:
    """T_rho with its real symmetric matrix representation.

    Attributes: lindblad, rho (raw Hermitian ndarray), matrix_rep
    (n^2 x n^2 real symmetric PSD), restricted_min_eig (smallest
    eigenvalue on ker(grad)^perp; 0 when the complement is empty).  rho's
    own smallest eigenvalue, from _weight, is kept for solve_potential.

    Both come from A = C^T T(rho) C: T vanishes on ker(grad) and maps into
    ker(grad)^perp, so matrix_rep = C A C^T exactly.  Each is built on first
    read, as solve_potential reads neither.  The first A on a LindbladSet
    builds its weight tensor (about 50 ms at n = 10).
    """

    def __init__(self, lindblad: LindbladSet, rho):
        self.lindblad, h = lindblad, HermitianMatrix(rho)  # admitted once, shared below
        self.rho, self._min_eig = _weight(h)
        _square(lindblad, h)  # DimensionMismatch unless n x n for the set

    @cached_property
    def matrix_rep(self) -> np.ndarray:
        c = self.lindblad.complement_vecs
        m = c @ _systems(self.lindblad, vec_h(self.rho)[None])[0] @ c.T
        return 0.5 * (m + m.T)

    @cached_property
    def restricted_min_eig(self) -> float:
        a = _systems(self.lindblad, vec_h(self.rho)[None])[0]
        return float(np.linalg.eigvalsh(a)[0]) if a.size else 0.0

    def apply(self, x) -> HermitianMatrix:
        """T_rho X; X passes _square's gate."""
        return HermitianMatrix(unvec_h(self.matrix_rep @ vec_h(_square(self.lindblad, x)),
                                       self.lindblad.n))

    def __repr__(self):
        return (f"WeightedOperator(n={self.lindblad.n}, "
                f"restricted_min_eig={self.restricted_min_eig:.6g})")


assemble_weighted = WeightedOperator  # builds T_rho of (l, rho), as a function name


def solve_potential(w: WeightedOperator, f) -> HermitianMatrix:
    """The unique X in ker(grad)^perp with T_rho X = f (rho strictly positive).

    The gate of a caller's weight and f: SingularWeight unless rho's smallest
    eigenvalue is > EPS_PD, InfeasibleRHS if f has a kernel component beyond
    1e-10 |f|.  X satisfies |C^T (T X - f)| <= RESIDUAL_RTOL * max(|C^T f|, 1)
    and the stability bound |f| >= restricted_min_eig * |X|.
    """
    l = w.lindblad
    f = _square(l, f)
    if not w._min_eig > EPS_PD:
        raise SingularWeight(
            f"weight min eigenvalue {w._min_eig:.3e} <= {EPS_PD:.1e}; the restricted "
            "system is not safely invertible"
        )
    kpart, fnorm = float(np.linalg.norm(vec_h(f) @ l.kernel_vecs)), float(np.linalg.norm(f))
    if _kernel_excess(kpart, fnorm):
        raise InfeasibleRHS(
            f"right-hand side has kernel component {kpart:.3e} (|f| = {fnorm:.3e}); "
            "solvability requires f orthogonal to ker(grad)"
        )
    xc, _ = solve_restricted(*restricted_systems(l, w.rho[None], f[None]))
    return HermitianMatrix(unvec_h(xc @ l.complement_vecs.T, l.n)[0])


def poincare_constant(l: LindbladSet, rho) -> float:
    """Sharp constant c with Q_rho(grad(X - proj X)) >= c |X - proj X|^2.

    Equals the smallest eigenvalue of T_rho on ker(grad)^perp.  For a
    singular weight (or a gradient with full kernel) the constant
    degenerates; 0 is returned with a warning instead of an error.
    """
    w = WeightedOperator(l, rho)
    if w._min_eig <= EPS_PD or l.complement_vecs.shape[1] == 0:
        warnings.warn(
            "degenerate weight or trivial gradient: the sharp constant is 0 "
            "and the inequality may lose strictness",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return w.restricted_min_eig


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
    w = WeightedOperator(l, rho)
    f = HermitianMatrix(f)
    x, r = solve_potential(w, f), w.rho
    v = gradient(l, x)
    m = OperatorStack(np.einsum("kij,jl->kil", v.blocks, r), flavor="general")
    rinv = hermitian_part(np.linalg.inv(r))
    primal = 0.5 * float(np.trace(gram(m.blocks) @ rinv).real)
    dual = float(inner_product(f, x)) \
        - 0.5 * float(np.trace(r @ gram(v.blocks)).real)
    return MomentumCheck(primal_min=primal, dual_max=dual, optimal_m=m, potential=x)
