"""The kinetic action F(rho, m) = (1/2) <m; m rho^{-1}> and its convex duality.

F is the extended-real convex integrand whose time integral along a
path is the squared transport cost (up to the documented factor of 2).
Its value is finite off the positive-definite cone only when every
momentum block is range-compatible with rho, in which case the inverse
is replaced by the pseudo-inverse.  The Legendre transform of F is the
indicator of the cone

    { (a, b) :  a + (1/2) sum_k b_k^* b_k  <=  0 },

which is what legendre_feasible tests and fenchel_gap builds on.

momentum_min_check applies that duality to the constrained momentum problem:
on one potential solve of the layer below (elliptic.solve_potential) it
pairs kinetic's value at m = grad(X) rho with the dual value at Y = X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import WeightedOperator, solve_potential
from .hermitian import (
    EPS_PD,
    HermitianMatrix,
    OperatorStack,
    _stack_blocks,
    gram,
    inner_product,
)
from .lindblad import LindbladSet, grad_blocks


class InfeasibleDualPoint(ValueError):
    """Dual point violates a + b^* b / 2 <= 0."""


@dataclass(frozen=True)
class ExtendedValue:
    """A value in [0, inf]: either finite with a number, or tagged infinite.

    Infinity is a tag, never a large float, so it cannot leak into
    arithmetic unnoticed; a finite tag with an inf or NaN value is rejected.
    """

    finite: bool
    value: float | None = None

    def __post_init__(self):
        if self.finite and (self.value is None or not np.isfinite(self.value)):
            raise ValueError("finite ExtendedValue needs a finite value")
        if not self.finite and self.value is not None:
            raise ValueError("infinite ExtendedValue carries no value")

    @classmethod
    def of(cls, v: float) -> "ExtendedValue":
        return cls(finite=True, value=float(v))

    @classmethod
    def infinity(cls) -> "ExtendedValue":
        return cls(finite=False)

    def __repr__(self):
        return f"ExtendedValue({self.value})" if self.finite else "ExtendedValue(inf)"


@dataclass
class DualPoint:
    """A candidate (a, b) for the dual cone; a Hermitian, b a general stack."""

    a: HermitianMatrix
    b: OperatorStack


def kinetic(rho, m) -> ExtendedValue:
    """F(rho, m), extended-real valued, from one eigh of rho: the one evaluator of F.

    * rho positive definite (all eigenvalues > EPS_PD): (1/2) tr(m^* m rho^{-1}).
    * rho with an eigenvalue below -EPS_PD: infinite.
    * rho singular PSD (eigenvalues in [-EPS_PD, EPS_PD] count as zero):
      finite iff every block of m kills ker(rho) within 1e-9 |m|, with
      value (1/2) tr(m^* m rho^+).

    w = V diag(1/lambda) V^* (1/lambda read as 0 on eigenvalues <= EPS_PD:
    rho^+).  The gate of a caller's inputs: rho passes HermitianMatrix's and
    m _stack_blocks's, each shared if it is already a wrapper.
    """
    r = HermitianMatrix(rho).mat
    ms = _stack_blocks(m, r.shape[0])
    evals, vecs = np.linalg.eigh(r)
    zero = evals <= EPS_PD
    if zero[0]:
        ker = vecs[:, zero]
        leak = float(np.linalg.norm(ms @ (ker @ ker.conj().T)))
        if evals[0] < -EPS_PD or leak > 1e-9 * float(np.linalg.norm(ms)):
            return ExtendedValue.infinity()
    inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=~zero)
    w = (vecs * inv) @ np.conj(vecs.T)
    return ExtendedValue.of(0.5 * float(np.trace(gram(ms) @ w).real))


def _cone_bound(half: np.ndarray) -> float:
    """The tolerance on the top eigenvalue of a + half, half = (1/2) sum_k b_k^* b_k.

    1e-10 max(1, |half|_F): at a boundary pair the eigenvalue is rounding of
    the Gram term, of size |b|^2, and a part of a that never reaches the top
    eigenvalue must not widen it.
    """
    return 1e-10 * max(1.0, float(np.linalg.norm(half)))


def legendre_feasible(p: DualPoint) -> bool:
    """True iff the largest eigenvalue of a + (1/2) sum_k b_k^* b_k is at most
    _cone_bound, 1e-10 max(1, (1/2) |sum_k b_k^* b_k|_F).

    The gate of a caller's dual point: a passes HermitianMatrix's and b
    _stack_blocks's, each shared if it is already a wrapper.
    """
    a = HermitianMatrix(p.a).mat
    half = 0.5 * gram(_stack_blocks(p.b, a.shape[0]))
    return float(np.linalg.eigvalsh(a + half)[-1]) <= _cone_bound(half)


def fenchel_gap(rho, m, p: DualPoint) -> float:
    """F(rho, m) - <a; rho> - b . m, nonnegative for feasible dual points.

    Vanishes (to solver precision) exactly when (a, b) is the
    subdifferential element (-(1/2)(grad X)^*(grad X), grad X) attached
    to a momentum of potential form m = grad(X) rho.  Each input is gated
    once, here, and the wrappers are shared by legendre_feasible and kinetic.
    """
    p = DualPoint(a=HermitianMatrix(p.a), b=OperatorStack(p.b))
    rho, m = HermitianMatrix(rho), OperatorStack(m)
    if not legendre_feasible(p):
        raise InfeasibleDualPoint("dual point violates a + b*b/2 <= 0")
    kin = kinetic(rho, m)
    if not kin.finite:
        raise ValueError("fenchel_gap needs a finite kinetic value")
    pairing = inner_product(p.a, rho) + inner_product(p.b, m).real
    return kin.value - pairing


def trace_lower_bound(rho, m) -> bool:
    """Check F(rho, m) >= |m|^2 / (2 tr rho) (vacuous when F is infinite), with a
    slack of 1e-10 max(1, bound): F's rounding grows with |m|^2, as the bound does."""
    rho, m = HermitianMatrix(rho), OperatorStack(m)
    tr = rho.trace()
    if tr <= 0:
        raise ValueError("rho must have positive trace")
    kin = kinetic(rho, m)
    if not kin.finite:
        return True
    bound = m.norm() ** 2 / (2.0 * tr)
    return kin.value >= bound - 1e-10 * max(1.0, bound)


def path_cost(path) -> ExtendedValue:
    """sum_k dt * F(midpoint_k, m_k) along a discrete path, one kinetic call per interval.

    Each midpoint of the (K+1, n, n) densities and each of the (K, N, n, n) momenta
    passes kinetic's gate.  Tagged infinite as soon as one interval is
    infinite.  Callers that know the path is feasible read ``.value``.
    """
    dt = 1.0 / path.K
    mids = 0.5 * (path.densities[:-1] + path.densities[1:])
    values = [kinetic(mid, m) for mid, m in zip(mids, path.momenta)]
    if not all(v.finite for v in values):
        return ExtendedValue.infinity()
    return ExtendedValue.of(sum(dt * v.value for v in values))


@dataclass
class MomentumCheck:
    primal_min: float
    dual_max: float
    optimal_m: OperatorStack
    potential: HermitianMatrix


def momentum_min_check(l: LindbladSet, rho, f) -> MomentumCheck:
    """Primal/dual values of the constrained momentum problem.

    primal_min = kinetic(rho, m) at the reconstructed optimum m = grad(X) rho,
    dual_max = <f; X> - (1/2) Q_rho(grad X) at Y = X; the two agree (strong
    duality of a linearly-constrained quadratic).  rho is admitted once and
    shared by WeightedOperator and kinetic; grad X is the raw commutator
    stack of the admitted X.
    """
    h, f = HermitianMatrix(rho), HermitianMatrix(f)
    w = WeightedOperator(l, h)
    x, r = solve_potential(w, f), w.rho
    v = grad_blocks(l, x.mat)
    m = OperatorStack(np.einsum("kij,jl->kil", v, r), flavor="general")
    dual = float(inner_product(f, x)) - 0.5 * float(np.trace(r @ gram(v)).real)
    return MomentumCheck(primal_min=kinetic(h, m).value, dual_max=dual, optimal_m=m,
                         potential=x)
