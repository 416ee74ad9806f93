"""The kinetic action F(rho, m) = (1/2) <m; m rho^{-1}> and its convex duality.

F is the extended-real convex integrand whose time integral along a
path is the squared transport cost (up to the documented factor of 2).
Its value is finite off the positive-definite cone only when every
momentum block is range-compatible with rho, in which case the inverse
is replaced by the pseudo-inverse.  The Legendre transform of F is the
indicator of the cone

    { (a, b) :  a + (1/2) sum_k b_k^* b_k  <=  0 },

which is what legendre_feasible tests and fenchel_gap builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import (
    EPS_PD,
    HermitianMatrix,
    OperatorStack,
    _stack_blocks,
    gram,
    hermitian_part,
    inner_product,
)


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
    """F(rho, m), extended-real valued: kinetic_values on a stack of one.

    * rho positive definite (all eigenvalues > EPS_PD): (1/2) tr(m^* m rho^{-1}).
    * rho with an eigenvalue below -EPS_PD: infinite.
    * rho singular PSD (eigenvalues in [-EPS_PD, EPS_PD] count as zero):
      finite iff every block of m kills ker(rho) within 1e-9 |m|, with
      value (1/2) tr(m^* m rho^+).

    The gate of a caller's inputs: rho passes HermitianMatrix's and m
    _stack_blocks's, each shared if it is already a wrapper.
    """
    r = HermitianMatrix(rho).mat
    value = kinetic_values(r[None], _stack_blocks(m, r.shape[0])[None])[0]
    return ExtendedValue.infinity() if value is None else ExtendedValue.of(value)


def kinetic_values(rhos: np.ndarray, ms: np.ndarray) -> list:
    """F(rho_k, m_k) by kinetic's rules for (K, n, n) and (K, N, n, n) stacks.

    K floats, None where infinite.  One batched eigh, w_k = V diag(1/lambda) V^*
    (1/lambda read as 0 on eigenvalues <= EPS_PD: rho^+) and (1/2) tr(Gram(m_k) w_k)
    keep the arithmetic of one matrix at a time; only the rho_k that are not
    positive definite are then tested, one by one, for infinity.
    """
    r = hermitian_part(rhos)
    evals, vecs = np.linalg.eigh(r)
    zero = evals <= EPS_PD
    inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=~zero)
    w = (vecs * inv[:, None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    # summing a contiguous copy of the diagonal keeps np.trace's order
    traces = np.ascontiguousarray(np.diagonal(gram(ms) @ w, axis1=-2, axis2=-1)).sum(-1)
    out = (0.5 * traces.real).tolist()
    for k in np.flatnonzero(zero[:, 0]):
        ker = vecs[k][:, zero[k]]
        leak = float(np.linalg.norm(np.einsum("kij,jl->kil", ms[k], ker @ ker.conj().T)))
        if evals[k, 0] < -EPS_PD or leak > 1e-9 * float(np.linalg.norm(ms[k])):
            out[k] = None
    return out


def legendre_feasible(p: DualPoint) -> bool:
    """True iff the largest eigenvalue of a + (1/2) sum_k b_k^* b_k is <= 1e-10.

    The gate of a caller's dual point: a passes HermitianMatrix's and b
    _stack_blocks's, each shared if it is already a wrapper.
    """
    a = HermitianMatrix(p.a).mat
    top = float(np.linalg.eigvalsh(a + 0.5 * gram(_stack_blocks(p.b, a.shape[0])))[-1])
    return top <= 1e-10


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
    """Check F(rho, m) >= |m|^2 / (2 tr rho) (vacuous when F is infinite)."""
    rho, m = HermitianMatrix(rho), OperatorStack(m)
    tr = rho.trace()
    if tr <= 0:
        raise ValueError("rho must have positive trace")
    kin = kinetic(rho, m)
    if not kin.finite:
        return True
    bound = m.norm() ** 2 / (2.0 * tr)
    return kin.value >= bound - 1e-10


def path_cost(path) -> ExtendedValue:
    """sum_k dt * F(midpoint_k, m_k) along a discrete path.

    Reads the path's (K+1, n, n) density and (K, N, n, n) momentum stacks,
    all intervals in one kinetic_values call.  Tagged infinite as soon as
    one interval is infinite.  Callers that know the path is feasible read
    ``.value``.
    """
    dt = 1.0 / path.K
    mids = 0.5 * (path.densities[:-1] + path.densities[1:])
    values = kinetic_values(mids, path.momenta)
    if None in values:
        return ExtendedValue.infinity()
    return ExtendedValue.of(sum(dt * v for v in values))
