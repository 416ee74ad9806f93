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
    DimensionMismatch,
    HermitianMatrix,
    OperatorStack,
    _entries,
    gram,
    symmetric_dot,
)


class InfeasibleDualPoint(ValueError):
    """Dual point violates a + b^* b / 2 <= 0."""


@dataclass(frozen=True)
class ExtendedValue:
    """A value in [0, inf]: either finite with a number, or tagged infinite.

    Infinity is a tag, never a large float, so it cannot leak into
    arithmetic unnoticed.
    """

    finite: bool
    value: float | None = None

    def __post_init__(self):
        if self.finite and self.value is None:
            raise ValueError("finite ExtendedValue needs a value")
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


def _as_matrix(x) -> np.ndarray:
    a = _entries(x)
    return 0.5 * (a + a.conj().T)


def kinetic(rho, m, eps_pd: float = EPS_PD) -> ExtendedValue:
    """F(rho, m), extended-real valued.

    * rho positive definite (all eigenvalues > eps_pd): (1/2) tr(m^* m rho^{-1}).
    * rho with an eigenvalue below -eps_pd: infinite.
    * rho singular PSD (eigenvalues in [-eps_pd, eps_pd] count as zero):
      finite iff every block of m kills ker(rho) within 1e-9 |m|, with
      value (1/2) tr(m^* m rho^+).
    """
    r = _as_matrix(rho)
    blocks = _entries(m)
    if blocks.ndim != 3 or blocks.shape[1:] != r.shape:
        raise DimensionMismatch(
            f"momentum stack shape {blocks.shape} incompatible with rho {r.shape}"
        )
    evals, vecs = np.linalg.eigh(r)
    if evals[0] < -eps_pd:
        return ExtendedValue.infinity()
    gr = gram(blocks)
    if evals[0] > eps_pd:
        w = vecs @ np.diag(1.0 / evals) @ vecs.conj().T
        return ExtendedValue.of(0.5 * float(np.trace(gr @ w).real))
    zero = evals <= eps_pd
    p_ker = vecs[:, zero] @ vecs[:, zero].conj().T
    leak = float(np.linalg.norm(np.einsum("kij,jl->kil", blocks, p_ker)))
    if leak > 1e-9 * float(np.linalg.norm(blocks)):
        return ExtendedValue.infinity()
    inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=~zero)
    pinv = vecs @ np.diag(inv) @ vecs.conj().T
    return ExtendedValue.of(0.5 * float(np.trace(gr @ pinv).real))


def legendre_feasible(p: DualPoint, tol: float = 1e-10) -> bool:
    """True iff the largest eigenvalue of a + (1/2) sum_k b_k^* b_k is <= tol."""
    a = _as_matrix(p.a)
    blocks = _entries(p.b)
    if blocks.shape[1:] != a.shape:
        raise DimensionMismatch("dual point a/b dimensions differ")
    top = float(np.linalg.eigvalsh(a + 0.5 * gram(blocks))[-1])
    return top <= tol


def fenchel_gap(rho, m, p: DualPoint) -> float:
    """F(rho, m) - <a; rho> - b . m, nonnegative for feasible dual points.

    Vanishes (to solver precision) exactly when (a, b) is the
    subdifferential element (-(1/2)(grad X)^*(grad X), grad X) attached
    to a momentum of potential form m = grad(X) rho.
    """
    if not legendre_feasible(p):
        raise InfeasibleDualPoint("dual point violates a + b*b/2 <= 0")
    kin = kinetic(rho, m)
    if not kin.finite:
        raise ValueError("fenchel_gap needs a finite kinetic value")
    r = _as_matrix(rho)
    pairing = float(np.trace(_as_matrix(p.a) @ r).real) + symmetric_dot(p.b, m)
    return kin.value - pairing


def trace_lower_bound(rho, m) -> bool:
    """Check F(rho, m) >= |m|^2 / (2 tr rho) (vacuous when F is infinite)."""
    r = _as_matrix(rho)
    tr = float(np.trace(r).real)
    if tr <= 0:
        raise ValueError("rho must have positive trace")
    kin = kinetic(rho, m)
    if not kin.finite:
        return True
    bound = float(np.linalg.norm(_entries(m))) ** 2 / (2.0 * tr)
    return kin.value >= bound - 1e-10


def path_cost(path) -> ExtendedValue:
    """sum_k dt * F(midpoint_k, m_k) along a discrete path.

    Reads the path's (K+1, n, n) density and (K, N, n, n) momentum stacks.
    Tagged infinite as soon as one interval is infinite.  Callers that
    know the path is feasible read ``.value``.
    """
    dt = 1.0 / path.K
    total = 0.0
    for k in range(path.K):
        mid = 0.5 * (path.densities[k] + path.densities[k + 1])
        kin = kinetic(mid, path.momenta[k])
        if not kin.finite:
            return ExtendedValue.infinity()
        total += dt * kin.value
    return ExtendedValue.of(total)
