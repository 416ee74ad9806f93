"""Non-commutative operator calculus induced by a set of Hermitian matrices.

A LindbladSet L = (L_1, ..., L_N) defines

    gradient    grad(X)  = (L_k X - X L_k)_k          Hermitian -> skew stack
    divergence  div(Y)   = sum_k (L_k Y_k - Y_k L_k)  skew stack -> Hermitian
    laplacian   lap(X)   = -div(grad(X))
                         = sum_k (2 L_k X L_k - X L_k L_k - L_k L_k X)

together with the kernel of the gradient (always containing the
identity), the orthogonal projection onto it, and the dissipative heat
flow rho' = lap(rho)/2.  Each matrix they take passes one gate, _square.

In the library's real vectorization the gradient is a plain real matrix
(``grad_matrix``) and the divergence is its transpose, which is how the
kernel and all downstream superoperators are assembled.  The heat flow's
generator is then the symmetric -(1/2) G^T G, so the flow is its exact
exponential, read from the singular values that the kernel's SVD keeps.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .hermitian import (
    DimensionMismatch,
    HermitianMatrix,
    OperatorStack,
    _stack_blocks,
    hermitian_basis,
    hermitian_part,
    unvec_h,
    vec_h,
    vec_s,
)

#: relative singular-value threshold for the kernel rank decision
KERNEL_RTOL = 1e-10


class LindbladSet:
    """N Hermitian operators with cached gradient superoperator and kernel.

    The identity is in every kernel, so it is split off before anything is
    factored: one SVD of grad_matrix on an orthonormal basis P of I's
    complement gives the rest of the kernel and the complement, as P times
    right singular vectors.  Both are orthogonal to I/sqrt(n) by construction,
    at every operator scale, and that SVD makes the one rank decision
    (KERNEL_RTOL).

    Attributes
    ----------
    ops : ndarray (N, n, n), the operators (symmetrized, read-only)
    grad_matrix : real ndarray (N*n^2, n^2); applied to vec_h(X) it gives
        the stacked skew coordinates of grad(X)
    kernel_dim : int, >= 1
    kernel_vecs : real ndarray (n^2, kernel_dim), the one copy of the kernel:
        orthonormal columns spanning vec_h(ker(grad)), the first of them
        vec_h(I/sqrt(n)), exactly
    complement_vecs : real ndarray (n^2, n^2 - kernel_dim), orthonormal
        basis of ker(grad)^perp (the row space of grad_matrix)
    grad_singular_values : real ndarray (n^2 - kernel_dim,), the singular values
        s of grad_matrix above the rank cut: G^T G = C diag(s^2) C^T, C = complement_vecs
    unit : float, the cost (and heat-flow time) unit 4^(-round(log2 s_0)) ~ 1/s_0^2, s_0 the
        largest of s (1.0 if there is none): the stop test and zero-cost rule read it
    weight_tensor : real ndarray (n^2, d, d), d = n^2 - kernel_dim, built on
        first use: W[c, a, e] = <h_a; T(B_c) h_e> for h_a = unvec_h(C e_a),
        C = complement_vecs, B_c the Hermitian basis and T the weighted
        operator of elliptic, so that C^T T(rho) C = vec_h(rho) @ W; the
        only assembly of T, for the solver's potential solves and for
        WeightedOperator
    complement_tensor : real ndarray (d, d, d), built on first use, V[a, e, f]
        = sum_c C_ca W[c, e, f] = <h_e; T(h_a) h_f>.  The two tensors hold
        n^2 d^2 + d^3 floats, about 16 MB at n = 10.
    """

    def __init__(self, operators):
        mats = [HermitianMatrix(op) for op in operators]
        if not mats:
            raise DimensionMismatch("need at least one operator")
        n = mats[0].n
        if any(m.n != n for m in mats):
            raise DimensionMismatch("all operators must share one dimension")
        ops = np.array([m.mat for m in mats], dtype=complex)
        ops.setflags(write=False)
        self.ops = ops
        self.n = n
        self.count = len(mats)
        self._build_grad_matrix()
        self._build_kernel()

    def _build_grad_matrix(self):
        n = self.n
        # column b holds the skew coordinates of grad(B_b), block by block
        g = vec_s(grad_blocks(self, hermitian_basis(n)))
        self.grad_matrix = g.reshape(n * n, -1).T.copy()
        self.grad_matrix.setflags(write=False)

    def _build_kernel(self):
        n = self.n
        # perp's columns are an orthonormal basis of I's complement
        ident = vec_h(np.eye(n)) / np.sqrt(n)
        perp = np.linalg.qr(ident[:, None], mode="complete")[0][:, 1:]
        _, s, vh = np.linalg.svd(self.grad_matrix @ perp, full_matrices=False)
        rank = int(np.sum(s > KERNEL_RTOL * s.max(initial=0.0)))
        vecs = np.column_stack([ident, perp @ vh[rank:].T])
        self.kernel_vecs = vecs
        self.kernel_dim = vecs.shape[1]
        self.complement_vecs = perp @ vh[:rank].T
        self.grad_singular_values = s[:rank]
        self.unit = 4.0 ** -round(math.log2(s[0])) if rank else 1.0
        for a in (self.kernel_vecs, self.complement_vecs, self.grad_singular_values):
            a.setflags(write=False)

    @cached_property
    def weight_tensor(self) -> np.ndarray:
        """W[c, a, e] = Re tr(B_c P_ae), P_ae = sum_j (grad_j h_a)^* grad_j h_e; read-only."""
        n, nn, d = self.n, self.count * self.n, self.complement_vecs.shape[1]
        g = grad_blocks(self, unvec_h(self.complement_vecs.T, n))  # (d, N, n, n)
        # rows (a, i) hold row i of every (grad_j h_a)^*, so one GEMM gives P
        p = np.conj(g).transpose(0, 3, 1, 2).reshape(d * n, nn) \
            @ g.transpose(1, 2, 0, 3).reshape(nn, d * n)
        w = vec_h(p.reshape(d, n, d, n).transpose(0, 2, 1, 3))  # (a, e, c)
        w = np.ascontiguousarray(w.transpose(2, 0, 1))
        w = 0.5 * (w + np.swapaxes(w, -1, -2))
        w.setflags(write=False)
        return w

    @cached_property
    def complement_tensor(self) -> np.ndarray:
        """V = C^T W over the weight index: (d, d, d), read-only."""
        v = np.tensordot(self.complement_vecs, self.weight_tensor, axes=(0, 0))
        v.setflags(write=False)
        return v

    def __repr__(self):
        return f"LindbladSet(N={self.count}, n={self.n}, kernel_dim={self.kernel_dim})"


def _square(l: LindbladSet, x) -> np.ndarray:
    """The matrix gate for l: HermitianMatrix(x)'s array; DimensionMismatch unless n x n."""
    a = HermitianMatrix(x).mat
    if a.shape != (l.n, l.n):
        raise DimensionMismatch(f"expected shape {(l.n, l.n)}, got {a.shape}")
    return a


def grad_blocks(l: LindbladSet, xs: np.ndarray) -> np.ndarray:
    """Raw commutators L_k X - X L_k for a stack: (..., n, n) -> (..., N, n, n).

    Two products against the stacked operators, with no broadcast over k.
    The (N n, n) rows [L_1; ...; L_N] times each X give every L_k X in
    block layout.  One GEMM of all rows of the stack, (-1, n), with the
    (n, N n) columns [L_1 ... L_N] gives every X L_k in (..., n, N, n)
    layout; one swap of axes turns it into blocks, subtracted in place.
    """
    big_n, n = l.count, l.n
    lead = np.shape(xs)[:-2]
    xl = np.reshape(xs, (-1, n)) @ l.ops.transpose(1, 0, 2).reshape(n, big_n * n)
    out = (l.ops.reshape(big_n * n, n) @ xs).reshape(*lead, big_n, n, n)
    out -= np.swapaxes(xl.reshape(*lead, n, big_n, n), -3, -2)
    return out


def gradient(l: LindbladSet, x) -> OperatorStack:
    """grad(X): block k is the commutator L_k X - X L_k; X passes _square.
    Its rounding defect grows with |L_k| |X|, so its skew-Hermitian part is returned."""
    g = grad_blocks(l, _square(l, x))
    return OperatorStack(0.5 * (g - np.conj(np.swapaxes(g, -1, -2))), flavor="skew")


def divergence(l: LindbladSet, y) -> HermitianMatrix:
    """div(Y) = sum_k (L_k Y_k - Y_k L_k) for a skew (never general) stack Y, Hermitian output."""
    return HermitianMatrix(div_blocks(l, _stack_blocks(y, l.n, l.count, "skew")))


def div_blocks(l: LindbladSet, ys: np.ndarray) -> np.ndarray:
    """Raw sum_k (L_k Y_k - Y_k L_k) for a stack: (..., N, n, n) -> (..., n, n)."""
    return np.einsum("kij,...kjl->...il", l.ops, ys) \
        - np.einsum("...kij,kjl->...il", ys, l.ops)


def laplacian(l: LindbladSet, x) -> HermitianMatrix:
    """lap(X) by the closed form sum_k (2 L_k X L_k - X L_k^2 - L_k^2 X); X passes _square.
    Its rounding defect grows with |L_k|^2 |X|, so its Hermitian part is returned."""
    a = _square(l, x)
    lsq = np.einsum("kij,kjl->il", l.ops, l.ops)
    return HermitianMatrix(hermitian_part(2.0 * np.einsum("kij,jl,klm->im", l.ops, a, l.ops)
                                          - a @ lsq - lsq @ a))


def project_kernel(l: LindbladSet, x) -> HermitianMatrix:
    """Orthogonal projection of X onto ker(grad); X passes _square."""
    a = _square(l, x)
    coords = l.kernel_vecs.T @ vec_h(a)
    return HermitianMatrix(unvec_h(l.kernel_vecs @ coords, l.n))


def heat_flow(l: LindbladSet, rho0, t_final: float) -> HermitianMatrix:
    """exp(t_final gen) rho0, the exact flow of rho' = lap(rho)/2.

    The generator gen = -(1/2) G^T G (G = grad_matrix) is -(1/2) C diag(s^2) C^T
    (C = complement_vecs, s = grad_singular_values), so at any time and stiffness
    the flow is x + C (expm1(-t s^2/2) * C^T x), x = vec_h(rho0).  rho0 passes
    _square's gate; t_final must be finite and >= 0, and at 0 the gated start
    comes back unchanged.  The result has no trace or spectrum gate: callers
    such as momt verify measure both themselves.
    """
    if not 0.0 <= t_final < np.inf:
        raise ValueError("t_final must be finite and nonnegative")
    start = HermitianMatrix(rho0)
    rho = _square(l, start)
    if t_final == 0.0:
        return start
    x, c, s = vec_h(rho), l.complement_vecs, l.grad_singular_values
    return HermitianMatrix(unvec_h(x + c @ (np.expm1(-0.5 * t_final * s * s) * (x @ c)), l.n))
