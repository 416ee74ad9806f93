"""Non-commutative operator calculus induced by a set of Hermitian matrices.

A LindbladSet L = (L_1, ..., L_N) defines

    gradient    grad(X)  = (L_k X - X L_k)_k          Hermitian -> skew stack
    divergence  div(Y)   = sum_k (L_k Y_k - Y_k L_k)  skew stack -> Hermitian
    laplacian   lap(X)   = -div(grad(X))
                         = sum_k (2 L_k X L_k - X L_k L_k - L_k L_k X)

together with the kernel of the gradient (always containing the
identity), the orthogonal projection onto it, and the dissipative heat
flow rho' = lap(rho)/2.

In the library's real vectorization the gradient is a plain real matrix
(``grad_matrix``) and the divergence is its transpose, which is how the
kernel and all downstream superoperators are assembled.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .hermitian import (
    DimensionMismatch,
    FlavorError,
    HermitianMatrix,
    OperatorStack,
    _entries,
    hermitian_basis,
    hermitian_part,
    unvec_h,
    vec_h,
    vec_s,
)

#: relative singular-value threshold for the kernel rank decision
KERNEL_RTOL = 1e-10


class StabilityError(RuntimeError):
    """Heat-flow step produced a state with an inadmissible negative eigenvalue."""


class LindbladSet:
    """N Hermitian operators with cached gradient superoperator and kernel.

    Attributes
    ----------
    ops : ndarray (N, n, n), the operators (symmetrized, read-only)
    grad_matrix : real ndarray (N*n^2, n^2); applied to vec_h(X) it gives
        the stacked skew coordinates of grad(X)
    kernel_basis : list of HermitianMatrix, orthonormal, spanning ker(grad);
        the first element is always I/sqrt(n)
    kernel_dim : int, >= 1
    kernel_vecs : real ndarray (n^2, kernel_dim), vec_h of the basis
    complement_vecs : real ndarray (n^2, n^2 - kernel_dim), orthonormal
        basis of ker(grad)^perp (the row space of grad_matrix)
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
        _, s, vh = np.linalg.svd(self.grad_matrix, full_matrices=False)
        rank = int(np.sum(s > KERNEL_RTOL * s[0]))  # 0 when s[0] == 0
        null = vh[rank:].T  # (n^2, kdim), orthonormal
        # Rotate the null basis so I/sqrt(n) is literally the first element.
        ident = vec_h(np.eye(n)) / np.sqrt(n)
        coeffs = null.T @ ident
        cols = [ident]
        rest = null @ (np.eye(null.shape[1]) - np.outer(coeffs, coeffs))
        if null.shape[1] > 1:
            q, r = np.linalg.qr(rest)
            keep = np.abs(np.diag(r)) > 1e-8
            cols.extend(q[:, i] for i in range(q.shape[1]) if keep[i])
        vecs = np.column_stack(cols)
        self.kernel_vecs = vecs
        self.kernel_dim = vecs.shape[1]
        self.kernel_basis = [HermitianMatrix(unvec_h(vecs[:, i], n))
                             for i in range(self.kernel_dim)]
        self.complement_vecs = vh[:rank].T
        self.kernel_vecs.setflags(write=False)
        self.complement_vecs.setflags(write=False)

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
    a = _entries(x)
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
    """grad(X): block k is the commutator L_k X - X L_k (skew-Hermitian)."""
    return OperatorStack(grad_blocks(l, _square(l, x)), flavor="skew")


def divergence(l: LindbladSet, y) -> HermitianMatrix:
    """div(Y) = sum_k (L_k Y_k - Y_k L_k) for a skew stack Y, Hermitian output."""
    stack = y if isinstance(y, OperatorStack) else OperatorStack(y, flavor="skew")
    if stack.flavor != "skew":
        raise FlavorError("divergence expects a skew-flavored stack")
    if stack.dim != l.n or stack.count != l.count:
        raise DimensionMismatch(
            f"stack shape {(stack.count, stack.dim)} does not match operator set "
            f"{(l.count, l.n)}"
        )
    return HermitianMatrix(div_blocks(l, stack.blocks))


def div_blocks(l: LindbladSet, ys: np.ndarray) -> np.ndarray:
    """Raw sum_k (L_k Y_k - Y_k L_k) for a stack: (..., N, n, n) -> (..., n, n)."""
    return np.einsum("kij,...kjl->...il", l.ops, ys) \
        - np.einsum("...kij,kjl->...il", ys, l.ops)


def _laplacian_raw(l: LindbladSet, a: np.ndarray, lsq: np.ndarray) -> np.ndarray:
    """The closed form of lap(A), before symmetrization, for lsq = sum_k L_k^2."""
    return 2.0 * np.einsum("kij,jl,klm->im", l.ops, a, l.ops) - a @ lsq - lsq @ a


def laplacian(l: LindbladSet, x) -> HermitianMatrix:
    """lap(X) by the closed form sum_k (2 L_k X L_k - X L_k^2 - L_k^2 X)."""
    lsq = np.einsum("kij,kjl->il", l.ops, l.ops)
    return HermitianMatrix(_laplacian_raw(l, _square(l, x), lsq))


def project_kernel(l: LindbladSet, x) -> HermitianMatrix:
    """Orthogonal projection of X onto ker(grad)."""
    a = _square(l, x)
    coords = l.kernel_vecs.T @ vec_h(a)
    return HermitianMatrix(unvec_h(l.kernel_vecs @ coords, l.n))


def heat_flow(l: LindbladSet, rho0, t_final: float, steps: int) -> HermitianMatrix:
    """Integrate rho' = lap(rho)/2 from rho0 (a wrapper or array) by explicit midpoint steps.

    Trace and Hermiticity are preserved by the scheme.  The state comes
    back as a HermitianMatrix with no trace or spectrum gate, so callers
    such as momt verify measure both themselves.  If a step drives the
    smallest eigenvalue below -1e-8 (or to NaN) the integration aborts
    with a StabilityError suggesting a larger ``steps``.

    A restart from the returned state continues the trajectory bitwise when
    the step t_final/steps is the same float: each step ends in hermitian_part,
    which leaves an exactly Hermitian matrix unchanged.
    """
    if not 0.0 <= t_final < np.inf:
        raise ValueError("t_final must be finite and nonnegative")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lsq = np.einsum("kij,kjl->il", l.ops, l.ops)

    def rhs(r):
        # equals 0.5 * laplacian(l, r).mat bitwise, without the wrapper's checks
        return 0.5 * hermitian_part(_laplacian_raw(l, r, lsq))

    rho = np.array(_entries(rho0), dtype=complex)
    dt = t_final / steps
    for _ in range(steps):
        if dt == 0.0:
            break
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        rho = rho + dt * k2
        rho = hermitian_part(rho)
        lo = float(np.linalg.eigvalsh(rho)[0])
        if not lo >= -1e-8:
            raise StabilityError(
                f"state left the positive cone (min eigenvalue {lo:.3e}); "
                f"increase steps (currently {steps})"
            )
    return HermitianMatrix(rho)
