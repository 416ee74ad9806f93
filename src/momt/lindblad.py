"""Non-commutative operator calculus induced by a set of Hermitian matrices.

A LindbladSet L = (L_1, ..., L_N) defines

    gradient    grad(X)  = (L_k X - X L_k)_k          Hermitian -> skew stack
    divergence  div(Y)   = sum_k (L_k Y_k - Y_k L_k)  skew stack -> Hermitian
    laplacian   lap(X)   = -div(grad(X))
                         = sum_k (2 L_k X L_k - X L_k L_k - L_k L_k X)

together with the kernel of the gradient (always containing the
identity), the orthogonal projection onto it, and the dissipative heat
flow rho' = -i[H, rho] + lap(rho)/2.

In the library's real vectorization the gradient is a plain real matrix
(``grad_matrix``) and the divergence is its transpose, which is how the
kernel and all downstream superoperators are assembled.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .hermitian import (
    DensityMatrix,
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
        if s.size and s[0] > 0:
            rank = int(np.sum(s > KERNEL_RTOL * s[0]))
        else:
            rank = 0
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
        p = p.reshape(d, n, d, n).transpose(0, 2, 1, 3).reshape(d * d, n * n)
        w = (np.conj(hermitian_basis(n)).reshape(n * n, -1) @ p.T).real  # vec_h
        w = w.reshape(n * n, d, d)
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
    """Raw commutators L_k X - X L_k for a stack: (..., n, n) -> (..., N, n, n)."""
    a = np.expand_dims(xs, -3)
    return l.ops @ a - a @ l.ops


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


def laplacian(l: LindbladSet, x) -> HermitianMatrix:
    """lap(X) by the closed form sum_k (2 L_k X L_k - X L_k^2 - L_k^2 X)."""
    a = _square(l, x)
    lsq = np.einsum("kij,kjl->il", l.ops, l.ops)
    out = 2.0 * np.einsum("kij,jl,klm->im", l.ops, a, l.ops) - a @ lsq - lsq @ a
    return HermitianMatrix(out)


def project_kernel(l: LindbladSet, x) -> HermitianMatrix:
    """Orthogonal projection of X onto ker(grad)."""
    a = _square(l, x)
    coords = l.kernel_vecs.T @ vec_h(a)
    return HermitianMatrix(unvec_h(l.kernel_vecs @ coords, l.n))


def heat_flow(l: LindbladSet, rho0: DensityMatrix, t_final: float, steps: int,
              hamiltonian=None) -> DensityMatrix:
    """Integrate rho' = -i[H, rho] + lap(rho)/2 with explicit midpoint steps.

    Trace and Hermiticity are preserved by the scheme; if a step drives
    the smallest eigenvalue below -1e-8 the integration aborts with a
    StabilityError suggesting a larger ``steps``.
    """
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = None
    if hamiltonian is not None:
        h = HermitianMatrix(hamiltonian).mat
        if h.shape != (l.n, l.n):
            raise DimensionMismatch("Hamiltonian dimension mismatch")

    def rhs(r):
        out = 0.5 * laplacian(l, r).mat
        if h is not None:
            out = out - 1j * (h @ r - r @ h)
        return out

    rho = np.array(rho0.mat if isinstance(rho0, DensityMatrix) else rho0, dtype=complex)
    dt = t_final / steps
    for _ in range(steps):
        if dt == 0.0:
            break
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        rho = rho + dt * k2
        rho = hermitian_part(rho)
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < -1e-8:
            raise StabilityError(
                f"state left the positive cone (min eigenvalue {lo:.3e}); "
                f"increase steps (currently {steps})"
            )
    return DensityMatrix(rho, eps_pd=1e-8)
