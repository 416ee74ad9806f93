"""Standalone reference solver for the discretized matrix transport problem.

Minimizes the full discrete action

    sum_k  dt * tr( m_k^* m_k  midpoint(rho_k, rho_{k+1})^{-1} )

jointly over the interior node densities rho_1..rho_{K-1} (Hermitian,
unit trace) and the per-interval momenta m_k (arbitrary complex stacks),
subject to the discrete continuity constraint

    rho_{k+1} - rho_k = (dt/2) * sum_j ( L_j y_j - y_j L_j ),   y = m_k - m_k^*,

with both endpoint densities pinned.  The constraint is affine, so the
solver parametrizes the feasible set explicitly through an orthonormal
null-space basis and runs Barzilai-Borwein projected gradient descent
with an Armijo safeguard.

This script intentionally shares no code with the library under test:
it builds its own vectorization, its own constraint matrix, and its own
objective.  It exists so that the end-to-end geodesic solver can be
checked against a value obtained by a completely different route.

Each frozen grid records the cost, the reduced gradient norm, the
constraint residual, the smallest eigenvalue over the nodes and over the
interval midpoints of the final path, and optimality_error: the Newton
decrement estimate g^T H^{-1} g / 2 of how far the cost is above the
discrete optimum, with H a central-difference Hessian of the reduced cost.
A path whose nodes and midpoints are all positive definite is admissible,
so its cost bounds the discrete optimum from above.

Usage:
    python tests/oracles/joint_oracle.py --out tests/fixtures/pauli_geodesic.json
    python tests/oracles/joint_oracle.py --problem tests/fixtures/three_level_pair.json \
        --grids 8 16 --out tests/fixtures/three_level_oracle.json

--problem reads a momt problem file (its operators and endpoints; any
"config" is ignored) with its own JSON reader; without it the script solves
the Pauli swap instance.
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np
from scipy.linalg import null_space

EYE2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# real coordinates for Hermitian and general complex matrices
# ---------------------------------------------------------------------------

def herm_to_real(h: np.ndarray) -> np.ndarray:
    """Orthonormal real coordinates of a Hermitian matrix (preserves norms)."""
    n = h.shape[0]
    out = []
    for i in range(n):
        out.append(h[i, i].real)
    for i in range(n):
        for j in range(i + 1, n):
            out.append(math.sqrt(2.0) * h[i, j].real)
            out.append(math.sqrt(2.0) * h[i, j].imag)
    return np.array(out)


def real_to_herm(x: np.ndarray, n: int) -> np.ndarray:
    h = np.zeros((n, n), dtype=complex)
    p = 0
    for i in range(n):
        h[i, i] = x[p]
        p += 1
    for i in range(n):
        for j in range(i + 1, n):
            re = x[p] / math.sqrt(2.0)
            im = x[p + 1] / math.sqrt(2.0)
            p += 2
            h[i, j] = re + 1j * im
            h[j, i] = re - 1j * im
    return h


def stack_to_real(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a general complex stack (N, n, n)."""
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def real_to_stack(x: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    half = x.size // 2
    return (x[:half] + 1j * x[half:]).reshape(shape)


# ---------------------------------------------------------------------------
# the constraint map  m  ->  (dt/2) * div(m - m^*)
# ---------------------------------------------------------------------------

def skew_divergence(ls: list[np.ndarray], m: np.ndarray) -> np.ndarray:
    """sum_j [L_j, y_j] with y = m - m^* (blockwise adjoint)."""
    y = m - np.conj(np.transpose(m, (0, 2, 1)))
    out = np.zeros_like(m[0])
    for lj, yj in zip(ls, y):
        out += lj @ yj - yj @ lj
    return out


def divergence_matrix(ls: list[np.ndarray]) -> np.ndarray:
    """Real matrix of m -> div(m - m^*) from stack coords to Hermitian coords."""
    n = ls[0].shape[0]
    big_n = len(ls)
    dof = 2 * big_n * n * n
    cols = []
    for p in range(dof):
        e = np.zeros(dof)
        e[p] = 1.0
        m = real_to_stack(e, (big_n, n, n))
        cols.append(herm_to_real(skew_divergence(ls, m)))
    return np.array(cols).T


# ---------------------------------------------------------------------------
# joint objective
# ---------------------------------------------------------------------------

class JointProblem:
    def __init__(self, ls, rho0, rho1, big_k):
        self.ls = ls
        self.n = rho0.shape[0]
        self.big_n = len(ls)
        self.big_k = big_k
        self.dt = 1.0 / big_k
        self.rho0 = rho0
        self.rho1 = rho1
        self.h_dof = self.n * self.n
        self.m_dof = 2 * self.big_n * self.n * self.n
        self.div = divergence_matrix(ls)
        self._build_affine()

    # unknown vector u = [rho_1 .. rho_{K-1} coords, m_0 .. m_{K-1} coords]
    def _rho_slice(self, j):
        return slice((j - 1) * self.h_dof, j * self.h_dof)

    def _m_slice(self, k):
        base = (self.big_k - 1) * self.h_dof
        return slice(base + k * self.m_dof, base + (k + 1) * self.m_dof)

    def _build_affine(self):
        kk, hd, md = self.big_k, self.h_dof, self.m_dof
        dof = (kk - 1) * hd + kk * md
        a = np.zeros((kk * hd, dof))
        b = np.zeros(kk * hd)
        for k in range(kk):
            rows = slice(k * hd, (k + 1) * hd)
            if k + 1 <= kk - 1:
                a[rows, self._rho_slice(k + 1)] += np.eye(hd)
            else:
                b[rows] -= herm_to_real(self.rho1)
            if 1 <= k:
                a[rows, self._rho_slice(k)] -= np.eye(hd)
            else:
                b[rows] += herm_to_real(self.rho0)
            a[rows, self._m_slice(k)] = -0.5 * self.dt * self.div
        self.a_mat = a
        self.b_vec = b

    def feasible_start(self):
        kk = self.big_k
        u = np.zeros(self.a_mat.shape[1])
        for j in range(1, kk):
            t = j / kk
            u[self._rho_slice(j)] = herm_to_real((1 - t) * self.rho0 + t * self.rho1)
        rhs = herm_to_real((self.rho1 - self.rho0) * (2.0 / (kk * self.dt)))
        m_coords, *_ = np.linalg.lstsq(self.div, rhs, rcond=None)
        for k in range(kk):
            u[self._m_slice(k)] = m_coords
        return u

    def unpack(self, u):
        rhos = [self.rho0]
        for j in range(1, self.big_k):
            rhos.append(real_to_herm(u[self._rho_slice(j)], self.n))
        rhos.append(self.rho1)
        ms = [real_to_stack(u[self._m_slice(k)], (self.big_n, self.n, self.n))
              for k in range(self.big_k)]
        return rhos, ms

    def min_midpoint_eig(self, u):
        rhos, _ = self.unpack(u)
        worst = np.inf
        for k in range(self.big_k):
            mid = 0.5 * (rhos[k] + rhos[k + 1])
            worst = min(worst, float(np.linalg.eigvalsh(mid)[0]))
        return worst

    def min_node_eig(self, u):
        rhos, _ = self.unpack(u)
        return min(float(np.linalg.eigvalsh(r)[0]) for r in rhos)

    def cost_grad(self, u):
        rhos, ms = self.unpack(u)
        cost = 0.0
        grad = np.zeros_like(u)
        for k in range(self.big_k):
            mid = 0.5 * (rhos[k] + rhos[k + 1])
            w = np.linalg.inv(mid)
            w = 0.5 * (w + w.conj().T)
            gram = np.zeros((self.n, self.n), dtype=complex)
            gm = np.zeros_like(ms[k])
            for j in range(self.big_n):
                gram += ms[k][j].conj().T @ ms[k][j]
                gm[j] = 2.0 * self.dt * (ms[k][j] @ w)
            cost += self.dt * float(np.trace(gram @ w).real)
            grad[self._m_slice(k)] += stack_to_real(gm)
            dmid = -self.dt * (w @ gram @ w)
            dmid = 0.5 * (dmid + dmid.conj().T)
            half = herm_to_real(0.5 * dmid)
            if k >= 1:
                grad[self._rho_slice(k)] += half
            if k + 1 <= self.big_k - 1:
                grad[self._rho_slice(k + 1)] += half
        return cost, grad


def solve(problem, max_iter=60000, tol=1e-12, floor=1e-9, verbose=False):
    z = null_space(problem.a_mat)
    u0 = problem.feasible_start()
    w = np.zeros(z.shape[1])

    def full(wv):
        return u0 + z @ wv

    cost, grad = problem.cost_grad(full(w))
    g = z.T @ grad
    step = 1e-2
    prev_w, prev_g = None, None
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        gnorm = np.linalg.norm(g)
        if gnorm <= tol * (1.0 + abs(cost)):
            break
        if prev_w is not None:
            dw = w - prev_w
            dg = g - prev_g
            denom = float(dw @ dg)
            if denom > 0:
                step = float(dw @ dw) / denom
            step = min(max(step, 1e-12), 1e3)
        # Armijo backtracking, keeping every interval midpoint well inside
        # the positive cone
        accepted = False
        s = step
        for _ in range(60):
            cand = w - s * g
            u_cand = full(cand)
            if problem.min_midpoint_eig(u_cand) <= floor:
                s *= 0.5
                continue
            c_cand, grad_cand = problem.cost_grad(u_cand)
            if c_cand <= cost - 1e-4 * s * gnorm * gnorm:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        prev_w, prev_g = w, g
        w, cost, grad = cand, c_cand, grad_cand
        g = z.T @ grad
        if verbose and n_iter % 1000 == 0:
            print(f"  iter {n_iter:6d}  cost {cost:.15f}  |g| {np.linalg.norm(g):.3e}")
    u = full(w)
    residual = float(np.linalg.norm(problem.a_mat @ u - problem.b_vec))
    return {
        "w2_squared": cost,
        "grad_norm": float(np.linalg.norm(g)),
        "constraint_residual": residual,
        "iterations": n_iter,
        "min_midpoint_eig": problem.min_midpoint_eig(u),
        "min_node_eig": problem.min_node_eig(u),
        "optimality_error": newton_decrement(lambda wv: z.T @ problem.cost_grad(full(wv))[1],
                                             w, g),
    }


def newton_decrement(reduced_grad, w, g, h=1e-5):
    """g^T H^{-1} g / 2 with H the central-difference Hessian of the reduced cost at w.

    The quadratic model's estimate of the cost's excess over the optimum.
    """
    cols = []
    for i in range(w.size):
        e = np.zeros(w.size)
        e[i] = h
        cols.append((reduced_grad(w + e) - reduced_grad(w - e)) / (2.0 * h))
    hess = np.array(cols).T
    hess = 0.5 * (hess + hess.T)
    return 0.5 * float(g @ np.linalg.solve(hess, g))


def read_problem(path):
    """(operators, rho0, rho1) of a momt problem file, read without momt."""
    with open(path) as fh:
        doc = json.load(fh)

    def matrix(lit):
        return np.array(lit["re"], dtype=float) + 1j * np.array(lit["im"], dtype=float)

    return ([matrix(op) for op in doc["lindblad"]["operators"]],
            matrix(doc["rho0"]), matrix(doc["rho1"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="tests/fixtures/pauli_geodesic.json")
    ap.add_argument("--grids", type=int, nargs="+", default=[8, 16, 32])
    ap.add_argument("--verbose", action="store_true")
    ap.add_argument("--problem", metavar="FILE",
                    help="solve this momt problem file instead of the Pauli swap")
    args = ap.parse_args()

    if args.problem:
        ls, rho0, rho1 = read_problem(args.problem)
        fixture = {"description": f"Reference values for the problem file {args.problem}.",
                   "problem": args.problem}
    else:
        ls = [SIGMA_X, SIGMA_Y, SIGMA_Z]
        rho0 = np.diag([0.9, 0.1]).astype(complex)
        rho1 = np.diag([0.1, 0.9]).astype(complex)
        fixture = {
            "description": (
                "Reference values for the swap instance: Pauli operator set, "
                "rho0=diag(0.9,0.1), rho1=diag(0.1,0.9)."
            ),
            "lindblad": "pauli-xyz",
            "rho0_diag": [0.9, 0.1],
            "rho1_diag": [0.1, 0.9],
        }
    fixture["description"] += (
        "  Produced by the standalone joint solver in tests/oracles/joint_oracle.py "
        "(projected Barzilai-Borwein descent over all node densities "
        "and interval momenta at once)."
    )
    fixture.update(n=int(rho0.shape[0]), grids={})
    for kk in args.grids:
        print(f"K = {kk}")
        problem = JointProblem(ls, rho0, rho1, kk)
        res = solve(problem, verbose=args.verbose)
        res["w2"] = math.sqrt(res["w2_squared"])
        fixture["grids"][str(kk)] = res
        print(f"  W2^2 = {res['w2_squared']:.15f}  grad {res['grad_norm']:.2e} "
              f"iters {res['iterations']} residual {res['constraint_residual']:.2e} "
              f"optimality error {res['optimality_error']:.2e}")

    with open(args.out, "w") as fh:
        json.dump(fixture, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
