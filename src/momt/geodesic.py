"""Discrete transport geodesics with certified duality gaps.

The squared distance between two strictly positive densities is the
minimum of the discrete action

    sum_k  dt * 2 F(mid_k, m_k),      mid_k = (rho_k + rho_{k+1}) / 2,

over paths satisfying the discrete continuity equation

    rho_{k+1} - rho_k = (dt/2) div(m_k - (m_k)_*).

The solver never touches infeasible iterates: it optimizes only the
interior node densities (moves restricted to ker(grad)^perp, so traces
and reachability are preserved exactly) and reconstructs the momenta on
every interval through the weighted elliptic solve, m_k = grad(X_k) mid_k.
With that reconstruction the per-interval action is <f_k; X_k> with
f_k = (rho_{k+1} - rho_k)/dt, which is what the optimizer and its
analytic gradient use.

The descent works on coordinates x_k = C^T vec_h(X_k), C = complement_vecs.
The K interval systems (elliptic.solve_potentials), the gradient and the
Hessian coupling are batched contractions of the operator set's cached
weight_tensor and complement_tensor, so no trial forms grad(X_k), a Gram
matrix or a momentum; X_k and m_k are rebuilt once, for the returned path.

The reduced cost E(y) is convex: in restricted coordinates each interval
term is a matrix-fractional function (1/dt) D^T A(mu)^{-1} D of the node
difference D and the midpoint mu, with A(mu) = C^T T(mu) C linear in mu.
Each term couples two adjacent nodes, so the Hessian is block tridiagonal
with d x d blocks (d = dim ker(grad)^perp).  The descent takes damped
Newton steps: the direction -H^{-1} g comes from the analytic Hessian
(_Reduced.hessian, which reuses the factored interval systems A_k) and a
block Thomas solve in O(K d^3) gated by one batched Cholesky of its
Schur complements (_block_tridiag_solve), with -g as the fallback when H
is not positive definite or the direction is not a finite descent
direction.  Backtracking keeps every node and midpoint above the floor.
A step is accepted on the Armijo test, or, when the cost changed by at
most FLAT_RTOL |E| so that Armijo reads only rounding noise, on the
approximate-Wolfe bounds of Hager & Zhang (SIAM J. Optim. 2005) for its
directional derivative.  The second rule guards against a cost flat to
its last digits, where Armijo admits only steps too short to change
anything.

A converged (or best-effort) path is accompanied by a dual certificate:
node potentials lambda_k satisfying the discrete Hamilton-Jacobi
inequality  (lambda_{k+1}-lambda_k)/dt + (1/2)(grad lb_k)^*(grad lb_k) <= 0
(lb_k the midpoint), whose endpoint pairing bounds the primal action
from below.  The reported gap is therefore a true optimality certificate,
not a heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import kinetic_values
from .elliptic import solve_potentials
from .hermitian import DensityMatrix, _entries, gram, hermitian_part, unvec_h, vec_h
from .lindblad import LindbladSet, div_blocks, grad_blocks


class InfeasibleEndpoints(ValueError):
    """rho1 - rho0 has a kernel component; no finite-cost connection exists."""


@dataclass
class SolverConfig:
    K: int = 32
    max_iter: int = 500
    grad_tol: float = 1e-7  # scaled by (1 + |cost|) inside the solver
    eps_pd: float = 1e-8    # eigenvalue floor maintained by the line search


@dataclass
class DiscretePath:
    K: int
    grid: np.ndarray
    densities: np.ndarray    # (K+1, n, n) nodes rho_0..rho_K
    momenta: np.ndarray      # (K, N, n, n) interval momenta m_k
    potentials: np.ndarray   # (K, n, n) interval potentials X_k


@dataclass
class GeodesicResult:
    path: DiscretePath
    distance: float
    primal_cost: float
    dual_path: np.ndarray     # (K+1, n, n) HJ-feasible node potentials lambda_k
    dual_value: float
    gap: float
    hamiltonian: list
    iterations: int
    converged: bool
    grad_norm: float
    trace_drift: float
    warnings: list = field(default_factory=list)
    iterate_nodes: list | None = None


@dataclass
class HamiltonianProfile:
    values: list
    mean: float
    rel_std: float
    speed_ok: bool


def feasibility_gap(l: LindbladSet, rho0, rho1) -> float:
    """Norm of the kernel component of rho1 - rho0 (zero iff connectable)."""
    d = _entries(rho1) - _entries(rho0)
    return float(np.linalg.norm(l.kernel_vecs.T @ vec_h(d)))


def continuity_residual(l: LindbladSet, path: DiscretePath) -> float:
    """Max over intervals of |rho_{k+1} - rho_k - (dt/2) div(m_k - m_k*)|."""
    ms, dt = path.momenta, 1.0 / path.K
    div = div_blocks(l, ms - np.conj(np.swapaxes(ms, -1, -2)))
    div = hermitian_part(div)  # as divergence() returns it
    diff = path.densities[1:] - path.densities[:-1] - 0.5 * dt * div
    return float(np.max(np.linalg.norm(diff, axis=(-2, -1))))


def _intervals(l: LindbladSet, nodes: np.ndarray, dt: float):
    """f_k = (rho_{k+1} - rho_k)/dt and solve_potentials at the midpoints of rho_0..rho_K."""
    fs = (nodes[1:] - nodes[:-1]) / dt
    return (fs, *solve_potentials(l, 0.5 * (nodes[:-1] + nodes[1:]), fs))


def _linear_nodes(r0: np.ndarray, r1: np.ndarray, big_k: int) -> np.ndarray:
    """Nodes (1 - t_j) rho_0 + t_j rho_1, j = 0..K, endpoints exact: (K+1, n, n)."""
    t = (np.arange(1, big_k) * (1.0 / big_k))[:, None, None]
    return np.concatenate([r0[None], (1 - t) * r0 + t * r1, r1[None]])


def _discrete_path(l: LindbladSet, nodes: np.ndarray, xs: np.ndarray) -> DiscretePath:
    """The path through nodes with X_k = unvec_h(C x_k) and m_k = grad(X_k) mid_k."""
    pots = unvec_h(xs @ l.complement_vecs.T, l.n)
    ms = grad_blocks(l, pots) @ (0.5 * (nodes[:-1] + nodes[1:]))[:, None]
    return DiscretePath(K=len(xs), grid=np.linspace(0.0, 1.0, len(xs) + 1),
                        densities=nodes, momenta=ms, potentials=pots)


def _endpoint_guard(l: LindbladSet, rho0, rho1):
    r0 = DensityMatrix(rho0, strict=True)
    r1 = DensityMatrix(rho1, strict=True)
    gap = feasibility_gap(l, r0, r1)
    if gap > 1e-10:
        raise InfeasibleEndpoints(
            f"rho1 - rho0 has a kernel component of norm {gap:.3e}; the "
            "endpoints are not connectable by any finite-action path "
            "(connectability requires rho1 - rho0 orthogonal to ker(grad))"
        )
    return r0, r1


def initial_path(l: LindbladSet, rho0, rho1, big_k: int) -> DiscretePath:
    """Linear density interpolation with per-interval reconstructed momenta.

    Exactly feasible: with X_k solving the weighted system at the interval
    midpoint and m_k = grad(X_k) mid_k, the identity
    m - m_* = grad(X) mid + mid grad(X) turns the elliptic equation into
    the discrete continuity equation.
    """
    r0, r1 = _endpoint_guard(l, rho0, rho1)
    nodes = _linear_nodes(r0.mat, r1.mat, big_k)
    return _discrete_path(l, nodes, _intervals(l, nodes, 1.0 / big_k)[1])


# ---------------------------------------------------------------------------
# reduced objective over interior nodes
# ---------------------------------------------------------------------------

class _Reduced:
    """E(y) = sum_k <rho_{k+1} - rho_k; X_k> over interior-node moves y.

    Interior node j sits at line_j + unvec(C y_j) with C an orthonormal
    basis of ker(grad)^perp, so unit trace and endpoint reachability are
    automatic for every candidate.  Nodes are a (K+1, n, n) stack and all
    K interval systems are solved in one batched call, for x_k = C^T vec_h(X_k).
    feasible and value_grad take the stack nodes(y), so a trial builds it once.
    """

    def __init__(self, l, r0, r1, big_k, floor):
        self.l = l
        self.big_k = big_k
        self.dt = 1.0 / big_k
        self.floor = floor
        self.c = l.complement_vecs
        self.d = self.c.shape[1]
        self.line = _linear_nodes(r0.mat, r1.mat, big_k)

    def nodes(self, y: np.ndarray) -> np.ndarray:
        out = self.line.copy()
        out[1:-1] += unvec_h(y.reshape(-1, self.d) @ self.c.T, self.l.n)
        return out

    def feasible(self, nodes: np.ndarray) -> bool:
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        lows = np.linalg.eigvalsh(np.concatenate([nodes[1:-1], mids]))[:, 0]
        return bool(np.all(lows > self.floor))

    def value_grad(self, nodes: np.ndarray):
        """(E, grad E, potential coordinates x_k, couplings U_k, systems A_k) at nodes(y).

        With h_a = unvec_h(C e_a) and V[a, e, f] = <h_e; T(h_a) h_f>
        (l.complement_tensor), U_k = V x_k over f has U_k[a, e] =
        <h_e; T(h_a) X_k>.  As <Z; T(mu) X> = Re tr(mu sum_j (grad_j Z)^* grad_j X),
        (U_k x_k)_a = <h_a; Gram(grad X_k)>, so C^T vec_h of the node gradient
        2(X_{j-1} - X_j) - (dt/2)(Gram(grad X_{j-1}) + Gram(grad X_j)) is
        g_j = 2(x_{j-1} - x_j) - (dt/2)(U_{j-1} x_{j-1} + U_j x_j).
        """
        fs, xs, tcs = _intervals(self.l, nodes, self.dt)
        actions = np.sum((vec_h(fs) @ self.c) * xs, axis=-1)  # <f_k; X_k>
        total = float(np.sum(self.dt * actions))
        d = self.d
        us = (xs @ self.l.complement_tensor.reshape(d * d, d).T).reshape(len(xs), d, d)
        ux = (us @ xs[..., None])[..., 0]
        g = 2.0 * (xs[:-1] - xs[1:]) - 0.5 * self.dt * (ux[:-1] + ux[1:])
        return total, g.ravel(), xs, us, tcs

    def hessian(self, us: np.ndarray, tcs: np.ndarray):
        """Diagonal (K-1, d, d) and upper off-diagonal (K-2, d, d) Hessian blocks.

        us and tcs are the couplings U_k and restricted systems A_k that
        value_grad returned at the point.  In restricted coordinates the
        interval term is (1/dt) D^T A(mu)^{-1} D with D the node difference
        and A linear in the midpoint mu; its Hessian in (D, mu) is
        (2/dt) J^T A^{-1} J with J = [I, -M] and M_k = dt C^T L_{X_k} C,
        where L_X : mu |-> T(mu) X = div((grad X mu + mu grad X)/2).  So
        M_k[a, b] = dt <h_a; T(h_b) X_k> = dt U_k[b, a], i.e. M_k = dt U_k^T.
        With P_k = I - M_k/2 and Q_k = I + M_k/2 node j gets the diagonal
        block (2/dt)(P_{j-1}^T A_{j-1}^{-1} P_{j-1} + Q_j^T A_j^{-1} Q_j) and
        the block (j, j+1) is -(2/dt) Q_j^T A_j^{-1} P_j.  Each interval
        adds a PSD term, so H is PSD.
        """
        d, m = self.d, self.dt * np.swapaxes(us, -1, -2)
        p, q = np.eye(d) - 0.5 * m, np.eye(d) + 0.5 * m
        ainv = np.linalg.solve(tcs, np.concatenate([p, q], axis=-1))
        ainv_p, ainv_q = ainv[..., :d], ainv[..., d:]
        pt, qt = np.swapaxes(p, -1, -2), np.swapaxes(q, -1, -2)
        diag = (2.0 / self.dt) * (pt[:-1] @ ainv_p[:-1] + qt[1:] @ ainv_q[1:])
        off = -(2.0 / self.dt) * (qt[1:-1] @ ainv_p[1:-1])
        return diag, off


def _block_tridiag_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with H x = rhs for a symmetric positive-definite block-tridiagonal H.

    diag holds the (m, d, d) diagonal blocks, off the (m - 1, d, d) blocks
    H[j, j+1] (H[j+1, j] is their transpose), rhs is (m, d).  Block Thomas
    elimination on the Schur complements S_0 = D_0,
    S_{j+1} = D_{j+1} - B_j^T S_j^{-1} B_j, in O(m d^3).  H is positive
    definite iff every S_j is, so one batched Cholesky of the stacked S_j
    after the sweep is the gate: it raises np.linalg.LinAlgError when H is
    not positive definite (so does the sweep on an exactly singular S_j).
    """
    gains, parts, schurs = [], [], [diag[0]]  # S_j^{-1} B_j, S_j^{-1} r_j, S_j
    r = rhs[0]
    for j in range(rhs.shape[0] - 1):
        z = np.linalg.solve(schurs[-1], np.column_stack([off[j], r]))
        gains.append(z[:, :-1])
        parts.append(z[:, -1])
        schurs.append(diag[j + 1] - off[j].T @ gains[-1])
        r = rhs[j + 1] - off[j].T @ parts[-1]
    np.linalg.cholesky(np.stack(schurs))
    x = [np.linalg.solve(schurs[-1], r)]
    for gain, part in zip(reversed(gains), reversed(parts)):
        x.append(part - gain @ x[-1])
    return np.array(x[::-1])


def _constant_result(l: LindbladSet, r0, cfg: SolverConfig,
                     warnings_list: list) -> GeodesicResult:
    """Coincident endpoints: the constant path, distance exactly zero."""
    path = DiscretePath(K=cfg.K, grid=np.linspace(0.0, 1.0, cfg.K + 1),
                        densities=np.repeat(r0.mat[None], cfg.K + 1, axis=0),
                        momenta=np.zeros((cfg.K, l.count, l.n, l.n), dtype=complex),
                        potentials=np.zeros((cfg.K, l.n, l.n), dtype=complex))
    dual_path, dual_value = dual_certificate(l, path)
    return GeodesicResult(
        path=path, distance=0.0, primal_cost=0.0,
        dual_path=dual_path, dual_value=dual_value, gap=0.0 - dual_value,
        hamiltonian=[0.0] * cfg.K, iterations=0, converged=True,
        grad_norm=0.0, trace_drift=0.0, warnings=warnings_list,
        iterate_nodes=None,
    )


#: a cost change below this share of |E| is rounding noise, not a decrease
FLAT_RTOL = 1e-12
#: approximate-Wolfe constants (delta, sigma) of Hager & Zhang, SIAM J. Optim. 2005
HZ_DELTA, HZ_SIGMA = 0.1, 0.9


def _accept_step(cost, slope, step, c_cost, c_slope) -> bool:
    """Armijo decrease, or on a cost flat to rounding the approximate-Wolfe test.

    Near the optimum the cost can stop changing in its last digits while
    the gradient is still above tolerance; Armijo then passes only for
    steps so short that they change nothing.  A step whose cost change is
    within FLAT_RTOL |E| is accepted instead when its directional derivative
    c_slope = grad E(cand) . d satisfies
    sigma * slope <= c_slope <= (2 delta - 1) * slope.
    """
    if c_cost <= cost + 1e-4 * step * slope:
        return True
    return (abs(c_cost - cost) <= FLAT_RTOL * abs(cost)
            and HZ_SIGMA * slope <= c_slope <= (2 * HZ_DELTA - 1) * slope)


def _trace_drift(nodes: np.ndarray) -> float:
    return float(np.max(np.abs(np.trace(nodes, axis1=-2, axis2=-1).real - 1.0)))


def optimize_geodesic(l: LindbladSet, rho0, rho1, config: SolverConfig | None = None,
                      record_iterates: bool = False) -> GeodesicResult:
    """Minimize the discrete action over interior nodes; return path + certificate.

    Damped Newton descent: each iteration solves H d = -g with the block
    tridiagonal reduced Hessian (see _Reduced.hessian), falling back to
    d = -g if the block solve finds H not positive definite or d is not a
    finite descent direction (d.g not in (-inf, 0), as for a NaN d), then
    backtracks from the full step under _accept_step.  Steps that would
    push any node or interval midpoint below the eigenvalue floor are
    shortened, and a persistent failure to move is reported as a boundary
    hit with the best iterate returned.  The Hamiltonian values
    F(mid_k, m_k) of the returned path come from one kinetic_values call.
    """
    cfg = config or SolverConfig()
    r0, r1 = _endpoint_guard(l, rho0, rho1)
    warnings_list = []
    if l.kernel_dim > 1:
        warnings_list.append("kernel-dim")

    if float(np.linalg.norm(r1.mat - r0.mat)) <= 1e-14:
        return _constant_result(l, r0, cfg, warnings_list)

    reduced = _Reduced(l, r0, r1, cfg.K, cfg.eps_pd)
    y = np.zeros((cfg.K - 1) * reduced.d)
    nodes = reduced.nodes(y)
    cost, grad, xs, us, tcs = reduced.value_grad(nodes)
    gnorm = float(np.linalg.norm(grad))
    trace_drift = _trace_drift(nodes)
    iterates = [nodes] if record_iterates else None

    iterations = 0
    converged = gnorm <= cfg.grad_tol * (1.0 + abs(cost))
    while not converged and iterations < cfg.max_iter and y.size:
        try:
            d = -_block_tridiag_solve(*reduced.hessian(us, tcs),
                                      grad.reshape(-1, reduced.d)).ravel()
        except np.linalg.LinAlgError:
            d = -grad
        slope = float(d @ grad)
        if not -np.inf < slope < 0:  # also catches a NaN or infinite direction
            d, slope = -grad, -gnorm * gnorm
        step, accepted = 1.0, False
        for _ in range(60):
            cand = y + step * d
            c_nodes = reduced.nodes(cand)
            if reduced.feasible(c_nodes):
                c_cost, c_grad, c_xs, c_us, c_tcs = reduced.value_grad(c_nodes)
                if _accept_step(cost, slope, step, c_cost, float(c_grad @ d)):
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            warnings_list.append("boundary-hit")
            break
        y, nodes, cost, grad, xs, us, tcs = cand, c_nodes, c_cost, c_grad, c_xs, c_us, c_tcs
        gnorm = float(np.linalg.norm(grad))
        iterations += 1
        trace_drift = max(trace_drift, _trace_drift(nodes))
        if record_iterates:
            iterates.append(nodes)
        converged = gnorm <= cfg.grad_tol * (1.0 + abs(cost))

    path = _discrete_path(l, nodes, xs)
    dual_path, dual_value = dual_certificate(l, path)
    return GeodesicResult(
        path=path,
        distance=float(np.sqrt(max(cost, 0.0))),
        primal_cost=cost,
        dual_path=dual_path,
        dual_value=dual_value,
        gap=cost - dual_value,
        hamiltonian=kinetic_values(0.5 * (nodes[:-1] + nodes[1:]), path.momenta),
        iterations=iterations,
        converged=bool(converged or (cfg.K == 1)),
        grad_norm=gnorm,
        trace_drift=trace_drift,
        warnings=warnings_list,
        iterate_nodes=iterates,
    )


def _hj_tops(l: LindbladSet, lam: np.ndarray, dt: float) -> np.ndarray:
    """Largest eigenvalue of each interval's HJ residual for a (K+1, n, n) node stack.

    The residual on interval k is (lam_{k+1} - lam_k)/dt + (1/2) Gram(grad lb_k)
    with lb_k the midpoint of the two nodes.
    """
    mids = 0.5 * (lam[:-1] + lam[1:])
    res = (lam[1:] - lam[:-1]) / dt + 0.5 * gram(grad_blocks(l, mids))
    return np.linalg.eigvalsh(res)[:, -1]


def dual_certificate(l: LindbladSet, path: DiscretePath):
    """Hamilton-Jacobi-feasible node potentials and their certified value.

    Seeds node values from the interval potentials (midpoint averaging,
    linear extrapolation at the ends), then shifts each right node by a
    multiple of the identity so the interval's largest HJ-residual
    eigenvalue lands exactly at zero.  Identity shifts leave every gradient
    untouched, so shifting node k+1 moves the residual of interval k+1 by
    the same multiple of the identity: the shifts are the running sum of
    the unshifted top eigenvalues, all computed in one batched call.

    Returns (lam, dual_value) with lam the (K+1, n, n) node stack.  Scale
    convention: the raw endpoint pairing <lam_K; rho_K> - <lam_0; rho_0>
    bounds the action measured in F units; the returned dual_value is
    twice that, placing it on the same squared-distance scale as
    primal_cost.
    """
    big_k = path.K
    dt = 1.0 / big_k
    xs = path.potentials
    if big_k == 1:
        lam = np.stack([xs[0], xs[0]])
    else:
        lam = np.concatenate([0.5 * (3.0 * xs[:1] - xs[1:2]),
                              0.5 * (xs[:-1] + xs[1:]),
                              0.5 * (3.0 * xs[-1:] - xs[-2:-1])])
    shifts = np.cumsum(_hj_tops(l, lam, dt))
    lam[1:] -= (dt * shifts)[:, None, None] * np.eye(l.n)
    bracket = float(np.trace(lam[-1] @ path.densities[-1]).real) \
        - float(np.trace(lam[0] @ path.densities[0]).real)
    return lam, 2.0 * bracket


def hj_residuals(l: LindbladSet, lam: np.ndarray) -> list:
    """Largest eigenvalue of the HJ residual on each interval (feasible: <= 0).

    lam is a (K+1, n, n) node stack, such as the one dual_certificate returns.
    """
    return [float(v) for v in _hj_tops(l, lam, 1.0 / (lam.shape[0] - 1))]


def hamiltonian_profile(result: GeodesicResult) -> HamiltonianProfile:
    """Constancy diagnostics of the per-interval kinetic values.

    For every sub-window [t_i, t_j] the action restricted to the window
    and reparametrized to unit time is (t_j - t_i) * sum(dt * 2 F_k over
    the window); on an exact geodesic it equals ((t_j - t_i) * distance)^2.
    speed_ok says every window's relative deviation is within
    max(10 rel_std, 1e-9).
    """
    vals = list(result.hamiltonian)
    big_k = result.path.K
    dt = 1.0 / big_k
    mean = float(np.mean(vals))
    rel_std = float(np.std(vals) / mean) if mean > 1e-15 else 0.0
    total = result.primal_cost
    cum = np.concatenate([[0.0], np.cumsum([2.0 * dt * v for v in vals])])
    speed_ok = True
    if total > 1e-15:
        i, j = np.triu_indices(big_k + 1, 1)
        width = (j - i) * dt
        sub_sq = width * (cum[j] - cum[i])
        target = width ** 2 * total
        err = np.abs(sub_sq - target) / np.maximum(np.abs(target), 1e-15)
        speed_ok = not np.any(err > max(10.0 * rel_std, 1e-9))
    return HamiltonianProfile(values=vals, mean=mean, rel_std=rel_std,
                              speed_ok=speed_ok)
