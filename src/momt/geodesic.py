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

The descent works on coordinates: interior-node moves y in ker(grad)^perp
and potentials x_k = C^T vec_h(X_k), C = complement_vecs.  Every point, the
line included, is assembled from one vec_h of its nodes: the midpoint
coordinates contract with the operator set's cached weight_tensor
(elliptic._systems) to the K systems A_k, the rate coordinates times C are
their right-hand sides, and one batched inverse (elliptic.solve_restricted)
gives the potentials and the A_k^{-1} that the Newton Hessian reuses.  No
trial forms grad(X_k) or a Gram matrix; X_k and m_k are rebuilt once, for
the returned path.  Iteration 0 is the line, whose nodes _Reduced stores.

The reduced cost E(y) is convex: in restricted coordinates each interval
term is a matrix-fractional function (1/dt) D^T A(mu)^{-1} D of the node
difference D and the midpoint mu, with A(mu) = C^T T(mu) C linear in mu.
Each term couples two adjacent nodes, so the Hessian H is block
tridiagonal with d x d blocks (d = dim ker(grad)^perp), and positive
definite where every A_k is.  Newton directions d = -H^{-1} g come from
_Reduced.hessian and _block_tridiag_solve, damped by Armijo backtracking.
At small sizes numpy's per-call overhead sets that solve's cost, so a
system of at most _DENSE_MAX = 128 unknowns (K-1) d is one dense LAPACK
solve (56 for a qutrit at K = 8), and a larger one an O(K d^3) block
Thomas sweep.  A step runs three checks.  The floor test
(_Reduced.feasible) asks if a trial's nodes and midpoints clear eps_pd, so
A_k >= lambda_min(mid_k) A(I) > 0, as _endpoint_guard (the one input gate)
ensures on the line; the residual gate (solve_restricted) if the inverse
solved every system; the slope test if d.g is in (-inf, 0), else d = -g.

One builder, _result, gives the path of every exit, the constant path
between coincident endpoints too, its dual certificate: the exact discrete
dual of the reduced cost (dual_certificate) at the path's own interval
potentials X_k.  It bounds the squared distance from below for any X, and
at the solver's X the gap is a sum of nonnegative per-node slacks that
vanish at a stationary point.  The reported gap is therefore a true
certificate of how far the descent stopped from optimal.
The grad(X_k) that builds the returned momenta also gives the Gram matrices
G_k = Gram(grad X_k) that the certificate and the Hamiltonian values read.
The path's times (DiscretePath.grid) and the relative gap
(GeodesicResult.rel_gap) are computed when read, not stored.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .elliptic import _kernel_excess, _systems, solve_restricted
from .hermitian import (EPS_PD, DensityMatrix, _above_floor, _flat_basis, gram,
                        hermitian_part, unvec_h, vec_h)
from .lindblad import LindbladSet, _square, div_blocks, grad_blocks


class InfeasibleEndpoints(ValueError):
    """rho1 - rho0 has a kernel component; no finite-cost connection exists."""


class InvalidConfig(ValueError):
    """A SolverConfig field is out of range; .field names it."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        self.message = message
        super().__init__(f"SolverConfig.{field_name}: {message}")


def _finite(value) -> bool:
    """value is finite as a float; an integer too large to become one is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# Admissible solver settings.  The line search's floor eps_pd is the only
# positivity gate of a trial, so it is at least EPS_PD, the floor that the
# strict endpoints clear and below which solve_potential refuses a weight.
# A path holds K (N, n, n) momenta, so K is capped far above any grid a
# Richardson study uses (K = 128), before a problem file's K asks for memory.
_MAX_K = 2 ** 16
_CONFIG_RANGES = {
    "K": (lambda v: 1 <= v <= _MAX_K, f"need 1 to {_MAX_K} intervals"),
    "max_iter": (lambda v: v >= 0, "must be >= 0"),
    "grad_tol": (lambda v: _finite(v) and v > 0, "must be finite and > 0"),
    "eps_pd": (lambda v: _finite(v) and v >= EPS_PD, f"must be finite and >= {EPS_PD:g}"),
}
# the number kind each field's annotation admits; a bool is refused as either
_CONFIG_KINDS = {"int": numbers.Integral, "float": numbers.Real}
# a cost or mean kinetic value at most this counts as zero; no ratio is taken to it
_ZERO_COST = 1e-15


@dataclass(frozen=True)
class SolverConfig:
    """Frozen solver settings, each type- and range-checked at construction (InvalidConfig).

    The fields and their annotations are the config schema: a problem file's
    "config" object takes these keys and "seed", and reports echo them.
    """

    K: int = 32
    max_iter: int = 500
    grad_tol: float = 1e-7  # scaled by (1 + |cost|) inside the solver
    eps_pd: float = 1e-8    # eigenvalue floor maintained by the line search

    def __post_init__(self):
        for f in fields(self):
            value, (admissible, message) = getattr(self, f.name), _CONFIG_RANGES[f.name]
            if isinstance(value, bool) or not isinstance(value, _CONFIG_KINDS[f.type]):
                raise InvalidConfig(f.name, f"expected {f.type}, got {value!r}")
            if not admissible(value):
                raise InvalidConfig(f.name, message)


@dataclass
class DiscretePath:
    """K intervals of a path; its times k/K are grid, made afresh on each read."""

    K: int
    densities: np.ndarray    # (K+1, n, n) nodes rho_0..rho_K
    momenta: np.ndarray      # (K, N, n, n) interval momenta m_k
    potentials: np.ndarray   # (K, n, n) interval potentials X_k

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.K + 1)


@dataclass
class GeodesicResult:
    path: DiscretePath
    distance: float
    primal_cost: float
    dual_value: float
    gap: float
    hamiltonian: list
    iterations: int
    converged: bool
    grad_norm: float
    trace_drift: float
    warnings: list = field(default_factory=list)

    @property
    def rel_gap(self) -> float:
        """gap / primal_cost, or 0 for a cost at most _ZERO_COST."""
        return self.gap / self.primal_cost if self.primal_cost > _ZERO_COST else 0.0


@dataclass
class HamiltonianProfile:
    mean: float
    rel_std: float
    speed_ok: bool


def feasibility_gap(l: LindbladSet, rho0, rho1) -> float:
    """Norm of the kernel component of rho1 - rho0 (zero iff connectable); inputs gated."""
    diff = _square(l, rho1) - _square(l, rho0)
    kpart = l.kernel_vecs.T @ vec_h(diff)
    return math.sqrt(kpart @ kpart)


def continuity_residual(l: LindbladSet, path: DiscretePath) -> float:
    """Max over intervals of |rho_{k+1} - rho_k - (dt/2) div(m_k - m_k*)|."""
    ms, dt = path.momenta, 1.0 / path.K
    div = div_blocks(l, ms - np.conj(np.swapaxes(ms, -1, -2)))
    div = hermitian_part(div)  # as divergence() returns it
    diff = path.densities[1:] - path.densities[:-1] - 0.5 * dt * div
    return float(np.max(np.linalg.norm(diff, axis=(-2, -1))))


def _midpoints(nodes: np.ndarray) -> np.ndarray:
    """The interval midpoints (rho_k + rho_{k+1})/2 of the nodes rho_0..rho_K."""
    return 0.5 * (nodes[:-1] + nodes[1:])


def _linear_nodes(r0: np.ndarray, r1: np.ndarray, big_k: int) -> np.ndarray:
    """Nodes (1 - t_j) rho_0 + t_j rho_1, j = 0..K, endpoints exact: (K+1, n, n).

    The interior's + 0.0 makes a -0.0 entry +0.0, so the line is nodes(0) byte for byte.
    """
    t = (np.arange(1, big_k) * (1.0 / big_k))[:, None, None]
    return np.concatenate([r0[None], (1 - t) * r0 + t * r1 + 0.0, r1[None]])


def _endpoint_guard(l: LindbladSet, rho0, rho1):
    """The strict endpoints and |rho1 - rho0|; InfeasibleEndpoints if not connectable.

    The solve's one input gate: strict endpoints put the line's midpoints above EPS_PD
    (lambda_min is concave), and the line's K rates are not judged again.
    """
    r0 = DensityMatrix(rho0, strict=True)
    r1 = DensityMatrix(rho1, strict=True)
    gap = feasibility_gap(l, r0, r1)
    diff = (r1.mat - r0.mat).ravel()
    span = math.sqrt(diff.real @ diff.real + diff.imag @ diff.imag)  # np.linalg.norm's sum
    if gap > 1e-10 or _kernel_excess(gap, span):
        raise InfeasibleEndpoints(
            f"rho1 - rho0 has a kernel component of norm {gap:.3e}; the "
            "endpoints are not connectable by any finite-action path "
            "(connectability requires rho1 - rho0 orthogonal to ker(grad))"
        )
    return r0, r1, span


def initial_path(l: LindbladSet, rho0, rho1, big_k: int) -> DiscretePath:
    """Linear density interpolation with per-interval reconstructed momenta.

    The solver's iteration 0: optimize_geodesic's path at max_iter = 0.
    Exactly feasible: with X_k solving the weighted system at the interval
    midpoint and m_k = grad(X_k) mid_k, the identity
    m - m_* = grad(X) mid + mid grad(X) turns the elliptic equation into
    the discrete continuity equation.
    """
    return optimize_geodesic(l, rho0, rho1, SolverConfig(K=big_k, max_iter=0)).path


# ---------------------------------------------------------------------------
# reduced objective over interior nodes
# ---------------------------------------------------------------------------

class _Point(NamedTuple):
    """What _Reduced.value_grad returns at one node stack, and the Newton loop carries."""

    cost: float
    grad: np.ndarray
    xs: np.ndarray
    us: np.ndarray
    ainv: np.ndarray


class _Reduced:
    """E(y) = sum_k <rho_{k+1} - rho_k; X_k> over interior-node moves y.

    Interior node j sits at line_j + unvec(C y_j) with C an orthonormal
    basis of ker(grad)^perp, so unit trace and endpoint reachability are
    automatic for every candidate.  A trial builds its stack nodes(y) once;
    feasible judges it against the floor (>= EPS_PD, like the line's
    midpoints) and value_grad assembles its K systems from it, as from the
    line, whose nodes _endpoint_guard has judged.  line is nodes(0); node_map
    is built on the first trial, so a solve stopping at the line builds none.
    """

    def __init__(self, l, r0, r1, big_k, floor):
        self.l = l
        self.dt = 1.0 / big_k
        self.floor = floor
        self.c = l.complement_vecs
        self.d = self.c.shape[1]
        self.line = _linear_nodes(r0.mat, r1.mat, big_k)
        self.vt = l.complement_tensor.reshape(-1, self.d).T

    @cached_property
    def node_map(self) -> np.ndarray:
        """C^T F (F = _flat_basis(n)): y_j @ node_map is the float view of unvec_h(C y_j)."""
        return self.c.T @ _flat_basis(self.l.n)

    def nodes(self, y: np.ndarray) -> np.ndarray:
        out = self.line.copy()
        out[1:-1] += (y.reshape(-1, self.d) @ self.node_map).view(complex).reshape(
            -1, self.l.n, self.l.n)
        return out

    def feasible(self, nodes: np.ndarray) -> bool:
        """Every interior node and interval midpoint has eigenvalues > floor (_above_floor)."""
        return _above_floor(np.concatenate([nodes[1:-1], _midpoints(nodes)]), self.floor)

    def value_grad(self, nodes: np.ndarray) -> _Point:
        """(E, grad E, potential coordinates x_k, couplings U_k, inverses A_k^{-1})
        of the path through nodes, whose systems come from one vec_h of the nodes.

        With h_a = unvec_h(C e_a) and V[a, e, f] = <h_e; T(h_a) h_f>
        (l.complement_tensor), U_k = V x_k over f has U_k[a, e] =
        <h_e; T(h_a) X_k>.  As <Z; T(mu) X> = Re tr(mu sum_j (grad_j Z)^* grad_j X),
        (U_k x_k)_a = <h_a; Gram(grad X_k)>, so C^T vec_h of the node gradient
        2(X_{j-1} - X_j) - (dt/2)(Gram(grad X_{j-1}) + Gram(grad X_j)) is
        g_j = 2(x_{j-1} - x_j) - (dt/2)(U_{j-1} x_{j-1} + U_j x_j).
        """
        v = vec_h(nodes)
        fcs = ((v[1:] - v[:-1]) / self.dt) @ self.c
        xs, ainv = solve_restricted(_systems(self.l, 0.5 * (v[:-1] + v[1:])), fcs)
        total = float((self.dt * (fcs * xs).sum(axis=-1)).sum())  # dt <f_k; X_k>
        us = (xs @ self.vt).reshape(len(xs), self.d, self.d)
        ux = (us @ xs[..., None])[..., 0]
        g = 2.0 * (xs[:-1] - xs[1:]) - 0.5 * self.dt * (ux[:-1] + ux[1:])
        return _Point(total, g.ravel(), xs, us, ainv)

    def hessian(self, us: np.ndarray, ainv: np.ndarray):
        """Diagonal (K-1, d, d) and upper off-diagonal (K-2, d, d) Hessian blocks.

        us and ainv are the couplings U_k and inverses A_k^{-1} of the
        restricted systems that value_grad returned at the point.  In
        restricted coordinates the interval term is (1/dt) D^T A(mu)^{-1} D
        with D the node difference and A linear in the midpoint mu; its
        Hessian in (D, mu) is (2/dt) J^T A^{-1} J with J = [I, -M] and
        M_k = dt C^T L_{X_k} C, where L_X : mu |-> T(mu) X =
        div((grad X mu + mu grad X)/2).  So M_k[a, b] = dt <h_a; T(h_b) X_k>
        = dt U_k[b, a], i.e. M_k = dt U_k^T.  With P_k = I - M_k/2 and
        Q_k = I + M_k/2 node j gets the diagonal block
        (2/dt)(P_{j-1}^T A_{j-1}^{-1} P_{j-1} + Q_j^T A_j^{-1} Q_j) and the
        block (j, j+1) is -(2/dt) Q_j^T A_j^{-1} P_j.  Each interval adds a
        PSD term, so H is PSD.  As A^{-1} is symmetric, all three come
        from two products, AM = A^{-1} M and Z = M^T AM / 4: with S and R
        the symmetric and skew parts of AM, P^T A^{-1} P = A^{-1} - S + Z,
        Q^T A^{-1} Q = A^{-1} + S + Z and Q^T A^{-1} P = A^{-1} - R - Z.
        """
        m = self.dt * np.swapaxes(us, -1, -2)
        am = ainv @ m
        amt = np.swapaxes(am, -1, -2)
        sym, skew = 0.5 * (am + amt), 0.5 * (am - amt)
        mam = 0.25 * (np.swapaxes(m, -1, -2) @ am)
        base = ainv + mam
        diag = (2.0 / self.dt) * ((base[:-1] - sym[:-1]) + (base[1:] + sym[1:]))
        off = -(2.0 / self.dt) * (ainv[1:-1] - skew[1:-1] - mam[1:-1])
        return diag, off


# Newton systems of at most this many unknowns, (K-1) d, are solved dense.
_DENSE_MAX = 128


def _block_tridiag_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with H x = rhs for a symmetric block-tridiagonal H.

    diag holds the (m, d, d) diagonal blocks, off the (m - 1, d, d) blocks
    H[j, j+1] (H[j+1, j] is their transpose), rhs is (m, d).  Up to
    _DENSE_MAX unknowns m d, one LAPACK solve of the assembled dense H:
    at that size a solve costs its numpy call overhead, not its O((m d)^3)
    flops.  Above it, block Thomas elimination on the Schur complements
    S_0 = D_0, S_{j+1} = D_{j+1} - B_j^T S_j^{-1} B_j, in O(m d^3) and m
    calls.  Measured (one thread, 2-core Xeon, numpy 2.4, OpenBLAS): at
    m = 7, d = 8 dense takes 35-39 us and Thomas 89-150 us; the two are
    even at 120-152 unknowns, and Thomas leads from 165 (d = 15) and 184
    (d = 8) unknowns on, by 3.3x at m = 7, d = 35 and 14x at m = 31, d = 35.
    Neither branch checks anything: the Newton H is positive definite where
    every A_k is, and the caller's slope test judges the x it returns, a NaN
    one too.  Only an exactly singular H (dense) or S_j (Thomas) stops the
    solve, with np.linalg.LinAlgError.
    """
    m, d = rhs.shape
    if m * d <= _DENSE_MAX:
        h = np.zeros((m, d, m, d))
        j = np.arange(m)
        h[j, :, j] = diag
        h[j[:-1], :, j[1:]] = off
        h[j[1:], :, j[:-1]] = np.swapaxes(off, -1, -2)
        return np.linalg.solve(h.reshape(m * d, m * d), rhs.ravel()).reshape(m, d)
    # row block j holds [B_j | r_j], then S_j^{-1} [B_j | r_j] in place
    cols = np.empty((m - 1, d, d + 1))
    cols[:, :, :d] = off
    schur, r = diag[0], rhs[0]
    for j in range(m - 1):
        cols[j, :, d] = r
        z = cols[j] = np.linalg.solve(schur, cols[j])
        schur = diag[j + 1] - off[j].T @ z[:, :d]
        r = rhs[j + 1] - off[j].T @ z[:, d]
    x = np.empty((m, d))
    x[-1] = np.linalg.solve(schur, r)
    for j in range(m - 2, -1, -1):
        x[j] = cols[j, :, d] - cols[j, :, :d] @ x[j + 1]
    return x


def _trace_drift(nodes: np.ndarray) -> float:
    return float(abs(nodes.trace(axis1=-2, axis2=-1).real - 1.0).max())


def optimize_geodesic(l: LindbladSet, rho0, rho1,
                      config: SolverConfig | None = None) -> GeodesicResult:
    """Minimize the discrete action over interior nodes; return path + certificate.

    Damped Newton descent: each iteration solves H d = -g with the block
    tridiagonal reduced Hessian (see _Reduced.hessian) and backtracks from
    the full step until the Armijo test passes.  The slope test is the
    direction's one gate: -g replaces a d with d.g not in (-inf, 0), as an H
    indefinite by rounding or a NaN d gives (so does an exactly singular
    Newton matrix).  The floor test shortens steps that would push any node
    or interval midpoint below eps_pd, a persistent failure to move is reported
    as a boundary hit with the best iterate returned, and each trial's
    residual gate raises on a failed potential solve.  The Hamiltonian values
    F(mid_k, m_k) of the returned path are (1/2) Re tr(mid_k G_k), read from
    the Gram matrices its dual certificate uses (see _result).  Iterate k of
    a solve is its path at max_iter = k, certified like the last.
    """
    cfg = config or SolverConfig()
    r0, r1, span = _endpoint_guard(l, rho0, rho1)
    warnings_list = ["kernel-dim"] if l.kernel_dim > 1 else []

    if span <= 1e-14:  # coincident endpoints: the constant path, distance exactly zero
        return _result(l, np.repeat(r0.mat[None], cfg.K + 1, axis=0),
                       np.zeros((cfg.K, l.complement_vecs.shape[1])), 0.0, iterations=0,
                       converged=True, grad_norm=0.0, trace_drift=0.0, warnings=warnings_list)

    reduced = _Reduced(l, r0, r1, cfg.K, cfg.eps_pd)
    y = np.zeros((cfg.K - 1) * reduced.d)
    nodes, point = reduced.line, reduced.value_grad(reduced.line)
    trace_drift = _trace_drift(nodes)
    for iterations in range(cfg.max_iter + 1):
        gnorm = math.sqrt(point.grad @ point.grad)
        converged = bool(gnorm <= cfg.grad_tol * (1.0 + abs(point.cost)))
        if converged or iterations == cfg.max_iter:
            break
        try:
            d = -_block_tridiag_solve(*reduced.hessian(point.us, point.ainv),
                                      point.grad.reshape(-1, reduced.d)).ravel()
        except np.linalg.LinAlgError:
            d = -point.grad
        slope = float(d @ point.grad)
        if not -np.inf < slope < 0:  # also catches a NaN or infinite direction
            d, slope = -point.grad, -gnorm * gnorm
        step = 1.0
        for _ in range(60):
            trial_y = y + step * d
            trial_nodes = reduced.nodes(trial_y)
            if reduced.feasible(trial_nodes):
                trial = reduced.value_grad(trial_nodes)
                if trial.cost <= point.cost + 1e-4 * step * slope:  # Armijo
                    break
            step *= 0.5
        else:
            warnings_list.append("boundary-hit")
            break
        y, point, nodes = trial_y, trial, trial_nodes
        trace_drift = max(trace_drift, _trace_drift(nodes))

    return _result(l, nodes, point.xs, point.cost, iterations=iterations,
                   converged=converged, grad_norm=gnorm, trace_drift=trace_drift,
                   warnings=warnings_list)


def _result(l: LindbladSet, nodes: np.ndarray, xs: np.ndarray, cost: float,
            **counters) -> GeodesicResult:
    """The certified GeodesicResult of the path through nodes with potential coordinates xs.

    Each exit of optimize_geodesic builds its result here, the constant path
    (xs = 0) too.  X_k = unvec_h(C x_k); one grad_blocks call gives m_k =
    grad(X_k) mid_k and G_k = Gram(grad X_k); the dual is dual_certificate's.
    As Gram(m_k) = mid_k G_k mid_k, F(mid_k, m_k) = (1/2) Re tr(mid_k G_k),
    with no inverse, for every mid_k > 0: strict endpoints keep the line's
    midpoints above EPS_PD, and accepted trials keep theirs above eps_pd.
    counters are the other fields, as the exit has them.
    """
    big_k, n = len(xs), l.n
    pots = unvec_h(xs @ l.complement_vecs.T, n)
    vs = grad_blocks(l, pots)
    mids = _midpoints(nodes)
    # one (K, N n, n) @ (K, n, n) product: row block j of entry k is grad_j(X_k) mid_k;
    # + 0.0 makes a -0.0 entry +0.0, as a GEMM of zeros gives on the constant path
    ms = vs.reshape(big_k, -1, n) @ mids + 0.0
    path = DiscretePath(K=big_k, densities=nodes, potentials=pots,
                        momenta=ms.reshape(big_k, l.count, n, n))
    grams = gram(vs)
    _, dual_value = _dual_certificate(l, path, grams)
    return GeodesicResult(
        path=path, distance=float(np.sqrt(max(cost, 0.0))), primal_cost=cost,
        dual_value=dual_value, gap=cost - dual_value,
        hamiltonian=(0.5 * (np.conj(grams) * mids).sum(axis=(-2, -1)).real).tolist(),
        **counters)


def dual_certificate(l: LindbladSet, path: DiscretePath):
    """The exact discrete dual d(X) at X = path.potentials, and its per-node slacks.

    Each interval term of the reduced cost is matrix-fractional in the node
    difference D_k and the midpoint mu_k, so its conjugate (Boyd &
    Vandenberghe, Convex Optimization, 3.1.7) gives, for every Hermitian X_k,
    (1/dt) <D_k; T(mu_k)^{-1} D_k> >= 2 <D_k; X_k> - dt <mu_k; G_k> with
    G_k = Gram(grad X_k), and equality at the solver's X_k = T(mu_k)^{-1} D_k / dt.
    Summed over k this is linear in each node: rho_K pairs with
    2 X_{K-1} - (dt/2) G_{K-1}, rho_0 with -2 X_0 - (dt/2) G_0 and interior
    node j with C_j = 2 (X_{j-1} - X_j) - (dt/2) (G_{j-1} + G_j), the node
    gradient of _Reduced.value_grad.  Admissible nodes are unit-trace
    densities with rho_j - rho_0 orthogonal to ker(grad), so the
    non-identity kernel part kappa_j of C_j (over kernel_vecs[:, 1:]) pairs
    with rho_j as with rho_0, and <C_j; rho_j> >= lambda_min(C_j - kappa_j)
    + <kappa_j; rho_0>.  The node terms add up to d(X) <= primal_cost.

    Returns (slacks, d(X)), slacks_j = <C_j - kappa_j; rho_j> - lambda_min(C_j - kappa_j).
    At the solver's potentials the slacks sum to the gap; at a stationary
    point every C_j - kappa_j is a multiple of I and the gap closes.
    """
    return _dual_certificate(l, path, gram(grad_blocks(l, path.potentials)))


def _dual_certificate(l: LindbladSet, path: DiscretePath, grams: np.ndarray):
    """dual_certificate's (slacks, d(X)) from the path's G_k = Gram(grad X_k)."""
    dt, n, rhos = 1.0 / path.K, l.n, path.densities
    pad = np.zeros((1, n, n))
    xs = np.concatenate([pad, path.potentials, pad])
    gs = np.concatenate([pad, grams, pad])
    ps = 2.0 * (xs[:-1] - xs[1:]) - 0.5 * dt * (gs[:-1] + gs[1:])  # pairs with rho_0..rho_K
    shift = 0.0  # sum_j <kappa_j; rho_0>; every kappa_j is 0 when I spans the kernel
    if l.kernel_dim > 1:
        kb = unvec_h(l.kernel_vecs[:, 1:].T, n).reshape(-1, n * n)  # non-identity kernel basis
        kappas = (ps[1:-1].reshape(-1, n * n) @ np.conj(kb).T).real
        ps[1:-1] -= (kappas @ kb).reshape(-1, n, n)
        shift = kappas.sum(axis=0) @ (np.conj(kb) @ rhos[0].ravel()).real
    lows = np.linalg.eigvalsh(ps[1:-1])[:, 0]
    pairs = (np.conj(ps) * rhos).sum(axis=(-2, -1)).real
    slacks = pairs[1:-1] - lows
    return slacks, float(pairs[0] + pairs[-1] + lows.sum() + shift)


def hamiltonian_profile(result: GeodesicResult) -> HamiltonianProfile:
    """Constancy diagnostics of the per-interval kinetic values.

    For every sub-window [t_i, t_j] the action restricted to the window
    and reparametrized to unit time is (t_j - t_i) * sum(dt * 2 F_k over
    the window); on an exact geodesic it equals ((t_j - t_i) * distance)^2.
    speed_ok says every window's relative deviation is within
    max(10 rel_std, 1e-9).  A window's deviation is |a - E| / E with a the
    window's mean of 2 F_k and E the squared distance; a mean lies between
    its extreme terms, so the largest deviation is a one-interval window's,
    max_k |2 F_k - E| / E, and the check is O(K).
    """
    vals = np.asarray(result.hamiltonian)
    mean = float(np.mean(vals))
    rel_std = float(np.std(vals) / mean) if mean > _ZERO_COST else 0.0
    total = result.primal_cost
    speed_ok = True
    if total > _ZERO_COST:
        err = np.abs(2.0 * vals - total) / total
        speed_ok = not np.any(err > max(10.0 * rel_std, 1e-9))
    return HamiltonianProfile(mean=mean, rel_std=rel_std, speed_ok=speed_ok)
