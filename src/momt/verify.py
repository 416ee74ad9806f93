"""Seeded, deterministic property suites exposed through ``momt verify``.

Each suite replays the library's structural guarantees against the
operator set (and endpoints) of a user problem file: the calculus
identities, the convex-duality relations, and the conservation laws.
Failures name the violated property and carry the measured error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import (DualPoint, fenchel_gap, kinetic, legendre_feasible, path_cost,
                     trace_lower_bound)
from .elliptic import momentum_min_check
from .geodesic import (
    InfeasibleEndpoints,
    SolverConfig,
    continuity_residual,
    dual_certificate,
    initial_path,
    optimize_geodesic,
)
from .hermitian import (
    DensityMatrix,
    HermitianMatrix,
    OperatorStack,
    gram,
    hermitian_part,
    inner_product,
    unvec_h,
    vec_h,
    vec_s,
)
from .lindblad import LindbladSet, divergence, gradient, heat_flow, laplacian, project_kernel

SUITES = ("calculus", "duality", "conservation")


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def rand_herm(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(g)


def rand_skew_stack(rng, count: int, n: int) -> OperatorStack:
    blocks = np.array([1j * rand_herm(rng, n) for _ in range(count)])
    return OperatorStack(blocks, flavor="skew")


def rand_general_stack(rng, count: int, n: int) -> OperatorStack:
    blocks = (rng.standard_normal((count, n, n))
              + 1j * rng.standard_normal((count, n, n)))
    return OperatorStack(blocks, flavor="general")


def _rand_density(rng, n: int, min_eig: float = 0.05) -> DensityMatrix:
    """Random strictly positive density with spectrum bounded below by min_eig."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = min_eig + rng.dirichlet(np.ones(n)) * (1.0 - n * min_eig)
    return DensityMatrix(q @ np.diag(lam) @ q.conj().T, strict=True)


def _rand_complement(rng, l: LindbladSet) -> HermitianMatrix:
    """Random Hermitian matrix in ker(grad)^perp (a feasible right-hand side)."""
    c = l.complement_vecs
    if c.shape[1] == 0:
        return HermitianMatrix(np.zeros((l.n, l.n)))
    return HermitianMatrix(unvec_h(c @ rng.standard_normal(c.shape[1]), l.n))


def _check(name: str, err: float, tol: float, extra: str = "") -> Check:
    detail = f"max error {err:.3e} (tolerance {tol:.0e}){extra}"
    return Check(name=name, passed=bool(err <= tol), detail=detail)


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def suite_calculus(l: LindbladSet, rng, cases: int = 50) -> list[Check]:
    n, big_n = l.n, l.count
    checks = []

    err = 0.0
    for _ in range(cases):
        x = rand_herm(rng, n)
        y = rand_skew_stack(rng, big_n, n)
        lhs = inner_product(gradient(l, x), y)
        rhs = inner_product(HermitianMatrix(x), divergence(l, y))
        scale = max(1.0, abs(lhs))
        err = max(err, abs(lhs - rhs) / scale)
    checks.append(_check("gradient/divergence adjointness", err, 1e-12))

    err = 0.0
    for _ in range(max(20, cases // 2)):
        x, y = rand_herm(rng, n), rand_herm(rng, n)
        lhs = gradient(l, x @ y + y @ x).blocks
        gx, gy = gradient(l, x).blocks, gradient(l, y).blocks
        rhs = (np.einsum("kij,jl->kil", gx, y) + np.einsum("ij,kjl->kil", x, gy)
               + np.einsum("kij,jl->kil", gy, x) + np.einsum("ij,kjl->kil", y, gx))
        scale = max(1.0, float(np.linalg.norm(lhs)))
        err = max(err, float(np.linalg.norm(lhs - rhs)) / scale)
    checks.append(_check("gradient product rule", err, 1e-12))

    err = 0.0
    for _ in range(cases):
        x = rand_herm(rng, n)
        closed = laplacian(l, x).mat
        composed = -divergence(l, gradient(l, x)).mat
        scale = max(1.0, float(np.linalg.norm(closed)))
        err = max(err, float(np.linalg.norm(closed - composed)) / scale)
    checks.append(_check("laplacian closed form vs divergence of gradient", err, 1e-12))

    err = 0.0
    for _ in range(cases):
        y = rand_skew_stack(rng, big_n, n)
        err = max(err, abs(divergence(l, y).trace()))
    checks.append(_check("divergence output is traceless", err, 1e-12))

    err = 0.0
    for _ in range(cases):
        x = rand_herm(rng, n)
        via_matrix = l.grad_matrix @ vec_h(x)
        blockwise = np.concatenate([vec_s(b) for b in gradient(l, x).blocks])
        err = max(err, float(np.linalg.norm(via_matrix - blockwise)))
    checks.append(_check("gradient superoperator matches blockwise gradient", err, 1e-12))

    err = max((gradient(l, b.mat).norm() for b in l.kernel_basis), default=0.0)
    checks.append(_check("kernel basis annihilated by the gradient", err, 1e-10))

    gram = np.array([[inner_product(a, b) for b in l.kernel_basis]
                     for a in l.kernel_basis])
    err = float(np.linalg.norm(gram - np.eye(l.kernel_dim)))
    checks.append(_check("kernel basis orthonormal", err, 1e-12))

    err = 0.0
    for _ in range(cases):
        x = rand_herm(rng, n)
        p = project_kernel(l, x).mat
        pyth = abs(np.linalg.norm(x - p) ** 2 + np.linalg.norm(p) ** 2
                   - np.linalg.norm(x) ** 2)
        err = max(err, pyth / max(1.0, np.linalg.norm(x) ** 2))
    checks.append(_check("kernel projection Pythagoras identity", err, 1e-12))

    err = 0.0
    for _ in range(cases):
        p = rand_skew_stack(rng, big_n, n)
        err = max(err, project_kernel(l, divergence(l, p).mat).norm())
    checks.append(_check("divergence range orthogonal to the kernel", err, 1e-10))

    return checks


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def suite_duality(l: LindbladSet, rho0: DensityMatrix, rho1: DensityMatrix,
                  rng, config: SolverConfig | None = None) -> list[Check]:
    n, big_n = l.n, l.count
    checks = []

    err = 0.0
    for _ in range(20):
        rho = _rand_density(rng, n)
        f = _rand_complement(rng, l)
        mc = momentum_min_check(l, rho, f)
        scale = max(1.0, abs(mc.primal_min))
        err = max(err, abs(mc.primal_min - mc.dual_max) / scale)
    checks.append(_check("constrained momentum primal equals dual", err, 1e-9))

    err = 0.0
    for _ in range(100):
        ra, rb = _rand_density(rng, n), _rand_density(rng, n)
        ma = rand_general_stack(rng, big_n, n)
        mb = rand_general_stack(rng, big_n, n)
        fa = kinetic(ra, ma).value
        fb = kinetic(rb, mb).value
        mid = kinetic(0.5 * (ra.mat + rb.mat),
                      0.5 * (ma.blocks + mb.blocks)).value
        err = max(err, mid - 0.5 * (fa + fb))
    checks.append(_check("kinetic functional midpoint convexity", err, 1e-10))

    agree = 0
    total = 120
    for i in range(total):
        b = rand_general_stack(rng, big_n, n)
        gr = gram(b.blocks)
        shift = [-1e-3, 0.0, 1e-3][i % 3] * np.eye(n)
        a = HermitianMatrix(-0.5 * gr + shift)
        p = DualPoint(a=a, b=b)
        claimed = legendre_feasible(p)
        # independent route: attempted Cholesky of the negated residual
        resid = a.mat + 0.5 * gr
        try:
            np.linalg.cholesky(-(resid - 1e-10 * np.eye(n)) + 1e-13 * np.eye(n))
            indep = True
        except np.linalg.LinAlgError:
            indep = False
        agree += int(claimed == indep)
    checks.append(Check(
        name="dual-cone membership: eigenvalue test vs factorization",
        passed=agree == total,
        detail=f"{agree}/{total} classifications agree",
    ))

    err = 0.0
    for _ in range(100):
        rho = _rand_density(rng, n)
        m = rand_general_stack(rng, big_n, n)
        b = rand_general_stack(rng, big_n, n)
        gr = gram(b.blocks)
        a = HermitianMatrix(-0.5 * gr - 0.1 * np.eye(n))
        err = max(err, -fenchel_gap(rho, m, DualPoint(a=a, b=b)))
    checks.append(_check("Fenchel-Young inequality for the kinetic pair", err, 1e-10))

    err = 0.0
    for _ in range(20):
        rho = _rand_density(rng, n)
        x = rand_herm(rng, n)
        v = gradient(l, x)
        m = OperatorStack(np.einsum("kij,jl->kil", v.blocks, rho.mat),
                          flavor="general")
        gr = gram(v.blocks)
        p = DualPoint(a=HermitianMatrix(-0.5 * gr), b=v)
        f_val = kinetic(rho, m).value
        err = max(err, abs(fenchel_gap(rho, m, p)) / max(1.0, f_val))
    checks.append(_check("subdifferential pair attains Fenchel equality", err, 1e-9))

    err = 0.0
    for _ in range(100):
        rho = _rand_density(rng, n)
        m = rand_general_stack(rng, big_n, n)
        if not trace_lower_bound(rho, m):
            err = max(err, 1.0)
    checks.append(_check("kinetic value dominates momentum-norm lower bound", err, 0.0,
                         extra="; 100 samples"))

    cfg = config or SolverConfig()
    try:
        res = optimize_geodesic(l, rho0, rho1, cfg)
        rel = res.gap / res.primal_cost if res.primal_cost > 1e-15 else 0.0
        checks.append(_check("weak duality on the solved instance",
                             max(0.0, -res.gap), 1e-9,
                             extra=f"; certified rel_gap {rel:.3e}"))
        start = initial_path(l, rho0, rho1, cfg.K)
        _, dv = dual_certificate(l, start)
        primal0 = 2.0 * path_cost(start).value
        checks.append(_check("certificate never exceeds the action (initial path)",
                             max(0.0, dv - primal0), 1e-9))
    except InfeasibleEndpoints as exc:
        checks.append(Check(
            name="weak duality on the solved instance",
            passed=True,
            detail=f"skipped: {exc}",
        ))
    return checks


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

def _generator_matrix(l: LindbladSet) -> np.ndarray:
    """Matrix of rho -> laplacian(rho)/2 = -div(grad rho)/2: -(1/2) G^T G, G = grad_matrix."""
    return -0.5 * (l.grad_matrix.T @ l.grad_matrix)


def suite_conservation(l: LindbladSet, rho0: DensityMatrix, rho1: DensityMatrix,
                       rng, config: SolverConfig | None = None) -> list[Check]:
    checks = []
    cfg = config or SolverConfig()

    try:
        res = optimize_geodesic(l, rho0, rho1, cfg, record_iterates=True)
        checks.append(_check("unit trace along every solver iterate",
                             res.trace_drift, 1e-12,
                             extra=f"; {res.iterations} iterations"))
        checks.append(_check("discrete continuity on the returned path",
                             continuity_residual(l, res.path), 1e-9))
        vals = np.asarray(res.hamiltonian)
        rel_std = float(vals.std() / vals.mean()) if vals.mean() > 1e-15 else 0.0
        checks.append(_check("kinetic values constant along the geodesic",
                             rel_std, 1e-3))
    except InfeasibleEndpoints as exc:
        checks.append(Check(name="unit trace along every solver iterate",
                            passed=True, detail=f"skipped: {exc}"))

    flowed = heat_flow(l, rho0, 2.0, 800)
    tr_err = abs(float(np.trace(flowed.mat).real) - 1.0)
    checks.append(_check("heat flow preserves trace", tr_err, 1e-10))
    checks.append(_check("heat flow preserves positivity",
                         max(0.0, -flowed.min_eig()), 1e-8))

    target = project_kernel(l, rho0.mat).mat
    errs = [float(np.linalg.norm(heat_flow(l, rho0, t, max(200, int(400 * t))).mat
                                 - target)) for t in (0.5, 1.0, 2.0, 4.0)]
    mono = max(0.0, max(errs[i + 1] - errs[i] for i in range(len(errs) - 1)))
    checks.append(_check("heat flow contracts toward the kernel projection",
                         mono, 1e-12,
                         extra=f"; errors {['%.2e' % e for e in errs]}"))

    # exp(t gen) of the symmetric generator from one eigendecomposition
    lam, vecs = np.linalg.eigh(_generator_matrix(l))
    t_final = 0.7
    exact = unvec_h(vecs @ (np.exp(t_final * lam) * (vecs.T @ vec_h(rho0.mat))), l.n)
    approx = heat_flow(l, rho0, t_final, 2000).mat
    err = float(np.linalg.norm(exact - approx))
    checks.append(_check("midpoint integrator matches exact exponential", err, 1e-4))

    return checks


def run_suites(spec, suite: str) -> list[Check]:
    """Run one named suite or all of them, deterministically under spec.seed."""
    names = SUITES if suite == "all" else (suite,)
    out = []
    for name in names:
        rng = np.random.default_rng(spec.seed)
        if name == "calculus":
            out.extend(suite_calculus(spec.lindblad, rng))
        elif name == "duality":
            out.extend(suite_duality(spec.lindblad, spec.rho0, spec.rho1, rng,
                                     spec.config))
        elif name == "conservation":
            out.extend(suite_conservation(spec.lindblad, spec.rho0, spec.rho1,
                                          rng, spec.config))
        else:
            raise ValueError(f"unknown suite {name!r}; expected one of "
                             f"{SUITES + ('all',)}")
    return out
