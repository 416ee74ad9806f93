"""Seeded, deterministic property suites exposed through ``momt verify``.

Each suite replays the library's structural guarantees against the
operator set (and endpoints) of a user problem file: the calculus
identities, the convex-duality relations, and the conservation laws.
Failures name the violated property and carry the measured error.

run_suites solves the problem once, and only when duality or conservation
runs; both read that result.  The heat-flow checks read one trajectory
from rho0, restarted at t = 0.5, 1 and 2, with max(200, ceil(r/2)) steps
per 0.5 of time for the generator's spectral radius r.  So dt * r <= 1,
inside the explicit midpoint scheme's stability interval dt * r <= 2; the
exponential check takes max(2000, ceil(0.7 r)) steps to t = 0.7.  A run
that aborts with StabilityError fails its checks, naming the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .action import (DualPoint, fenchel_gap, kinetic, legendre_feasible, path_cost,
                     trace_lower_bound)
from .elliptic import momentum_min_check
from .geodesic import (InfeasibleEndpoints, continuity_residual, hamiltonian_profile,
                       optimize_geodesic)
from .hermitian import (DensityMatrix, HermitianMatrix, OperatorStack, _above_floor, gram,
                        hermitian_part, inner_product, unvec_h, vec_h, vec_s)
from .lindblad import (LindbladSet, StabilityError, divergence, gradient, heat_flow, laplacian,
                       project_kernel)

SUITES = ("calculus", "duality", "conservation")
_MIN_EIG = 0.05  # spectral floor of the sampled densities


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


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


def _rand_density(rng, n: int) -> DensityMatrix:
    """Random strictly positive density with spectrum bounded below by _MIN_EIG."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = _MIN_EIG + rng.dirichlet(np.ones(n)) * (1.0 - n * _MIN_EIG)
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


def _worst(name: str, tol: float, draws: int, error, extra: str = "") -> Check:
    """The check that the largest of ``draws`` calls of error() is within tol."""
    err = 0.0
    for _ in range(draws):
        err = max(err, error())
    return _check(name, err, tol, extra)


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

_CASES = 50  # draws of each sampled calculus identity


def suite_calculus(l: LindbladSet, rng) -> list[Check]:
    n, big_n = l.n, l.count

    def adjointness():
        x, y = rand_herm(rng, n), rand_skew_stack(rng, big_n, n)
        lhs = inner_product(gradient(l, x), y)
        rhs = inner_product(HermitianMatrix(x), divergence(l, y))
        return abs(lhs - rhs) / max(1.0, abs(lhs))

    def product_rule():
        x, y = rand_herm(rng, n), rand_herm(rng, n)
        lhs = gradient(l, x @ y + y @ x).blocks
        gx, gy = gradient(l, x).blocks, gradient(l, y).blocks
        rhs = (np.einsum("kij,jl->kil", gx, y) + np.einsum("ij,kjl->kil", x, gy)
               + np.einsum("kij,jl->kil", gy, x) + np.einsum("ij,kjl->kil", y, gx))
        return float(np.linalg.norm(lhs - rhs)) / max(1.0, float(np.linalg.norm(lhs)))

    def closed_form():
        x = rand_herm(rng, n)
        closed, composed = laplacian(l, x).mat, -divergence(l, gradient(l, x)).mat
        return float(np.linalg.norm(closed - composed)) / max(1.0, float(np.linalg.norm(closed)))

    def superoperator():
        x = rand_herm(rng, n)
        blockwise = np.concatenate([vec_s(b) for b in gradient(l, x).blocks])
        return float(np.linalg.norm(l.grad_matrix @ vec_h(x) - blockwise))

    def pythagoras():
        x = rand_herm(rng, n)
        p = project_kernel(l, x).mat
        pyth = abs(np.linalg.norm(x - p) ** 2 + np.linalg.norm(p) ** 2
                   - np.linalg.norm(x) ** 2)
        return pyth / max(1.0, np.linalg.norm(x) ** 2)

    checks = [
        _worst("gradient/divergence adjointness", 1e-12, _CASES, adjointness),
        _worst("gradient product rule", 1e-12, _CASES // 2, product_rule),
        _worst("laplacian closed form vs divergence of gradient", 1e-12, _CASES, closed_form),
        _worst("divergence output is traceless", 1e-12, _CASES,
               lambda: abs(divergence(l, rand_skew_stack(rng, big_n, n)).trace())),
        _worst("gradient superoperator matches blockwise gradient", 1e-12, _CASES,
               superoperator),
    ]
    err = max((gradient(l, b.mat).norm() for b in l.kernel_basis), default=0.0)
    checks.append(_check("kernel basis annihilated by the gradient", err, 1e-10))
    overlaps = np.array([[inner_product(a, b) for b in l.kernel_basis]
                         for a in l.kernel_basis])
    err = float(np.linalg.norm(overlaps - np.eye(l.kernel_dim)))
    checks.append(_check("kernel basis orthonormal", err, 1e-12))
    checks.append(_worst("kernel projection Pythagoras identity", 1e-12, _CASES, pythagoras))
    checks.append(_worst(
        "divergence range orthogonal to the kernel", 1e-10, _CASES,
        lambda: project_kernel(l, divergence(l, rand_skew_stack(rng, big_n, n)).mat).norm()))
    return checks


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def suite_duality(spec, rng, solved) -> list[Check]:
    """Sampled duality checks, then weak duality on solved (see run_suites) and
    on the initial path, the solver's iteration 0 (a max_iter = 0 solve)."""
    l = spec.lindblad
    n, big_n = l.n, l.count

    def momentum_duality():
        mc = momentum_min_check(l, _rand_density(rng, n), _rand_complement(rng, l))
        return abs(mc.primal_min - mc.dual_max) / max(1.0, abs(mc.primal_min))

    def convexity():
        ra, rb = _rand_density(rng, n), _rand_density(rng, n)
        ma, mb = rand_general_stack(rng, big_n, n), rand_general_stack(rng, big_n, n)
        mid = kinetic(0.5 * (ra.mat + rb.mat), 0.5 * (ma.blocks + mb.blocks)).value
        return mid - 0.5 * (kinetic(ra, ma).value + kinetic(rb, mb).value)

    def fenchel_young():
        rho = _rand_density(rng, n)
        m, b = rand_general_stack(rng, big_n, n), rand_general_stack(rng, big_n, n)
        a = HermitianMatrix(-0.5 * gram(b.blocks) - 0.1 * np.eye(n))
        return -fenchel_gap(rho, m, DualPoint(a=a, b=b))

    def fenchel_equality():
        rho = _rand_density(rng, n)
        v = gradient(l, rand_herm(rng, n))
        m = OperatorStack(np.einsum("kij,jl->kil", v.blocks, rho.mat), flavor="general")
        p = DualPoint(a=HermitianMatrix(-0.5 * gram(v.blocks)), b=v)
        return abs(fenchel_gap(rho, m, p)) / max(1.0, kinetic(rho, m).value)

    def lower_bound():
        rho = _rand_density(rng, n)
        return 0.0 if trace_lower_bound(rho, rand_general_stack(rng, big_n, n)) else 1.0

    checks = [
        _worst("constrained momentum primal equals dual", 1e-9, 20, momentum_duality),
        _worst("kinetic functional midpoint convexity", 1e-10, 100, convexity),
    ]
    agree, total = 0, 120
    for i in range(total):
        b = rand_general_stack(rng, big_n, n)
        gr = gram(b.blocks)
        shift = [-1e-3, 0.0, 1e-3][i % 3] * np.eye(n)
        a = HermitianMatrix(-0.5 * gr + shift)
        claimed = legendre_feasible(DualPoint(a=a, b=b))
        # independent route: a Cholesky of the negated residual, shifted by 1e-13
        indep = _above_floor(1e-13 * np.eye(n) - (a.mat + 0.5 * gr - 1e-10 * np.eye(n)), 0.0)
        agree += int(claimed == indep)
    checks.append(Check("dual-cone membership: eigenvalue test vs factorization",
                        agree == total, f"{agree}/{total} classifications agree"))
    checks += [
        _worst("Fenchel-Young inequality for the kinetic pair", 1e-10, 100, fenchel_young),
        _worst("subdifferential pair attains Fenchel equality", 1e-9, 20, fenchel_equality),
        _worst("kinetic value dominates momentum-norm lower bound", 0.0, 100, lower_bound,
               extra="; 100 samples"),
    ]

    if isinstance(solved, InfeasibleEndpoints):
        checks.append(Check("weak duality on the solved instance", True, f"skipped: {solved}"))
        return checks
    rel = solved.gap / solved.primal_cost if solved.primal_cost > 1e-15 else 0.0
    checks.append(_check("weak duality on the solved instance",
                         max(0.0, -solved.gap), 1e-9,
                         extra=f"; certified rel_gap {rel:.3e}"))
    start = optimize_geodesic(l, spec.rho0, spec.rho1, replace(spec.config, max_iter=0))
    checks.append(_check("certificate never exceeds the action (initial path)",
                         max(0.0, start.dual_value - 2.0 * path_cost(start.path).value), 1e-9))
    return checks


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

def _generator_matrix(l: LindbladSet) -> np.ndarray:
    """Matrix of rho -> laplacian(rho)/2 = -div(grad rho)/2: -(1/2) G^T G, G = grad_matrix."""
    return -0.5 * (l.grad_matrix.T @ l.grad_matrix)


def suite_conservation(spec, solved) -> list[Check]:
    """Conservation along solved (see run_suites) and along the heat flow."""
    l, rho0 = spec.lindblad, spec.rho0
    if isinstance(solved, InfeasibleEndpoints):
        checks = [Check("unit trace along every solver iterate", True, f"skipped: {solved}")]
    else:
        checks = [
            _check("unit trace along every solver iterate", solved.trace_drift, 1e-12,
                   extra=f"; {solved.iterations} iterations"),
            _check("discrete continuity on the returned path",
                   continuity_residual(l, solved.path), 1e-9),
            _check("kinetic values constant along the geodesic",
                   hamiltonian_profile(solved).rel_std, 1e-3),
        ]

    lam, vecs = np.linalg.eigh(_generator_matrix(l))
    radius = float(np.max(np.abs(lam)))
    half = max(200, math.ceil(radius / 2))  # steps per 0.5 of time, so dt * radius <= 1
    states, aborted = [rho0], ""
    try:
        for t, steps in ((0.5, half), (0.5, half), (1.0, 2 * half), (2.0, 4 * half)):
            states.append(heat_flow(l, states[-1], t, steps))
    except StabilityError as exc:  # each heat-flow check fails and names the abort
        drift = negative = mono = math.inf
        aborted = contraction = f"; heat flow aborted: {exc}"
    else:
        flowed = states[3]  # t = 2
        drift = abs(float(np.trace(flowed.mat).real) - 1.0)
        negative = max(0.0, -flowed.min_eig())
        target = project_kernel(l, rho0.mat).mat
        errs = [float(np.linalg.norm(s.mat - target)) for s in states[1:]]  # t = 0.5, 1, 2, 4
        mono = max(0.0, max(errs[i + 1] - errs[i] for i in range(len(errs) - 1)))
        contraction = f"; errors {['%.2e' % e for e in errs]}"
    checks.append(_check("heat flow preserves trace", drift, 1e-10, aborted))
    checks.append(_check("heat flow preserves positivity", negative, 1e-8, aborted))
    checks.append(_check("heat flow contracts toward the kernel projection",
                         mono, 1e-12, contraction))

    # exp(t gen) of the symmetric generator from one eigendecomposition
    t_final = 0.7
    exact = unvec_h(vecs @ (np.exp(t_final * lam) * (vecs.T @ vec_h(rho0.mat))), l.n)
    try:
        approx = heat_flow(l, rho0, t_final, max(2000, math.ceil(t_final * radius))).mat
    except StabilityError as exc:
        err, aborted = math.inf, f"; heat flow aborted: {exc}"
    else:
        err, aborted = float(np.linalg.norm(exact - approx)), ""
    checks.append(_check("midpoint integrator matches exact exponential", err, 1e-4, aborted))
    return checks


def run_suites(spec, suite: str) -> list[Check]:
    """Run one named suite or all of them, deterministically under spec.seed.

    Each suite draws from its own generator seeded with spec.seed.  solved
    is the GeodesicResult of spec, or the InfeasibleEndpoints its solve raised.
    """
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    names = SUITES if suite == "all" else (suite,)
    solved = None
    if suite != "calculus":
        try:
            solved = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config)
        except InfeasibleEndpoints as exc:
            solved = exc
    out = []
    for name in names:
        rng = np.random.default_rng(spec.seed)
        if name == "calculus":
            out.extend(suite_calculus(spec.lindblad, rng))
        elif name == "duality":
            out.extend(suite_duality(spec, rng, solved))
        else:
            out.extend(suite_conservation(spec, solved))
    return out
