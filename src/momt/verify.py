"""Seeded, deterministic property suites exposed through ``momt verify``.

Each suite replays the library's structural guarantees against the
operator set (and endpoints) of a user problem file: the calculus
identities, the convex-duality relations, and the conservation laws.
Failures name the violated property and carry the measured error; a check
whose computation raises a library error (_LIBRARY_ERRORS) fails with the
error's name and text, and the other checks still run.

run_suites solves the problem once, and only when duality or conservation
runs; both read that result.  The heat-flow checks read the exact flow from
rho0 at t = 0.5, 1, 2 and 4, and compare its time derivative with the
closed-form laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from . import SUITES
from .action import (DualPoint, _cone_bound, fenchel_gap, kinetic, legendre_feasible,
                     momentum_min_check, path_cost, trace_lower_bound)
from .elliptic import IllConditioned
from .geodesic import (InfeasibleEndpoints, continuity_residual, hamiltonian_profile,
                       optimize_geodesic)
from .hermitian import (DensityMatrix, HermitianMatrix, NotPositive, OperatorStack, _above_floor,
                        gram, hermitian_part, inner_product, unvec_h, vec_h, vec_s)
from .lindblad import LindbladSet, divergence, gradient, heat_flow, laplacian, project_kernel

_MIN_EIG = 0.05  # spectral floor of the sampled densities
# what the library raises on inputs it cannot handle (np.linalg.LinAlgError is a ValueError)
_LIBRARY_ERRORS = (ValueError, IllConditioned)


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


def _guard(name: str, compute) -> Check:
    """compute()'s Check, or a FAIL row naming the library error that it raised."""
    try:
        return compute()
    except _LIBRARY_ERRORS as exc:
        return Check(name=name, passed=False, detail=f"raised {type(exc).__name__}: {exc}")


def _worst(name: str, tol: float, draws: int, error, extra: str = "") -> Check:
    """The check that the largest of ``draws`` calls of error() is within tol."""
    # np.max keeps a NaN draw, which then fails the check
    return _guard(name, lambda: _check(
        name, float(np.max([error() for _ in range(draws)], initial=0.0)), tol, extra))


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

_CASES = 50  # draws of each sampled calculus identity


def suite_calculus(l: LindbladSet, rng) -> list[Check]:
    n, big_n, kernel = l.n, l.count, unvec_h(l.kernel_vecs.T, l.n)  # kernel as matrices

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
        return float(np.linalg.norm(l.grad_matrix @ vec_h(x) - blockwise)) / max(
            1.0, float(np.linalg.norm(blockwise)))

    def divergence_defect(measure):
        """measure(div Y) of a random skew Y, relative to |div Y| once that exceeds 1."""
        d = divergence(l, rand_skew_stack(rng, big_n, n))
        return measure(d) / max(1.0, d.norm())

    def pythagoras():
        x = rand_herm(rng, n)
        p = project_kernel(l, x).mat
        pyth = abs(np.linalg.norm(x - p) ** 2 + np.linalg.norm(p) ** 2
                   - np.linalg.norm(x) ** 2)
        return pyth / max(1.0, np.linalg.norm(x) ** 2)

    def overlap():
        overlaps = np.array([[inner_product(a, b).real for b in kernel] for a in kernel])
        return float(np.linalg.norm(overlaps - np.eye(l.kernel_dim)))

    return [
        _worst("gradient/divergence adjointness", 1e-12, _CASES, adjointness),
        _worst("gradient product rule", 1e-12, _CASES // 2, product_rule),
        _worst("laplacian closed form vs divergence of gradient", 1e-12, _CASES, closed_form),
        _worst("divergence output is traceless", 1e-12, _CASES,
               lambda: divergence_defect(lambda d: abs(d.trace()))),
        _worst("gradient superoperator matches blockwise gradient", 1e-12, _CASES,
               superoperator),
        _worst("kernel basis annihilated by the gradient", 1e-10, 1,
               lambda: max((gradient(l, b).norm() for b in kernel), default=0.0)),
        _worst("kernel basis orthonormal", 1e-12, 1, overlap),
        _worst("kernel projection Pythagoras identity", 1e-12, _CASES, pythagoras),
        _worst("divergence range orthogonal to the kernel", 1e-10, _CASES,
               lambda: divergence_defect(lambda d: project_kernel(l, d.mat).norm())),
    ]


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

    def initial_excess():
        start = optimize_geodesic(l, spec.rho0, spec.rho1, replace(spec.config, max_iter=0))
        return max(0.0, start.dual_value - 2.0 * path_cost(start.path).value)

    cone = "dual-cone membership: eigenvalue test vs factorization"

    def membership():
        agree, total = 0, 120
        for i in range(total):
            b = rand_general_stack(rng, big_n, n)
            gr = gram(b.blocks)
            shift = [-1e-3, 0.0, 1e-3][i % 3] * np.eye(n)
            a = HermitianMatrix(-0.5 * gr + shift)
            claimed = legendre_feasible(DualPoint(a=a, b=b))
            # independent route: a Cholesky of the negated residual against the
            # library's bound, shifted by 1e-13
            bound = _cone_bound(0.5 * gr)
            indep = _above_floor(1e-13 * np.eye(n) - (a.mat + 0.5 * gr - bound * np.eye(n)),
                                 0.0)
            agree += int(claimed == indep)
        return Check(cone, agree == total, f"{agree}/{total} classifications agree")

    checks = [
        _worst("constrained momentum primal equals dual", 1e-9, 20, momentum_duality),
        _worst("kinetic functional midpoint convexity", 1e-10, 100, convexity),
        _guard(cone, membership),
        _worst("Fenchel-Young inequality for the kinetic pair", 1e-10, 100, fenchel_young),
        _worst("subdifferential pair attains Fenchel equality", 1e-9, 20, fenchel_equality),
        _worst("kinetic value dominates momentum-norm lower bound", 0.0, 100, lower_bound,
               extra="; 100 samples"),
    ]

    if isinstance(solved, Exception):
        checks.append(Check("weak duality on the solved instance", True, f"skipped: {solved}"))
        return checks
    # both are costs, and W^2 scales as the set's cost unit does: c^-2 for operators c L
    return checks + [
        _check("weak duality on the solved instance", max(0.0, -solved.gap), 1e-9 * l.unit,
               extra=f"; certified rel_gap {solved.rel_gap:.3e}"),
        _worst("certificate never exceeds the action (initial path)", 1e-9 * l.unit, 1,
               initial_excess),
    ]


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

def suite_conservation(spec, solved) -> list[Check]:
    """Conservation along solved (see run_suites) and along the heat flow."""
    l, rho0 = spec.lindblad, spec.rho0
    if isinstance(solved, Exception):
        checks = [Check("unit trace along every solver iterate", True, f"skipped: {solved}")]
    else:
        checks = [
            _check("unit trace along every solver iterate", solved.trace_drift, 1e-12,
                   extra=f"; {solved.iterations} iterations"),
            _worst("discrete continuity on the returned path", 1e-9, 1,
                   lambda: continuity_residual(l, solved.path)),
            _worst("kinetic values constant along the geodesic", 1e-3, 1,
                   lambda: hamiltonian_profile(solved).rel_std),
        ]
    flow = cache(partial(heat_flow, l, rho0))  # a raise is not kept: each reader fails
    contracts = "heat flow contracts toward the kernel projection"

    def contraction():
        target = project_kernel(l, rho0).mat
        errs = [float(np.linalg.norm(flow(t).mat - target)) for t in (0.5, 1.0, 2.0, 4.0)]
        mono = max(0.0, max(errs[i + 1] - errs[i] for i in range(len(errs) - 1)))
        return _check(contracts, mono, 1e-12, f"; errors {['%.2e' % e for e in errs]}")

    def rate_error():
        # a central difference of the flow at t = 0.7 against the closed-form laplacian,
        # both times in the set's time unit (its cost unit): the flow's rates are ~ 1/unit
        t, h = 0.7 * l.unit, 1e-4 * l.unit
        rate = (flow(t + h).mat - flow(t - h).mat) / (2.0 * h)
        ref = 0.5 * laplacian(l, flow(t)).mat
        return float(np.linalg.norm(rate - ref)) / max(1.0, float(np.linalg.norm(ref)))

    return checks + [
        _worst("heat flow preserves trace", 1e-10, 1,
               lambda: abs(float(np.trace(flow(2.0).mat).real) - 1.0)),
        _worst("heat flow preserves positivity", 1e-8, 1, lambda: max(0.0, -flow(2.0).min_eig())),
        _guard(contracts, contraction),
        _worst("heat flow solves rho' = laplacian(rho)/2", 1e-6, 1, rate_error),
    ]


def run_suites(spec, suite: str) -> list[Check]:
    """Run one named suite or all of them, deterministically under spec.seed.

    Each suite draws from its own generator seeded with spec.seed.  solved
    is the GeodesicResult of spec, or the refusal its solve raised
    (InfeasibleEndpoints, or NotPositive for an endpoint on the cone
    boundary): the checks that read it report themselves as skipped.
    """
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    names = SUITES if suite == "all" else (suite,)
    solved = None
    if suite != "calculus":
        try:
            solved = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config)
        except (InfeasibleEndpoints, NotPositive) as exc:
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
