"""Acceptance gate: twelve criteria, one test per criterion.

Each test prints a single PASS line when it completes (visible with
``pytest -v`` as one PASSED row per criterion, or with ``-s``/-rA as the
printed line).  Tolerances are fixed constants in the test bodies, never
derived from the observed values.
"""

import json

import numpy as np
import pytest
from scipy.linalg import null_space

from momt import (
    DensityMatrix,
    DualPoint,
    HermitianMatrix,
    InfeasibleEndpoints,
    LindbladSet,
    OperatorStack,
    SolverConfig,
    WeightedOperator,
    divergence,
    fenchel_gap,
    gradient,
    inner_product,
    kinetic,
    laplacian,
    legendre_feasible,
    momentum_min_check,
    optimize_geodesic,
    poincare_constant,
    project_kernel,
    quadratic_form,
    solve_potential,
    trace_lower_bound,
    unvec_h,
    vec_h,
)
from momt.cli import main
from conftest import (
    FIXTURES,
    SX,
    SY,
    SZ,
    momentum_divergence_matrix,
    rand_density,
    rand_general_stack,
    rand_herm,
    rand_lindblad,
    rand_skew_stack,
    unvec_stack,
)

PAULI = LindbladSet([SX, SY, SZ])
R_SWAP_0 = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
R_SWAP_1 = DensityMatrix(np.diag([0.1, 0.9]).astype(complex))


def _gram(blocks):
    return np.einsum("kji,kjl->il", np.conj(blocks), blocks)


def _feasible_rhs(rng, l):
    c = l.complement_vecs
    return HermitianMatrix(unvec_h(c @ rng.standard_normal(c.shape[1]), l.n))


def _mild_three_level():
    rng = np.random.default_rng(42)
    l = LindbladSet([rand_herm(rng, 3), rand_herm(rng, 3)])
    base = np.eye(3) / 3
    moves = []
    for _ in range(2):
        d = rand_herm(rng, 3)
        d -= np.trace(d) / 3 * np.eye(3)
        moves.append(0.12 * d / np.linalg.norm(d))
    return (l, DensityMatrix(base + moves[0], strict=True),
            DensityMatrix(base + moves[1], strict=True))


def test_c01_operator_calculus():
    """adjointness, product rule, closed-form laplacian, traceless divergence"""
    rng = np.random.default_rng(101)
    worst = {"adjoint": 0.0, "product": 0.0, "laplacian": 0.0, "trace": 0.0}
    for _ in range(200):
        n = int(rng.integers(2, 5))
        l = rand_lindblad(rng, int(rng.integers(1, 5)), n)
        x, y = rand_herm(rng, n), rand_herm(rng, n)
        s = rand_skew_stack(rng, l.count, n)

        lhs = inner_product(gradient(l, x), s)
        rhs = inner_product(HermitianMatrix(x), divergence(l, s))
        worst["adjoint"] = max(worst["adjoint"],
                               abs(lhs - rhs) / max(1.0, abs(lhs)))

        gx, gy = gradient(l, x).blocks, gradient(l, y).blocks
        left = gradient(l, x @ y + y @ x).blocks
        right = (np.einsum("kij,jl->kil", gx, y)
                 + np.einsum("ij,kjl->kil", x, gy)
                 + np.einsum("kij,jl->kil", gy, x)
                 + np.einsum("ij,kjl->kil", y, gx))
        worst["product"] = max(worst["product"],
                               np.linalg.norm(left - right)
                               / max(1.0, np.linalg.norm(left)))

        closed = laplacian(l, x).mat
        composed = -divergence(l, gradient(l, x)).mat
        worst["laplacian"] = max(worst["laplacian"],
                                 np.linalg.norm(closed - composed)
                                 / max(1.0, np.linalg.norm(closed)))

        worst["trace"] = max(worst["trace"], abs(divergence(l, s).trace()))
    assert all(v <= 1e-11 for v in worst.values()), worst
    print(f"criterion 01 PASS  calculus suite, 200 cases each, "
          f"max error {max(worst.values()):.2e} <= 1e-11")


def test_c02_quadratic_form_identities():
    """bilinear expansion, interpolation identity, pairing symmetry, convexity"""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        rho = rand_density(rng, n)
        count = int(rng.integers(1, 4))
        v = rand_skew_stack(rng, count, n)
        w = rand_skew_stack(rng, count, n)

        # expansion of Q(v + w)
        lhs = quadratic_form(rho, OperatorStack(v.blocks + w.blocks, flavor="skew"))
        vr = np.einsum("kij,jl->kil", v.blocks, rho.mat)
        wr = np.einsum("kij,jl->kil", w.blocks, rho.mat)
        cross = (np.sum(np.conj(vr) * w.blocks) + np.sum(np.conj(wr) * v.blocks)).real
        rhs = quadratic_form(rho, v) + quadratic_form(rho, w) + cross
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))

        # interpolation: Q((1-t)v + tw) = (1-t)Q(v) + tQ(w) - t(1-t)Q(v-w)
        t = float(rng.uniform(0.05, 0.95))
        mid = OperatorStack((1 - t) * v.blocks + t * w.blocks, flavor="skew")
        diff = OperatorStack(v.blocks - w.blocks, flavor="skew")
        lhs = quadratic_form(rho, mid)
        rhs = ((1 - t) * quadratic_form(rho, v) + t * quadratic_form(rho, w)
               - t * (1 - t) * quadratic_form(rho, diff))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))

        # pairing symmetry <w rho; v> = <rho v; w>
        a = np.sum(np.conj(wr) * v.blocks)
        rv = np.einsum("ij,kjl->kil", rho.mat, v.blocks)
        b = np.sum(np.conj(rv) * w.blocks)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))

        # convexity of t -> Q(grad((1-t)X + tY)) with the sharp constant
        l = rand_lindblad(rng, count, n)
        x, y_ = rand_herm(rng, n), rand_herm(rng, n)
        q = lambda s: quadratic_form(rho, gradient(l, (1 - s) * x + s * y_))
        t0, t1 = 0.2, 0.8
        second = q(t0) + q(t1) - 2.0 * q(0.5 * (t0 + t1))
        lead = quadratic_form(rho, gradient(l, x - y_))
        expect = ((t1 - t0) ** 2 / 2.0) * lead
        worst = max(worst, abs(second - expect) / max(1.0, abs(expect)))
        c = poincare_constant(l, rho)
        resid = (x - y_) - project_kernel(l, x - y_).mat
        assert second >= ((t1 - t0) ** 2 / 2.0) * c * np.linalg.norm(resid) ** 2 \
            - 1e-10
    assert worst <= 1e-11, worst
    print(f"criterion 02 PASS  form identities + convexity, 100 cases, "
          f"max relative error {worst:.2e} <= 1e-11")


def test_c03_sharp_constant_inequality():
    """sampled lower bound with the computed sharp constant, Pauli set"""
    rng = np.random.default_rng(103)
    violations = 0
    for _ in range(50):
        rho = rand_density(rng, 2, min_eig=0.05)
        assert float(np.linalg.eigvalsh(rho.mat)[0]) >= 0.05 - 1e-12
        c = poincare_constant(PAULI, rho)
        for _ in range(100):
            x = rand_herm(rng, 2)
            resid = x - project_kernel(PAULI, x).mat
            lhs = quadratic_form(rho, gradient(PAULI, resid))
            if lhs < c * np.linalg.norm(resid) ** 2 - 1e-10:
                violations += 1
    assert violations == 0
    print("criterion 03 PASS  sharp-constant inequality, 50 weights x 100 "
          "directions, 0 violations beyond 1e-10")


def test_c04_restricted_solver():
    """residual bound, stability bound, pseudo-inverse oracle at I/n"""
    rng = np.random.default_rng(104)
    oracle_worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 5))
        l = rand_lindblad(rng, int(rng.integers(1, 4)), n)
        if l.complement_vecs.shape[1] == 0:
            continue
        rho = rand_density(rng, n)
        f = _feasible_rhs(rng, l)
        w = WeightedOperator(l, rho)
        x = solve_potential(w, f)
        resid = np.linalg.norm(w.apply(x).mat - f.mat)
        fnorm = np.linalg.norm(f.mat)
        assert resid <= 1e-9 * max(fnorm, 1.0)
        assert fnorm >= w.restricted_min_eig * x.norm() - 1e-12

        if i % 2 == 0:  # pseudo-inverse oracle at the maximally mixed weight
            mixed = DensityMatrix(np.eye(n) / n)
            xm = solve_potential(WeightedOperator(l, mixed), f)
            oracle = np.linalg.pinv(l.grad_matrix.T @ l.grad_matrix / n,
                                    rcond=1e-12) @ vec_h(f.mat)
            oracle_worst = max(oracle_worst,
                               float(np.linalg.norm(vec_h(xm.mat) - oracle)))
    assert oracle_worst <= 1e-9
    print(f"criterion 04 PASS  restricted solver, 100 instances, residual "
          f"<= 1e-9*max(|f|,1), stability bound holds, oracle agreement "
          f"{oracle_worst:.2e} <= 1e-9")


def test_c05_momentum_min_max():
    """primal/dual equality and minimality against feasible perturbations"""
    rng = np.random.default_rng(105)
    sets = {}
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        count = int(rng.integers(1, 4))
        key = (count, n)
        if key not in sets:
            l = rand_lindblad(rng, count, n)
            sets[key] = (l, null_space(momentum_divergence_matrix(l)))
        l, null = sets[key]
        if l.complement_vecs.shape[1] == 0:
            continue
        rho = rand_density(rng, n)
        f = _feasible_rhs(rng, l)
        mc = momentum_min_check(l, rho, f)
        worst = max(worst, abs(mc.primal_min - mc.dual_max)
                    / max(1.0, abs(mc.primal_min)))
        for _ in range(20):
            delta = unvec_stack(null @ rng.standard_normal(null.shape[1]),
                                l.count, l.n)
            trial = OperatorStack(mc.optimal_m.blocks + delta, flavor="general")
            assert kinetic(rho, trial).value >= mc.primal_min - 1e-10
    assert worst <= 1e-9
    print(f"criterion 05 PASS  constrained momentum min-max, 50 instances x "
          f"20 perturbations, primal/dual split {worst:.2e} <= 1e-9")


def test_c06_legendre_suite():
    """midpoint convexity, feasibility classifier, nonneg + tight gap"""
    rng = np.random.default_rng(106)
    conv_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        count = int(rng.integers(1, 3))
        ra, rb = rand_density(rng, n), rand_density(rng, n)
        ma, mb = rand_general_stack(rng, count, n), rand_general_stack(rng, count, n)
        mid = kinetic(0.5 * (ra.mat + rb.mat),
                      0.5 * (ma.blocks + mb.blocks)).value
        avg = 0.5 * (kinetic(ra, ma).value + kinetic(rb, mb).value)
        conv_worst = max(conv_worst, mid - avg)
    assert conv_worst <= 1e-10

    agree = True
    for i in range(100):
        b = rand_general_stack(rng, 2, 2)
        shift = [-1e-3, 0.0, 1e-3][i % 3]
        a = HermitianMatrix(-0.5 * _gram(b.blocks) + shift * np.eye(2))
        p = DualPoint(a=a, b=b)
        top = float(np.linalg.eigvalsh(a.mat + 0.5 * _gram(b.blocks))[-1])
        agree &= (legendre_feasible(p) == (top <= 1e-10))
    assert agree

    gap_min, tight_worst = np.inf, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        l = rand_lindblad(rng, int(rng.integers(1, 3)), n)
        rho = rand_density(rng, n)
        m = rand_general_stack(rng, l.count, n)
        b = rand_general_stack(rng, l.count, n)
        a = HermitianMatrix(-0.5 * _gram(b.blocks) - 0.1 * np.eye(n))
        gap_min = min(gap_min, fenchel_gap(rho, m, DualPoint(a=a, b=b)))

        x = rand_herm(rng, n)
        v = gradient(l, x)
        m_opt = OperatorStack(np.einsum("kij,jl->kil", v.blocks, rho.mat),
                              flavor="general")
        p_opt = DualPoint(a=HermitianMatrix(-0.5 * _gram(v.blocks)), b=v)
        scale = max(1.0, kinetic(rho, m_opt).value)
        tight_worst = max(tight_worst,
                          abs(fenchel_gap(rho, m_opt, p_opt)) / scale)
    assert gap_min >= -1e-10
    assert tight_worst <= 1e-9
    print(f"criterion 06 PASS  conjugate suite: midpoint violation "
          f"{conv_worst:.2e} <= 1e-10, classifier agreement 100/100, gap >= "
          f"{gap_min:.2e} >= -1e-10, tight-point gap {tight_worst:.2e} <= 1e-9")


def test_c07_norm_bound_and_trace_conservation():
    """kinetic lower bound (200 samples) + unit trace along solver iterates"""
    rng = np.random.default_rng(107)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        rho = rand_density(rng, n)
        m = rand_general_stack(rng, int(rng.integers(1, 4)), n)
        assert trace_lower_bound(rho, m)

    drifts = []
    res = optimize_geodesic(PAULI, R_SWAP_0, R_SWAP_1, SolverConfig(K=16))
    drifts.append(res.trace_drift)
    l3, r0, r1 = _mild_three_level()
    res3 = optimize_geodesic(l3, r0, r1, SolverConfig(K=8))
    drifts.append(res3.trace_drift)
    for k in range(res3.iterations + 1):  # iterate k is the path of the max_iter = k solve
        nodes = optimize_geodesic(l3, r0, r1, SolverConfig(K=8, max_iter=k)).path.densities
        for nd in nodes:
            drifts.append(abs(float(np.trace(nd).real) - 1.0))
    assert max(drifts) <= 1e-12
    print(f"criterion 07 PASS  momentum-norm bound 200/200, trace drift "
          f"{max(drifts):.2e} <= 1e-12 across all iterates")


def test_c08_end_to_end_certified_distance():
    """swap instance vs the frozen joint-solver value, certified gap"""
    with open(FIXTURES / "pauli_geodesic.json") as fh:
        frozen = json.load(fh)
    ref = frozen["grids"]["32"]["w2_squared"]
    res = optimize_geodesic(PAULI, R_SWAP_0, R_SWAP_1, SolverConfig(K=32))
    assert res.converged
    assert res.gap >= -1e-9
    rel_gap = res.gap / res.primal_cost
    assert rel_gap <= 1e-3
    rel_err = abs(res.primal_cost - ref) / ref
    assert rel_err <= 1e-3
    print(f"criterion 08 PASS  certified distance vs frozen oracle: relative "
          f"error {rel_err:.2e} <= 1e-3, certified rel gap {rel_gap:.2e} <= 1e-3, "
          f"gap {res.gap:.2e} >= -1e-9")


def test_c09_constant_speed_and_half_path():
    """interval kinetic values constant; half-path re-solve scales by 1/2"""
    res = optimize_geodesic(PAULI, R_SWAP_0, R_SWAP_1, SolverConfig(K=32))
    vals = np.asarray(res.hamiltonian)
    rel_std = float(vals.std() / vals.mean())
    assert rel_std <= 1e-3
    half_node = res.path.densities[16]
    half = optimize_geodesic(PAULI, R_SWAP_0, half_node, SolverConfig(K=16))
    target = 0.5 * res.distance
    rel = abs(half.distance - target) / target
    assert rel <= 1e-2
    print(f"criterion 09 PASS  speed profile rel_std {rel_std:.2e} <= 1e-3, "
          f"half-path distance off by {rel:.2e} <= 1e-2")


def test_c10_metric_sanity():
    """zero self-distance, symmetry, triangle inequality"""
    rng = np.random.default_rng(110)
    rho = rand_density(rng, 2)
    res = optimize_geodesic(PAULI, rho, rho, SolverConfig(K=8))
    assert res.distance == 0.0

    l3, r0, r1 = _mild_three_level()
    cfg2, cfg3 = SolverConfig(K=8), SolverConfig(K=8, max_iter=2000)
    pairs = [(PAULI, rand_density(rng, 2), rand_density(rng, 2), cfg2)
             for _ in range(3)]
    pairs += [(l3, r0, r1, cfg3),
              (l3, r1, rand_density(rng, 3, min_eig=0.2), cfg3)]
    sym_worst = 0.0
    for l, a, b, cfg in pairs:
        d_ab = optimize_geodesic(l, a, b, cfg).distance
        d_ba = optimize_geodesic(l, b, a, cfg).distance
        sym_worst = max(sym_worst, abs(d_ab - d_ba) / max(d_ab, 1e-12))
    assert sym_worst <= 1e-3

    tri_worst = -np.inf
    for i in range(5):
        if i < 3:
            l, cfg = PAULI, cfg2
            a, b, c = (rand_density(rng, 2) for _ in range(3))
        else:
            l, cfg = l3, cfg3
            a, b, c = (rand_density(rng, 3, min_eig=0.2) for _ in range(3))
        d_ac = optimize_geodesic(l, a, c, cfg).distance
        d_ab = optimize_geodesic(l, a, b, cfg).distance
        d_bc = optimize_geodesic(l, b, c, cfg).distance
        tri_worst = max(tri_worst, d_ac - d_ab - d_bc)
    assert tri_worst <= 2e-3
    print(f"criterion 10 PASS  self-distance exactly 0, symmetry split "
          f"{sym_worst:.2e} <= 1e-3 (5 pairs), triangle slack "
          f"{tri_worst:.2e} <= 2e-3 (5 triples)")


def test_c11_refinement_monotonicity():
    """action and certified gap both decrease under grid refinement"""
    instances = [(PAULI, R_SWAP_0, R_SWAP_1, 500)]
    l3, r0, r1 = _mild_three_level()
    instances.append((l3, r0, r1, 4000))
    for l, a, b, iters in instances:
        costs, gaps = [], []
        for big_k in (8, 16, 32):
            res = optimize_geodesic(l, a, b,
                                    SolverConfig(K=big_k, max_iter=iters))
            assert res.converged
            costs.append(res.primal_cost)
            gaps.append(res.gap)
        assert costs[0] >= costs[1] - 1e-9 and costs[1] >= costs[2] - 1e-9
        assert gaps[0] >= gaps[1] - 1e-9 and gaps[1] >= gaps[2] - 1e-9
    print("criterion 11 PASS  K=8/16/32 refinement: action and certified "
          "gap decrease monotonically (1e-9 slack) on both fixtures")


def test_c12_feasibility_gate():
    """deficient set refuses swap endpoints (exit 2); full set never refuses"""
    assert main(["distance", str(FIXTURES / "infeasible_problem.json"),
                 "--quiet"]) == 2
    with pytest.raises(InfeasibleEndpoints):
        optimize_geodesic(LindbladSet([SZ]), R_SWAP_0, R_SWAP_1,
                          SolverConfig(K=4))
    rng = np.random.default_rng(112)
    for _ in range(20):
        a, b = rand_density(rng, 2), rand_density(rng, 2)
        res = optimize_geodesic(PAULI, a, b, SolverConfig(K=4))
        assert res.distance >= 0.0
    print("criterion 12 PASS  swap endpoints under the deficient set exit "
          "with code 2; full set accepted 20/20 strictly positive pairs")
