"""Exact identities of the discrete problem, used as oracles.

Each identity relates the optimal costs E_K of several solves.  A solve
certifies its cost only to within its gap (dual_value <= E_K* <= primal_cost
= dual_value + gap), so every bound below is the sum of the certified gaps of
the solves involved plus 1e-12 E for rounding, never an observed deviation.

* unitary covariance: E_K(U L U^*; U rho0 U^*, U rho1 U^*) = E_K(L; rho0, rho1)
* real orthogonal mixing: E_K(sum_j O_ij L_j) = E_K(L) for a real orthogonal O
* identity shifts: E_K(L_j + a_j I) = E_K(L_j) for real a_j
* scaling: E_K(2 L) = E_K(L) / 4, so |4 E' - E| <= 4 gap' + gap + 1e-12 E
* endpoint reversal:  E_K(rho1, rho0) = E_K(rho0, rho1)
* the split at the middle node rho_m of the K-solve's path: each half of the
  path is admissible for its half-problem at K/2 intervals, whose time step is
  twice as long, so E_K* <= 2 (E_{K/2}*(rho0, rho_m) + E_{K/2}*(rho_m, rho1))
  <= E_K(path), and the computed values agree within gap_K + 2 (gap_a + gap_b).
* envelope: the dual d(X) is affine in the end node, with slope
  P_K = 2 X_{K-1} - (dt/2) G_{K-1}, and d(X) <= E_K, so at the optimum
  dE_K(rho1 + eps H)/d eps = <P_K; H> for traceless H orthogonal to ker(grad).
  The same holds at rho0 with slope P_0 = -2 X_0 - (dt/2) G_0: the kernel
  shift pairs with rho0 too, but vanishes for H orthogonal to ker(grad).
  The slope is dual_certificate's change when the path's end node moves by
  eps H.  The central difference at eps/2 must match it within its
  disagreement with the one at eps, which bounds the O(eps^2) truncation, plus
  the gaps of the three solves it reads (the base and the two at +-eps/2) over eps.
"""

from dataclasses import replace

import numpy as np
import pytest

from momt import (DensityMatrix, LindbladSet, SolverConfig, dual_certificate,
                  optimize_geodesic, unvec_h)
from conftest import rand_herm, rand_unitary

K = 16


def draw(seed, n=3, count=2):
    """Operators and a mild endpoint pair drawn as conftest's three_level_pair
    draws them (whose own seed is 42)."""
    rng = np.random.default_rng(seed)
    ops = [rand_herm(rng, n) for _ in range(count)]
    ends = []
    for _ in range(2):
        d = rand_herm(rng, n)
        d -= np.trace(d) / n * np.eye(n)
        ends.append(np.eye(n) / n + 0.12 * d / np.linalg.norm(d))
    return ops, ends[0], ends[1]


def solve(ops, rho0, rho1, big_k=K):
    return optimize_geodesic(LindbladSet(ops), DensityMatrix(rho0, strict=True),
                             DensityMatrix(rho1, strict=True), SolverConfig(K=big_k))


@pytest.fixture(scope="module", params=[(42,), (1,), (2,), (3,), (4, 6, 3)],
                ids=["three-level-pair", "qutrit-1", "qutrit-2", "qutrit-3", "n6-N3"])
def instance(request):
    ops, rho0, rho1 = draw(*request.param)
    return ops, rho0, rho1, solve(ops, rho0, rho1)


def assert_within(e, e_other, gaps, scale):
    assert all(g >= 0 for g in gaps)
    bound = sum(gaps) + 1e-12 * scale
    assert abs(e - e_other) <= bound, (e, e_other, bound)


def test_unitary_covariance(instance):
    ops, rho0, rho1, res = instance
    u = rand_unitary(np.random.default_rng(11), len(rho0))

    def conj(a):
        return u @ a @ u.conj().T

    moved = solve([conj(op) for op in ops], conj(rho0), conj(rho1))
    assert_within(moved.primal_cost, res.primal_cost, [moved.gap, res.gap], res.primal_cost)


def test_real_orthogonal_mixing(instance):
    ops, rho0, rho1, res = instance
    o, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((len(ops), len(ops))))
    mixed = solve([sum(c * op for c, op in zip(row, ops)) for row in o], rho0, rho1)
    assert_within(mixed.primal_cost, res.primal_cost, [mixed.gap, res.gap], res.primal_cost)


def test_identity_shifts(instance):
    ops, rho0, rho1, res = instance
    shifts = np.random.default_rng(13).standard_normal(len(ops))
    shifted = solve([op + a * np.eye(len(op)) for a, op in zip(shifts, ops)], rho0, rho1)
    assert_within(shifted.primal_cost, res.primal_cost, [shifted.gap, res.gap],
                  res.primal_cost)


def test_scaling(instance):
    ops, rho0, rho1, res = instance
    scaled = solve([2 * op for op in ops], rho0, rho1)
    assert_within(4 * scaled.primal_cost, res.primal_cost, [4 * scaled.gap, res.gap],
                  res.primal_cost)


def test_endpoint_reversal(instance):
    ops, rho0, rho1, res = instance
    back = solve(ops, rho1, rho0)
    assert_within(back.primal_cost, res.primal_cost, [back.gap, res.gap], res.primal_cost)


def test_split_at_the_middle_node(instance):
    ops, rho0, rho1, res = instance
    mid = res.path.densities[K // 2]
    first, second = solve(ops, rho0, mid, K // 2), solve(ops, mid, rho1, K // 2)
    joined = 2 * (first.primal_cost + second.primal_cost)
    assert_within(joined, res.primal_cost, [res.gap, 2 * first.gap, 2 * second.gap],
                  res.primal_cost)


def envelope_slope_matches(instance, end):
    """The envelope identity at node end (0 for rho0, -1 for rho1)."""
    ops, rho0, rho1, res = instance
    l, eps = LindbladSet(ops), 1e-3
    c = l.complement_vecs
    h = unvec_h(c @ np.random.default_rng(14).standard_normal(c.shape[1]), l.n)
    h /= np.linalg.norm(h)
    moved = res.path.densities.copy()
    moved[end] += eps * h
    slope = (dual_certificate(l, replace(res.path, densities=moved))[1] - res.dual_value) / eps

    def solve_moved(s):
        ends = [rho0, rho1]
        ends[end] = ends[end] + s * h
        return solve(ops, *ends)

    wide, near = [[solve_moved(s) for s in (step, -step)] for step in (eps, eps / 2)]
    central = (near[0].primal_cost - near[1].primal_cost) / eps
    disagreement = abs((wide[0].primal_cost - wide[1].primal_cost) / (2 * eps) - central)
    assert_within(central, slope, [disagreement] + [r.gap / eps for r in (res, *near)],
                  res.primal_cost)


def test_envelope_slope_of_the_end_node(instance):
    envelope_slope_matches(instance, -1)


def test_envelope_slope_of_the_start_node(instance):
    envelope_slope_matches(instance, 0)
