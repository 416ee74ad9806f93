import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import momt.elliptic
from momt import (
    EPS_PD,
    DensityMatrix,
    DiscretePath,
    HermitianMatrix,
    InfeasibleEndpoints,
    InvalidConfig,
    LindbladSet,
    SolverConfig,
    WeightedOperator,
    continuity_residual,
    divergence,
    dual_certificate,
    feasibility_gap,
    gradient,
    hamiltonian_profile,
    initial_path,
    kinetic,
    matrix_to_literal,
    optimize_geodesic,
    path_cost,
    solve_potential,
    unvec_h,
    vec_h,
)
from momt.action import kinetic_values
from momt.cli import main
from momt.elliptic import solve_restricted
from momt.geodesic import _DENSE_MAX, _Reduced, _block_tridiag_solve, _result
from momt.io import load_problem
from momt.lindblad import grad_blocks
from conftest import FIXTURES, SZ, rand_density, rand_herm, rand_lindblad, restricted_data


def finite_difference(fun, y, h=1e-6):
    """Central differences of fun over the reduced coordinates y.

    For a scalar fun this is the gradient; for the analytic gradient it is
    the Hessian, column i holding the derivative along y_i.
    """
    cols = []
    for i in range(y.size):
        e = np.zeros(y.size)
        e[i] = h
        cols.append((fun(y + e) - fun(y - e)) / (2 * h))
    return np.array(cols).T


def dense_block_tridiag(diag, off):
    """The dense symmetric matrix with diagonal blocks diag and blocks H[j, j+1] = off[j]."""
    m, d = diag.shape[:2]
    h = np.zeros((m * d, m * d))
    for j in range(m):
        h[j * d:(j + 1) * d, j * d:(j + 1) * d] = diag[j]
    for j in range(m - 1):
        h[j * d:(j + 1) * d, (j + 1) * d:(j + 2) * d] = off[j]
        h[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = off[j].T
    return h


def loop_gram(blocks):
    return np.einsum("kji,kjl->il", np.conj(blocks), blocks)


def loop_intervals(l, nodes, dt):
    """Per-interval reference for the batched sweep, from the single-interval API.

    Returns lists of X_k, grad-X blocks and momenta, and the action terms
    <f_k; X_k> with f_k = (rho_{k+1} - rho_k)/dt.
    """
    xs, vs, ms, actions = [], [], [], []
    for k in range(len(nodes) - 1):
        mid = 0.5 * (nodes[k] + nodes[k + 1])
        f = (nodes[k + 1] - nodes[k]) / dt
        x = solve_potential(WeightedOperator(l, mid), HermitianMatrix(f))
        v = gradient(l, x).blocks
        xs.append(x.mat)
        vs.append(v)
        ms.append(np.einsum("kij,jl->kil", v, mid))
        actions.append(float(np.trace(f.conj().T @ x.mat).real))
    return xs, vs, ms, actions


def loop_value_grad(red, y):
    """Reference for _Reduced.value_grad: interval loop, then node-by-node gradient."""
    xs, vs, _, actions = loop_intervals(red.l, red.nodes(y), red.dt)
    total = sum(red.dt * a for a in actions)
    g = np.zeros(y.size)
    for j in range(1, len(red.line) - 1):
        gj = 2.0 * (xs[j - 1] - xs[j]) \
            - 0.5 * red.dt * (loop_gram(vs[j - 1]) + loop_gram(vs[j]))
        g[(j - 1) * red.d: j * red.d] = red.c.T @ vec_h(gj)
    return total, g


def loop_dual_certificate(l, path):
    """Reference dual: one C_j, one eigvalsh and one kappa_j per interior node in turn."""
    dt = 1.0 / path.K
    xs, rhos = path.potentials, path.densities
    gs = [loop_gram(gradient(l, x).blocks) for x in xs]
    ker = l.kernel_vecs[:, 1:]
    value = np.trace((2.0 * xs[-1] - 0.5 * dt * gs[-1]) @ rhos[-1]).real \
        + np.trace((-2.0 * xs[0] - 0.5 * dt * gs[0]) @ rhos[0]).real
    slacks = []
    for j in range(1, path.K):
        c = 2.0 * (xs[j - 1] - xs[j]) - 0.5 * dt * (gs[j - 1] + gs[j])
        kappa = unvec_h(ker @ (ker.T @ vec_h(c)), l.n)
        low = np.linalg.eigvalsh(c - kappa)[0]
        slacks.append(np.trace((c - kappa) @ rhos[j]).real - low)
        value += low + np.trace(kappa @ rhos[0]).real
    return np.array(slacks), value


def loop_continuity_residual(l, path):
    """Reference continuity residual: one divergence per interval."""
    dt = 1.0 / path.K
    worst = 0.0
    for k in range(path.K):
        m = path.momenta[k]
        rhs = 0.5 * dt * divergence(l, m - np.conj(np.transpose(m, (0, 2, 1)))).mat
        diff = path.densities[k + 1] - path.densities[k] - rhs
        worst = max(worst, float(np.linalg.norm(diff)))
    return worst


def primal_action(path):
    # 2 * sum_k dt F(midpoint, m_k): the squared-distance scale
    return 2.0 * path_cost(path).value


def test_feasibility_gap_values(pauli, sz_only, swap_endpoints):
    r0, r1 = swap_endpoints
    assert feasibility_gap(pauli, r0, r1) < 1e-14
    assert feasibility_gap(sz_only, r0, r1) > 1.0


def test_initial_path_structure(pauli, swap_endpoints):
    r0, r1 = swap_endpoints
    path = initial_path(pauli, r0, r1, 8)
    assert path.K == 8 and len(path.densities) == 9 and len(path.momenta) == 8
    np.testing.assert_allclose(path.grid, np.linspace(0, 1, 9), atol=1e-15)
    for k, rho in enumerate(path.densities):
        np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-14)
        expect = (1 - k / 8) * r0.mat + (k / 8) * r1.mat
        np.testing.assert_allclose(rho, expect, atol=1e-13)
    assert continuity_residual(pauli, path) < 1e-12


def test_endpoint_guard(sz_only, swap_endpoints):
    r0, r1 = swap_endpoints
    with pytest.raises(InfeasibleEndpoints, match="kernel"):
        initial_path(sz_only, r0, r1, 4)
    with pytest.raises(InfeasibleEndpoints):
        optimize_geodesic(sz_only, r0, r1, SolverConfig(K=4))


@pytest.mark.parametrize("scale", [1e10, 1e-10, 1e9, 1e-9])
def test_kernel_rank_threshold_is_relative(three_level_pair, scale):
    # KERNEL_RTOL = 1e-10 is relative to grad's largest singular value: with one
    # operator 1e10 times the other, the smaller one drops out of the rank and
    # rho1 - rho0 gains a kernel component; at 1e9 both count.  Those solves stop
    # at the cone boundary, so only that a result comes back is asserted
    l, r0, r1 = three_level_pair
    scaled = LindbladSet([scale * l.ops[0], l.ops[1]])
    config = SolverConfig(K=8, max_iter=30)
    if abs(np.log10(scale)) >= 10:
        with pytest.raises(InfeasibleEndpoints, match="kernel"):
            optimize_geodesic(scaled, r0, r1, config)
    else:
        assert optimize_geodesic(scaled, r0, r1, config).path.K == 8


def write_problem(path, l, r0, r1, **config):
    """Write (l, r0, r1) and config as a problem file; return its name."""
    path.write_text(json.dumps({
        "lindblad": {"operators": [matrix_to_literal(op) for op in l.ops]},
        "rho0": matrix_to_literal(r0), "rho1": matrix_to_literal(r1), "config": config}))
    return str(path)


def test_connectability_has_one_verdict_at_every_k(pauli, tmp_path, capsys):
    # _endpoint_guard is the one connectability verdict: an identity component
    # of rho1 - rho0 near the 1e-14 floor, which the line's K rates carry with
    # K-dependent rounding, gets the same answer at every K
    r0 = DensityMatrix(np.diag([0.5, 0.5]), strict=True)
    seen = set()
    for eps in np.linspace(1.00e-14, 1.45e-14, 46):
        r1 = DensityMatrix(np.diag([0.5 + 1e-7, 0.5 - 1e-7 + eps]), strict=True)
        verdicts = set()
        for big_k in (8, 16, 32, 64):
            try:
                verdicts.add(optimize_geodesic(pauli, r0, r1, SolverConfig(K=big_k)).converged)
            except InfeasibleEndpoints:
                verdicts.add("infeasible")
        assert len(verdicts) == 1, (eps, verdicts)
        seen |= verdicts
    assert seen == {True, "infeasible"}  # the sweep crosses the floor
    r1 = np.diag([0.5 + 1e-7, 0.5 - 1e-7 + 1e-14])
    assert main(["distance", write_problem(tmp_path / "p.json", pauli, r0, r1, K=64)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("big_k", [0, -1, 2.5])
def test_initial_path_gates_interval_count(pauli, swap_endpoints, big_k):
    with pytest.raises(InvalidConfig) as err:
        initial_path(pauli, *swap_endpoints, big_k)
    assert err.value.field == "K"


@pytest.mark.parametrize("big_k", [1, 2, 8])
def test_initial_path_is_iteration_zero(three_level_pair, pauli, swap_endpoints, big_k):
    # the start is the solver's own path at max_iter = 0, array for array
    for l, r0, r1 in [three_level_pair, (pauli, *swap_endpoints)]:
        start = initial_path(l, r0, r1, big_k)
        solved = optimize_geodesic(l, r0, r1, SolverConfig(K=big_k, max_iter=0)).path
        assert start.K == solved.K == big_k
        for name in ("grid", "densities", "momenta", "potentials"):
            np.testing.assert_array_equal(getattr(start, name), getattr(solved, name))


def test_iteration_zero_point_is_value_grad_at_zero(three_level_pair, pauli, swap_endpoints):
    # the solver starts from the line _Reduced holds; it is the zero move's
    # nodes and gives its point, byte for byte (signed zeros too)
    for l, r0, r1 in [three_level_pair, (pauli, *swap_endpoints), diagonal_kernel_set()]:
        for big_k in (1, 2, 8):
            red = _Reduced(l, r0, r1, big_k, 1e-8)
            zero = np.zeros(red.d * (big_k - 1))
            assert red.line.tobytes() == red.nodes(zero).tobytes()
            start, ref = red.value_grad(red.line), red.value_grad(red.nodes(zero))
            for got, want in zip(start, ref):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_analytic_gradient_matches_finite_differences(pauli, swap_endpoints,
                                                      three_level_pair):
    # at n = 2 T_rho does not depend on rho; the 3-level pair checks the
    # terms of the gradient that come from the weight
    for l, r0, r1 in [(pauli, *swap_endpoints), three_level_pair]:
        red = _Reduced(l, r0, r1, 6, 1e-8)
        rng = np.random.default_rng(0)
        y = 0.02 * rng.standard_normal(red.d * (len(red.line) - 2))
        assert red.feasible(red.nodes(y))
        g = red.value_grad(red.nodes(y))[1]
        fd = finite_difference(lambda z: red.value_grad(red.nodes(z))[0], y)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_analytic_hessian_matches_finite_differences(three_level_pair):
    l, r0, r1 = three_level_pair
    red = _Reduced(l, r0, r1, 6, 1e-8)
    rng = np.random.default_rng(0)
    y = 0.02 * rng.standard_normal(red.d * (len(red.line) - 2))
    assert red.feasible(red.nodes(y))
    _, _, _, us, ainv = red.value_grad(red.nodes(y))
    h = dense_block_tridiag(*red.hessian(us, ainv))
    fd = finite_difference(lambda z: red.value_grad(red.nodes(z))[1], y)
    np.testing.assert_allclose(h, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("m", [1, 2, 7, _DENSE_MAX // 5, _DENSE_MAX // 5 + 1, 40])
def test_block_tridiag_solve_matches_dense(m):
    # m = 1 is the single interior node of a K = 2 path; up to _DENSE_MAX // 5
    # blocks the system is solved dense, above it by block Thomas elimination
    rng = np.random.default_rng(m)
    d = 5
    g = rng.standard_normal((m, d, d))
    diag = g @ np.swapaxes(g, -1, -2) + 10 * d * np.eye(d)
    off = rng.standard_normal((m - 1, d, d))
    full = dense_block_tridiag(diag, off)
    assert np.linalg.eigvalsh(full)[0] > 0
    rhs = rng.standard_normal((m, d))
    x = _block_tridiag_solve(diag, off, rhs)
    np.testing.assert_allclose(x.ravel(), np.linalg.solve(full, rhs.ravel()),
                               rtol=1e-12, atol=1e-14)


def test_block_tridiag_solve_matches_dense_on_an_indefinite_matrix(monkeypatch):
    # D_0 is positive definite, S_1 = D_1 - B_0^T D_0^{-1} B_0 is not: neither
    # branch judges H, each solves it (the Newton loop's slope test judges the
    # direction), and only an exactly singular H (dense) or S_j (Thomas) stops it
    diag = np.array([[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    off = np.array([[[2.0, 0.0], [0.0, 0.5]]])
    assert np.linalg.eigvalsh(diag[0])[0] > 0
    assert np.linalg.eigvalsh(diag[1] - off[0].T @ np.linalg.solve(diag[0], off[0]))[0] < 0
    full = dense_block_tridiag(diag, off)
    assert np.linalg.eigvalsh(full)[0] < 0
    rhs = np.array([[1.0, -2.0], [0.5, 3.0]])
    want = np.linalg.solve(full, rhs.ravel())
    np.testing.assert_allclose(_block_tridiag_solve(diag, off, rhs).ravel(), want,
                               rtol=1e-12, atol=1e-14)
    # zero diagonal blocks and a nonsingular B_0 make a nonsingular H: the
    # dense branch solves it, and an exactly singular H raises
    zeros = np.zeros_like(diag)
    np.testing.assert_allclose(_block_tridiag_solve(zeros, off, rhs).ravel(),
                               np.linalg.solve(dense_block_tridiag(zeros, off), rhs.ravel()),
                               rtol=1e-12, atol=1e-14)
    with pytest.raises(np.linalg.LinAlgError):
        _block_tridiag_solve(zeros, np.zeros_like(off), rhs)
    # above _DENSE_MAX unknowns the Thomas sweep stops at a zero S_0 = D_0
    m = _DENSE_MAX // 2 + 1
    with pytest.raises(np.linalg.LinAlgError):
        _block_tridiag_solve(np.zeros((m, 2, 2)), np.tile(off, (m - 1, 1, 1)), np.ones((m, 2)))
    monkeypatch.setattr(momt.geodesic, "_DENSE_MAX", 0)
    np.testing.assert_allclose(_block_tridiag_solve(diag, off, rhs).ravel(), want,
                               rtol=1e-12, atol=1e-14)


def test_forced_thomas_branch_takes_the_same_newton_steps(three_level_pair, monkeypatch):
    # the qutrit Newton system (7 x 8 unknowns at K = 8) is solved dense; the
    # Thomas sweep, forced, takes the same steps to the same distance
    dense = optimize_geodesic(*three_level_pair, SolverConfig(K=8))
    assert (dense.path.K - 1) * three_level_pair[0].complement_vecs.shape[1] <= _DENSE_MAX
    monkeypatch.setattr(momt.geodesic, "_DENSE_MAX", 0)
    thomas = optimize_geodesic(*three_level_pair, SolverConfig(K=8))
    assert thomas.iterations == dense.iterations == 2
    np.testing.assert_allclose(thomas.distance, dense.distance, rtol=1e-12)


def test_nan_newton_direction_falls_back_to_gradient(three_level_pair, monkeypatch):
    l, r0, r1 = three_level_pair
    ref = optimize_geodesic(l, r0, r1, SolverConfig(K=8))
    hessian, calls = _Reduced.hessian, []

    def nan_first(self, us, ainv):
        diag, off = hessian(self, us, ainv)
        calls.append(1)
        if len(calls) == 1:  # the sweep returns a NaN direction, which the slope test catches
            return np.full_like(diag, np.nan), np.full_like(off, np.nan)
        return diag, off

    monkeypatch.setattr(_Reduced, "hessian", nan_first)
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=8))
    assert len(calls) > 1
    assert res.converged and "boundary-hit" not in res.warnings
    np.testing.assert_allclose(res.distance, ref.distance, rtol=1e-9)


def _singular_solve(*args):
    raise np.linalg.LinAlgError("Schur complement is not positive definite")


def _nan_solve(diag, off, rhs):
    return np.full_like(rhs, np.nan)


def _negated_solve(diag, off, rhs):
    return _block_tridiag_solve(-diag, -off, rhs)


@pytest.mark.parametrize("solve", [_singular_solve, _nan_solve, _negated_solve],
                         ids=["linalg-error", "nan", "negated"])
def test_failed_newton_solve_steps_along_minus_gradient(three_level_pair, monkeypatch, solve):
    # a Newton system that cannot be solved (LinAlgError), yields a NaN
    # direction, or is negative definite (the real sweep on -H gives an
    # ascent direction) falls back to -g, the last two by the slope test:
    # the iterates still descend from the line, certified, but at gradient speed
    l, r0, r1 = three_level_pair
    line = optimize_geodesic(l, r0, r1, SolverConfig(K=8, max_iter=0))
    monkeypatch.setattr(momt.geodesic, "_block_tridiag_solve", solve)
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=8, max_iter=3))
    assert res.iterations == 3 and not res.converged and res.warnings == []
    assert res.primal_cost < line.primal_cost
    assert res.gap >= 0


def test_line_search_that_finds_no_feasible_trial_stops_at_boundary(three_level_pair,
                                                                    monkeypatch, capsys):
    l, r0, r1 = three_level_pair
    line = initial_path(l, r0, r1, 8)
    monkeypatch.setattr(_Reduced, "feasible", lambda self, nodes: False)
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=8))
    assert res.warnings == ["boundary-hit"] and res.iterations == 0 and not res.converged
    np.testing.assert_array_equal(res.path.densities, line.densities)
    # the CLI reports the stop and exits 3, "did not converge"
    assert main(["distance", str(FIXTURES / "flat_cost_qutrit21.json"), "--json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert [w["code"] for w in report["warnings"]] == ["boundary-hit"]


def test_iteration_cap_stops_unconverged_without_warning(three_level_pair, tmp_path, capsys):
    # three_level_pair takes 2 Newton steps at K = 8, so max_iter = 1 stops on the cap
    l, r0, r1 = three_level_pair
    line = optimize_geodesic(l, r0, r1, SolverConfig(K=8, max_iter=0))
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=8, max_iter=1))
    assert res.iterations == 1 and not res.converged and res.warnings == []
    assert 0 <= res.gap < line.gap
    # the CLI reports the stop and exits 3, "did not converge"
    problem = write_problem(tmp_path / "capped.json", l, r0, r1, K=8, max_iter=1)
    assert main(["distance", problem, "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["converged"] is False


def test_continuity_residual_matches_interval_loop(three_level_pair, pauli, swap_endpoints):
    l, r0, r1 = three_level_pair
    paths = [(l, optimize_geodesic(l, r0, r1, SolverConfig(K=8)).path),
             (l, initial_path(l, r0, r1, 5)),
             (pauli, optimize_geodesic(pauli, *swap_endpoints, SolverConfig(K=8)).path)]
    for lset, path in paths:
        assert abs(continuity_residual(lset, path) - loop_continuity_residual(lset, path)) \
            <= 1e-15


def six_level_set():
    """Random n = 6 operators and endpoints: a larger complement (d = 35) than the pair."""
    rng = np.random.default_rng(6)
    return rand_lindblad(rng, 2, 6), rand_density(rng, 6, 0.1), rand_density(rng, 6, 0.1)


def test_batched_sweep_matches_interval_loop(three_level_pair, pauli, swap_endpoints):
    for l, r0, r1 in [three_level_pair, six_level_set(), (pauli, *swap_endpoints)]:
        red = _Reduced(l, r0, r1, 6, 1e-8)
        rng = np.random.default_rng(1)
        y = 0.02 * rng.standard_normal(red.d * (len(red.line) - 2))
        assert red.feasible(red.nodes(y))
        total, g, xcs, _, _ = red.value_grad(red.nodes(y))
        ref_total, ref_g = loop_value_grad(red, y)
        ref_xs, _, ref_ms, _ = loop_intervals(l, red.nodes(y), red.dt)
        np.testing.assert_allclose(total, ref_total, rtol=1e-12)
        np.testing.assert_allclose(g, ref_g, rtol=1e-12, atol=1e-12 * np.abs(ref_g).max())
        # the returned path's X_k = unvec_h(C x_k) and momenta grad(X_k) mid_k
        path = _result(l, red.nodes(y), xcs, total, iterations=0, converged=False,
                       grad_norm=0.0, trace_drift=0.0).path
        for got, ref in [(path.potentials, ref_xs), (path.momenta, ref_ms)]:
            np.testing.assert_allclose(np.array(got), np.array(ref),
                                       atol=1e-12 * np.abs(np.array(ref)).max())
        # block by block, m_k is grad(X_k) mid_k of the path's own X_k
        for k, x in enumerate(path.potentials):
            ref_m = gradient(l, x).blocks @ (0.5 * (path.densities[k] + path.densities[k + 1]))
            np.testing.assert_allclose(path.momenta[k], ref_m, rtol=0,
                                       atol=1e-14 * np.abs(ref_m).max())

        slacks, value = dual_certificate(l, path)
        ref_slacks, ref_value = loop_dual_certificate(l, path)
        np.testing.assert_allclose(value, ref_value, rtol=1e-12)
        np.testing.assert_allclose(slacks, ref_slacks, rtol=1e-12)


def test_coordinate_trial_matches_solve_potentials_on_nodes(three_level_pair):
    # the trial assembles its systems from the coordinates of nodes(y); the
    # reference assembles them from the matrix midpoints and rates of that
    # stack, solves them and forms E and g from the matrices X_k
    rng = np.random.default_rng(4)
    four = rand_lindblad(rng, 2, 4), rand_density(rng, 4, 0.1), rand_density(rng, 4, 0.1)
    for l, r0, r1 in [three_level_pair, four]:
        red = _Reduced(l, r0, r1, 6, 1e-8)
        y = 0.02 * np.random.default_rng(3).standard_normal(red.d * (len(red.line) - 2))
        nodes = red.nodes(y)
        assert red.feasible(nodes)
        fs = (nodes[1:] - nodes[:-1]) / red.dt
        ref_tcs, ref_fcs = restricted_data(l, 0.5 * (nodes[:-1] + nodes[1:]), fs)
        ref_xs, _ = solve_restricted(ref_tcs, ref_fcs)
        pots = unvec_h(ref_xs @ red.c.T, l.n)
        gs = np.array([loop_gram(v) for v in grad_blocks(l, pots)])
        ref_g = vec_h(2.0 * (pots[:-1] - pots[1:]) - 0.5 * red.dt * (gs[:-1] + gs[1:])) @ red.c
        ref_total = red.dt * np.sum(vec_h(fs) * vec_h(pots))
        total, g, xs, _, ainv = red.value_grad(nodes)
        for got, ref in [(xs, ref_xs), (g.reshape(ref_g.shape), ref_g)]:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        np.testing.assert_allclose(total, ref_total, rtol=1e-12)
        np.testing.assert_allclose(ainv @ ref_tcs, np.broadcast_to(np.eye(red.d), ref_tcs.shape),
                                   rtol=0, atol=1e-12)


def test_cone_test_matches_eigenvalue_floor(three_level_pair):
    l, r0, r1 = three_level_pair
    red = _Reduced(l, r0, r1, 6, 0.05)
    rng = np.random.default_rng(5)
    verdicts = []
    for scale in np.linspace(0.0, 0.2, 41):
        nodes = red.nodes(scale * rng.standard_normal(red.d * (len(red.line) - 2)))
        stack = np.concatenate([nodes[1:-1], 0.5 * (nodes[:-1] + nodes[1:])])
        verdicts.append(bool(np.all(np.linalg.eigvalsh(stack)[:, 0] > red.floor)))
        assert red.feasible(nodes) == verdicts[-1]
    assert any(verdicts) and not all(verdicts)
    # Cholesky does not stop on NaN, so the factor is checked as well
    nodes = red.nodes(np.zeros(red.d * (len(red.line) - 2)))
    assert red.feasible(nodes)
    for i, j in [(0, 0), (1, 0), (2, 2)]:
        broken = nodes.copy()
        broken[3, i, j] = broken[3, j, i] = np.nan
        assert not red.feasible(broken)


@pytest.mark.parametrize("key, value", [
    ("K", 0), ("K", -3), ("max_iter", -1), ("grad_tol", 0.0), ("grad_tol", float("nan")),
    ("eps_pd", EPS_PD / 2), ("eps_pd", float("inf")), ("eps_pd", float("nan")),
    ("K", 2.5), ("K", "8"), ("K", True), ("max_iter", 10.0), ("max_iter", False),
    ("grad_tol", "1e-7"), ("grad_tol", True), ("eps_pd", None), ("K", 2 ** 16 + 1),
    pytest.param("grad_tol", 10 ** 400, id="grad_tol-10**400"),
    pytest.param("eps_pd", 10 ** 400, id="eps_pd-10**400"),
])
def test_solver_config_rejects_out_of_range(key, value):
    with pytest.raises(InvalidConfig, match=key) as info:
        SolverConfig(**{key: value})
    assert info.value.field == key and isinstance(info.value, ValueError)
    with pytest.raises(InvalidConfig):
        replace(SolverConfig(), **{key: value})
    SolverConfig(K=1, max_iter=0, eps_pd=EPS_PD)  # the bounds themselves are admissible
    SolverConfig(K=2 ** 16)
    SolverConfig(grad_tol=2 ** 64, eps_pd=2 ** 64)  # finite as floats


@pytest.mark.parametrize("key, value", [("K", 0), ("grad_tol", float("nan")), ("eps_pd", -1.0)])
def test_solver_config_fields_are_frozen(key, value):
    # a field assigned after the range gate ran would reach the solver unchecked
    cfg = SolverConfig(K=8)
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, key, value)
    assert cfg == SolverConfig(K=8)
    with pytest.raises(InvalidConfig, match=key):
        replace(cfg, **{key: value})


def move_coupling(l, xs, dt):
    """Reference coupling M_k[a, b] = dt <h_a; T(h_b) X_k>, h_a = unvec_h(C e_a).

    M_k[a, b] = dt Re tr(h_b S_ak) with S_ak = sum_j (grad_j h_a)^* grad_j X_k,
    since <Z; T(mu) X> is Re tr(mu sum_j (grad_j Z)^* grad_j X).
    """
    n, c = l.n, l.complement_vecs
    d, big_k = c.shape[1], xs.shape[0]
    moves = unvec_h(c.T, n)
    adj = np.conj(grad_blocks(l, moves)).transpose(0, 3, 1, 2).reshape(d * n, -1)
    cols = np.conj(moves).reshape(d, n * n).T
    s = adj @ grad_blocks(l, xs).reshape(big_k, -1, n)
    return dt * (s.reshape(big_k, d, n * n) @ cols).real


def test_couplings_match_gram_and_move_formula(three_level_pair):
    for l, r0, r1 in [three_level_pair, six_level_set()]:
        red = _Reduced(l, r0, r1, 6, 1e-8)
        y = 0.02 * np.random.default_rng(2).standard_normal(red.d * (len(red.line) - 2))
        _, _, xcs, us, _ = red.value_grad(red.nodes(y))
        xs = unvec_h(xcs @ red.c.T, l.n)
        ref = vec_h(np.array([loop_gram(v) for v in grad_blocks(l, xs)])) @ red.c
        np.testing.assert_allclose((us @ xcs[..., None])[..., 0], ref,
                                   rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        ref = move_coupling(l, xs, red.dt)
        np.testing.assert_allclose(red.dt * np.swapaxes(us, -1, -2), ref,
                                   rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_solve_assembles_no_weighted_matrix(three_level_pair, monkeypatch):
    l, r0, r1 = three_level_pair
    ref = optimize_geodesic(l, r0, r1, SolverConfig(K=8))

    def refuse(*args):
        raise AssertionError("the solve built an n^2 x n^2 WeightedOperator")

    monkeypatch.setattr(momt.elliptic.WeightedOperator, "__init__", refuse)
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=8))
    assert res.converged and res.iterations == ref.iterations
    np.testing.assert_allclose(res.distance, ref.distance, rtol=1e-13)


def test_solve_runs_one_epilogue_pass(pauli, swap_endpoints, three_level_pair, monkeypatch):
    # the fixed cost of a solve, counted rather than timed: the returned path's
    # grad(X_k) is formed once for its momenta, its certificate and its
    # Hamiltonian values, and a checked endpoint's spectrum is not recomputed
    grads, spectra = [], []
    grad_blocks_, eigvalsh = momt.geodesic.grad_blocks, np.linalg.eigvalsh
    monkeypatch.setattr(momt.geodesic, "grad_blocks",
                        lambda *args: grads.append(1) or grad_blocks_(*args))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args: spectra.append(a) or eigvalsh(a, *args))
    for l, r0, r1 in [(pauli, *swap_endpoints), three_level_pair]:
        ends = DensityMatrix(r0.mat), DensityMatrix(r1.mat)  # spectra computed here
        for _ in range(2):
            grads.clear()
            spectra.clear()
            optimize_geodesic(l, *ends, SolverConfig(K=8))
            assert len(grads) == 1
            assert not [a for a in spectra for end in ends if a is end.mat]


def _count_linalg(monkeypatch, names):
    """A dict that counts the calls of each np.linalg function named."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _f=getattr(np.linalg, name), _name=name):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_solve_factors_each_restricted_system_once(three_level_pair, monkeypatch):
    # the weights reach solve_restricted gated (_endpoint_guard, _Reduced.feasible),
    # so each potential solve is one batched inverse and no Cholesky, and the
    # Newton system is one dense solve: in two Newton steps the Cholesky calls are
    # the two floor tests, the inverses the line's and two trials', one solve a step
    counts = _count_linalg(monkeypatch, ("cholesky", "inv", "solve"))
    assert optimize_geodesic(*three_level_pair, SolverConfig(K=8)).iterations == 2
    assert counts == {"cholesky": 2, "inv": 3, "solve": 2}


def test_zero_iteration_solve_makes_no_newton_solve(pauli, swap_endpoints, monkeypatch):
    counts = _count_linalg(monkeypatch, ("solve",))
    assert optimize_geodesic(pauli, *swap_endpoints, SolverConfig(K=32)).iterations == 0
    assert counts == {"solve": 0}


def test_zero_iteration_solve_starts_at_the_stored_line(pauli, swap_endpoints,
                                                       three_level_pair, monkeypatch):
    # iteration 0 is one value_grad of _Reduced's line, so a solve that stops
    # there builds no nodes from y; a Newton trial does
    calls = []

    def counted(name):
        method = getattr(_Reduced, name)
        return lambda self, y: calls.append(name) or method(self, y)

    for name in ("nodes", "value_grad"):
        monkeypatch.setattr(_Reduced, name, counted(name))
    for l, r0, r1, cfg in [(pauli, *swap_endpoints, SolverConfig(K=8)),
                           (*three_level_pair, SolverConfig(K=8, max_iter=0))]:
        assert optimize_geodesic(l, r0, r1, cfg).iterations == 0
        assert calls == ["value_grad"]
        calls.clear()
    assert optimize_geodesic(*three_level_pair, SolverConfig(K=8)).iterations > 0
    assert "nodes" in calls


def test_weight_tensors_cached_and_read_only(three_level_pair):
    ops, r0, r1 = three_level_pair[0].ops, *three_level_pair[1:]
    l = LindbladSet(list(ops))
    assert "weight_tensor" not in vars(l)  # built on first use, not with the set
    optimize_geodesic(l, r0, r1, SolverConfig(K=4))
    tensors = vars(l)["weight_tensor"], vars(l)["complement_tensor"]
    optimize_geodesic(l, r1, r0, SolverConfig(K=8))
    assert vars(l)["weight_tensor"] is tensors[0]
    assert vars(l)["complement_tensor"] is tensors[1]
    for t in tensors:
        with pytest.raises(ValueError):
            t[0, 0, 0] = 1.0


def test_solver_on_swap_instance(pauli, swap_endpoints, frozen_fixture):
    r0, r1 = swap_endpoints
    res = optimize_geodesic(pauli, r0, r1, SolverConfig(K=8))
    assert res.converged
    ref = frozen_fixture["grids"]["8"]["w2_squared"]
    np.testing.assert_allclose(res.primal_cost, ref, rtol=1e-6)
    np.testing.assert_allclose(res.distance, np.sqrt(ref), rtol=1e-6)
    assert res.trace_drift <= 1e-12
    assert continuity_residual(pauli, res.path) < 1e-9
    assert res.gap >= -1e-9
    assert res.gap / res.primal_cost <= 1e-3


@pytest.mark.parametrize("big_k", [8, 16, 32])
def test_newton_iterations_do_not_grow_with_k(three_level_pair, big_k):
    l, r0, r1 = three_level_pair
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=big_k))
    assert res.converged
    assert res.iterations <= 25


@pytest.mark.parametrize("big_k", [8, 32])
def test_certificate_does_not_depend_on_grad_tol(three_level_pair, big_k):
    # the gap measures where the descent stopped; Newton converges
    # quadratically, so both tolerances stop at the same 2-step iterate and
    # certify the same gap
    l, r0, r1 = three_level_pair
    gaps = []
    for tol in (1e-7, 1e-10):
        res = optimize_geodesic(l, r0, r1, SolverConfig(K=big_k, grad_tol=tol))
        assert res.converged
        gaps.append(res.gap / res.primal_cost)
    np.testing.assert_allclose(gaps[0], gaps[1], rtol=1e-9)


@pytest.mark.parametrize("name", ["flat_cost_qutrit21.json", "flat_cost_qutrit139.json"])
def test_flat_cost_steps_do_not_stall(name):
    # Entries 21 and 139 of the qutrit benchmark generator.  Under L-BFGS
    # their cost went flat to rounding while |g| was still above tolerance;
    # with the Armijo test alone the line search then accepted only steps
    # of ~1e-11 that change nothing, and both ran to max_iter = 500.  Newton
    # steps converge on both in 3 iterations without reaching that regime
    # (a flat-cost acceptance rule accepted no step over the qutrit pool and
    # was removed), so the Armijo test alone accepts every step.
    spec = load_problem(str(FIXTURES / name))
    res = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config)
    assert res.converged
    assert res.iterations <= 400


def rebuild_path(l, nodes, big_k):
    """DiscretePath for arbitrary node matrices, intervals re-solved."""
    dt = 1.0 / big_k
    xs, _, ms, actions = loop_intervals(l, nodes, dt)
    path = DiscretePath(K=big_k, densities=nodes, momenta=np.array(ms), potentials=np.array(xs))
    return path, sum(dt * a for a in actions)


def test_weak_duality_every_iterate(three_level_pair):
    # an instance where the optimizer genuinely iterates (at n = 2 the
    # linear path is already optimal for every Hermitian operator set)
    l, r0, r1 = three_level_pair
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=4))
    assert res.iterations > 0
    for k in range(res.iterations + 1):  # iterate k is the path of the max_iter = k solve
        nodes = optimize_geodesic(l, r0, r1, SolverConfig(K=4, max_iter=k)).path.densities
        path, primal = rebuild_path(l, nodes, 4)
        _, dual_val = dual_certificate(l, path)
        assert dual_val <= primal + 1e-9


@pytest.mark.parametrize("big_k", [8, 16])
def test_max_iter_k_solve_is_iterate_k(three_level_pair, big_k):
    # the loop stops before step k + 1 and certifies iterate k, so the solve capped
    # at the default solve's own iteration count is that solve, bit for bit, and the
    # capped solves' costs descend
    l, r0, r1 = three_level_pair
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=big_k))
    runs = [optimize_geodesic(l, r0, r1, SolverConfig(K=big_k, max_iter=k))
            for k in range(res.iterations + 1)]
    last = runs[-1]
    assert res.iterations > 0 and last.iterations == res.iterations
    assert (last.distance, last.dual_value, last.gap, last.converged, last.hamiltonian) \
        == (res.distance, res.dual_value, res.gap, res.converged, res.hamiltonian)
    for name in ("densities", "momenta", "potentials"):
        assert getattr(last.path, name).tobytes() == getattr(res.path, name).tobytes()
    costs = [run.primal_cost for run in runs]
    assert all(later <= earlier for earlier, later in zip(costs, costs[1:]))


def test_dual_certificate_weak_duality_on_random_potentials(three_level_pair):
    # d(X) bounds the action for every Hermitian X, not only the solver's:
    # its potentials perturbed at scales 1e-6 to 1, then unrelated stacks
    l, r0, r1 = three_level_pair
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=8))
    rng = np.random.default_rng(9)
    draws = [np.array([rand_herm(rng, l.n) for _ in range(8)]) for _ in range(200)]
    scales = np.repeat(np.logspace(-6, 0, 16), 10)
    stacks = [res.path.potentials + s * x for s, x in zip(scales, draws)] + draws[160:]
    assert len(stacks) == 200
    for pots in stacks:
        value = dual_certificate(l, replace(res.path, potentials=pots))[1]
        assert value <= res.primal_cost + 1e-12 * abs(res.primal_cost)


def test_dual_certificate_closes_at_the_optimum(three_level_pair):
    l, r0, r1 = three_level_pair
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=8))
    assert res.converged and res.iterations > 0
    assert 0.0 <= res.gap <= 1e-8 * res.primal_cost
    # at the solver's potentials the slacks sum to the gap
    slacks, _ = dual_certificate(l, res.path)
    assert slacks.shape == (7,)
    np.testing.assert_allclose(slacks.sum(), res.gap, rtol=0, atol=1e-12 * res.primal_cost)
    start = initial_path(l, r0, r1, 8)
    _, dual_value = dual_certificate(l, start)
    primal = primal_action(start)
    assert (primal - dual_value) / primal > 1e-2


def test_result_certificate_is_dual_certificate(pauli, swap_endpoints, three_level_pair):
    # the solve's certificate reads the epilogue's Gram matrices; the public
    # evaluation at the returned potentials forms its own and agrees bitwise
    l, r0, _ = three_level_pair
    for lset, a, b in [three_level_pair, (pauli, *swap_endpoints), (l, r0, r0)]:
        res = optimize_geodesic(lset, a, b, SolverConfig(K=8))
        assert res.dual_value == dual_certificate(lset, res.path)[1]


def boundary_qutrit():
    """Two random 3-level operators and endpoints with smallest eigenvalues
    2.5e-4 and 1.1e-4; the optimum lies on the boundary of the cone."""
    rng = np.random.default_rng(7)
    l = LindbladSet([rand_herm(rng, 3) for _ in range(2)])

    def endpoint(floor):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        lam = rng.dirichlet(np.ones(3))
        lam[0] = floor
        return DensityMatrix((q * (lam / lam.sum())) @ q.conj().T, strict=True)

    for _ in range(6):
        endpoint(1e-2)
    return l, endpoint(1e-4), endpoint(1e-4)


def test_hamiltonian_values_near_the_boundary():
    # The values are (1/2) Re tr(mid_k G_k), with no inverse.  Here the
    # midpoints' smallest eigenvalue falls to 2.9e-4, so the inverse-based
    # kinetic_values reference carries a rounding error of about
    # cond(mid_k) eps = 3.3e3 * 2.2e-16 = 7e-13 relative; 1e-12 bounds it.
    l, r0, r1 = boundary_qutrit()
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=16, max_iter=100))
    mids = 0.5 * (res.path.densities[:-1] + res.path.densities[1:])
    assert np.linalg.eigvalsh(mids)[:, 0].min() < 1e-3
    np.testing.assert_allclose(res.hamiltonian, kinetic_values(mids, res.path.momenta),
                               rtol=1e-12)


def diagonal_kernel_set():
    """{diag(1, 0, -1)}: the diagonal matrices form a 3-dimensional kernel.

    Endpoints share their diagonal, so they are connectable; at the
    optimum every C_j lies in the kernel and its non-identity part kappa_j
    does not vanish.
    """
    rng = np.random.default_rng(4)
    r0 = rand_density(rng, 3, 0.1)
    delta = rand_herm(rng, 3)
    delta -= np.diag(np.diag(delta))
    r1 = DensityMatrix(r0.mat + 0.05 * delta / np.linalg.norm(delta), strict=True)
    return LindbladSet([np.diag([1.0, 0.0, -1.0]).astype(complex)]), r0, r1


def test_dual_certificate_with_larger_kernel(sz_only):
    r0 = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
    r1 = DensityMatrix(r0.mat + np.array([[0.0, -0.1], [-0.1, 0.0]], dtype=complex))
    for l, a, b in [(sz_only, r0, r1), diagonal_kernel_set()]:
        assert l.kernel_dim > 1
        res = optimize_geodesic(l, a, b, SolverConfig(K=8))
        assert res.converged
        assert -1e-12 <= res.gap <= 1e-10 * res.primal_cost
        slacks, _ = dual_certificate(l, res.path)
        assert np.all(slacks >= -1e-12)


def test_dual_certificate_matches_node_loop_for_each_kernel_dim(three_level_pair, sz_only):
    # the non-identity kernel projection runs only when kernel_dim > 1; the
    # reference projects every node in turn, whatever the kernel
    r0 = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
    r1 = DensityMatrix(r0.mat + np.array([[0.0, -0.1], [-0.1, 0.0]], dtype=complex))
    for (l, a, b), kernel_dim in [(three_level_pair, 1), ((sz_only, r0, r1), 2),
                                  (diagonal_kernel_set(), 3)]:
        assert l.kernel_dim == kernel_dim
        for path in (initial_path(l, a, b, 8), optimize_geodesic(l, a, b, SolverConfig(K=8)).path):
            slacks, value = dual_certificate(l, path)
            ref_slacks, ref_value = loop_dual_certificate(l, path)
            np.testing.assert_allclose(value, ref_value, rtol=1e-12)
            np.testing.assert_allclose(slacks, ref_slacks, rtol=1e-12, atol=1e-12 * abs(ref_value))


def test_hamiltonian_profile_constant_speed(pauli, swap_endpoints):
    r0, r1 = swap_endpoints
    res = optimize_geodesic(pauli, r0, r1, SolverConfig(K=16))
    prof = hamiltonian_profile(res)
    assert prof.rel_std <= 1e-6
    assert prof.speed_ok
    # profile values are the interval kinetic terms
    for k, val in enumerate(res.hamiltonian):
        mid = 0.5 * (res.path.densities[k] + res.path.densities[k + 1])
        np.testing.assert_allclose(val, kinetic(mid, res.path.momenta[k]).value,
                                   rtol=1e-10)
    # and the action equals 2 * dt * sum of values
    np.testing.assert_allclose(res.primal_cost,
                               2.0 * np.mean(res.hamiltonian), rtol=1e-12)


def window_speed_ok(result):
    """Reference speed_ok: every sub-window [t_i, t_j]'s reparametrized action
    (t_j - t_i) * sum(dt 2 F_k) against ((t_j - t_i) distance)^2, in O(K^2)."""
    vals, dt = np.asarray(result.hamiltonian), 1.0 / result.path.K
    rel_std = np.std(vals) / np.mean(vals)
    cum = np.concatenate([[0.0], np.cumsum(2.0 * dt * vals)])
    i, j = np.triu_indices(result.path.K + 1, 1)
    width = (j - i) * dt
    target = width ** 2 * result.primal_cost
    err = np.abs(width * (cum[j] - cum[i]) - target) / target
    return not np.any(err > max(10.0 * rel_std, 1e-9))


def test_hamiltonian_profile_matches_window_formula(pauli, swap_endpoints, three_level_pair):
    results = [optimize_geodesic(*three_level_pair, SolverConfig(K=big_k, max_iter=it))
               for big_k in (4, 16) for it in (0, 1, 500)]
    results.append(optimize_geodesic(*boundary_qutrit(), SolverConfig(K=16, max_iter=100)))
    swap = optimize_geodesic(pauli, *swap_endpoints, SolverConfig(K=16))
    # constant values against a squared distance off by s, either side of the 1e-9 floor
    results += [replace(swap, primal_cost=swap.primal_cost * (1.0 + s))
                for s in (5e-10, -5e-10, 2e-9, -2e-9, 1e-6)]
    # one interval 2 % fast: beyond 10 rel_std only once K > 100
    for big_k in (16, 128):
        res = optimize_geodesic(pauli, *swap_endpoints, SolverConfig(K=big_k))
        spike = np.array(res.hamiltonian)
        spike[big_k // 3] *= 1.02
        results.append(replace(res, hamiltonian=spike.tolist()))
    verdicts = [hamiltonian_profile(res).speed_ok for res in results]
    assert verdicts == [window_speed_ok(res) for res in results]
    assert True in verdicts and False in verdicts


def test_result_is_raw_stacks(three_level_pair):
    # a solved pair and coincident endpoints (the constant-path route)
    l, r0, r1 = three_level_pair
    big_k, n = 8, l.n
    for end in (r1, r0):
        res = optimize_geodesic(l, r0, end, SolverConfig(K=big_k))
        path = res.path
        for stack, shape in [(path.densities, (big_k + 1, n, n)),
                             (path.momenta, (big_k, l.count, n, n)),
                             (path.potentials, (big_k, n, n))]:
            assert isinstance(stack, np.ndarray) and stack.shape == shape


def test_identical_endpoints_zero(pauli, three_level_pair, sz_only):
    # an empty complement (d = 0) and a kernel of dimension 2 take the same route
    rng = np.random.default_rng(2)
    for l, rho in [(pauli, rand_density(rng, 2)), three_level_pair[:2],
                   (LindbladSet([np.eye(2)]), rand_density(rng, 2)),
                   (sz_only, rand_density(rng, 2))]:
        res = optimize_geodesic(l, rho, rho, SolverConfig(K=4))
        assert res.distance == 0.0
        assert res.converged
        assert res.iterations == 0 and res.trace_drift == 0.0
        assert res.hamiltonian == [0.0] * 4
        assert res.gap == -res.dual_value
        # exact +0.0 entries, so an exported trace prints no "-0.0"
        for stack in (res.path.potentials, res.path.momenta):
            assert not (np.signbit(stack.real).any() or np.signbit(stack.imag).any())


def test_rel_gap_is_the_gap_over_the_cost(pauli, swap_endpoints, three_level_pair):
    # reports and momt verify read this one rule: gap / primal_cost, 0 at a cost <= 1e-15
    res = optimize_geodesic(*three_level_pair, SolverConfig(K=8))
    assert res.primal_cost > 1e-15 and res.rel_gap == res.gap / res.primal_cost
    assert replace(res, primal_cost=1e-15).rel_gap == 0.0
    same = optimize_geodesic(pauli, swap_endpoints[0], swap_endpoints[0], SolverConfig(K=4))
    assert same.rel_gap == 0.0


def test_symmetry_of_distance(pauli):
    rng = np.random.default_rng(3)
    r0, r1 = rand_density(rng, 2), rand_density(rng, 2)
    cfg = SolverConfig(K=8)
    d01 = optimize_geodesic(pauli, r0, r1, cfg).distance
    d10 = optimize_geodesic(pauli, r1, r0, cfg).distance
    np.testing.assert_allclose(d01, d10, rtol=1e-3)


def test_refinement_decreases_action(pauli, swap_endpoints):
    r0, r1 = swap_endpoints
    costs = [optimize_geodesic(pauli, r0, r1, SolverConfig(K=k)).primal_cost
             for k in (4, 8)]
    assert costs[0] >= costs[1] - 1e-9


def test_single_interval_solver(pauli, swap_endpoints):
    r0, r1 = swap_endpoints
    res = optimize_geodesic(pauli, r0, r1, SolverConfig(K=1))
    assert res.converged and res.iterations == 0
    assert res.path.K == 1
    assert res.gap >= -1e-9


def test_kernel_dim_warning(sz_only):
    # connectable endpoints under a deficient set still carry the warning
    r0 = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
    delta = np.array([[0.0, -0.1], [-0.1, 0.0]], dtype=complex)
    r1 = DensityMatrix(r0.mat + delta)
    assert feasibility_gap(sz_only, r0, r1) < 1e-14
    res = optimize_geodesic(sz_only, r0, r1, SolverConfig(K=4))
    assert "kernel-dim" in res.warnings
