import numpy as np
import pytest

import momt.elliptic
from momt import (
    DensityMatrix,
    DiscretePath,
    HermitianMatrix,
    InfeasibleEndpoints,
    LindbladSet,
    SolverConfig,
    WeightedOperator,
    continuity_residual,
    divergence,
    dual_certificate,
    feasibility_gap,
    gradient,
    hamiltonian_profile,
    hj_residuals,
    initial_path,
    inner_product,
    kinetic,
    optimize_geodesic,
    path_cost,
    solve_potential,
    unvec_h,
    vec_h,
)
from momt.geodesic import _Reduced, _accept_step, _block_tridiag_solve, _discrete_path
from momt.io import load_problem
from momt.lindblad import grad_blocks
from conftest import FIXTURES, SZ, rand_density, rand_lindblad


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
    for j in range(1, red.big_k):
        gj = 2.0 * (xs[j - 1] - xs[j]) \
            - 0.5 * red.dt * (loop_gram(vs[j - 1]) + loop_gram(vs[j]))
        g[(j - 1) * red.d: j * red.d] = red.c.T @ vec_h(gj)
    return total, g


def loop_dual_certificate(l, path):
    """Reference sweep: shift each right node by its interval's top HJ eigenvalue in turn."""
    dt = 1.0 / path.K
    xs = list(path.potentials)
    lam = [0.5 * (3.0 * xs[0] - xs[1])]
    lam += [0.5 * (xs[k - 1] + xs[k]) for k in range(1, path.K)]
    lam.append(0.5 * (3.0 * xs[-1] - xs[-2]))
    for k in range(path.K):
        mid = 0.5 * (lam[k] + lam[k + 1])
        res = (lam[k + 1] - lam[k]) / dt + 0.5 * loop_gram(gradient(l, mid).blocks)
        lam[k + 1] = lam[k + 1] - dt * float(np.linalg.eigvalsh(res)[-1]) * np.eye(l.n)
    bracket = float(np.trace(lam[-1] @ path.densities[-1]).real) \
        - float(np.trace(lam[0] @ path.densities[0]).real)
    return lam, 2.0 * bracket


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


def test_analytic_gradient_matches_finite_differences(pauli, swap_endpoints,
                                                      three_level_pair):
    # at n = 2 T_rho does not depend on rho; the 3-level pair checks the
    # terms of the gradient that come from the weight
    for l, r0, r1 in [(pauli, *swap_endpoints), three_level_pair]:
        red = _Reduced(l, r0, r1, 6, 1e-8)
        rng = np.random.default_rng(0)
        y = 0.02 * rng.standard_normal(red.d * (red.big_k - 1))
        assert red.feasible(red.nodes(y))
        g = red.value_grad(red.nodes(y))[1]
        fd = finite_difference(lambda z: red.value_grad(red.nodes(z))[0], y)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_analytic_hessian_matches_finite_differences(three_level_pair):
    l, r0, r1 = three_level_pair
    red = _Reduced(l, r0, r1, 6, 1e-8)
    rng = np.random.default_rng(0)
    y = 0.02 * rng.standard_normal(red.d * (red.big_k - 1))
    assert red.feasible(red.nodes(y))
    _, _, _, us, tcs = red.value_grad(red.nodes(y))
    h = dense_block_tridiag(*red.hessian(us, tcs))
    fd = finite_difference(lambda z: red.value_grad(red.nodes(z))[1], y)
    np.testing.assert_allclose(h, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("m", [1, 2, 7])
def test_block_tridiag_solve_matches_dense(m):
    # m = 1 is the single interior node of a K = 2 path
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
    with pytest.raises(np.linalg.LinAlgError):
        _block_tridiag_solve(-diag, -off, rhs)


def test_block_tridiag_solve_gates_later_schur_complement():
    # D_0 is positive definite, S_1 = D_1 - B_0^T D_0^{-1} B_0 is not; the
    # batched Cholesky after the sweep must still reject H
    diag = np.array([[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    off = np.array([[[2.0, 0.0], [0.0, 0.5]]])
    assert np.linalg.eigvalsh(diag[0])[0] > 0
    assert np.linalg.eigvalsh(diag[1] - off[0].T @ np.linalg.solve(diag[0], off[0]))[0] < 0
    assert np.linalg.eigvalsh(dense_block_tridiag(diag, off))[0] < 0
    with pytest.raises(np.linalg.LinAlgError):
        _block_tridiag_solve(diag, off, np.ones((2, 2)))


def test_nan_newton_direction_falls_back_to_gradient(three_level_pair, monkeypatch):
    l, r0, r1 = three_level_pair
    ref = optimize_geodesic(l, r0, r1, SolverConfig(K=8))
    hessian, calls = _Reduced.hessian, []

    def nan_first(self, xs, tcs):
        diag, off = hessian(self, xs, tcs)
        calls.append(1)
        if len(calls) == 1:  # NaN blocks pass the batched Cholesky unnoticed
            return np.full_like(diag, np.nan), np.full_like(off, np.nan)
        return diag, off

    monkeypatch.setattr(_Reduced, "hessian", nan_first)
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=8))
    assert len(calls) > 1
    assert res.converged and "boundary-hit" not in res.warnings
    np.testing.assert_allclose(res.distance, ref.distance, rtol=1e-9)


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


def test_batched_sweep_matches_interval_loop(three_level_pair):
    for l, r0, r1 in [three_level_pair, six_level_set()]:
        red = _Reduced(l, r0, r1, 6, 1e-8)
        rng = np.random.default_rng(1)
        y = 0.02 * rng.standard_normal(red.d * (red.big_k - 1))
        assert red.feasible(red.nodes(y))
        total, g, xcs, _, _ = red.value_grad(red.nodes(y))
        ref_total, ref_g = loop_value_grad(red, y)
        ref_xs, _, ref_ms, _ = loop_intervals(l, red.nodes(y), red.dt)
        np.testing.assert_allclose(total, ref_total, rtol=1e-12)
        np.testing.assert_allclose(g, ref_g, rtol=1e-12, atol=1e-12 * np.abs(ref_g).max())
        # the returned path's X_k = unvec_h(C x_k) and momenta grad(X_k) mid_k
        path = _discrete_path(l, red.nodes(y), xcs)
        for got, ref in [(path.potentials, ref_xs), (path.momenta, ref_ms)]:
            np.testing.assert_allclose(np.array(got), np.array(ref),
                                       atol=1e-12 * np.abs(np.array(ref)).max())

        lam, value = dual_certificate(l, path)
        ref_lam, ref_value = loop_dual_certificate(l, path)
        np.testing.assert_allclose(value, ref_value, rtol=1e-12)
        np.testing.assert_allclose(lam, np.array(ref_lam),
                                   atol=1e-12 * np.abs(ref_lam).max())


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
        y = 0.02 * np.random.default_rng(2).standard_normal(red.d * (red.big_k - 1))
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


def test_accept_step_on_flat_cost():
    cost, slope, step = 1.0, -1e-6, 1e-3
    assert _accept_step(cost, slope, step, cost - 1e-9, -2e-6)  # Armijo
    # cost unchanged to rounding: the directional derivative decides
    assert _accept_step(cost, slope, step, cost, 0.0)
    assert _accept_step(cost, slope, step, cost + 1e-13, -0.85e-6)
    assert not _accept_step(cost, slope, step, cost, -0.95e-6)  # no curvature gain
    assert not _accept_step(cost, slope, step, cost, 0.9e-6)  # far past the minimum
    # a rise beyond FLAT_RTOL |E| is never accepted
    assert not _accept_step(cost, slope, step, cost + 1e-9, 0.0)


@pytest.mark.parametrize("big_k", [8, 16, 32])
def test_newton_iterations_do_not_grow_with_k(three_level_pair, big_k):
    l, r0, r1 = three_level_pair
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=big_k))
    assert res.converged
    assert res.iterations <= 25


@pytest.mark.parametrize("big_k", [8, 32])
def test_certificate_does_not_depend_on_grad_tol(three_level_pair, big_k):
    # the certificate is read at the returned iterate, so a gap that moves
    # with grad_tol measures where the descent stopped, not the instance
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
    # (the flat-cost rule accepted no step over the qutrit pool), so the
    # rule stays only as a guard against rounding;
    # test_accept_step_on_flat_cost pins the rule itself.
    spec = load_problem(str(FIXTURES / name))
    res = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config)
    assert res.converged
    assert res.iterations <= 400


def rebuild_path(l, nodes, big_k):
    """DiscretePath for arbitrary node matrices, intervals re-solved."""
    dt = 1.0 / big_k
    xs, _, ms, actions = loop_intervals(l, nodes, dt)
    path = DiscretePath(K=big_k, grid=np.linspace(0, 1, big_k + 1),
                        densities=nodes, momenta=np.array(ms), potentials=np.array(xs))
    return path, sum(dt * a for a in actions)


def test_weak_duality_every_iterate(three_level_pair):
    # an instance where the optimizer genuinely iterates (at n = 2 the
    # linear path is already optimal for every Hermitian operator set)
    l, r0, r1 = three_level_pair
    res = optimize_geodesic(l, r0, r1, SolverConfig(K=4), record_iterates=True)
    assert res.iterations > 0
    assert len(res.iterate_nodes) == res.iterations + 1
    for nodes in res.iterate_nodes:
        path, primal = rebuild_path(l, nodes, 4)
        _, dual_val = dual_certificate(l, path)
        assert dual_val <= primal + 1e-9


def test_dual_certificate_is_hj_feasible(pauli, swap_endpoints):
    r0, r1 = swap_endpoints
    res = optimize_geodesic(pauli, r0, r1, SolverConfig(K=8))
    for resid in hj_residuals(pauli, res.dual_path):
        assert resid <= 1e-9
    # the certified value is twice the endpoint pairing of the dual path
    lam, dens = res.dual_path, res.path.densities
    pairing = (inner_product(lam[-1], dens[-1]) - inner_product(lam[0], dens[0])).real
    np.testing.assert_allclose(2.0 * pairing, res.dual_value, rtol=1e-12)


def test_hamiltonian_profile_constant_speed(pauli, swap_endpoints):
    r0, r1 = swap_endpoints
    res = optimize_geodesic(pauli, r0, r1, SolverConfig(K=16))
    prof = hamiltonian_profile(res)
    assert prof.rel_std <= 1e-6
    assert prof.speed_ok
    # profile values are the interval kinetic terms
    for k, val in enumerate(prof.values):
        mid = 0.5 * (res.path.densities[k] + res.path.densities[k + 1])
        np.testing.assert_allclose(val, kinetic(mid, res.path.momenta[k]).value,
                                   rtol=1e-10)
    # and the action equals 2 * dt * sum of values
    np.testing.assert_allclose(res.primal_cost,
                               2.0 * np.mean(prof.values), rtol=1e-12)


def test_result_is_raw_stacks(three_level_pair):
    # a solved pair and coincident endpoints (the constant-path route)
    l, r0, r1 = three_level_pair
    big_k, n = 8, l.n
    for end in (r1, r0):
        res = optimize_geodesic(l, r0, end, SolverConfig(K=big_k))
        path = res.path
        for stack, shape in [(path.densities, (big_k + 1, n, n)),
                             (path.momenta, (big_k, l.count, n, n)),
                             (path.potentials, (big_k, n, n)),
                             (res.dual_path, (big_k + 1, n, n))]:
            assert isinstance(stack, np.ndarray) and stack.shape == shape


def test_identical_endpoints_zero(pauli):
    rng = np.random.default_rng(2)
    rho = rand_density(rng, 2)
    res = optimize_geodesic(pauli, rho, rho, SolverConfig(K=4))
    assert res.distance == 0.0
    assert res.converged


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
