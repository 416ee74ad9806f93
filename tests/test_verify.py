import json
from dataclasses import replace

import numpy as np
import pytest

import momt.verify
from momt import ExtendedValue, IllConditioned, LindbladSet, dual_certificate, optimize_geodesic
from momt.io import load_problem
from momt.verify import run_suites, suite_duality
from conftest import FIXTURES

PAULI = str(FIXTURES / "pauli_problem.json")
PINNED = json.loads((FIXTURES / "verify_checks.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_suites_names_and_verdicts_pinned(name):
    # every check keeps its name, order and verdict; details carry BLAS digits
    checks = run_suites(load_problem(str(FIXTURES / f"{name}.json")), "all")
    assert [[c.name, c.passed] for c in checks] == PINNED[name]


@pytest.mark.parametrize("suite, solves, flows", [
    ("all", 1, 7), ("calculus", 0, 0), ("duality", 1, 0), ("conservation", 1, 7)])
def test_run_suites_solves_once(monkeypatch, suite, solves, flows):
    # besides the one solve, the duality suite certifies the initial path: the
    # solver's iteration 0, a call with max_iter = 0; the conservation suite reads
    # the flow at four times and three more for its central difference
    max_iters, times = [], []
    solve, flow = momt.verify.optimize_geodesic, momt.verify.heat_flow
    monkeypatch.setattr(momt.verify, "optimize_geodesic",
                        lambda l, r0, r1, cfg: max_iters.append(cfg.max_iter)
                        or solve(l, r0, r1, cfg))
    monkeypatch.setattr(momt.verify, "heat_flow",
                        lambda l, rho, t: times.append(t) or flow(l, rho, t))
    spec = load_problem(PAULI)
    run_suites(spec, suite)
    assert max_iters == [spec.config.max_iter] * solves + [0] * (suite in ("all", "duality"))
    assert len(times) == flows


def test_run_suites_pass_when_the_gradient_vanishes():
    # the identity commutes with everything: the kernel is all of Hermitian space,
    # its complement is empty, and only coincident endpoints are connectable
    spec = load_problem(PAULI)
    spec = replace(spec, lindblad=LindbladSet([np.eye(2)]), rho1=spec.rho0)
    checks = run_suites(spec, "all")
    assert len(checks) == 24 and all(c.passed for c in checks)


def test_conservation_steps_follow_the_spectral_radius():
    # at 20x the Pauli operators the generator's spectral radius is 1600, and at
    # 1000x it is 4e6: the exact flow needs no step rule at either stiffness
    spec = load_problem(PAULI)
    for scale in (20.0, 1e3):
        stiff = LindbladSet(scale * spec.lindblad.ops)
        gen = -0.5 * stiff.grad_matrix.T @ stiff.grad_matrix
        np.testing.assert_allclose(-np.linalg.eigvalsh(gen)[0], 4.0 * scale ** 2)
        checks = run_suites(replace(spec, lindblad=stiff), "conservation")
        assert checks and all(c.passed for c in checks)


COST_ROWS = ("weak duality on the solved instance",
             "certificate never exceeds the action (initial path)")


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6, 1e8])
def test_cost_rows_fail_twice_their_tolerance_at_every_scale(monkeypatch, scale):
    # both rows bound a cost, and W^2 scales as the set's unit u does, as c^-2 for
    # operators c L: an excess of 2e-9 u fails each row at every c, where an absolute
    # 1e-9 let it pass from c = 1e3 on
    spec = load_problem(str(FIXTURES / "three_level_pair.json"))
    l = LindbladSet(scale * spec.lindblad.ops)
    spec = replace(spec, lindblad=l)
    solved = optimize_geodesic(l, spec.rho0, spec.rho1, spec.config)
    excess = 2e-9 * l.unit

    def rows(result):
        checks = suite_duality(spec, np.random.default_rng(spec.seed), result)
        return [c.passed for c in checks if c.name in COST_ROWS]

    assert rows(solved) == [True, True]
    assert rows(replace(solved, gap=-excess)) == [False, True]
    # the initial path's action, lowered so that its certificate exceeds it by excess
    monkeypatch.setattr(momt.verify, "path_cost", lambda path: ExtendedValue.of(
        0.5 * (dual_certificate(l, path)[1] - excess)))
    assert rows(solved) == [True, False]


def _raise(exc):
    raise exc


def test_check_runner_reports_library_errors_and_nan_draws():
    # a library error raised inside a check becomes that check's FAIL row, a NaN
    # draw fails its check, and any other exception is a bug that propagates
    row = momt.verify._worst("ill", 1.0, 2, lambda: _raise(IllConditioned("residual 1e-3")))
    assert not row.passed and row.detail == "raised IllConditioned: residual 1e-3"
    row = momt.verify._worst("singular", 1.0, 1,
                             lambda: _raise(np.linalg.LinAlgError("Singular matrix")))
    assert not row.passed and row.detail == "raised LinAlgError: Singular matrix"
    draws = iter([0.1, float("nan"), 0.2])
    assert not momt.verify._worst("nan draw", 1.0, 3, lambda: next(draws)).passed
    with pytest.raises(TypeError):
        momt.verify._worst("bug", 1.0, 1, lambda: _raise(TypeError("not a library error")))
