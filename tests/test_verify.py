import json
from dataclasses import replace

import numpy as np
import pytest

import momt.verify
from momt import LindbladSet
from momt.io import load_problem
from momt.verify import _generator_matrix, run_suites
from conftest import FIXTURES

PAULI = str(FIXTURES / "pauli_problem.json")
PINNED = json.loads((FIXTURES / "verify_checks.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_suites_names_and_verdicts_pinned(name):
    # every check keeps its name, order and verdict; details carry BLAS digits
    checks = run_suites(load_problem(str(FIXTURES / f"{name}.json")), "all")
    assert [[c.name, c.passed] for c in checks] == PINNED[name]


@pytest.mark.parametrize("suite, solves, steps", [
    ("all", 1, 3600), ("calculus", 0, 0), ("duality", 1, 0), ("conservation", 1, 3600)])
def test_run_suites_solves_once(monkeypatch, suite, solves, steps):
    # besides the one solve, the duality suite certifies the initial path: the
    # solver's iteration 0, a call with max_iter = 0
    max_iters, taken = [], []
    solve, flow = momt.verify.optimize_geodesic, momt.verify.heat_flow
    monkeypatch.setattr(momt.verify, "optimize_geodesic",
                        lambda l, r0, r1, cfg: max_iters.append(cfg.max_iter)
                        or solve(l, r0, r1, cfg))
    monkeypatch.setattr(momt.verify, "heat_flow",
                        lambda l, rho, t, n: taken.append(n) or flow(l, rho, t, n))
    spec = load_problem(PAULI)
    run_suites(spec, suite)
    assert max_iters == [spec.config.max_iter] * solves + [0] * (suite in ("all", "duality"))
    assert sum(taken) == steps


def test_conservation_steps_follow_the_spectral_radius():
    # at 20x the Pauli operators the generator's spectral radius is 1600, so
    # fixed step counts (dt = 1/400) would leave the midpoint scheme's
    # stability interval and abort the flow
    spec = load_problem(PAULI)
    stiff = LindbladSet(20.0 * spec.lindblad.ops)
    np.testing.assert_allclose(-np.linalg.eigvalsh(_generator_matrix(stiff))[0], 1600.0)
    checks = run_suites(replace(spec, lindblad=stiff), "conservation")
    assert checks and all(c.passed for c in checks)


def test_conservation_reports_an_unstable_heat_flow():
    # negative control: a step rule that reads the Pauli set's spectral radius (4)
    # on the 20x set (1600) leaves the stability interval; the suite reports the
    # aborted flow as failed checks, under their usual names and order
    spec = load_problem(PAULI)
    stiff = LindbladSet(20.0 * spec.lindblad.ops)
    stiff.grad_matrix = spec.lindblad.grad_matrix
    checks = run_suites(replace(spec, lindblad=stiff), "conservation")
    assert [c.name for c in checks] == [c.name for c in run_suites(spec, "conservation")]
    positivity = next(c for c in checks if c.name == "heat flow preserves positivity")
    assert not positivity.passed
    assert "heat flow aborted" in positivity.detail and "min eigenvalue" in positivity.detail
