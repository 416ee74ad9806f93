"""The fixture problems' answers against recorded ones.

fixtures/golden_answers.json holds the scalars that ``momt distance --json``
reported for each problem at commit a30fef1.  Iteration counts, convergence
and warning codes must match exactly.  The distance, the squared distance and
every Hamiltonian value must agree to 1e-12 relative.  The dual value and the
gap are compared to 1e-12 * primal_cost absolute: the gap sits near the
dual's rounding floor, so a tolerance relative to the gap itself would read
rounding noise.
"""

import json

import numpy as np
import pytest

from momt import optimize_geodesic
from momt.io import load_problem
from conftest import FIXTURES

GOLDEN = json.loads((FIXTURES / "golden_answers.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_answers_match_golden(name):
    want = GOLDEN[name]
    spec = load_problem(str(FIXTURES / f"{name}.json"))
    res = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config)
    assert (res.iterations, res.converged, res.warnings) == \
        (want["iterations"], want["converged"], want["warnings"])
    np.testing.assert_allclose([res.distance, res.primal_cost, *res.hamiltonian],
                               [want["distance"], want["primal_cost"], *want["hamiltonian"]],
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose([res.dual_value, res.gap], [want["dual_value"], want["gap"]],
                               rtol=0, atol=1e-12 * want["primal_cost"])
