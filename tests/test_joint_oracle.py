"""momt's n = 3 answers against the frozen answers of the standalone joint solver.

tests/oracles/joint_oracle.py shares no code with momt: it minimizes the same
discrete action jointly over nodes and momenta.  Its frozen paths have positive
definite nodes and midpoints, so they are admissible and their costs bound the
discrete optimum E* from above.  momt's dual value bounds it from below, and
momt's cost lies within its gap of it.  So dual_value <= E_oracle is weak
duality across the two codes, and |E_momt - E_oracle| is at most momt's gap
plus the oracle's optimality error.

The frozen values are regenerated by

    python tests/oracles/joint_oracle.py --problem tests/fixtures/three_level_pair.json \\
        --grids 8 16 --out tests/fixtures/three_level_oracle.json
"""

import ast
import json

import numpy as np
import pytest

from momt import SolverConfig, optimize_geodesic
from momt.io import load_problem
from conftest import FIXTURES


def test_oracle_imports_nothing_from_momt():
    tree = ast.parse((FIXTURES.parent / "oracles" / "joint_oracle.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "momt"]


def test_problem_file_is_the_three_level_pair(three_level_pair):
    spec = load_problem(str(FIXTURES / "three_level_pair.json"))
    l, r0, r1 = three_level_pair
    assert np.array_equal(spec.lindblad.ops, l.ops)
    assert np.array_equal(spec.rho0.mat, r0.mat) and np.array_equal(spec.rho1.mat, r1.mat)


@pytest.mark.parametrize("big_k", [8, 16])
def test_three_level_pair_matches_the_frozen_joint_oracle(big_k):
    spec = load_problem(str(FIXTURES / "three_level_pair.json"))
    with open(FIXTURES / "three_level_oracle.json") as fh:
        oracle = json.load(fh)["grids"][str(big_k)]
    # the oracle's path is admissible: feasible, with positive definite nodes and midpoints
    assert oracle["constraint_residual"] < 1e-14
    assert oracle["min_node_eig"] > 0 and oracle["min_midpoint_eig"] > 0
    res = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, SolverConfig(K=big_k))
    assert res.converged
    assert res.dual_value <= oracle["w2_squared"]
    assert abs(res.primal_cost - oracle["w2_squared"]) <= res.gap + oracle["optimality_error"]
