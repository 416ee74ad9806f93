# Computing a certified transport geodesic between two density matrices.
#
# The solver minimizes a discretized action over paths with fixed
# endpoints; a dual certificate provides a lower bound so the printed
# distance is enclosed from both sides.

import json
import pathlib
import tempfile

import numpy as np

from momt import (
    DensityMatrix,
    LindbladSet,
    SolverConfig,
    build_report,
    dump_canonical,
    dual_certificate,
    load_problem,
    matrix_to_literal,
    optimize_geodesic,
)

sx = np.array([[0, 1], [1, 0]], dtype=complex)
sy = np.array([[0, -1j], [1j, 0]])
sz = np.array([[1, 0], [0, -1]], dtype=complex)
pauli = LindbladSet([sx, sy, sz])
r0 = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
r1 = DensityMatrix(np.diag([0.1, 0.9]).astype(complex))

print("population swap under the full qubit set")
print()
print("grid refinement (certified on every row):")
print(f"{'K':>4s} {'action':>18s} {'dual bound':>18s} {'gap':>12s} {'iters':>6s}")
for big_k in (4, 8, 16, 32):
    res = optimize_geodesic(pauli, r0, r1, SolverConfig(K=big_k))
    print(f"{big_k:4d} {res.primal_cost:18.12f} {res.dual_value:18.12f}"
          f" {res.gap:12.3e} {res.iterations:6d}")

res = optimize_geodesic(pauli, r0, r1, SolverConfig(K=32))
print()
print(f"distance  = {res.distance:.12f}")
print(f"converged = {res.converged} after {res.iterations} iterations")

print(f"speed profile: mean {np.mean(res.hamiltonian):.10f},"
      f" relative std {res.hamiltonian_rel_std:.2e}")

slacks, _ = dual_certificate(pauli, res.path)
print(f"certificate slacks: max {slacks.max():.3e} over {slacks.size} nodes"
      " (they sum to the gap)")

print()
print("eigenvalues along the path (they cross at the midpoint):")
for idx in range(0, 33, 8):
    ev = np.linalg.eigvalsh(res.path.densities[idx])
    print(f"  t={idx / 32:5.3f}  spectrum = {np.round(ev, 6)}")

# --- the same computation through a problem file ---------------------------
doc = {
    "lindblad": {"operators": [matrix_to_literal(op) for op in pauli.ops]},
    "rho0": matrix_to_literal(r0.mat),
    "rho1": matrix_to_literal(r1.mat),
    "config": {"K": 32},
}
with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "swap.json"
    path.write_text(json.dumps(doc))
    spec = load_problem(path)
    res2 = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config)
    report = json.loads(dump_canonical(build_report(res2, spec)))
    print()
    print("from the problem file:")
    print(f"  schema {report['schema_version']}, "
          f"distance {report['distance']:.12f}, "
          f"gap {report['gap']:.3e}")

# --- three levels: the solve is genuinely iterative ------------------------
# Two-level problems are special: the weighted operator does not depend on
# the density there, so the linear path is already optimal and the solver
# stops at iteration zero.  Three levels show the real optimizer at work.
rng = np.random.default_rng(42)


def rand_herm(n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


l3 = LindbladSet([rand_herm(3), rand_herm(3)])
base = np.eye(3) / 3
moves = []
for _ in range(2):
    d = rand_herm(3)
    d -= np.trace(d) / 3 * np.eye(3)
    moves.append(0.12 * d / np.linalg.norm(d))
a = DensityMatrix(base + moves[0], strict=True)
b = DensityMatrix(base + moves[1], strict=True)

res3 = optimize_geodesic(l3, a, b, SolverConfig(K=8))
print()
print("three-level pair, K=8:")
print(f"  distance {res3.distance:.10f} after {res3.iterations} iterations, "
      f"gap {res3.gap:.3e}")
print(f"  trace drift along all iterates: {res3.trace_drift:.3e}")
