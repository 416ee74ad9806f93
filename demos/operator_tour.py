# Tour of the operator calculus layer: gradients, kernels, heat flow.
#
# Run from the repository root after installing the package:
#   python3 demos/operator_tour.py

import numpy as np

from momt import (
    LindbladSet,
    divergence,
    gradient,
    heat_flow,
    inner_product,
    laplacian,
    project_kernel,
)

rng = np.random.default_rng(0)

sx = np.array([[0, 1], [1, 0]], dtype=complex)
sy = np.array([[0, -1j], [1j, 0]])
sz = np.array([[1, 0], [0, -1]], dtype=complex)

print("=== full qubit set {sx, sy, sz} ===")
pauli = LindbladSet([sx, sy, sz])
x = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.3]])

g = gradient(pauli, x)
print("gradient stack shape:", g.blocks.shape)
print("block norms:", np.round([np.linalg.norm(b) for b in g.blocks], 4))

# adjointness <grad X; v> = <X; div v> on a random skew stack
from momt import OperatorStack  # noqa: E402

v_blocks = np.array([1j * (a + a.conj().T) for a in
                     rng.standard_normal((3, 2, 2))
                     + 1j * rng.standard_normal((3, 2, 2))])
v = OperatorStack(0.5 * v_blocks, flavor="skew")
div_v = divergence(pauli, v)
lhs = inner_product(g, v).real
rhs = np.trace(x.conj().T @ div_v.mat).real
print(f"adjointness check: {lhs:.10f} vs {rhs:.10f}")
print("divergence trace (always 0):", abs(div_v.trace()))

print()
print("kernel dimensions (multiples of the identity only for the full set):")
for name, ops in [("{sx,sy,sz}", [sx, sy, sz]),
                  ("{sz}", [sz]),
                  ("{identity}", [np.eye(2, dtype=complex)])]:
    l = LindbladSet(ops)
    print(f"  {name:12s} -> dim ker(grad) = {l.kernel_dim}")

print()
print("=== closed-form laplacian vs composed route ===")
lap = laplacian(pauli, x).mat
composed = -divergence(pauli, gradient(pauli, x)).mat
print("max abs difference:", np.abs(lap - composed).max())

print()
print("=== heat flow contracts onto the kernel ===")
rho = np.diag([0.85, 0.15]).astype(complex)
for t in [0.0, 0.25, 0.5, 1.0, 2.0]:
    out = heat_flow(pauli, rho, t)
    off = abs(out.mat[0, 1])
    gap = np.linalg.norm(out.mat - np.eye(2) / 2)
    print(f"  T={t:4.2f}  |off-diag|={off:.3e}  distance to I/2={gap:.3e}"
          f"  trace={np.trace(out.mat).real:.12f}")

# For the single-operator set {sz} only the off-diagonal part decays, and it
# does so at the slower rate exp(-2T); the diagonal part never moves.
print()
print("=== partial set {sz}: diagonal information is conserved ===")
zset = LindbladSet([sz])
rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
for t in [0.0, 0.5, 1.0]:
    out = heat_flow(zset, rho, t)
    print(f"  T={t:3.1f}  diag={np.round(np.diag(out.mat).real, 6)}"
          f"  |off-diag|={abs(out.mat[0, 1]):.6f}"
          f"  predicted {0.2236068 * np.exp(-2 * t):.6f}")
