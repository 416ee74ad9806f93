"""Weighted operators, restricted solves, and the sharp spectral constant.

The weighted operator T_rho acts on potentials; restricted to the
orthogonal complement of ker(grad) it is invertible, and its smallest
restricted eigenvalue is exactly the best constant c in

    Q_rho(grad X)  >=  c * |X - proj_ker X|^2 .

This script prints the constant for a few weights, verifies the
inequality by sampling, and runs the constrained momentum problem whose
optimum is a gradient momentum.
"""

import numpy as np

from momt import (
    DensityMatrix,
    LindbladSet,
    WeightedOperator,
    gradient,
    momentum_min_check,
    poincare_constant,
    project_kernel,
    quadratic_form,
    solve_potential,
    unvec_h,
)


def sample_violations(l, rho, c, trials, rng):
    worst = np.inf
    for _ in range(trials):
        x = rng.standard_normal((l.n, l.n)) + 1j * rng.standard_normal((l.n, l.n))
        x = 0.5 * (x + x.conj().T)
        resid = x - project_kernel(l, x).mat
        r2 = np.linalg.norm(resid) ** 2
        if r2 < 1e-20:
            continue
        worst = min(worst, quadratic_form(rho, gradient(l, resid)) / r2 - c)
    return worst


def main():
    rng = np.random.default_rng(7)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    pauli = LindbladSet([sx, sy, sz])

    print("sharp constant for the full qubit set, several weights")
    print(f"{'weight':>24s} {'constant':>12s} {'sampled slack':>14s}")
    weights = {
        "I/2": DensityMatrix(np.eye(2) / 2),
        "diag(0.9, 0.1)": DensityMatrix(np.diag([0.9, 0.1]).astype(complex)),
        "diag(0.99, 0.01)": DensityMatrix(np.diag([0.99, 0.01]).astype(complex)),
    }
    for name, rho in weights.items():
        c = poincare_constant(pauli, rho)
        slack = sample_violations(pauli, rho, c, 400, rng)
        print(f"{name:>24s} {c:12.6f} {slack:14.3e}")
    print("(slack = sampled minimum of the ratio minus the constant;"
          " zero up to rounding)")
    print()
    print("for 2x2 weights the constant never moves: the weighted operator")
    print("is weight-independent there.  Three levels break that symmetry:")
    l3 = LindbladSet([0.5 * (g + g.conj().T) for g in
                      rng.standard_normal((2, 3, 3))
                      + 1j * rng.standard_normal((2, 3, 3))])
    for lam in ([1 / 3, 1 / 3, 1 / 3], [0.6, 0.3, 0.1], [0.90, 0.08, 0.02]):
        rho3 = DensityMatrix(np.diag(lam).astype(complex))
        c = poincare_constant(l3, rho3)
        slack = sample_violations(l3, rho3, c, 400, rng)
        # random directions rarely align with the minimizer, so also
        # evaluate the ratio at the bottom eigenvector of the restricted
        # operator: there the inequality is tight by construction.
        w3 = WeightedOperator(l3, rho3)
        evals, evecs = np.linalg.eigh(w3.restricted)
        xmin = unvec_h(l3.complement_vecs @ evecs[:, 0], 3)
        ratio = quadratic_form(rho3, gradient(l3, xmin)) / np.linalg.norm(xmin) ** 2
        print(f"  spectrum {np.round(lam, 2)!s:>20s} -> constant {c:9.6f}"
              f"  sampled slack {slack:9.3e}"
              f"  ratio at minimizer {ratio:9.6f}")

    print()
    print("restricted solve: T_rho X = f with f orthogonal to the kernel")
    rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    w = WeightedOperator(pauli, rho)
    f_raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f_raw = 0.5 * (f_raw + f_raw.conj().T)
    f_raw -= np.trace(f_raw).real / 2 * np.eye(2)  # traceless => in the range
    x = solve_potential(w, f_raw)
    resid = np.linalg.norm(w.apply(x).mat - f_raw)
    print(f"  residual |T_rho X - f| = {resid:.3e}")
    print(f"  smallest restricted eigenvalue = {w.restricted_min_eig:.6f}")
    print(f"  stability: |f| = {np.linalg.norm(f_raw):.4f} >= "
          f"min_eig * |X| = {w.restricted_min_eig * x.norm():.4f}")

    print()
    print("constrained momentum problem: min (1/2)<m; m rho^{-1}> s.t. div constraint")
    check = momentum_min_check(pauli, rho, f_raw)
    print(f"  primal minimum  {check.primal_min:.10f}")
    print(f"  dual maximum    {check.dual_max:.10f}")
    print(f"  split           {abs(check.primal_min - check.dual_max):.3e}")
    v = gradient(pauli, check.potential.mat)
    m_pot = np.einsum("kij,jl->kil", v.blocks, rho.mat)
    print(f"  optimizer has potential form: |m - grad(X) rho| = "
          f"{np.linalg.norm(check.optimal_m.blocks - m_pot):.3e}")


if __name__ == "__main__":
    main()
