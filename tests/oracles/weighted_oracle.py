"""Blockwise reference route for the weighted operator T_rho.

T_rho X = div((grad(X) rho + rho grad(X)) / 2) is evaluated here block by
block from the library's gradient and divergence.  It bypasses the
operator set's weight tensor, the only assembly of T_rho in the library:
``test_weighted_operator_two_routes`` compares ``WeightedOperator.apply``
against it, and ``test_weight_tensor_matches_blockwise_oracle`` the
restricted systems C^T T_rho C.
"""

from __future__ import annotations

import numpy as np

from momt import HermitianMatrix, LindbladSet, OperatorStack, divergence, gradient


def apply_weighted(l: LindbladSet, rho, x) -> HermitianMatrix:
    """T_rho X for a density matrix rho and a Hermitian matrix x."""
    r = rho.mat
    v = gradient(l, x).blocks
    mixed = 0.5 * (np.einsum("kij,jl->kil", v, r) + np.einsum("ij,kjl->kil", r, v))
    return divergence(l, OperatorStack(mixed, flavor="skew"))
