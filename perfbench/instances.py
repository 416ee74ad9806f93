"""Seeded instance generator for the benchmark.

The benchmark owns this generator, so its inputs do not move when the test
helpers or ``momt.verify`` change.  The random draws follow ``rand_herm`` and
the ``three_level_pair`` fixture of the test suite.

Each workload solves a fixed pool of instances.  Pool entry ``i`` of a
family is generated from ``(POOL_SEED, family, i)`` alone, so its reference
distance, recorded once from the seed code in ``reference.json``, holds for
every run.  The run seed orders the pool, and the CLI calls take the first
entries of that order.

Plain numpy arrays are returned; ``build`` turns an instance into the
library's ``LindbladSet`` and ``DensityMatrix`` objects.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

#: fixed before any pool entry was solved; never changed to move an instance
POOL_SEED = 170102826

PAULI = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)

#: family -> (n, operator count N, K, pool size, endpoint displacement)
#: Endpoints are I/n + s * D/|D| for a random traceless Hermitian D; the
#: smallest eigenvalue is then at least 1/n - s (0.213 for the qutrit).
FAMILIES = {
    "qutrit-k8": (3, 2, 8, 24, 0.12),
    "qubit-k32": (2, 3, 32, 16, 0.3),
}

#: workload -> (family, in-process passes over the pool per round, CLI calls)
#: Runs solve their whole pool in process: on a shared 2-core host the speed
#: drifts by tens of percent within seconds, and qutrit iteration counts are
#: heavy tailed (78 to 284, and one entry stops at max_iter after ~17 s), so a
#: seeded subset of instances would add its own spread to every throughput
#: figure.  A qubit solve takes ~20 ms, so eight passes keep one-off stalls of
#: the host from moving its mean.
WORKLOADS = {
    "qutrit": ("qutrit-k8", 1, 12),
    "cli-qubit": ("qubit-k32", 8, 16),
}


def rand_herm(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def _endpoint(rng, n, scale):
    d = rand_herm(rng, n)
    d -= np.trace(d).real / n * np.eye(n)
    return np.eye(n) / n + scale * d / np.linalg.norm(d)


def pool_instance(family: str, index: int) -> dict:
    n, count, big_k, size, scale = FAMILIES[family]
    if not 0 <= index < size:
        raise IndexError(f"{family} pool has {size} entries, not {index + 1}")
    rng = np.random.default_rng([POOL_SEED, zlib.crc32(family.encode()), index])
    if family.startswith("qubit"):
        ops = PAULI.copy()
    else:
        ops = np.array([rand_herm(rng, n) for _ in range(count)])
    return {"family": family, "index": index, "n": n, "K": big_k, "ops": ops,
            "rho0": _endpoint(rng, n, scale), "rho1": _endpoint(rng, n, scale)}


def select(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(in-process instances, CLI instances) of one run, in seeded order."""
    family, _, n_cli = WORKLOADS[workload]
    order = np.random.default_rng(seed).permutation(FAMILIES[family][3])
    insts = [pool_instance(family, int(i)) for i in order]
    return insts, insts[:n_cli]


def key(inst: dict) -> str:
    return f"{inst['family']}/{inst['index']}"


def build(inst: dict):
    """(LindbladSet, rho0, rho1, SolverConfig) for an instance."""
    from momt import DensityMatrix, LindbladSet, SolverConfig

    return (LindbladSet(list(inst["ops"])), DensityMatrix(inst["rho0"]),
            DensityMatrix(inst["rho1"]), SolverConfig(K=inst["K"]))


def _literal(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"n": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def problem_text(inst: dict) -> str:
    """The instance as a ``momt distance`` problem file (default config but K)."""
    return json.dumps({
        "lindblad": {"n": inst["n"], "operators": [_literal(op) for op in inst["ops"]]},
        "rho0": _literal(inst["rho0"]),
        "rho1": _literal(inst["rho1"]),
        "config": {"K": inst["K"]},
    })
