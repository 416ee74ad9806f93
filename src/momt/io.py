"""Problem files, run reports, and geodesic traces.

Problem file layout (UTF-8 JSON):

    {
      "lindblad": {"n": 2, "operators": [matrix-literal, ...]},
      "rho0": matrix-literal,
      "rho1": matrix-literal,
      "config": {"K": 32, "max_iter": 500, "grad_tol": 1e-7,
                 "eps_pd": 1e-8, "seed": 1234}          # optional, strict keys
    }

with matrix-literal = {"n": int, "re": [[...]], "im": [[...]]}.

Parse failures carry the JSON path of the offending field ("$.rho0",
"$.lindblad.operators[1]", ...).  Reports and traces are emitted in a
canonical JSON form (sorted keys, fixed indentation, trailing newline)
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .geodesic import GeodesicResult, SolverConfig, hamiltonian_profile
from .hermitian import (
    EPS_PD,
    DensityMatrix,
    DimensionMismatch,
    HermitianMatrix,
    NotPositive,
    NotUnitTrace,
    SymmetryError,
    matrix_from_literal,
    matrix_to_literal,
)
from .lindblad import LindbladSet

SCHEMA_VERSION = 1

_WARNING_TEXT = {
    "kernel-dim": ("the gradient kernel has dimension > 1: the distance is only "
                   "defined between endpoints whose difference is orthogonal to "
                   "the kernel"),
    "boundary-hit": ("line search could not keep the path safely inside the "
                     "positive cone; best iterate returned"),
    "degenerate-weight": ("weight is singular or the gradient vanishes "
                          "identically; sharp constant degenerates to 0"),
}


class ParseError(ValueError):
    """Problem-file validation failure, annotated with a JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class ProblemSpec:
    lindblad: LindbladSet
    rho0: DensityMatrix
    rho1: DensityMatrix
    config: SolverConfig
    seed: int


_TOP_KEYS = {"lindblad", "rho0", "rho1", "config"}


def _int_at(val, path: str) -> int:
    """An integral JSON number (8 or 8.0); a fraction or a non-number is an error."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not float(val).is_integer():
        raise ParseError(path, f"expected an integer, got {val!r}")
    return int(val)


def _float_at(val, path: str) -> float:
    try:
        return float(val)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, "expected float") from exc


_CONFIG_KEYS = {"K": _int_at, "max_iter": _int_at, "grad_tol": _float_at,
                "eps_pd": _float_at, "seed": _int_at}

# Admissible solver settings.  An eps_pd below EPS_PD would let the line
# search pass midpoints that the potential solve rejects as singular.
_CONFIG_RANGES = {
    "K": (lambda v: v >= 1, "need at least one interval"),
    "max_iter": (lambda v: v >= 0, "must be >= 0"),
    "grad_tol": (lambda v: np.isfinite(v) and v > 0, "must be finite and > 0"),
    "eps_pd": (lambda v: np.isfinite(v) and v >= EPS_PD,
               f"must be finite and >= {EPS_PD:g}"),
}


def _literal_at(obj, path: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(path, "expected a matrix literal object")
    for key in ("n", "re", "im"):
        if key not in obj:
            raise ParseError(path, f"matrix literal is missing {key!r}")
    _int_at(obj["n"], f"{path}.n")
    try:
        mat = matrix_from_literal(obj)
    except (DimensionMismatch, TypeError, ValueError) as exc:
        raise ParseError(path, str(exc)) from exc
    if not np.isfinite(mat).all():
        raise ParseError(path, "matrix entries must be finite")
    return mat


def parse_problem(text: str) -> ProblemSpec:
    """Validate a problem file; raises ParseError naming the offending field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("$", "top level must be an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ParseError(f"$.{key}", "unknown key")
    for key in ("lindblad", "rho0", "rho1"):
        if key not in doc:
            raise ParseError(f"$.{key}", "missing required field")

    lind = doc["lindblad"]
    if not isinstance(lind, dict) or "operators" not in lind:
        raise ParseError("$.lindblad", 'expected {"n": int, "operators": [...]}')
    if not isinstance(lind["operators"], list):
        raise ParseError("$.lindblad.operators", "expected a list of matrix literals")
    ops = []
    for i, lit in enumerate(lind["operators"]):
        mat = _literal_at(lit, f"$.lindblad.operators[{i}]")
        try:
            ops.append(HermitianMatrix(mat))
        except SymmetryError as exc:
            raise ParseError(f"$.lindblad.operators[{i}]",
                             f"SymmetryError: {exc}") from exc
    if not ops:
        raise ParseError("$.lindblad.operators", "need at least one operator")
    n = _int_at(lind["n"], "$.lindblad.n") if "n" in lind else ops[0].n
    if any(op.n != n for op in ops):
        raise ParseError("$.lindblad", f"operators do not all have dimension {n}")
    lset = LindbladSet(ops)

    rhos = {}
    for key in ("rho0", "rho1"):
        mat = _literal_at(doc[key], f"$.{key}")
        if mat.shape != (n, n):
            raise ParseError(f"$.{key}",
                             f"dimension {mat.shape[0]} does not match operator "
                             f"dimension {n}")
        try:
            rhos[key] = DensityMatrix(mat)
        except (SymmetryError, NotUnitTrace, NotPositive) as exc:
            raise ParseError(f"$.{key}", f"{type(exc).__name__}: {exc}") from exc

    cfg_doc = doc.get("config", {})
    if not isinstance(cfg_doc, dict):
        raise ParseError("$.config", "expected an object")
    kwargs, seed = {}, 1234
    for key, val in cfg_doc.items():
        if key not in _CONFIG_KEYS:
            raise ParseError(f"$.config.{key}", "unknown config key")
        cast = _CONFIG_KEYS[key](val, f"$.config.{key}")
        if key == "seed":
            seed = cast
        else:
            kwargs[key] = cast
    config = SolverConfig(**kwargs)
    for key, (admissible, message) in _CONFIG_RANGES.items():
        if not admissible(getattr(config, key)):
            raise ParseError(f"$.config.{key}", message)
    return ProblemSpec(lindblad=lset, rho0=rhos["rho0"], rho1=rhos["rho1"],
                       config=config, seed=seed)


def load_problem(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _warning_entries(codes) -> list:
    out = []
    for code in codes:
        out.append({"code": code, "message": _WARNING_TEXT.get(code, code)})
    return out


def _config_echo(cfg: SolverConfig, seed: int) -> dict:
    return {"K": cfg.K, "max_iter": cfg.max_iter, "grad_tol": cfg.grad_tol,
            "eps_pd": cfg.eps_pd, "seed": seed}


def build_report(result: GeodesicResult, spec: ProblemSpec) -> dict:
    """Full run report; every number is recomputable from the embedded trace."""
    prof = hamiltonian_profile(result)
    rel_gap = result.gap / result.primal_cost if result.primal_cost > 1e-15 else 0.0
    path = result.path
    trace_nodes = [{"t": float(t), "eigenvalues": evals.tolist(),
                    "matrix": matrix_to_literal(rho)}
                   for t, evals, rho in zip(path.grid, np.linalg.eigvalsh(path.densities),
                                            path.densities)]
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "distance": result.distance,
        "primal_cost": result.primal_cost,
        "dual_value": result.dual_value,
        "gap": result.gap,
        "rel_gap": rel_gap,
        "converged": result.converged,
        "iterations": result.iterations,
        "grad_norm": result.grad_norm,
        "trace_drift": result.trace_drift,
        "hamiltonian": {
            "values": [float(v) for v in prof.values],
            "mean": prof.mean,
            "rel_std": prof.rel_std,
            "speed_ok": prof.speed_ok,
        },
        "warnings": _warning_entries(result.warnings),
        "trace": {"nodes": trace_nodes},
        "config": _config_echo(spec.config, spec.seed),
    }


def dump_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# geodesic traces (plot-ready, round-trippable)
# ---------------------------------------------------------------------------

def geodesic_trace(result: GeodesicResult) -> dict:
    path = result.path
    doc = {
        "schema_version": SCHEMA_VERSION,
        "K": path.K,
        "grid": [float(t) for t in path.grid],
        "nodes": [matrix_to_literal(rho) for rho in path.densities],
        "eigenvalue_curves": np.linalg.eigvalsh(path.densities).tolist(),
        "momenta": [[matrix_to_literal(block) for block in stack]
                    for stack in path.momenta],
        "potentials": [matrix_to_literal(p) for p in path.potentials],
        "dual_nodes": [matrix_to_literal(m) for m in result.dual_path],
        "hamiltonian": [float(v) for v in result.hamiltonian],
        "distance": result.distance,
        "primal_cost": result.primal_cost,
        "dual_value": result.dual_value,
        "gap": result.gap,
    }
    return doc


def export_geodesic(result: GeodesicResult, path: str) -> None:
    """Write the canonical trace file for a result."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_canonical(geodesic_trace(result)))
