"""Problem files and their matrix literals, run reports, and geodesic traces.

Problem file layout (UTF-8 JSON):

    {
      "lindblad": {"n": 2, "operators": [matrix-literal, ...]},
      "rho0": matrix-literal,
      "rho1": matrix-literal,
      "config": {"K": 32, "max_iter": 500, "seed": 1234}  # optional: SolverConfig fields + seed
    }

with matrix-literal = {"n": int, "re": [[...]], "im": [[...]]}, re and im
n rows of n numbers, read and gated by matrix_from_literal alone.  Every
number is a JSON number in the float range (no boolean or string); n and
every config value are also integral (8 or 8.0).

Parse failures carry the JSON path of the offending field ("$.rho0",
"$.lindblad.operators[1]", ...), and a key outside this layout is refused
at every level.  Reports and traces are emitted in a canonical JSON form
(sorted keys, fixed indentation, trailing newline) so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .geodesic import GeodesicResult, InvalidConfig, SolverConfig
from .hermitian import (
    DensityMatrix,
    DimensionMismatch,
    HermitianMatrix,
    NotPositive,
    NotUnitTrace,
    SymmetryError,
)
from .lindblad import LindbladSet

SCHEMA_VERSION = 3

_WARNING_TEXT = {
    "kernel-dim": ("the gradient kernel has dimension > 1: the distance is only "
                   "defined between endpoints whose difference is orthogonal to "
                   "the kernel"),
    "boundary-hit": ("line search could not keep the path safely inside the "
                     "positive cone; best iterate returned"),
}


# ---------------------------------------------------------------------------
# JSON matrix literals and number rules
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """JSON validation failure (a problem file, a matrix literal), annotated with a JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_LITERAL_KEYS = ("n", "re", "im")


def _known_keys(obj: dict, keys, path: str) -> None:
    """ParseError naming the first key of obj outside keys, as path.key."""
    for key in obj:
        if key not in keys:
            raise ParseError(f"{path}.{key}", "unknown key")


def _int_at(val, path: str) -> int:
    """An integral JSON number (8 or 8.0) in the float range; anything else is an error."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not _float_at(val, path).is_integer():
        raise ParseError(path, f"expected an integer, got {val!r}")
    return int(val)


def _float_at(val, path: str) -> float:
    """A JSON number in the float range; a boolean, a string or any other value is an error."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParseError(path, "expected float")
    try:
        return float(val)
    except OverflowError:  # a JSON integer has no size limit
        raise ParseError(path, "number is outside the float range") from None


def matrix_to_literal(a) -> dict:
    """{"n": int, "re": [[...]], "im": [[...]]} encoding of a complex matrix."""
    m = a.mat if isinstance(a, HermitianMatrix) else np.asarray(a, dtype=complex)
    return {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_literal(d, path: str = "$") -> np.ndarray:
    """The complex matrix of a literal, the format's one reader and gate.

    Anything but {"n": n >= 1, "re": ..., "im": ...}, each part n lists of n
    numbers under _float_at's rule, raises ParseError naming the part, as
    "$.re[0][1]"; path only names the literal in that message.
    """
    if not isinstance(d, dict):
        raise ParseError(path, "expected a matrix literal object")
    _known_keys(d, _LITERAL_KEYS, path)
    for key in _LITERAL_KEYS:
        if key not in d:
            raise ParseError(path, f"matrix literal is missing {key!r}")
    n = _int_at(d["n"], f"{path}.n")
    parts = []
    for key in ("re", "im"):  # n >= 1 lists of n numbers, each under _float_at's rule
        if not (n >= 1 and isinstance(d[key], list) and len(d[key]) == n and all(
                isinstance(row, list) and len(row) == n for row in d[key])):
            raise ParseError(f"{path}.{key}", f"expected {n} lists of {n} numbers (n >= 1)")
        parts.append([[_float_at(val, f"{path}.{key}[{i}][{j}]") for j, val in enumerate(row)]
                      for i, row in enumerate(d[key])])
    out = np.empty((n, n), dtype=complex)  # no 1j * im: it would warn on an infinite entry
    out.real, out.imag = parts
    return out


@dataclass
class ProblemSpec:
    lindblad: LindbladSet
    rho0: DensityMatrix
    rho1: DensityMatrix
    config: SolverConfig
    seed: int


_TOP_KEYS = {"lindblad", "rho0", "rho1", "config"}
# the SolverConfig fields and the seed, each an integer
_CONFIG_KEYS = (*(f.name for f in fields(SolverConfig)), "seed")


def parse_problem(text: str) -> ProblemSpec:
    """Validate a problem file; raises ParseError naming the offending field."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise ParseError("$", f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("$", "top level must be an object")
    _known_keys(doc, _TOP_KEYS, "$")
    for key in ("lindblad", "rho0", "rho1"):
        if key not in doc:
            raise ParseError(f"$.{key}", "missing required field")

    lind = doc["lindblad"]
    if not isinstance(lind, dict) or "operators" not in lind:
        raise ParseError("$.lindblad", 'expected {"n": int, "operators": [...]}')
    _known_keys(lind, ("n", "operators"), "$.lindblad")
    if not isinstance(lind["operators"], list):
        raise ParseError("$.lindblad.operators", "expected a list of matrix literals")
    ops = []
    for i, lit in enumerate(lind["operators"]):
        mat = matrix_from_literal(lit, f"$.lindblad.operators[{i}]")
        try:
            ops.append(HermitianMatrix(mat))
        except SymmetryError as exc:
            raise ParseError(f"$.lindblad.operators[{i}]",
                             f"SymmetryError: {exc}") from exc
    try:
        lset = LindbladSet(ops)
    except DimensionMismatch as exc:
        raise ParseError("$.lindblad.operators", f"DimensionMismatch: {exc}") from exc
    n = _int_at(lind["n"], "$.lindblad.n") if "n" in lind else lset.n
    if n != lset.n:
        raise ParseError("$.lindblad.n", f"{n} is not the operators' dimension {lset.n}")

    rhos = {}
    for key in ("rho0", "rho1"):
        mat = matrix_from_literal(doc[key], f"$.{key}")
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
    _known_keys(cfg_doc, _CONFIG_KEYS, "$.config")
    kwargs = {key: _int_at(val, f"$.config.{key}") for key, val in cfg_doc.items()}
    seed = kwargs.pop("seed", 1234)
    if seed < 0:  # numpy's generators take no negative seed
        raise ParseError("$.config.seed", f"must be >= 0, got {seed}")
    try:
        config = SolverConfig(**kwargs)
    except InvalidConfig as exc:
        raise ParseError(f"$.config.{exc.field}", exc.message) from exc
    return ProblemSpec(lindblad=lset, rho0=rhos["rho0"], rho1=rhos["rho1"],
                       config=config, seed=seed)


def load_problem(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("$", f"not UTF-8 text: {exc}") from exc
    return parse_problem(text)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _warning_entries(codes) -> list:
    return [{"code": code, "message": _WARNING_TEXT[code]} for code in codes]


def build_report(result: GeodesicResult, spec: ProblemSpec) -> dict:
    """Full run report; every number is recomputable from the embedded trace."""
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
        "rel_gap": result.rel_gap,
        "converged": result.converged,
        "iterations": result.iterations,
        "grad_norm": result.grad_norm,
        "trace_drift": result.trace_drift,
        "hamiltonian": {
            "values": [float(v) for v in result.hamiltonian],
            "mean": float(np.mean(result.hamiltonian)),
            "rel_std": result.hamiltonian_rel_std,
        },
        "warnings": _warning_entries(result.warnings),
        "trace": {"nodes": trace_nodes},
        "config": {**asdict(spec.config), "seed": spec.seed},
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
