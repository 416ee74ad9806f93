"""Matrix-valued optimal mass transport on density matrices.

Library layers (bottom up):

* hermitian  — matrix/stack types, pairings, the real vectorization
* lindblad   — gradient/divergence/laplacian calculus, kernels, heat flow
* elliptic   — weighted operator, potential solves, sharp constants
* action     — the kinetic functional and its Legendre machinery
* geodesic   — discrete geodesic solver with dual certificates
* io         — problem files and reports
* verify     — the self-check suites of ``momt verify``
* cli        — the ``momt`` command
"""

# BLAS sizes its thread pools when numpy is first imported, so an integer
# MOMT_THREADS >= 1 reaches these variables here, before any submodule loads
# numpy; a variable the user set is kept, and any other MOMT_THREADS is ignored.
import os as _os

try:
    _cap = int(_os.environ.get("MOMT_THREADS", ""))
except ValueError:
    _cap = 0
if _cap >= 1:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, str(_cap))

# Eager, unlike the names below: io reads the version back from here, and cli
# (the --suite choices) and verify the suite names, in run order.
__version__ = "0.1.0"
SUITES = ("calculus", "duality", "conservation")

# Each public name and the submodule that defines it.  `import momt` loads no
# submodule (nor numpy): __getattr__ imports one on first access to one of its
# names and binds the name here, so later lookups are plain attribute reads.
_EXPORTS = {
    "action": ("DualPoint", "ExtendedValue", "InfeasibleDualPoint", "MomentumCheck",
               "fenchel_gap", "kinetic", "legendre_feasible", "momentum_min_check",
               "path_cost", "trace_lower_bound"),
    "cli": (),  # no public names; listed so that momt.cli resolves
    "elliptic": ("IllConditioned", "InfeasibleRHS", "SingularWeight", "WeightedOperator",
                 "WeightError", "poincare_constant", "quadratic_form", "solve_potential"),
    "geodesic": ("DiscretePath", "GeodesicResult", "InfeasibleEndpoints", "InvalidConfig",
                 "SolverConfig", "continuity_residual", "dual_certificate", "feasibility_gap",
                 "initial_path", "optimize_geodesic"),
    "hermitian": ("EPS_PD", "MAX_ENTRY", "SYM_TOL", "TRACE_TOL", "DensityMatrix",
                  "DimensionMismatch", "FlavorError", "HermitianMatrix", "NotPositive",
                  "NotUnitTrace", "OperatorStack", "SymmetryError", "hermitian_basis",
                  "inner_product", "unvec_h", "vec_h", "vec_s"),
    "io": ("SCHEMA_VERSION", "ParseError", "ProblemSpec", "build_report", "dump_canonical",
           "export_geodesic", "geodesic_trace", "load_problem", "matrix_from_literal",
           "matrix_to_literal", "parse_problem"),
    "lindblad": ("LindbladSet", "divergence", "gradient", "heat_flow", "laplacian",
                 "project_kernel"),
    "verify": ("Check", "run_suites"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# The star-import surface is the names above, never a submodule (a bare ``io``
# would shadow the standard library's).
__all__ = sorted(_SOURCE)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:  # a submodule not yet imported, such as momt.geodesic
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
