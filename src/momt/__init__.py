"""Matrix-valued optimal mass transport on density matrices.

Library layers (bottom up):

* hermitian  — matrix/stack types, pairings, the real vectorization
* lindblad   — gradient/divergence/laplacian calculus, kernels, heat flow
* elliptic   — weighted operator, potential solves, sharp constants
* action     — the kinetic functional and its Legendre machinery
* geodesic   — discrete geodesic solver with dual certificates
* io / cli   — problem files, reports, the ``momt`` command
"""

# BLAS sizes its thread pools when numpy is first imported, so an integer
# MOMT_THREADS >= 1 must reach these variables before any import below loads
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

# Defined before the submodule imports below; io reads it back from here.
__version__ = "0.1.0"

from .action import (
    DualPoint,
    ExtendedValue,
    InfeasibleDualPoint,
    fenchel_gap,
    kinetic,
    legendre_feasible,
    path_cost,
    trace_lower_bound,
)
from .elliptic import (
    InfeasibleRHS,
    MomentumCheck,
    SingularWeight,
    WeightedOperator,
    WeightError,
    assemble_weighted,
    momentum_min_check,
    poincare_constant,
    quadratic_form,
    solve_potential,
)
from .geodesic import (
    DiscretePath,
    GeodesicResult,
    HamiltonianProfile,
    InfeasibleEndpoints,
    InvalidConfig,
    SolverConfig,
    continuity_residual,
    dual_certificate,
    feasibility_gap,
    hamiltonian_profile,
    initial_path,
    optimize_geodesic,
)
from .hermitian import (
    EPS_PD,
    MAX_ENTRY,
    SYM_TOL,
    TRACE_TOL,
    DensityMatrix,
    DimensionMismatch,
    FlavorError,
    HermitianMatrix,
    NotPositive,
    NotUnitTrace,
    OperatorStack,
    SymmetryError,
    hermitian_basis,
    inner_product,
    matrix_from_literal,
    matrix_to_literal,
    unvec_h,
    vec_h,
    vec_s,
)
from .io import (
    SCHEMA_VERSION,
    ParseError,
    ProblemSpec,
    build_report,
    dump_canonical,
    export_geodesic,
    geodesic_trace,
    load_problem,
    parse_problem,
)
from .lindblad import (
    LindbladSet,
    StabilityError,
    divergence,
    gradient,
    heat_flow,
    laplacian,
    project_kernel,
)
from .verify import Check, run_suites

# The star-import surface is the names re-exported above, never a submodule
# (a bare ``io`` would shadow the standard library's).
from types import ModuleType as _ModuleType

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
