"""The ``momt`` command-line driver.

Subcommands:

* ``distance <file> [--out report.json]``  — solve, report the distance
* ``geodesic <file> --out trace.json``     — solve, export the full trace
* ``operator-info <file>``                 — kernel/constant diagnostics
* ``verify <file> --suite NAME``           — seeded property suites

Exit codes: 0 success/converged, 1 parse or I/O error or an ill-conditioned
operator set (``verify``: also a failed check), 2 infeasible endpoints, 3 solver
did not converge (best iterate still reported).
``--json`` prints the machine-readable document to stdout; ``--quiet``
suppresses the human-readable lines.  The MOMT_THREADS environment
variable caps BLAS parallelism; ``momt/__init__`` applies it before numpy loads.

The process entry is ``run``; ``main`` is the in-process call and leaves the
garbage collector as it found it.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # no collection while the imports below run; run() enables it

import argparse
import sys
import warnings as _warnings
from dataclasses import asdict

import numpy as np

from . import SUITES
from .elliptic import IllConditioned, poincare_constant
from .geodesic import InfeasibleEndpoints, optimize_geodesic
from .hermitian import DensityMatrix, NotPositive
from .io import (
    ParseError,
    ProblemSpec,
    _warning_entries,
    build_report,
    dump_canonical,
    export_geodesic,
    load_problem,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_CONVERGED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momt",
        description="Transport distances and geodesics between density matrices.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="problem file (JSON)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress human-readable output")
    common.add_argument("--json", action="store_true",
                        help="print the machine-readable document to stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", parents=[common],
                       help="compute the transport distance between the endpoints")
    p.add_argument("--out", metavar="PATH", help="write the full run report here")
    p.set_defaults(run=run_distance)

    p = sub.add_parser("geodesic", parents=[common],
                       help="solve and export the discrete geodesic trace")
    p.add_argument("--out", metavar="PATH", required=True,
                   help="trace file to write")
    p.set_defaults(run=run_geodesic)

    p = sub.add_parser("operator-info", parents=[common],
                       help="kernel dimension, basis, and sharp constants")
    p.set_defaults(run=run_operator_info)

    p = sub.add_parser("verify", parents=[common],
                       help="run the seeded property suites against the problem")
    p.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    p.set_defaults(run=run_verify)
    return parser


def _solve(spec: ProblemSpec):
    result = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config)
    return result, (EXIT_OK if result.converged else EXIT_NOT_CONVERGED)


def _emit(args, doc: dict, lines) -> None:
    """--json prints the canonical document, --quiet nothing, otherwise the lines."""
    if args.json:
        sys.stdout.write(dump_canonical(doc))
    elif not args.quiet:
        print("\n".join(lines))


def _summary_lines(report: dict) -> list[str]:
    ham = report["hamiltonian"]
    lines = [
        f"distance     {report['distance']:.15g}",
        f"squared      {report['primal_cost']:.15g}",
        f"dual value   {report['dual_value']:.15g}",
        f"gap          {report['gap']:.3e}  (relative {report['rel_gap']:.3e})",
        f"iterations   {report['iterations']}  "
        f"converged: {'yes' if report['converged'] else 'NO'}",
        f"hamiltonian  mean {ham['mean']:.6g}  rel_std {ham['rel_std']:.3e}",
    ]
    warns = [f"warning      [{w['code']}] {w['message']}" for w in report["warnings"]]
    return lines + (warns or ["warnings     none"])


def run_distance(args, spec: ProblemSpec):
    result, code = _solve(spec)
    report = build_report(result, spec)
    lines = _summary_lines(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_canonical(report))
        lines.append(f"report       written to {args.out}")
    return report, lines, code


def run_geodesic(args, spec: ProblemSpec):
    result, code = _solve(spec)
    export_geodesic(result, args.out)
    doc = {"out": args.out, "distance": result.distance, "gap": result.gap,
           "converged": result.converged, "nodes": result.path.K + 1}
    lines = [f"trace        {result.path.K + 1} nodes written to {args.out}",
             f"distance     {result.distance:.15g}",
             f"gap          {result.gap:.3e}"]
    if not result.converged:
        lines.append("converged    NO (best iterate exported)")
    return doc, lines, code


def run_operator_info(args, spec: ProblemSpec):
    l = spec.lindblad
    maximally_mixed = DensityMatrix(np.eye(l.n) / l.n)
    with _warnings.catch_warnings(record=True) as rec:
        _warnings.simplefilter("always")
        p_mixed = poincare_constant(l, maximally_mixed)
        p_rho0 = poincare_constant(l, spec.rho0)
        caught = sorted({str(w.message) for w in rec
                         if issubclass(w.category, RuntimeWarning)})
    info = {
        "dimension": l.n,
        "operator_count": l.count,
        "kernel_dim": l.kernel_dim,
        "kernel_basis_norms": np.linalg.norm(l.kernel_vecs, axis=0).tolist(),
        "poincare_maximally_mixed": p_mixed,
        "restricted_min_eig_rho0": p_rho0,
        "warnings": _warning_entries(["kernel-dim"] if l.kernel_dim > 1 else [])
                    + [{"code": "degenerate-weight", "message": m} for m in caught],
    }
    norms = ", ".join(f"{v:.12g}" for v in info["kernel_basis_norms"])
    lines = [
        f"dimension         {l.n}",
        f"operators         {l.count}",
        f"kernel dimension  {l.kernel_dim}",
        f"kernel basis norms [{norms}]",
        f"sharp constant at the maximally mixed state  {p_mixed:.12g}",
        f"restricted min eigenvalue at rho0            {p_rho0:.12g}",
    ] + [f"warning           [{w['code']}] {w['message']}" for w in info["warnings"]]
    return info, lines, EXIT_OK


def run_verify(args, spec: ProblemSpec):
    from .verify import run_suites

    checks = run_suites(spec, args.suite)
    ok = all(c.passed for c in checks)
    lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name} — {c.detail}" for c in checks]
    lines.append(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed "
                 f"(suite: {args.suite})")
    return ({"suite": args.suite, "passed": ok, "checks": [asdict(c) for c in checks]},
            lines, EXIT_OK if ok else EXIT_ERROR)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for infeasibility
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        # each run_* handler returns (document, human-readable lines, exit code)
        doc, lines, code = args.run(args, load_problem(args.problem))
        _emit(args, doc, lines)
        return code
    except (ParseError, NotPositive, IllConditioned, OSError) as exc:
        # NotPositive: a boundary endpoint parses, but a solve needs rho > 0;
        # IllConditioned: the operator set parses, but a potential solve fails
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InfeasibleEndpoints as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def run() -> None:
    """The ``momt`` process: main() with the import-time objects frozen.

    Every object alive now was made by the imports and lives to the exit, so
    gc.freeze() takes them out of every later collection, the one at exit too.
    """
    gc.freeze()
    gc.enable()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
