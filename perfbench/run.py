"""momt benchmark: time to a certified distance, end to end and per layer.

    python3 perfbench/run.py --workload qutrit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding ``src/momt``);
without one it exits with code 2 and prints no result.  Every workload is a
closed loop in one process: one solve, one CLI call or one set-up probe at a
time, single-threaded (``MOMT_THREADS=1`` is set before numpy loads, here and
in every child process).  Inputs come from ``instances.py``: the seed orders
a run's instances from fixed pools whose answers, recorded from the seed code
by ``make_reference.py``, live in ``reference.json``.

Workloads (``instances.WORKLOADS``):

* ``qutrit``    n = 3, N = 2, K = 8, all 24 pool entries in process and 12 by
  the CLI.  Small but nonlinear: the cost is iterations times the per-call
  overhead of many tiny interval solves, so solver and batching changes show
  here.
* ``cli-qubit`` n = 2 Pauli operators, K = 32, 16 entries (8 in-process
  passes per round, every entry by the CLI).  The solver does
  zero iterations; a cold ``momt distance`` is mostly interpreter start and
  ``import momt``, so import and io changes show here.

With ``--trace 0`` a run repeats whole rounds of operations until
``--seconds`` have passed and prints the end-to-end metrics: ``setup_s``
(median fresh-process ``import momt`` plus building the run's objects),
``solves_per_s`` (in-process ``optimize_geodesic`` calls, certificate
included), ``cli_s`` (median cold ``python -m momt.cli distance --json``, spawn
to exit), ``peak_rss_mb`` and ``rel_gap`` (median relative duality gap, so a
speed-up that loosens answers shows).  With ``--trace 1`` it prints the
per-layer metrics: repeated timings of single public calls, solver counts,
and self times from traced CLI runs whose answers must equal the untraced
ones bitwise.  Without ``--trace`` it does both and prints every metric.

Every operation is checked; ``failed`` counts those that raised, returned a
non-finite distance, broke weak duality, missed the reference distance, hit
``max_iter`` or, for the CLI, exited non-zero.  ``correct`` is false when an
answer was wrong, not merely unconverged.  The last line of standard output
is the JSON result; the lines before it print every metric by name with its
unit, sample count and quartiles, plus ``solve_s`` (median solve time),
``cli_tail_s`` (the highest percentile with at least ten samples above it) and
``failed_frac``.
"""

from __future__ import annotations

import argparse
import os
import sys

SRC = os.path.join(os.getcwd(), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics; omitted: both")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "momt", "__init__.py")):
        print(f"error: no momt source tree under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.environ["MOMT_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import momt  # noqa: F401  (first, so its thread cap precedes numpy)

    import instances
    import measure

    if args.workload not in instances.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(instances.WORKLOADS)}", file=sys.stderr)
        return 2
    return measure.main(args)


if __name__ == "__main__":
    sys.exit(main())
