"""One fresh-process set-up: ``import momt`` plus every object a run needs.

    python3 perfbench/probe.py --workload qutrit --seed 1

Run from the checkout root with ``PYTHONPATH=src`` and ``MOMT_THREADS=1``
(``run.py`` starts it that way).  Prints one JSON line with ``import_s``
(``import momt``) and ``setup_s`` (import plus building the workload's
``LindbladSet``s and endpoint ``DensityMatrix`` objects), both measured from
before the import.
"""

import argparse
import json
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    t0 = time.perf_counter()
    import momt  # noqa: F401

    t_import = time.perf_counter() - t0
    import instances

    for inst in instances.select(args.workload, args.seed)[0]:
        instances.build(inst)
    t_setup = time.perf_counter() - t0
    print(json.dumps({"import_s": t_import, "setup_s": t_setup}))


if __name__ == "__main__":
    main()
