"""Record the reference answer for every pool instance into reference.json.

Run once from the repository root on the code the references should come
from:

    MOMT_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

Every pool entry is solved with its family's configuration and recorded as
measured, converged or not; nothing is filtered out.
"""

from __future__ import annotations

import json
import math
import os
import sys

os.environ.setdefault("MOMT_THREADS", "1")

import momt  # noqa: E402  (first, so its thread cap precedes numpy)
from momt import optimize_geodesic  # noqa: E402

import instances  # noqa: E402  (perfbench/ is the script directory)

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    entries, summary = {}, {}
    for family, (_, _, big_k, size, _) in instances.FAMILIES.items():
        iters, gaps, failed = [], [], 0
        for i in range(size):
            inst = instances.pool_instance(family, i)
            l, r0, r1, cfg = instances.build(inst)
            res = optimize_geodesic(l, r0, r1, cfg)
            rel_gap = res.gap / res.primal_cost if res.primal_cost > 0 else 0.0
            ok = (res.converged and res.iterations < cfg.max_iter
                  and math.isfinite(res.distance))
            failed += not ok
            iters.append(res.iterations)
            gaps.append(rel_gap)
            entries[instances.key(inst)] = {
                "distance": res.distance, "iterations": res.iterations,
                "converged": res.converged, "rel_gap": rel_gap}
            print(f"{instances.key(inst)}  d={res.distance!r}  it={res.iterations}"
                  f"  converged={res.converged}  rel_gap={rel_gap:.3e}", flush=True)
        gaps.sort()
        summary[family] = {
            "K": big_k, "instances": size, "failed_frac": failed / size,
            "iterations_total": sum(iters), "iterations_min": min(iters),
            "iterations_max": max(iters), "rel_gap_median": gaps[size // 2]}
    doc = {"pool_seed": instances.POOL_SEED, "momt_version": momt.__version__,
           "summary": summary, "instances": entries}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
