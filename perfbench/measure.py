"""Measurements behind ``run.py``: end-to-end loops, per-layer timings, traces.

Import ``momt`` before this module, so that its ``MOMT_THREADS`` cap reaches
the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import io as _io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import instances
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

#: relative distance tolerance against the recorded reference
DIST_RTOL = 1e-6
#: weak duality: dual_value may exceed primal_cost by this share of it
DUALITY_RTOL = 1e-9
#: relative gaps below this are rounding noise (n = 2 gives ~3e-13) and read as it
REL_GAP_FLOOR = 1e-11
#: fresh-process set-ups per round of operations, after one untimed warm-up
SETUP_PROBES = 7
#: per-layer timings repeat until both limits are met
LAYER_REPS, LAYER_MIN_S = 7, 0.25
CHILD_TIMEOUT_S = 150
#: momt.cli exit code for an answer that did not converge
EXIT_NOT_CONVERGED = 3

TRACED_LAYERS = [
    # (metric prefix, module, attribute)
    ("trace.geodesic.other", "momt.cli", "optimize_geodesic"),
    ("trace.elliptic.assemble", "momt.geodesic", "WeightedOperator"),
    ("trace.elliptic.solve", "momt.geodesic", "solve_potential"),
    ("trace.lindblad.gradient", "momt.geodesic", "gradient"),
    ("trace.geodesic.certificate", "momt.geodesic", "dual_certificate"),
    ("trace.io.load_problem", "momt.cli", "load_problem"),
    ("trace.io.build_report", "momt.cli", "build_report"),
]
SOLVE_ROOT = "trace.geodesic.other"


class Run:
    """Counts operations and their failures; prints metrics as they are made.

    ``failed`` counts every operation the gate rejects.  ``wrong`` counts the
    subset whose output is wrong (raised, non-finite, off the reference, weak
    duality broken, trace not bitwise equal); a solve that honestly reports
    non-convergence at ``max_iter`` fails without being wrong.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.metrics: dict = {}

    def record(self, what: str, why: str = "", wrong: bool = True) -> bool:
        self.attempted += 1
        if why:
            self.failed += 1
            self.wrong += wrong
            print(f"FAILED  {what}: {why}")
        return not why

    def guarded(self, what: str, fn, *args):
        """fn(*args), or None with a counted failure if it raises."""
        try:
            return fn(*args)
        except Exception:  # an operation failing is a measured outcome
            self.record(what, traceback.format_exc(limit=3).strip().replace("\n", " | "))
            return None

    def put(self, name: str, value, unit: str, samples=None, note: str = "",
            result: bool = True):
        """Print a metric; ``result`` also puts it in the final JSON line."""
        if result:
            self.metrics[name] = {"value": value, "unit": unit}
        extra = f"  n={len(samples)}" if samples else ""
        if samples and len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            extra += f" q1={q1:.6g} q3={q3:.6g}"
        print(f"metric  {name:32s} {value:.6g} {unit}{extra}{note}")


def tail(xs):
    """(value, percentile): the highest percentile with >= 10 samples above it.

    With fewer than 11 samples no percentile qualifies and the maximum is used.
    """
    xs = sorted(xs)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def answer_problems(ref: dict | None, distance, primal, dual, converged,
                    iterations, max_iter) -> tuple[str, bool]:
    """(why the answer fails the gate or "", whether it is wrong rather than capped)."""
    if ref is None:
        return "no reference distance recorded", True
    wrong = []
    if not math.isfinite(distance):
        wrong.append(f"distance {distance!r} is not finite")
    elif abs(distance - ref["distance"]) > DIST_RTOL * abs(ref["distance"]):
        wrong.append(f"distance {distance!r} differs from reference {ref['distance']!r}")
    if not dual - primal <= DUALITY_RTOL * abs(primal):
        wrong.append(f"dual {dual!r} exceeds primal {primal!r}")
    capped = [] if converged and iterations < max_iter else [
        f"not converged after {iterations} iterations (max_iter {max_iter})"]
    return "; ".join(wrong + capped), bool(wrong)


def environment(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            "MOMT_THREADS": os.environ.get("MOMT_THREADS"),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def child_env() -> dict:
    env = dict(os.environ)
    env["MOMT_THREADS"] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe(run: Run, args) -> dict | None:
    """One fresh-process set-up: {"import_s", "setup_s"}, or None if it failed."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"),
                           "--workload", args.workload, "--seed", str(args.seed)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if not run.record("setup probe", "" if proc.returncode == 0 else
                      f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"):
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def schedule(n_solve: int, n_cli: int, n_probe: int) -> list[tuple[str, int]]:
    """One round of operations with each kind spread evenly over the round.

    On a shared 2-core host the speed drifts by tens of percent over seconds,
    so each metric samples the whole run instead of one stretch of it.
    """
    ops = [(i / n_solve, "solve", i) for i in range(n_solve)]
    ops += [((j + 0.5) / n_cli, "cli", j) for j in range(n_cli)]
    ops += [((k + 0.5) / n_probe, "probe", k) for k in range(n_probe)]
    return [(kind, i) for _, kind, i in sorted(ops)]


def solve(built):
    from momt import optimize_geodesic

    l, r0, r1, cfg = built
    t = time.perf_counter()
    res = optimize_geodesic(l, r0, r1, cfg)
    return time.perf_counter() - t, res


def check_result(run: Run, inst, built, res, refs) -> bool:
    key = instances.key(inst)
    why, wrong = answer_problems(refs.get(key), res.distance, res.primal_cost,
                                 res.dual_value, res.converged, res.iterations,
                                 built[3].max_iter)
    return run.record(f"solve {key}", why, wrong)


def rel_gap_of(res) -> float:
    return max(res.gap / res.primal_cost if res.primal_cost > 0 else 0.0, REL_GAP_FLOOR)


def cli_call(path: str):
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "momt.cli", "distance", path, "--json"],
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t, proc


def check_cli(run: Run, inst, proc, refs) -> bool:
    key = instances.key(inst)
    if proc.returncode not in (0, EXIT_NOT_CONVERGED):
        return run.record(f"cli {key}", f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    rep = json.loads(proc.stdout)
    why, wrong = answer_problems(refs.get(key), rep["distance"], rep["primal_cost"],
                                 rep["dual_value"], rep["converged"], rep["iterations"],
                                 rep["config"]["max_iter"])
    if proc.returncode and not why:
        why, wrong = f"exit {proc.returncode} for a converged answer", True
    return run.record(f"cli {key}", why, wrong)


def end_to_end(run: Run, args, insts, built, cli_insts, files, refs) -> None:
    run.guarded("setup probe", probe, run, args)  # warms caches and bytecode; not timed
    setups, solve_times, gaps, cli_times, rounds = [], [], [], [], 0
    t_start = time.perf_counter()
    # whole rounds only, so every run solves the same mix of instances
    while not rounds or time.perf_counter() - t_start < args.seconds:
        rounds += 1
        passes = instances.WORKLOADS[args.workload][1]
        for kind, i in schedule(passes * len(insts), len(cli_insts), SETUP_PROBES):
            if kind == "probe":
                doc = run.guarded("setup probe", probe, run, args)
                if doc:
                    setups.append(doc["setup_s"])
                continue
            i %= len(insts)
            inst = insts[i] if kind == "solve" else cli_insts[i]
            key = instances.key(inst)
            if kind == "solve":
                out = run.guarded(f"solve {key}", solve, built[i])
                if out is not None:
                    check_result(run, inst, built[i], out[1], refs)
                    solve_times.append(out[0])
                    gaps.append(rel_gap_of(out[1]))
            else:
                out = run.guarded(f"cli {key}", cli_call, files[key])
                if out is not None:
                    run.guarded(f"cli {key}", check_cli, run, inst, out[1], refs)
                    cli_times.append(out[0])

    if setups:
        run.put("setup_s", statistics.median(setups), "s", setups)
    # solve_s and cli_tail_s are printed but left out of the result, whose
    # metrics must repeat within 25 % across runs.  A shared 2-core host
    # alternates between two speeds about 1.5x apart: the median solve time
    # jumps between them where the rate (a mean) moves in proportion, and with
    # qutrit's 12 CLI calls the tail definition picks the p16.7, the fastest
    # stretch of a run.
    if solve_times:
        run.put("solve_s", statistics.median(solve_times), "s", solve_times, result=False)
        run.put("solves_per_s", len(solve_times) / sum(solve_times), "1/s", None,
                f"  ({len(solve_times)} solves in {rounds} rounds, {sum(solve_times):.3f} s)")
    if cli_times:
        run.put("cli_s", statistics.median(cli_times), "s", cli_times)
        value, pct = tail(cli_times)
        run.put("cli_tail_s", value, "s", cli_times, f"  (p{pct:.1f})", result=False)
    run.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if gaps:
        run.put("rel_gap", statistics.median(gaps), "1", gaps)


def repeat(fn, *args) -> list:
    """Wall times of fn(*args), at least LAYER_REPS calls and LAYER_MIN_S seconds."""
    times, t_start = [], time.perf_counter()
    while len(times) < LAYER_REPS or time.perf_counter() - t_start < LAYER_MIN_S:
        t = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t)
    return times


def layer(run: Run, name: str, fn, *args) -> None:
    if fn is None:
        run.put(name, 0.0, "s", None, "  (callee absent)")
        return
    times = run.guarded(name, repeat, fn, *args)
    if times is not None and run.record(name):
        run.put(name, statistics.median(times), "s", times)


def traced_cli(tracer: Tracer, path: str):
    """momt.cli.main in process with every traced layer wrapped: (exit code, stdout)."""
    import momt.cli
    import momt.geodesic

    modules = {"momt.cli": momt.cli, "momt.geodesic": momt.geodesic}
    for prefix, module, attr in TRACED_LAYERS:
        tracer.install(modules[module], attr, prefix)
    sink = _io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            code = momt.cli.main(["distance", path, "--json"])
    finally:
        tracer.uninstall()
    return code, sink.getvalue()


def per_layer(run: Run, args, insts, built, cli_insts, files, refs) -> None:
    import momt

    run.guarded("setup probe", probe, run, args)  # warm-up, not timed
    docs = [run.guarded("setup probe", probe, run, args) for _ in range(SETUP_PROBES)]
    imports = [doc["import_s"] for doc in docs if doc]
    if imports:
        run.put("cli.import_s", statistics.median(imports), "s", imports)

    # a public callee that a refactor removes reports 0 instead of failing the run
    api = {name: getattr(momt, name, None) for name in (
        "LindbladSet", "WeightedOperator", "solve_potential", "initial_path",
        "parse_problem", "dual_certificate", "build_report", "dump_canonical")}
    inst, (l, r0, r1, cfg) = insts[0], built[0]
    mid = 0.5 * (r0.mat + r1.mat)
    layer(run, "lindblad.build_s", api["LindbladSet"], list(inst["ops"]))
    layer(run, "elliptic.assemble_s", api["WeightedOperator"], l, mid)
    w = api["WeightedOperator"](l, mid) if api["WeightedOperator"] else None
    layer(run, "elliptic.solve_s", w and api["solve_potential"], w, r1.mat - r0.mat)
    layer(run, "geodesic.sweep_s", api["initial_path"], l, r0, r1, cfg.K)
    layer(run, "io.parse_s", api["parse_problem"], instances.problem_text(inst))

    # The traced set is the CLI set: each instance is solved untraced in process,
    # then traced through momt.cli.main, and the two answers must agree bitwise.
    tracer = Tracer()
    untraced, traced, iterations, sweeps = [], [], 0, 0
    for k, (inst, b) in enumerate(zip(cli_insts, built)):
        key = instances.key(inst)
        out = run.guarded(f"solve {key}", solve, b)
        if out is None:
            continue
        dt, res = out
        check_result(run, inst, b, res, refs)
        if k == 0:  # the layers that need a solved path
            layer(run, "geodesic.certificate_s", api["dual_certificate"], b[0], res.path)
            parse, report, dump = (api[n] for n in ("parse_problem", "build_report",
                                                    "dump_canonical"))
            spec = parse(instances.problem_text(inst)) if parse else None
            layer(run, "io.report_s",
                  (lambda: dump(report(res, spec))) if parse and report and dump else None)
        first = len(tracer.spans)
        traced_out = run.guarded(f"traced cli {key}", traced_cli, tracer, files[key])
        if traced_out is None:
            continue
        code, stdout = traced_out
        if code not in (0, EXIT_NOT_CONVERGED):
            run.record(f"traced cli {key}", f"exit {code}")
            continue
        rep = run.guarded(f"traced cli {key}", json.loads, stdout)
        if rep is None:
            continue
        same = (rep["distance"], rep["primal_cost"], rep["dual_value"]) == \
            (res.distance, res.primal_cost, res.dual_value)
        if not run.record(f"traced cli {key}", "" if same else
                          f"traced distance {rep['distance']!r} is not the untraced "
                          f"{res.distance!r} bitwise"):
            continue
        traced.append(sum(e - s for n, s, e, _ in tracer.spans[first:] if n == SOLVE_ROOT))
        untraced.append(dt)
        iterations += res.iterations
        sweeps += b[3].K * (res.iterations + 1)

    os.makedirs(RUN_DIR, exist_ok=True)
    tracer.dump(os.path.join(RUN_DIR, f"spans-{args.workload}.json"))
    summary = tracer.summary()
    for prefix, _, _ in TRACED_LAYERS:
        agg = summary.get(prefix, {"self_s": 0.0, "calls": 0})
        run.put(f"{prefix}.self_s", agg["self_s"], "s")
        run.put(f"{prefix}.calls", agg["calls"], "count")
    if traced:
        under_solve = [p for p, m, _ in TRACED_LAYERS if m == "momt.geodesic"] + [SOLVE_ROOT]
        self_sum = sum(summary[p]["self_s"] for p in under_solve if p in summary)
        run.put("trace.solve_s", sum(traced), "s", None,
                f"  ({len(traced)} traced solves; their self times add to {self_sum:.6g} s)")
        run.put("trace.untraced_solve_s", sum(untraced), "s")
        run.put("trace.overhead_frac", sum(traced) / sum(untraced) - 1.0, "1")
        run.put("geodesic.iterations", iterations, "count")
        solves = tracer.count_under("trace.elliptic.solve", SOLVE_ROOT)
        run.put("geodesic.sweeps_per_iter", solves / sweeps, "1", None,
                f"  ({solves} interval solves / {sweeps} = K*(iterations+1))")


def main(args) -> int:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["instances"]

    print("env     " + json.dumps(environment(args), sort_keys=True))
    run = Run()
    insts, cli_insts = instances.select(args.workload, args.seed)
    built = [instances.build(inst) for inst in insts]
    os.makedirs(RUN_DIR, exist_ok=True)
    files = {}
    for inst in cli_insts:
        files[instances.key(inst)] = path = os.path.join(
            RUN_DIR, f"{os.getpid()}-{inst['family']}-{inst['index']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(instances.problem_text(inst))
    try:
        if args.trace != 1:
            end_to_end(run, args, insts, built, cli_insts, files, refs)
        if args.trace != 0:
            per_layer(run, args, insts, built, cli_insts, files, refs)
    finally:
        for path in files.values():
            os.remove(path)
    run.put("failed_frac", run.failed / max(run.attempted, 1), "1", None,
            f"  ({run.failed} of {run.attempted} operations)", result=args.trace != 0)
    print(json.dumps({"correct": run.wrong == 0, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": run.metrics}))
    return 0

