"""Same answers: does the checkout give the outputs of a base revision?

    python tests/same_answers.py --base REV

exports REV's ``src/`` and ``demos/`` with ``git archive`` into a temporary
directory and runs, in subprocesses, once on that tree and once on the
checkout's:

- ``momt distance --json``, ``geodesic --out``, ``operator-info --json`` and
  ``verify --suite all --json`` on the five problem fixtures;
- ``momt distance --json`` on three problems that one JSON edit of a fixture
  makes (EDITED), written into the run directory: each leaves the descent by
  an exit that no fixture reaches;
- the four demos;
- ``optimize_geodesic`` on the 40 pool entries of ``perfbench/instances.py``
  (imported read-only, writing no bytecode).

Each output gets one verdict (see compare): identical; within 1e-12 relative
or 1e-14 absolute, with the maxima; or different.  Every run also says
whether its exit code and stderr are the same, and each changed place is
listed with its old and new value; a key on one side only is listed as
<absent> on the other, and the keys both sides share are still judged.  The
rounding-floor fields (FLOOR) are listed with their old and new values, never
judged, and each pool solve prints its iteration counts.  The exit status is 1 when any output is
different or any exit code or stderr moved.  Standard library only; pytest
does not collect this file, and nothing is written under the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
PROBLEMS = ("pauli_problem", "flat_cost_qutrit21", "flat_cost_qutrit139", "three_level_pair",
            "infeasible_problem")


def _scale_entry(doc: dict, factor: float) -> None:
    doc["lindblad"]["operators"][0]["re"][2][2] *= factor


#: (name, fixture, edit) of each edited problem: operators[0].re[2][2] times 1e3 stops
#: at the cone boundary after 19 iterations (exit 3), times 1e10 fails the potential
#: solve's residual gate (exit 1), and max_iter = 1 stops on the iteration cap (exit 3)
EDITED = (
    ("flat_cost_qutrit21_entry_x1e3", "flat_cost_qutrit21", lambda doc: _scale_entry(doc, 1e3)),
    ("flat_cost_qutrit21_entry_x1e10", "flat_cost_qutrit21",
     lambda doc: _scale_entry(doc, 1e10)),
    ("three_level_pair_max_iter_1", "three_level_pair",
     lambda doc: doc.update(config={"max_iter": 1})),
)

DEMOS = ("geodesic_run.py", "kinetic_boundary.py", "operator_tour.py", "sharp_constants.py")
REL_TOL, ABS_TOL = 1e-12, 1e-14
REL_SIZE = ABS_TOL / REL_TOL  # from this size on the relative bound is the looser one
#: fields whose value is rounding of the answer, not the answer: listed, never judged
#: (a verify check's detail carries its measured error; its name and verdict are judged)
FLOOR = ("dual_value", "gap", "rel_gap", "grad_norm", "rel_std", "detail")
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf)")
SHOWN = 8  # changed places listed per output

POOL_SCRIPT = """
import json, sys
sys.dont_write_bytecode = True
sys.path.append(sys.argv[1])
import instances
from momt import optimize_geodesic
for family, (_, _, _, size, _) in instances.FAMILIES.items():
    for i in range(size):
        inst = instances.pool_instance(family, i)
        r = optimize_geodesic(*instances.build(inst))
        print(json.dumps({"key": instances.key(inst), "iterations": r.iterations,
                          "converged": r.converged, "warnings": r.warnings,
                          "distance": r.distance, "primal_cost": r.primal_cost,
                          "trace_drift": r.trace_drift, "dual_value": r.dual_value,
                          "gap": r.gap, "rel_gap": r.rel_gap, "grad_norm": r.grad_norm}))
"""


class _Absent:
    """The side of a key that only the other document has."""

    def __repr__(self):
        return "<absent>"


ABSENT = _Absent()


class Verdict(NamedTuple):
    kind: str        # "identical", "within" or "different"
    max_rel: float   # largest relative change of a judged number of size >= REL_SIZE
    max_abs: float   # largest absolute change of a smaller judged number
    changes: list    # (place, old, new) of every key on one side only (ABSENT on the
                     # other), then of every judged value that moved
    floor: list      # (place, old, new) of every FLOOR field


def _close(a: float, b: float) -> bool:
    d = abs(a - b)
    return a == b or (math.isnan(a) and math.isnan(b)) or d <= ABS_TOL \
        or d <= REL_TOL * max(abs(a), abs(b))


def _text_pairs(place: str, old: str, new: str, out: list) -> bool:
    """Append the number pairs of two texts; False if the words around them differ."""
    a, b = NUMBER.split(old), NUMBER.split(new)
    if len(a) != len(b) or a[0::2] != b[0::2]:
        return False
    for i in range(1, len(a), 2):
        if a[i] != b[i]:
            out.append((f"{place}#{i // 2}", float(a[i]), float(b[i])))
    return True


def _walk(place: str, old, new, pairs: list, floor: list, keys: list) -> bool:
    """Collect the number pairs of two JSON values into pairs, those under a FLOOR key
    into floor, and each key on one side only into keys; False if their structure or a
    non-number differs.  The shared keys and items are walked whatever the others hold."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys += [(f"{place}.{k}", old.get(k, ABSENT), new.get(k, ABSENT))
                 for k in sorted(old.keys() ^ new.keys())]
        same = [_walk(f"{place}.{k}", old[k], new[k], floor if k in FLOOR else pairs, floor,
                      keys) for k in old if k in new]
        return old.keys() == new.keys() and all(same)
    if isinstance(old, list) and isinstance(new, list):
        same = [_walk(f"{place}[{i}]", a, b, pairs, floor, keys)
                for i, (a, b) in enumerate(zip(old, new))]
        return len(old) == len(new) and all(same)
    if isinstance(old, str) and isinstance(new, str):
        return _text_pairs(place, old, new, pairs)
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if numbers:
        pairs.append((place, float(old), float(new)))
        return True
    return old == new


def compare(old: str, new: str) -> Verdict:
    """The verdict on two outputs: JSON documents field by field, other text line by line."""
    pairs, floor, keys = [], [], []
    try:
        same_shape = _walk("", json.loads(old), json.loads(new), pairs, floor, keys)
    except ValueError:
        a, b = old.splitlines(), new.splitlines()
        same_shape = len(a) == len(b) and all(
            _text_pairs(f"line {i + 1}", x, y, pairs) for i, (x, y) in enumerate(zip(a, b)))
    moved = [(p, a, b) for p, a, b in pairs if a != b]
    large = [max(abs(a), abs(b)) >= REL_SIZE for _, a, b in moved]
    max_rel = max((abs(a - b) / max(abs(a), abs(b))
                   for (_, a, b), big in zip(moved, large) if big), default=0.0)
    max_abs = max((abs(a - b) for (_, a, b), big in zip(moved, large) if not big), default=0.0)
    ok = same_shape and all(_close(a, b) for _, a, b in moved)
    kind = "identical" if old == new else "within" if ok else "different"
    return Verdict(kind, max_rel, max_abs, keys + moved, floor)


def _run(tree: Path, args: list, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)


def _outputs(tree: Path, work: Path) -> dict:
    """label -> (exit code, stderr, output text) of every run on tree."""
    work.mkdir()
    out = {}
    for name in PROBLEMS:
        problem = str(FIXTURES / f"{name}.json")
        for command in (["distance", "--json"], ["operator-info", "--json"],
                        ["verify", "--suite", "all", "--json"]):
            done = _run(tree, ["-m", "momt.cli", command[0], problem, *command[1:]], work)
            out[f"{command[0]} {name}"] = (done.returncode, done.stderr, done.stdout)
        trace = work / f"{name}.trace.json"
        done = _run(tree, ["-m", "momt.cli", "geodesic", problem, "--out", trace.name], work)
        out[f"geodesic {name}"] = (done.returncode, done.stderr, done.stdout)
        out[f"geodesic {name} --out"] = (done.returncode, done.stderr,
                                         trace.read_text() if trace.exists() else "")
    for name, fixture, edit in EDITED:
        doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
        edit(doc)
        (work / f"{name}.json").write_text(json.dumps(doc))
        done = _run(tree, ["-m", "momt.cli", "distance", f"{name}.json", "--json"], work)
        out[f"distance {name}"] = (done.returncode, done.stderr, done.stdout)
    for demo in DEMOS:
        done = _run(tree, [str(tree / "demos" / demo)], work)
        out[f"demo {demo}"] = (done.returncode, done.stderr, done.stdout)
    done = _run(tree, ["-c", POOL_SCRIPT, str(ROOT / "perfbench")], work)
    if done.returncode:
        out["pool"] = (done.returncode, done.stderr, done.stdout)
    for line in done.stdout.splitlines():
        solve = json.loads(line)
        out[f"pool {solve.pop('key')}"] = (done.returncode, done.stderr, json.dumps(solve))
    return out


def _export(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev,
                              "src", "demos"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def _report(label: str, old: tuple, new: tuple) -> bool:
    """Print one output's verdict; True when it is not different and exit and stderr match."""
    v = compare(old[2], new[2])
    same_run = old[:2] == new[:2]
    line = f"{label:<40} {v.kind:<10}"
    if v.kind == "within":
        line += f" max rel {v.max_rel:.2e}  max abs {v.max_abs:.2e}"
    line += f"  exit {'same' if old[0] == new[0] else f'{old[0]} -> {new[0]}'}"
    line += f"  stderr {'same' if old[1] == new[1] else 'differs'}"
    print(line)
    for place, a, b in v.changes[:SHOWN]:
        print(f"    {place}: {a!r} -> {b!r}")
    if len(v.changes) > SHOWN:
        print(f"    ... {len(v.changes) - SHOWN} more")
    if label.startswith("pool "):
        print("    iterations " + " -> ".join(str(json.loads(d)["iterations"])
                                              for d in (old[2], new[2])))
    for place, a, b in v.floor:
        ratio = f", x{b / a:.3f}" if a else ""
        print(f"    floor {place}: {a:.6g} -> {b:.6g}  (change {b - a:.2e}{ratio})")
    return v.kind != "different" and same_run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="momt-same-") as tmp:
        base = _export(args.base, Path(tmp) / "base")
        old, new = _outputs(base, Path(tmp) / "run-base"), _outputs(ROOT, Path(tmp) / "run-head")
    if old.keys() != new.keys():
        print(f"outputs differ in kind: {sorted(old.keys() ^ new.keys())}")
        return 1
    results = [_report(label, old[label], new[label]) for label in old]
    print(f"{sum(results)}/{len(results)} outputs the same within the bounds "
          f"(base {args.base})")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
