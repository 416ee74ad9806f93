"""Mutation probe: does tier-1 notice a wrong program?

Each mutant makes one change to one module of ``src/momt``: it flips a
comparison at its edge (< and <=, > and >=, == and !=), swaps + and -,
swaps * and /, or doubles a non-zero numeric literal.  The change is made
on the operator's or literal's own bytes, so every other line, comment and
line count of the file stays as it is.  Mutants are drawn with a seeded
generator, an equal share from each module, and each one runs tier-1 with
``-x`` on a temporary copy of the tree, never on the checkout.  The
conftest wall budget (30 s a test) stops a mutant that makes solves crawl;
a whole run past RUN_TIMEOUT_S counts as a timeout.  That budget is
wall-clock, so a loaded host can fail a test too: a mutant whose run fails
is run once more, and counts as killed only if both runs fail, else as
flaky.

    python tests/mutation_probe.py --seed 7 --mutants 40 \\
        --modules elliptic action verify geodesic --out /tmp/probe.txt

prints and writes one row per mutant (module, line, kind, change, outcome:
killed, flaky, survived or timeout) and the kill rate per module.  Standard
library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "momt"
RUN_TIMEOUT_S = 600.0  # one tier-1 run past this counts as a timeout
FLIPS = {b"<": b"<=", b"<=": b"<", b">": b">=", b">=": b">", b"==": b"!=", b"!=": b"=="}
SWAPS = {ast.Add: (b"+", b"-"), ast.Sub: (b"-", b"+"), ast.Mult: (b"*", b"/"),
         ast.Div: (b"/", b"*")}
COMPARISON = re.compile(rb"<=|>=|==|!=|<|>")


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the start of each line (ast columns count UTF-8 bytes)."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _between(starts, left, right) -> tuple[int, int]:
    """Byte span from the end of node left to the start of node right."""
    return (starts[left.end_lineno - 1] + left.end_col_offset,
            starts[right.lineno - 1] + right.col_offset)


def _in_fstrings(tree) -> set[int]:
    """ids of the nodes inside f-strings, whose columns Python 3.11 does not keep."""
    return {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
            for inner in ast.walk(node)}


def sites(source: bytes) -> list[tuple[int, str, int, int, bytes]]:
    """Every mutation of source: (line, kind, start, end, replacement bytes)."""
    tree, starts, out = ast.parse(source), _offsets(source), []
    skip = _in_fstrings(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for left, right in zip([node.left] + node.comparators[:-1], node.comparators):
                lo, hi = _between(starts, left, right)
                found = COMPARISON.findall(source[lo:hi])
                if len(found) == 1 and found[0] in FLIPS:
                    at = lo + source[lo:hi].index(found[0])
                    out.append((left.end_lineno, "comparison", at, at + len(found[0]),
                                FLIPS[found[0]]))
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            old, new = SWAPS[type(node.op)]
            lo, hi = _between(starts, node.left, node.right)
            gap = source[lo:hi]
            if gap.count(old) == 1 and (old != b"*" or b"**" not in gap) \
                    and (old != b"/" or b"//" not in gap):
                at = lo + gap.index(old)
                kind = "plus-minus" if old in (b"+", b"-") else "times-divide"
                out.append((node.left.end_lineno, kind, at, at + 1, new))
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
              and node.value != 0):
            lo = starts[node.lineno - 1] + node.col_offset
            hi = starts[node.end_lineno - 1] + node.end_col_offset
            out.append((node.lineno, "double-literal", lo, hi,
                        repr(2 * node.value).encode()))
    return sorted(out, key=lambda s: (s[0], s[2]))


def draw(modules: list[str], count: int, seed: int):
    """An equal share of count seeded mutants from each module, in file order."""
    rng, chosen = random.Random(seed), []
    for i, module in enumerate(modules):
        share = count // len(modules) + (i < count % len(modules))
        pool = sites((ROOT / PACKAGE / f"{module}.py").read_bytes())
        picked = rng.sample(range(len(pool)), min(share, len(pool)))
        chosen += [(module, *pool[j]) for j in sorted(picked)]
    return chosen


def run_tier1(copy: Path) -> str:
    """killed, survived or timeout for tier-1 (with -x) on the tree at copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", "tests"], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mutants", type=int, default=40)
    parser.add_argument("--modules", nargs="+",
                        default=sorted(f.stem for f in (ROOT / PACKAGE).glob("[!_]*.py")),
                        help="module names under src/momt (default: every one)")
    parser.add_argument("--out", type=Path, required=True,
                        help="table file, outside the checkout")
    args = parser.parse_args(argv)
    if args.out.resolve().is_relative_to(ROOT):
        parser.error("--out must lie outside the checkout")

    mutants = draw(args.modules, args.mutants, args.seed)
    rows, start = [], time.monotonic()
    with tempfile.TemporaryDirectory(prefix="momt-probe-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_run"))
        if run_tier1(copy) != "survived":
            print("tier-1 fails on the unmutated copy; no mutant can be judged", file=sys.stderr)
            return 1
        for module, line, kind, lo, hi, new in mutants:
            path = copy / PACKAGE / f"{module}.py"
            original = path.read_bytes()
            path.write_bytes(original[:lo] + new + original[hi:])
            try:
                outcome = run_tier1(copy)
                if outcome == "killed" and run_tier1(copy) != "killed":
                    outcome = "flaky"
            finally:
                path.write_bytes(original)
            change = f"{original[lo:hi].decode()} -> {new.decode()}"
            rows.append(f"{module:<10} {line:>5}  {kind:<14} {change:<24} {outcome}")
            print(rows[-1], flush=True)

    lines = [f"mutation probe: seed {args.seed}, {len(mutants)} mutants, "
             f"{time.monotonic() - start:.0f} s", ""] + rows + ["", "kill rate per module:"]
    for module in args.modules:
        outcomes = [r.split()[-1] for r in rows if r.split()[0] == module]
        lines.append(f"  {module:<10} {outcomes.count('killed')}/{len(outcomes)} killed, "
                     f"{outcomes.count('flaky')} flaky, {outcomes.count('timeout')} timeout")
    print("\n".join(lines[len(rows) + 2:]))
    args.out.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
