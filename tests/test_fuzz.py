"""Seeded mutation fuzzing of problem files.

Each document is a fixture with one random edit: a value replaced by one of
VALUES, a key or list item deleted, or every number under a node scaled by a
power of ten up to 1e150.  Every document must parse to a ProblemSpec or
raise ParseError, with warnings as errors, so an overflow inside a gate
fails the test.  A parsed document must give a result from a capped solve,
or one of the refusals the CLI documents (InfeasibleEndpoints, or
NotPositive for a boundary endpoint).  A sample also runs through cli.main,
as momt distance and as momt verify --suite all, each of which must exit
with a documented code and print nothing on stderr but an "error:" line.
A failing document is printed as JSON, ready to become a row of
tests/test_cli.py::MALFORMED.
"""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from momt import InfeasibleEndpoints, NotPositive, ParseError, optimize_geodesic
from momt.cli import main
from momt.io import parse_problem
from conftest import FIXTURES

SEED = 15
DOCUMENTS = 2000
CLI_EVERY = 50  # every 50th document also runs through momt distance and momt verify
SOURCES = [(FIXTURES / f"{name}.json").read_text()
           for name in ("three_level_pair", "pauli_problem", "flat_cost_qutrit21")]
# the float range's edges, non-finite numbers, an integer beyond 2^53, and
# every JSON kind that is not a number
VALUES = [0, 1e300, -1e300, 5e-324, float("nan"), float("inf"), 10 ** 30, True, None,
          "1", "", [], {}]


def _paths(node, path=()):
    """The path of every node under node (node itself first), as key tuples."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


def _scaled(node, factor):
    """node with every number under it (not a boolean) multiplied by factor."""
    if isinstance(node, dict):
        return {key: _scaled(child, factor) for key, child in node.items()}
    if isinstance(node, list):
        return [_scaled(child, factor) for child in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return node * factor
    return node


def mutate(rng, text: str) -> dict:
    """One fixture document with one random edit below its top level."""
    doc = json.loads(text)
    paths = list(_paths(doc))[1:]
    *head, key = paths[rng.integers(len(paths))]
    parent = doc
    for step in head:
        parent = parent[step]
    kind = rng.integers(3)
    if kind == 0:
        parent[key] = VALUES[rng.integers(len(VALUES))]
    elif kind == 1:
        del parent[key]
    else:
        parent[key] = _scaled(parent[key], 10.0 ** int(rng.integers(-150, 151)))
    return doc


def _capped(doc: dict, spec) -> dict:
    """doc with the config a capped solve uses: K <= 8 and max_iter <= 30."""
    config = {"K": min(spec.config.K, 8), "max_iter": min(spec.config.max_iter, 30)}
    return {**doc, "config": {**doc.get("config", {}), **config}}


def test_mutated_problem_files_parse_or_are_refused(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    outcomes = {}
    for i in range(DOCUMENTS):
        doc = mutate(rng, SOURCES[i % len(SOURCES)])
        text = json.dumps(doc)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    spec = parse_problem(text)
                except ParseError:
                    outcome = "ParseError"
                else:
                    doc = _capped(doc, spec)
                    config = replace(spec.config, K=doc["config"]["K"],
                                     max_iter=doc["config"]["max_iter"])
                    try:
                        optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, config)
                        outcome = "result"
                    except (InfeasibleEndpoints, NotPositive) as exc:
                        outcome = type(exc).__name__
                if i % CLI_EVERY == 0:
                    path = tmp_path / f"doc{i}.json"
                    path.write_text(json.dumps(doc))
                    for args in (["distance"], ["verify", "--suite", "all"]):
                        code = main([args[0], str(path), *args[1:], "--quiet"])
                        err = capsys.readouterr().err
                        assert code in (0, 1, 2, 3), (args, code)
                        assert err == "" or (err.startswith("error: ")
                                             and err.count("\n") == 1), (args, err)
        except Exception as exc:
            pytest.fail(f"document {i} raised {type(exc).__name__}: {exc}\n{json.dumps(doc)}")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # the edits reach every gate and the solver: no outcome is empty
    assert set(outcomes) >= {"ParseError", "result", "InfeasibleEndpoints"}, outcomes
