import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momt import LindbladSet, SymmetryError, matrix_to_literal
from momt.cli import main
from momt.io import dump_canonical, load_problem
from momt.verify import run_suites, suite_calculus
from conftest import FIXTURES, SX, SZ

PAULI = str(FIXTURES / "pauli_problem.json")
INFEASIBLE = str(FIXTURES / "infeasible_problem.json")
SRC = str(FIXTURES.parents[1] / "src")
DEMOS = sorted((FIXTURES.parents[1] / "demos").glob("*.py"))


def test_distance_converged_exit_zero(capsys):
    assert main(["distance", PAULI]) == 0
    out = capsys.readouterr().out
    assert "distance" in out and "converged: yes" in out


def test_distance_identical_endpoints(tmp_path, capsys):
    doc = json.loads(Path(PAULI).read_text())
    doc["rho1"] = doc["rho0"]
    prob = tmp_path / "same.json"
    prob.write_text(json.dumps(doc))
    assert main(["distance", str(prob)]) == 0
    assert "distance     0\n" in capsys.readouterr().out


def test_distance_infeasible_exit_two(capsys):
    assert main(["distance", INFEASIBLE]) == 2
    err = capsys.readouterr().err
    assert "kernel" in err


def test_distance_missing_file_exit_one(capsys):
    assert main(["distance", "/nonexistent/problem.json"]) == 1
    assert "error" in capsys.readouterr().err


def _set_nan_entry(doc):
    doc["lindblad"]["operators"][0]["re"][0][0] = float("nan")


SINGULAR_RHO = matrix_to_literal(np.diag([1.0, 0.0]))

# (edit of the Pauli problem, start of the error line it must produce)
MALFORMED = [
    (lambda d: d.update(lindblad=3), "error: $.lindblad:"),
    (lambda d: d["lindblad"].update(n="x"), "error: $.lindblad.n:"),
    (lambda d: d["lindblad"].update(operators=5), "error: $.lindblad.operators:"),
    (_set_nan_entry, "error: $.lindblad.operators[0]:"),
    (lambda d: d["rho0"].update(n=2.5), "error: $.rho0.n:"),
    (lambda d: d["rho0"].update(n="2"), "error: $.rho0.n:"),
    (lambda d: d.update(config={"K": 2.7}), "error: $.config.K:"),
    (lambda d: d.update(config={"grad_tol": float("nan")}), "error: $.config.grad_tol:"),
    (lambda d: d.update(config={"grad_tol": -1.0}), "error: $.config.grad_tol:"),
    (lambda d: d.update(config={"max_iter": -1}), "error: $.config.max_iter:"),
    (lambda d: d.update(config={"eps_pd": -1.0}), "error: $.config.eps_pd:"),
    (lambda d: d.update(config={"eps_pd": float("inf")}), "error: $.config.eps_pd:"),
    (lambda d: d.update(config={"eps_pd": 1e-12}), "error: $.config.eps_pd:"),
    # parses (boundary states are admissible), but a solve needs rho0 > 0
    (lambda d: d.update(rho0=SINGULAR_RHO), "error: strict density requires"),
]


def test_distance_parse_error_exit_one(tmp_path, capsys):
    for i, (edit, expected) in enumerate(MALFORMED):
        doc = json.loads(Path(PAULI).read_text())
        edit(doc)
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(doc))
        assert main(["distance", str(bad)]) == 1, expected
        assert capsys.readouterr().err.startswith(expected)


def test_usage_error_does_not_collide_with_infeasible(capsys):
    assert main(["bogus-command"]) == 1
    capsys.readouterr()


def test_distance_json_and_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["distance", PAULI, "--out", str(out), "--json"]) == 0
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert report["schema_version"] == 1
    assert report["converged"] is True
    assert out.read_text() == printed


def test_report_determinism_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["distance", PAULI, "--out", str(a), "--quiet"]) == 0
    assert main(["distance", PAULI, "--out", str(b), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_quiet_suppresses_output(capsys):
    assert main(["distance", PAULI, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_geodesic_round_trip(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["geodesic", PAULI, "--out", str(out)]) == 0
    trace = json.loads(out.read_text())
    assert len(trace["nodes"]) == trace["K"] + 1 == 33
    assert dump_canonical(trace) == out.read_text()
    capsys.readouterr()


def test_operator_info_pauli(capsys):
    assert main(["operator-info", PAULI, "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kernel_dim"] == 1
    np.testing.assert_allclose(info["poincare_maximally_mixed"], 4.0, atol=1e-12)
    assert info["warnings"] == []


def test_operator_info_degenerate_set(tmp_path, capsys):
    doc = json.loads(Path(PAULI).read_text())
    doc["lindblad"]["operators"] = [matrix_to_literal(np.eye(2))]
    prob = tmp_path / "identity.json"
    prob.write_text(json.dumps(doc))
    assert main(["operator-info", str(prob), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kernel_dim"] == 4
    assert info["poincare_maximally_mixed"] == 0.0
    codes = {w["code"] for w in info["warnings"]}
    assert {"kernel-dim", "degenerate-weight"} <= codes


def test_operator_info_sz_warns_kernel(capsys):
    assert main(["operator-info", INFEASIBLE, "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kernel_dim"] == 2
    np.testing.assert_allclose(info["poincare_maximally_mixed"], 2.0, atol=1e-12)
    assert any(w["code"] == "kernel-dim" for w in info["warnings"])


@pytest.mark.parametrize("suite", ["calculus", "duality", "conservation", "all"])
def test_verify_suites_pass(suite, capsys):
    assert main(["verify", PAULI, "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out


def test_verify_json_document(capsys):
    assert main(["verify", PAULI, "--suite", "calculus", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    assert "gradient/divergence adjointness" in names


def test_verify_deterministic(capsys):
    main(["verify", PAULI, "--suite", "duality", "--json"])
    first = capsys.readouterr().out
    main(["verify", PAULI, "--suite", "duality", "--json"])
    assert capsys.readouterr().out == first


def test_verify_infeasible_endpoints_skips_solve(capsys):
    # suites on a problem whose endpoints cannot be joined still run; the
    # end-to-end checks report themselves as skipped rather than failing
    assert main(["verify", INFEASIBLE, "--suite", "duality"]) == 0
    assert "skipped" in capsys.readouterr().out


def test_corrupted_operator_fails_calculus_suite():
    # negative control.  Non-Hermitian blocks are rejected outright by the
    # constructors, so corruption is only reachable by tampering with the
    # derived data behind validation: stale kernel/coordinate caches must
    # make the suite fail, not pass silently.
    with pytest.raises(SymmetryError):
        LindbladSet([np.array([[0.0, 1.0], [0.2, 0.0]])])

    healthy = LindbladSet([SZ])
    donor = LindbladSet([SX])
    healthy.ops = donor.ops  # bypasses every parse/constructor gate
    checks = suite_calculus(healthy, np.random.default_rng(0), cases=20)
    by_name = {c.name: c.passed for c in checks}
    assert not by_name["kernel basis annihilated by the gradient"]
    assert not by_name["gradient superoperator matches blockwise gradient"]
    assert not all(by_name.values())


def test_run_suites_rejects_unknown_name():
    spec = load_problem(PAULI)
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(spec, "nonsense")


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency: import and every verify suite run without it
    code = ("import sys, momt; "
            f"momt.run_suites(momt.load_problem({PAULI!r}), 'all'); "
            "print('scipy' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
