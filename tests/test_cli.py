import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momt import (DensityMatrix, InfeasibleEndpoints, LindbladSet, SolverConfig,
                  SymmetryError, feasibility_gap, matrix_to_literal, optimize_geodesic)
from momt.cli import main
from momt.io import dump_canonical, load_problem, parse_problem
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


def _set_infinite_imaginary_entry(doc):
    doc["rho1"]["im"][0][1] = float("inf")


SINGULAR_RHO = matrix_to_literal(np.diag([1.0, 0.0]))

# (edit of the Pauli problem, start of the error line it must produce)
MALFORMED = [
    (lambda d: d.update(lindblad=3), "error: $.lindblad:"),
    (lambda d: d["lindblad"].update(n="x"), "error: $.lindblad.n:"),
    (lambda d: d["lindblad"].update(operators=5), "error: $.lindblad.operators:"),
    (_set_nan_entry, "error: $.lindblad.operators[0]:"),
    (_set_infinite_imaginary_entry, "error: $.rho1:"),
    (lambda d: d["rho0"].update(n=2.5), "error: $.rho0.n:"),
    (lambda d: d["rho0"].update(n="2"), "error: $.rho0.n:"),
    (lambda d: d["lindblad"].update(opertors=[]), "error: $.lindblad.opertors: unknown key"),
    (lambda d: d["rho0"].update(scale=2.0), "error: $.rho0.scale: unknown key"),
    (lambda d: d.update(config={"K": 2.7}), "error: $.config.K:"),
    (lambda d: d.update(config={"grad_tol": float("nan")}), "error: $.config.grad_tol:"),
    (lambda d: d.update(config={"grad_tol": -1.0}), "error: $.config.grad_tol:"),
    (lambda d: d.update(config={"max_iter": -1}), "error: $.config.max_iter:"),
    (lambda d: d.update(config={"eps_pd": -1.0}), "error: $.config.eps_pd:"),
    (lambda d: d.update(config={"eps_pd": float("inf")}), "error: $.config.eps_pd:"),
    (lambda d: d.update(config={"eps_pd": 1e-12}), "error: $.config.eps_pd:"),
    (lambda d: d.update(config={"grad_tol": True}), "error: $.config.grad_tol:"),
    (lambda d: d.update(config={"grad_tol": "1e-3"}), "error: $.config.grad_tol:"),
    # a JSON integer has no size limit; one beyond the float range is refused
    (lambda d: d.update(config={"K": 10 ** 400}), "error: $.config.K:"),
    (lambda d: d.update(config={"grad_tol": 10 ** 400}), "error: $.config.grad_tol:"),
    (lambda d: d.update(config={"seed": -10 ** 400}), "error: $.config.seed:"),
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
    assert report["schema_version"] == 2
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
    checks = suite_calculus(healthy, np.random.default_rng(0))
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



def test_relative_kernel_component_is_infeasible(tmp_path, capsys):
    # a 2.8e-11 kernel part of rho1 - rho0 against |rho1 - rho0| = 5.7e-3:
    # below the guard's absolute 1e-10, above the interval solve's relative
    # 1e-10 |f|, so the guard must reject it, not the first interval solve
    op = np.diag([1.0, 2.0, 3.0])
    r0 = np.diag([0.3, 0.3, 0.4]).astype(complex)
    r0[0, 1] = r0[1, 0] = 0.05
    r1 = r0.copy()
    r1[0, 1] = r1[1, 0] = 0.054
    r1[0, 0] += 2e-11
    r1[1, 1] -= 2e-11
    l = LindbladSet([op])
    assert 1e-11 < feasibility_gap(l, r0, r1) < 1e-10
    with pytest.raises(InfeasibleEndpoints, match="kernel"):
        optimize_geodesic(l, DensityMatrix(r0), DensityMatrix(r1), SolverConfig(K=4))
    prob = tmp_path / "edge.json"
    prob.write_text(json.dumps({"lindblad": {"n": 3, "operators": [matrix_to_literal(op)]},
                                "rho0": matrix_to_literal(r0), "rho1": matrix_to_literal(r1)}))
    assert main(["distance", str(prob)]) == 2
    assert "kernel component" in capsys.readouterr().err


def test_readme_problem_file_runs(tmp_path, capsys):
    # the problem file that README documents parses and solves as it stands
    text = (FIXTURES.parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    spec = parse_problem(block)
    assert spec.lindblad.count == 3 and spec.config.K == 32
    prob = tmp_path / "readme.json"
    prob.write_text(block)
    assert main(["distance", str(prob)]) == 0
    assert "converged: yes" in capsys.readouterr().out


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.mark.parametrize("cap, preset, expect", [
    ("2", {}, dict.fromkeys(BLAS_VARS, "2")),
    ("2", {"MKL_NUM_THREADS": "5"}, {**dict.fromkeys(BLAS_VARS, "2"), "MKL_NUM_THREADS": "5"}),
    ("abc", {}, dict.fromkeys(BLAS_VARS)),
    ("0", {}, dict.fromkeys(BLAS_VARS)),
], ids=["cap", "user-value-kept", "not-an-integer", "zero"])
def test_thread_cap_sets_blas_variables(cap, preset, expect):
    # numpy sizes its BLAS pools when it is first imported, so the cap that
    # `import momt` applies is read back in a fresh interpreter
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, MOMT_THREADS=cap)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import json, os, momt; "
            f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_VARS!r}}}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expect
