import gc
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


def test_distance_non_utf8_file_exit_one(tmp_path, capsys):
    prob = tmp_path / "latin.json"
    prob.write_bytes(b'{"lindblad": \xff\xfe}')
    assert main(["distance", str(prob)]) == 1
    assert capsys.readouterr().err.startswith("error: $")


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
    # the stop tolerance and the line search's floor are constants, not settings:
    # whatever value a file gives them, the key itself is refused
    (lambda d: d.update(config={"grad_tol": float("nan")}),
     "error: $.config.grad_tol: unknown key"),
    (lambda d: d.update(config={"grad_tol": 1e-7}), "error: $.config.grad_tol: unknown key"),
    (lambda d: d.update(config={"max_iter": -1}), "error: $.config.max_iter:"),
    (lambda d: d.update(config={"eps_pd": 1e-8}), "error: $.config.eps_pd: unknown key"),
    (lambda d: d.update(config={"eps_pd": float("inf")}), "error: $.config.eps_pd: unknown key"),
    (lambda d: d.update(config={"eps_pd": 1e-12}), "error: $.config.eps_pd: unknown key"),
    (lambda d: d.update(config={"grad_tol": True}), "error: $.config.grad_tol: unknown key"),
    (lambda d: d.update(config={"grad_tol": "1e-3"}), "error: $.config.grad_tol: unknown key"),
    # a JSON integer has no size limit; one beyond the float range is refused
    (lambda d: d.update(config={"K": 10 ** 400}), "error: $.config.K:"),
    (lambda d: d.update(config={"grad_tol": 10 ** 400}), "error: $.config.grad_tol: unknown key"),
    (lambda d: d.update(config={"seed": -10 ** 400}), "error: $.config.seed:"),
    # an integer, but numpy's generators take no negative seed
    (lambda d: d.update(config={"seed": -1}), "error: $.config.seed: must be >= 0"),
    # parses (boundary states are admissible), but a solve needs rho0 > 0
    (lambda d: d.update(rho0=SINGULAR_RHO), "error: strict density requires"),
    # a literal's entries are numbers in the float range, each refused at its own path
    (lambda d: d["rho0"]["re"][0].__setitem__(0, 10 ** 400), "error: $.rho0.re[0][0]:"),
    (lambda d: d["rho0"]["re"][0].__setitem__(0, "0.9"), "error: $.rho0.re[0][0]:"),
    (lambda d: d["lindblad"]["operators"][0]["re"][0].__setitem__(1, True),
     "error: $.lindblad.operators[0].re[0][1]:"),
    (lambda d: d["rho1"]["im"][0].__setitem__(1, None), "error: $.rho1.im[0][1]: expected float"),
    (lambda d: d["rho1"]["re"][1].append(0.0),
     "error: $.rho1.re: expected 2 lists of 2 numbers"),
    # the containers around the literals
    (lambda d: d.update(rho0=[[0.9, 0.0], [0.0, 0.1]]),
     "error: $.rho0: expected a matrix literal object"),
    (lambda d: d.update(config=[["K", 8]]), "error: $.config: expected an object"),
    (lambda d: d["lindblad"]["operators"].append(matrix_to_literal(np.eye(3))),
     "error: $.lindblad.operators: DimensionMismatch"),
    (lambda d: d["lindblad"].update(n=3),
     "error: $.lindblad.n: 3 is not the operators' dimension 2"),
    # finite entries above MAX_ENTRY: an overflowing defect test once let the first
    # of these through as the zero operator, the second failed in the solver's SVD
    (lambda d: d["lindblad"]["operators"][0].update(re=[[0, 1e300], [-1e300, 0]]),
     "error: $.lindblad.operators[0]:"),
    (lambda d: d["lindblad"]["operators"][0].update(re=[[1e308, 0], [0, 1e308]]),
     "error: $.lindblad.operators[0]:"),
    # K within the float range but beyond any path the solver could allocate
    (lambda d: d.update(config={"K": 10 ** 30}), "error: $.config.K:"),
    (lambda d: d.update(config={"K": 10 ** 12}), "error: $.config.K:"),
]


@pytest.mark.parametrize("edit, expected", MALFORMED,
                         ids=[f"row{i:02d}" for i in range(len(MALFORMED))])
def test_distance_parse_error_exit_one(tmp_path, capsys, edit, expected):
    doc = json.loads(Path(PAULI).read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["distance", str(bad)]) == 1, expected
    assert capsys.readouterr().err.startswith(expected)


def test_ill_conditioned_operator_set_ends_in_error_line(tmp_path, capsys):
    # the file parses, but the straight line's own potential solve fails the
    # residual gate: one error line and exit 1, not a traceback
    doc = json.loads((FIXTURES / "flat_cost_qutrit21.json").read_text())
    doc["lindblad"]["operators"][0]["re"][2][2] *= 1e10
    prob = tmp_path / "ill.json"
    prob.write_text(json.dumps(doc))
    assert main(["distance", str(prob)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: potential solve residual") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[]", "3", '"problem"', "null"])
def test_distance_non_object_top_level_exit_one(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["distance", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: $: top level must be an object")


def test_geodesic_exports_best_iterate_when_not_converged(tmp_path, capsys):
    # max_iter = 0 stops a qutrit solve on the straight line, which is not optimal
    doc = json.loads((FIXTURES / "flat_cost_qutrit21.json").read_text())
    doc["config"]["max_iter"] = 0
    prob, out = tmp_path / "capped.json", tmp_path / "trace.json"
    prob.write_text(json.dumps(doc))
    assert main(["geodesic", str(prob), "--out", str(out)]) == 3
    assert "converged    NO (best iterate exported)" in capsys.readouterr().out.splitlines()
    assert len(json.loads(out.read_text())["nodes"]) == 9


def test_usage_error_does_not_collide_with_infeasible(capsys):
    assert main(["bogus-command"]) == 1
    capsys.readouterr()


def test_distance_json_and_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["distance", PAULI, "--out", str(out), "--json"]) == 0
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert report["schema_version"] == 3
    assert report["converged"] is True
    assert out.read_text() == printed


@pytest.mark.parametrize("problem, pinned", [("pauli_problem", "pauli_report"),
                                             ("three_level_pair", "three_level_report")])
def test_distance_json_bytes_are_pinned(capsys, problem, pinned):
    # every "byte-identical" claim rests on these bytes: a change to a report's
    # layout or numbers on purpose edits the pinned file and says so
    assert main(["distance", str(FIXTURES / f"{problem}.json"), "--json"]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / f"{pinned}.json").read_bytes()


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
    assert main(["geodesic", PAULI, "--out", str(out), "--json"]) == 0
    trace = json.loads(out.read_text())
    assert len(trace["nodes"]) == trace["K"] + 1 == 33
    assert dump_canonical(trace) == out.read_text()
    assert out.read_bytes() == (FIXTURES / "pauli_trace.json").read_bytes()  # pinned bytes
    assert json.loads(capsys.readouterr().out)["nodes"] == 33


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


def test_verify_negative_seed_ends_in_error_line(tmp_path, capsys):
    # the calculus suite seeds its generator from the file: a negative seed is
    # refused where it enters, one error line and exit 1, not a numpy traceback
    doc = json.loads(Path(PAULI).read_text())
    doc["config"] = {"seed": -1}
    prob = tmp_path / "negative_seed.json"
    prob.write_text(json.dumps(doc))
    assert main(["verify", str(prob), "--suite", "calculus"]) == 1
    assert capsys.readouterr().err.startswith("error: $.config.seed: must be >= 0")


def scaled_three_level(tmp_path, scale) -> str:
    """three_level_pair.json with every operator times scale, as a problem file."""
    doc = json.loads((FIXTURES / "three_level_pair.json").read_text())
    for op in doc["lindblad"]["operators"]:
        for part in ("re", "im"):
            op[part] = [[scale * v for v in row] for row in op[part]]
    prob = tmp_path / "stiff.json"
    prob.write_text(json.dumps(doc))
    return str(prob)


@pytest.mark.parametrize("scale", [100, 300, 1e6, 1e8])
def test_verify_stiff_operators_passes(tmp_path, capsys, scale):
    # every operator of three_level_pair scaled up: the closed-form laplacian's
    # rounding defect then exceeds the symmetry gate, and the run must still pass;
    # at 1e6 and 1e8 the heat flow's central difference must step in the set's unit
    assert main(["verify", scaled_three_level(tmp_path, scale), "--suite", "all"]) == 0
    assert capsys.readouterr().out.endswith("24/24 checks passed (suite: all)\n")


SCALED_CALCULUS_ROWS = ("gradient superoperator matches blockwise gradient",
                        "divergence output is traceless",
                        "divergence range orthogonal to the kernel")


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e6])
def test_verify_duality_follows_the_operator_scale(tmp_path, capsys, scale):
    # at the subdifferential pair the dual-cone eigenvalue is rounding of size |b|^2,
    # so an absolute bound refused the pair once the operators were large; likewise
    # the gradient's and divergence's rounding grows with their output, so those
    # three calculus rows measure their error relative to it
    main(["verify", scaled_three_level(tmp_path, scale), "--json"])
    out = capsys.readouterr()
    checks = json.loads(out.out)["checks"]
    names = set(SCALED_CALCULUS_ROWS) | {
        c.name for c in run_suites(load_problem(str(FIXTURES / "three_level_pair.json")),
                                   "duality")}
    assert out.err == "" and len(checks) == 24
    assert [c["passed"] for c in checks if c["name"] in names] == [True] * len(names)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e4, 1e6])
def test_verify_superoperator_row_fails_on_a_perturbed_gradient(tmp_path, scale):
    # the relative superoperator row still sees a grad_matrix off by 1e-9 of its norm
    l = load_problem(scaled_three_level(tmp_path, scale)).lindblad
    rng = np.random.default_rng(0)
    delta = rng.standard_normal(l.grad_matrix.shape)
    l.grad_matrix = l.grad_matrix + 1e-9 * np.linalg.norm(l.grad_matrix) * delta \
        / np.linalg.norm(delta)
    rows = {c.name: c.passed for c in suite_calculus(l, np.random.default_rng(1))}
    assert rows[SCALED_CALCULUS_ROWS[0]] is False


def test_verify_check_that_raises_is_a_failed_row(tmp_path, capsys):
    # an operator with entries near 1e85 parses, but the laplacian of a random
    # matrix exceeds the output range gate (SymmetryError); that check fails, and
    # the others still run.
    # The scaled set makes the endpoints unconnectable, so the solver rows are skipped
    doc = json.loads((FIXTURES / "flat_cost_qutrit21.json").read_text())
    im = doc["lindblad"]["operators"][1]["im"]
    for i in range(3):
        for j in range(3):
            im[i][j] *= 1.0 if i == j else 1e85
    prob = tmp_path / "huge.json"
    prob.write_text(json.dumps(doc))
    assert main(["verify", str(prob), "--json"]) == 1
    out = capsys.readouterr()
    checks = json.loads(out.out)["checks"]
    assert out.err == "" and len(checks) == 21
    assert any(not c["passed"] and c["detail"].startswith("raised SymmetryError: ")
               for c in checks)


def _boundary_endpoint(doc):
    # rho0 on the cone boundary parses (admissible, not strict); the solver refuses it
    doc.update(rho0=SINGULAR_RHO, rho1=matrix_to_literal(np.diag([0.3, 0.7])),
               config={"K": 8, "seed": 7})


@pytest.mark.parametrize("source, edit", [(INFEASIBLE, None), (PAULI, _boundary_endpoint)],
                         ids=["infeasible", "boundary"])
def test_verify_infeasible_endpoints_skips_solve(tmp_path, capsys, source, edit):
    # suites on a problem whose solve is refused still run: the end-to-end
    # checks report themselves as skipped rather than failing or ending the run
    if edit is not None:
        doc = json.loads(Path(source).read_text())
        edit(doc)
        source = tmp_path / "refused.json"
        source.write_text(json.dumps(doc))
    assert main(["verify", str(source), "--suite", "all"]) == 0
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


def test_readme_quickstart_runs(capsys):
    # the Quickstart block runs as it stands, and prints and returns what README says
    text = (FIXTURES.parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert capsys.readouterr().out.startswith("0.565685424949")
    res = scope["res"]
    assert abs(res.gap) < 1e-12
    assert res.path.densities.shape == (33, 2, 2)
    assert res.path.momenta.shape == (32, 3, 2, 2)
    assert res.path.potentials.shape == (32, 2, 2)


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


PROBLEMS = [str(FIXTURES / f"{name}.json") for name in (
    "flat_cost_qutrit139", "flat_cost_qutrit21", "infeasible_problem", "pauli_problem",
    "three_level_pair")]


def _python(*args):
    """A fresh interpreter on src: (exit code, stdout bytes, stderr text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def test_import_binds_names_on_first_use():
    # `import momt` loads neither numpy nor a submodule; a public name loads its
    # submodule on first use, is that submodule's own object and is then bound
    # in the package, and a submodule name resolves to the submodule
    script = ("import importlib, json, sys, momt\n"
            "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('momt.'))\n"
            "wrong = [n for m, ns in momt._EXPORTS.items() for n in ns\n"
            "         if getattr(momt, n) is not getattr(importlib.import_module('momt.' + m), n)\n"
            "         or n not in vars(momt)]\n"
            "print(json.dumps([loaded, wrong, momt.action is sys.modules['momt.action']]))\n")
    code, out, err = _python("-c", script)
    assert code == 0, err
    assert json.loads(out) == [[], [], True]


def test_package_namespace_lists_and_refuses_names():
    import momt

    assert set(momt.__all__) <= set(dir(momt)) and "geodesic" in dir(momt)
    assert getattr(momt, "no_such_name", None) is None
    with pytest.raises(AttributeError, match="no_such_name"):
        momt.no_such_name


def _cli_process(args, probe):
    """Run `python -m momt.cli args` in a fresh interpreter, through runpy as the
    -m switch does; the words of its exit code, then of the expression probe."""
    script = ("import contextlib, gc, io, runpy, sys\n"
              f"sys.argv = ['momt', *{args!r}]\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    try:\n"
              "        runpy.run_module('momt.cli', run_name='__main__')\n"
              "    except SystemExit as exc:\n"
              "        code = exc.code\n"
              f"print(code, {probe})\n")
    code, out, err = _python("-c", script)
    assert code == 0, err
    return out.split()


def test_distance_process_loads_only_what_it_uses():
    # the verify command's modules stay out of a `momt distance` process, and
    # the process entry ran main() with the import-time objects frozen
    probe = ("'momt.verify' in sys.modules, 'momt.action' in sys.modules, "
             "gc.isenabled(), gc.get_freeze_count() > 0")
    assert _cli_process(["distance", PAULI, "--json"], probe) == [
        b"0", b"False", b"False", b"True", b"True"]


def test_verify_process_runs_the_driver_once():
    # momt.verify imports nothing from the driver, so `python -m momt.cli verify`
    # runs cli.py once, as __main__, and never imports it as momt.cli
    args = ["verify", PAULI, "--suite", "calculus", "--json"]
    assert _cli_process(args, "'momt.cli' in sys.modules") == [b"0", b"False"]


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: Path(p).stem)
def test_process_entry_matches_in_process_call(problem, capsys):
    # `python -m momt.cli` freezes its import-time objects, and prints the same
    # bytes with the same exit code as main() in process, which leaves the
    # garbage collector as it found it
    frozen = gc.get_freeze_count()
    for args in (["distance", problem, "--json"], ["operator-info", problem, "--json"]):
        code = main(args)
        out = capsys.readouterr().out
        assert gc.isenabled() and gc.get_freeze_count() == frozen
        assert _python("-m", "momt.cli", *args)[:2] == (code, out.encode())
