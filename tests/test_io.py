import json
from dataclasses import fields

import numpy as np
import pytest

from momt import (
    DiscretePath,
    ParseError,
    SCHEMA_VERSION,
    SolverConfig,
    build_report,
    continuity_residual,
    dump_canonical,
    export_geodesic,
    geodesic_trace,
    kinetic,
    load_problem,
    matrix_from_literal,
    matrix_to_literal,
    optimize_geodesic,
    parse_problem,
)
from conftest import FIXTURES, SX, SZ


def minimal_problem(**overrides):
    doc = {
        "lindblad": {"n": 2, "operators": [matrix_to_literal(SX),
                                           matrix_to_literal(SZ)]},
        "rho0": matrix_to_literal(np.diag([0.7, 0.3]).astype(complex)),
        "rho1": matrix_to_literal(np.diag([0.4, 0.6]).astype(complex)),
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_problem():
    spec = parse_problem(json.dumps(minimal_problem()))
    assert spec.lindblad.n == 2 and spec.lindblad.count == 2
    assert spec.config.K == 32 and spec.config.max_iter == 500
    assert spec.seed == 1234
    np.testing.assert_allclose(spec.rho0.mat, np.diag([0.7, 0.3]), atol=1e-15)


def test_parse_config_overrides():
    doc = minimal_problem(config={"K": 8, "seed": 9, "max_iter": 20})
    spec = parse_problem(json.dumps(doc))
    assert spec.config.K == 8 and spec.seed == 9
    assert spec.config.max_iter == 20
    # 0 is the smallest seed numpy's generators take; only a negative one is refused
    assert parse_problem(json.dumps(minimal_problem(config={"seed": 0}))).seed == 0


def test_config_round_trips_every_field():
    # every SolverConfig field and the seed, each off its default, is read and echoed
    values = {"K": 4, "max_iter": 7, "seed": 99}
    assert set(values) == {f.name for f in fields(SolverConfig)} | {"seed"}
    assert all(values[f.name] != f.default for f in fields(SolverConfig))
    spec = parse_problem(json.dumps(minimal_problem(config=values)))
    assert spec.seed == values["seed"]
    for f in fields(SolverConfig):
        assert getattr(spec.config, f.name) == values[f.name]
    result = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config)
    assert build_report(result, spec)["config"] == values
    # the stop tolerance and the line search's floor are constants, not settings
    for key in ("grad_tol", "eps_pd"):
        with pytest.raises(ParseError, match=rf"^\$\.config\.{key}: unknown key$"):
            parse_problem(json.dumps(minimal_problem(config={**values, key: 1e-6})))


def test_parse_malformed_json():
    # a nesting deeper than the decoder's recursion limit is malformed too
    for text in ("{not json", "[" * 100000 + "]" * 100000):
        with pytest.raises(ParseError, match=r"\$: malformed JSON"):
            parse_problem(text)


def test_parse_wrong_trace_names_field():
    doc = minimal_problem(rho0=matrix_to_literal(np.diag([0.6, 0.3])))
    with pytest.raises(ParseError, match=r"\$\.rho0.*NotUnitTrace"):
        parse_problem(json.dumps(doc))


def test_parse_non_hermitian_operator_names_index():
    bad = matrix_to_literal(np.array([[0.0, 1.0], [0.2, 0.0]]))
    doc = minimal_problem()
    doc["lindblad"]["operators"][1] = bad
    with pytest.raises(ParseError,
                       match=r"\$\.lindblad\.operators\[1\].*SymmetryError"):
        parse_problem(json.dumps(doc))


def test_parse_rejects_unknown_keys():
    with pytest.raises(ParseError, match=r"\$\.extra"):
        parse_problem(json.dumps(minimal_problem(extra=1)))
    with pytest.raises(ParseError, match=r"\$\.config\.foo"):
        parse_problem(json.dumps(minimal_problem(config={"foo": 2})))


def test_parse_dimension_cross_check():
    doc = minimal_problem(rho0=matrix_to_literal(np.eye(3) / 3))
    with pytest.raises(ParseError, match=r"\$\.rho0.*dimension"):
        parse_problem(json.dumps(doc))


def test_parse_missing_field_and_bad_literal():
    doc = minimal_problem()
    del doc["rho1"]
    with pytest.raises(ParseError, match=r"\$\.rho1"):
        parse_problem(json.dumps(doc))
    doc = minimal_problem(rho0={"n": 2, "re": [[1, 0], [0, 0]]})
    with pytest.raises(ParseError, match=r"\$\.rho0.*im"):
        parse_problem(json.dumps(doc))


def test_parse_negative_density():
    doc = minimal_problem(rho0=matrix_to_literal(np.diag([1.2, -0.2])))
    with pytest.raises(ParseError, match=r"NotPositive"):
        parse_problem(json.dumps(doc))


@pytest.fixture(scope="module")
def solved():
    spec = load_problem(str(FIXTURES / "pauli_problem.json"))
    result = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config)
    return spec, result


def test_report_schema_and_determinism(solved):
    spec, result = solved
    report = build_report(result, spec)
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["config"]["K"] == 32 and report["config"]["seed"] == 7
    assert report["converged"] is True
    # byte-identical across rebuilds
    again = optimize_geodesic(spec.lindblad, spec.rho0, spec.rho1, spec.config)
    assert dump_canonical(build_report(again, spec)) == dump_canonical(report)


def test_report_numbers_recomputable_from_trace(solved):
    spec, result = solved
    report = build_report(result, spec)
    np.testing.assert_allclose(report["distance"] ** 2, report["primal_cost"],
                               rtol=1e-12)
    np.testing.assert_allclose(report["gap"],
                               report["primal_cost"] - report["dual_value"],
                               atol=1e-15)
    # the embedded node trace carries the full state: eigenvalues match
    for entry, rho in zip(report["trace"]["nodes"], result.path.densities):
        np.testing.assert_allclose(entry["eigenvalues"],
                                   np.linalg.eigvalsh(rho), atol=1e-12)


def test_geodesic_trace_round_trip(tmp_path, solved):
    spec, result = solved
    out = tmp_path / "trace.json"
    export_geodesic(result, str(out))
    trace = json.loads(out.read_text())
    assert trace["K"] == 32 and len(trace["nodes"]) == 33
    # re-export is bit-for-bit identical
    out2 = tmp_path / "trace2.json"
    with open(out2, "w") as fh:
        fh.write(dump_canonical(trace))
    assert out.read_bytes() == out2.read_bytes()

    path = DiscretePath(
        K=trace["K"],
        densities=np.array([matrix_from_literal(lit) for lit in trace["nodes"]]),
        momenta=np.array([[matrix_from_literal(lit) for lit in blocks]
                          for blocks in trace["momenta"]]),
        potentials=np.array([matrix_from_literal(lit) for lit in trace["potentials"]]))
    assert continuity_residual(spec.lindblad, path) < 1e-9
    assert trace["grid"] == path.grid.tolist()
    # hamiltonian values in the file match a fresh kinetic evaluation
    for k, v in enumerate(trace["hamiltonian"]):
        mid = 0.5 * (path.densities[k] + path.densities[k + 1])
        np.testing.assert_allclose(v, kinetic(mid, path.momenta[k]).value,
                                   rtol=1e-10)


def test_trace_eigenvalue_curves_flat_for_constant_path(pauli):
    rho = np.diag([0.6, 0.4]).astype(complex)
    from momt import DensityMatrix, SolverConfig

    res = optimize_geodesic(pauli, DensityMatrix(rho), DensityMatrix(rho),
                            SolverConfig(K=4))
    trace = geodesic_trace(res)
    curves = np.asarray(trace["eigenvalue_curves"])
    assert curves.shape == (5, 2)
    np.testing.assert_allclose(curves, np.tile(curves[0], (5, 1)), atol=1e-12)
