import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionres import checks, geometry, torsion
from torsionres.clifford import FrameVector
from torsionres.checks import scenario_invariant_suite
from torsionres.cli import main
from torsionres.geometry import Scenario, VectorFieldJet, random_scenario
from torsionres.reference import DensityValue
from torsionres.report import build_report, density_from_json, report_to_text
from torsionres.scalars import EXACT, FLOAT
from torsionres.scenario_io import ScenarioError, load_scenario, parse_scenario
from torsionres.symbols import symbols_equal
from torsionres.torsion import TERM_NAMES, term_densities

from conftest import inverse_symbols

DERIVED = {
    "schema": 1,
    "m": 2,
    "mode": "exact",
    "V": {
        "value": ["1", "0", "0", "0"],
        "jacobian": [
            ["0", "0", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "0", "0"],
            ["0", "0", "0", "0"],
        ],
    },
    "X": ["0", "0", "0", "0"],
    "u": ["0", "1", "0", "0"],
    "v": ["0", "1", "0", "0"],
    "w": ["0", "1", "0", "0"],
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- loading and validation -----------------------------------------------------


def test_load_well_formed(tmp_path):
    path = write_scenario(tmp_path, DERIVED)
    scenario, perturb = load_scenario(path)
    assert scenario.m == 2 and scenario.mode == "exact"
    assert perturb is None
    assert scenario.V.jacobian[1][0] == EXACT.of(1)


def test_zero_v_rejected():
    doc = json.loads(json.dumps(DERIVED))
    doc["V"]["value"] = ["0", "0", "0", "0"]
    with pytest.raises(ScenarioError, match="vector field V is zero"):
        parse_scenario(doc)


def test_wrong_vector_length_rejected():
    doc = json.loads(json.dumps(DERIVED))
    doc["u"] = ["1", "0", "0"]
    with pytest.raises(ScenarioError, match=r"u: expected 4 components"):
        parse_scenario(doc)


def test_bad_rational_literal_rejected():
    doc = json.loads(json.dumps(DERIVED))
    doc["X"][0] = "one half"
    with pytest.raises(ScenarioError, match=r"X\[0\]"):
        parse_scenario(doc)


def test_float_mode_literals():
    doc = json.loads(json.dumps(DERIVED))
    doc["mode"] = "float"
    doc["V"]["value"] = [1.0, 0.0, 0.0, 0.0]
    doc["V"]["jacobian"] = [[0.0] * 4, [1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]
    for key in ("X", "u", "v", "w"):
        doc[key] = [float(Fraction(c)) for c in doc[key]]
    scenario, _ = parse_scenario(doc)
    assert scenario.mode == "float"


def test_unknown_schema_rejected():
    doc = json.loads(json.dumps(DERIVED))
    doc["schema"] = 2
    with pytest.raises(ScenarioError, match="schema"):
        parse_scenario(doc)


def test_curvature_key_rejected(tmp_path, capsys):
    """The rescaled-Dirac model reads no curvature: a scenario that gives one
    is a usage error, not data that would be checked and then ignored."""
    doc = json.loads(json.dumps(DERIVED))
    doc["curvature"] = [{"indices": [1, 2, 1, 2], "value": "1/3"}]
    with pytest.raises(ScenarioError, match="curvature: .*does not use"):
        parse_scenario(doc)
    assert main(["run", "--scenario", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert "curvature" in captured.err and captured.out == ""


def _assert_usage_error(argv, capsys):
    """Exit 2 with one ``error:`` line and nothing on stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]*\n", captured.err), captured.err


def test_cli_unreadable_scenario_is_a_usage_error(tmp_path, capsys):
    """A directory, and a file that is not UTF-8, are usage errors."""
    _assert_usage_error(["run", "--scenario", str(tmp_path)], capsys)
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(DERIVED).replace("0", "\xe9", 1).encode("latin-1"))
    _assert_usage_error(["run", "--scenario", str(path)], capsys)


@pytest.mark.parametrize("seed", ["abc", True, 1.5, [1], {"a": 1}])
def test_cli_bad_seed_is_a_usage_error(tmp_path, capsys, seed):
    doc = dict(DERIVED, seed=seed)
    with pytest.raises(ScenarioError, match="seed"):
        parse_scenario(doc)
    _assert_usage_error(["run", "--scenario", write_scenario(tmp_path, doc)], capsys)


@pytest.mark.parametrize("seed", [7, -3, None])
def test_seed_is_an_integer_or_null(seed):
    scenario, _ = parse_scenario(dict(DERIVED, seed=seed))
    assert scenario.seed == seed
    assert build_report(scenario)["scenario"].get("seed") == seed


@pytest.mark.parametrize("m", [6, 10**6])
def test_cli_m_above_the_gamma_cap_is_a_usage_error(tmp_path, capsys, m):
    """m runs up to gamma.MAX_M = 5, the largest m that every route
    reaches; a larger m fails at parse time, before any vector is read."""
    doc = dict(DERIVED, m=m)
    with pytest.raises(ScenarioError, match=r"m: must be an integer in 2\.\.5"):
        parse_scenario(doc)
    _assert_usage_error(["run", "--scenario", write_scenario(tmp_path, doc)], capsys)


# -- reports ---------------------------------------------------------------------


def test_report_round_trip(tmp_path):
    path = write_scenario(tmp_path, DERIVED)
    scenario, _ = load_scenario(path)
    doc = build_report(scenario)
    text = report_to_text(doc)
    again = json.loads(text)
    assert again == doc
    # density values survive serialization exactly
    for name, obj in doc["terms"].items():
        val = density_from_json(obj, scenario.m, scenario.mode)
        assert str(val.value) == obj["rational"], name


def test_report_fields(tmp_path):
    path = write_scenario(tmp_path, DERIVED)
    scenario, _ = load_scenario(path)
    doc = build_report(scenario)
    assert doc["schema"] == 1
    assert set(doc["terms"]) == {"h1", "l1", "l2", "l3", "l4", "l5", "k1", "k2"}
    assert set(doc["paper"]) == {"h1", "h2", "h3"}
    assert doc["pass"] is True
    assert doc["assembled"]["rational"] == "0"
    assert doc["theorem"]["rational"] == "1"
    names = {d["name"] for d in doc["diffs"]}
    assert "assembled:composition_oracle" in names
    assert "assembled:theorem" in names
    # the printed-theorem row documents the discrepancy without gating
    row = next(d for d in doc["diffs"] if d["name"] == "assembled:theorem")
    assert row["gating"] is False and row["pass"] is False


def test_cli_run_exit_codes(tmp_path, capsys):
    path = write_scenario(tmp_path, DERIVED)
    assert main(["run", "--scenario", path]) == 0
    capsys.readouterr()

    corrupted = json.loads(json.dumps(DERIVED))
    corrupted["perturb"] = {"term": "l4", "delta": "1/7"}
    path_bad = write_scenario(tmp_path, corrupted, "corrupted.json")
    assert main(["run", "--scenario", path_bad]) == 1
    out = capsys.readouterr()
    rep = json.loads(out.out)
    failing = [d["name"] for d in rep["diffs"] if d["gating"] and not d["pass"]]
    assert failing == ["term:l4:reference"]
    row = next(d for d in rep["diffs"] if d["name"] == "term:l4:reference")
    assert abs(complex(row["diff"]["re"], row["diff"]["im"]) + 1 / 7) <= 1e-12


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = json.loads(json.dumps(DERIVED))
    bad["V"]["value"] = ["0", "0", "0", "0"]
    path = write_scenario(tmp_path, bad, "bad.json")
    assert main(["run", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert "vector field V is zero" in err


def test_cli_determinism(tmp_path, capsys):
    path = write_scenario(tmp_path, DERIVED)
    main(["run", "--scenario", path])
    first = capsys.readouterr().out
    main(["run", "--scenario", path])
    second = capsys.readouterr().out
    assert first == second


def test_cli_out_file(tmp_path, capsys):
    path = write_scenario(tmp_path, DERIVED)
    out_path = tmp_path / "report.json"
    assert main(["run", "--scenario", path, "--out", str(out_path)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["pass"] is True


def test_cli_sweep(capsys):
    assert main(["sweep", "--m", "2", "--trials", "2", "--seed", "3", "--mode", "exact"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_cli_sweep_float(capsys):
    assert main(["sweep", "--m", "2", "--trials", "2", "--seed", "4", "--mode", "float"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_cli_sweep_m4(capsys, monkeypatch, mode):
    """An m=4 sweep trial runs and passes all eight invariant records."""
    trials = []
    suite = checks.scenario_invariant_suite

    def kept(*args):
        trials.append(suite(*args))
        return trials[-1]

    monkeypatch.setattr(checks, "scenario_invariant_suite", kept)
    assert main(["sweep", "--m", "4", "--trials", "1", "--seed", "3", "--mode", mode]) == 0
    assert capsys.readouterr().out.startswith("PASS 1 trials, 0 failures")
    (trial,) = trials
    assert len(trial.lines) == 8
    assert all(line.startswith("PASS ") for line in trial.lines)


def test_cli_sweep_usage_error(capsys):
    assert main(["sweep", "--m", "2", "--trials", "0", "--seed", "1", "--mode", "exact"]) == 2
    capsys.readouterr()


def test_cli_lemma_unknown_name():
    with pytest.raises(SystemExit) as exc:
        main(["lemma", "--name", "9.9"])
    assert exc.value.code == 2


def test_cli_lemma_sphere(capsys):
    assert main(["lemma", "--name", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_float_mode_report(tmp_path):
    doc = json.loads(json.dumps(DERIVED))
    doc["mode"] = "float"
    doc["V"]["value"] = [1.0, 0.0, 0.0, 0.0]
    doc["V"]["jacobian"] = [[0.0] * 4, [1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]
    for key in ("X", "u", "v", "w"):
        doc[key] = [float(Fraction(c)) for c in doc[key]]
    path = write_scenario(tmp_path, doc, "float.json")
    scenario, _ = load_scenario(path)
    rep = build_report(scenario)
    assert rep["pass"] is True
    assert abs(rep["theorem"]["value"]["re"] - 78.95683520871486) <= 1e-6


# -- front door: input errors exit 2 before any computation ----------------------


def test_cli_unknown_perturb_term(tmp_path, capsys):
    doc = json.loads(json.dumps(DERIVED))
    doc["perturb"] = {"term": "zz", "delta": "1/7"}
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert "perturb.term" in captured.err and "'zz'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("literal", [float("nan"), float("inf"), float("-inf")])
def test_cli_non_finite_float_literal(tmp_path, capsys, literal):
    doc = json.loads(json.dumps(DERIVED))
    doc["mode"] = "float"
    doc["V"]["value"] = [1.0, 0.0, 0.0, 0.0]
    doc["V"]["jacobian"] = [[0.0] * 4, [1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]
    for key in ("X", "u", "v", "w"):
        doc[key] = [float(Fraction(c)) for c in doc[key]]
    doc["X"][2] = literal
    path = write_scenario(tmp_path, doc)  # json writes NaN / Infinity
    assert main(["run", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert "X[2]" in captured.err and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, entry",
    [
        ("perturb", {"term": "l4", "delta": float("inf")}),
        ("perturb", {"term": "l4", "delta": [1]}),
    ],
)
def test_cli_bad_rational_fields(tmp_path, capsys, field, entry):
    doc = json.loads(json.dumps(DERIVED))
    doc[field] = entry
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert field in captured.err and "bad rational" in captured.err


@pytest.mark.parametrize("old, new", [
    # an integer past the 4,300 digits Python converts from text
    pytest.param('"X": ["0"', '"X": [' + "7" * 5000, id="long-integer"),
    pytest.param('"X": ["0"', '"X": ["1e400"', id="exponent"),
    pytest.param('"X": ["0"', '"X": ["0.5"', id="decimal"),
    pytest.param('"schema": 1', '"schema": 1, "perturb": {"term": "l4", "delta": true}',
                 id="bool-delta"),
    pytest.param('"schema": 1', '"schema": true', id="bool-schema"),
])
def test_cli_malformed_scenario_is_one_error_line(tmp_path, capsys, old, new):
    """A malformed scenario file ends in one ``error:`` line and exit 2,
    never in a traceback: an integer too long to convert, and rational
    literals other than an integer or ``"p/q"``."""
    text = json.dumps(DERIVED)
    assert old in text
    path = tmp_path / "scenario.json"
    path.write_text(text.replace(old, new, 1))
    _assert_usage_error(["run", "--scenario", str(path)], capsys)


def _float_scenario_doc():
    """The README scenario in float mode with a generic V, Jacobian row and X."""
    doc = json.loads(json.dumps(DERIVED))
    doc["mode"] = "float"
    doc["V"]["value"] = [1.0, 0.5, -0.25, 0.75]
    doc["V"]["jacobian"] = [[0.3, -0.7, 0.2, 0.1], [1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]
    doc["X"] = [0.1, 0.2, -0.3, 0.5]
    for key in ("u", "v", "w"):
        doc[key] = [float(Fraction(c)) for c in doc[key]]
    return doc


def _float_or_exact_argv(command, mode, tmp_path):
    if command == "run":
        doc = _float_scenario_doc() if mode == "float" else DERIVED
        return ["run", "--scenario", write_scenario(tmp_path, doc)]
    return ["sweep", "--m", "2", "--trials", "1", "--mode", mode]


def _assert_tolerance_refused(tmp_path, capsys, command, tolerance):
    with pytest.raises(SystemExit) as exc:
        main(_float_or_exact_argv(command, "float", tmp_path) + ["--tolerance", tolerance])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--tolerance" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_has_no_tolerance_option(tmp_path, capsys, command):
    """Each scalar field fixes its tolerance, so ``--tolerance`` is a usage
    error, even at the float field's own 1e-9."""
    _assert_tolerance_refused(tmp_path, capsys, command, "1e-9")


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, command, tolerance):
    """A negative or non-finite ``--tolerance`` stays a usage error now that
    the option is gone altogether."""
    _assert_tolerance_refused(tmp_path, capsys, command, tolerance)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_failed_symbol_check_is_one_error_line(tmp_path, capsys, monkeypatch, command, mode):
    """A closed form that the inversion does not match fails a symbol check
    inside the pipeline: exit 1 with the check and its residual, no
    traceback."""
    closed_forms = geometry.rescaled_dirac_inverse_closed_forms

    def doubled_q2(s, square):
        q2, q3 = closed_forms(s, square)
        return q2 + q2, q3

    monkeypatch.setattr(geometry, "rescaled_dirac_inverse_closed_forms", doubled_q2)
    assert main(_float_or_exact_argv(command, mode, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: .*\(residual [0-9.e+-]+\)\n", captured.err)


def test_cli_report_out_of_float_range_is_a_usage_error(tmp_path, capsys):
    """u, v and w at 1e300 overflow the prefactor, so every density is not
    finite: one ``error:`` line and exit 2, never a report holding NaN."""
    doc = json.loads((Path(__file__).parent / "data" / "float_m2_scenario.json").read_text())
    for key in ("u", "v", "w"):
        doc[key][0] = 1e300
    _assert_usage_error(["run", "--scenario", write_scenario(tmp_path, doc)], capsys)


def test_cli_out_into_missing_directory(tmp_path, capsys):
    path = write_scenario(tmp_path, DERIVED)
    out_path = tmp_path / "missing" / "report.json"
    assert main(["run", "--scenario", path, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err and captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("value", [1e200, 1e-200])
def test_cli_float_out_of_range_v(tmp_path, capsys, value):
    """|V|^2 or a power of it that the pipeline forms is not a finite
    nonzero float: a usage error, not a traceback."""
    doc = json.loads(json.dumps(DERIVED))
    doc["mode"] = "float"
    doc["V"]["value"] = [value, 0.0, 0.0, 0.0]
    doc["V"]["jacobian"] = [[0.0] * 4, [1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]
    for key in ("X", "u", "v", "w"):
        doc[key] = [float(Fraction(c)) for c in doc[key]]
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert "V.value" in captured.err and "overflow" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("slope", ["1e7", "1e12"])
def test_cli_float_large_jacobian_keeps_base_point(tmp_path, capsys, slope):
    """x-linear jet coefficients far above the base-point values must not
    prune the base-point value away: the float run reports, and its terms
    are the exact terms of the same scenario."""
    doc = json.loads(json.dumps(DERIVED))
    doc["V"]["jacobian"][1][0] = str(int(float(slope)))
    exact = term_densities(parse_scenario(doc)[0])
    doc["mode"] = "float"
    doc["V"]["value"] = [1.0, 0.0, 0.0, 0.0]
    doc["V"]["jacobian"] = [[0.0] * 4, [float(slope), 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]
    for key in ("X", "u", "v", "w"):
        doc[key] = [float(Fraction(c)) for c in doc[key]]
    path = write_scenario(tmp_path, doc, "float.json")
    assert main(["run", "--scenario", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    scale = max(abs(complex(exact[name].value)) for name in TERM_NAMES)
    for name in TERM_NAMES:
        got = density_from_json(rep["terms"][name], 2, "float").value
        assert abs(got - complex(exact[name].value)) <= 1e-9 * scale, name


# -- float mode against exact mode at scaled |V| ---------------------------------


def _scaled(s: Scenario, lam, field) -> Scenario:
    """s with V (value and Jacobian) multiplied by lam, in ``field``."""

    def vec(v):
        return FrameVector(v.dim, tuple(field.of(c) for c in v.components))

    lam = field.of(lam)
    jac = tuple(tuple(lam * field.of(c) for c in row) for row in s.V.jacobian)
    return Scenario(
        m=s.m, mode=field.kind,
        V=VectorFieldJet(vec(s.V.value).scale(lam), jac),
        X=vec(s.X), u=vec(s.u), v=vec(s.v), w=vec(s.w),
    )


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=-3, max_value=2),
    st.fractions(min_value=1, max_value=10, max_denominator=9),
)
def test_float_report_holds_at_scaled_v(seed, exponent, mantissa):
    """|V| scaled by 1e-3..1e3: the float report passes its gating, and each
    float term agrees with the exact term to 1e-9 relative to the largest
    exact term (single terms may cancel to zero)."""
    base = random_scenario(2, "exact", random.Random(seed))
    lam = mantissa * Fraction(10) ** exponent
    exact = term_densities(_scaled(base, lam, EXACT))
    s_float = _scaled(base, lam, FLOAT)
    doc = build_report(s_float)
    assert doc["pass"] is True
    # terms scale as |V|^{-4m+4}; that is their size if all of them vanish
    scale = max(abs(complex(exact[name].value)) for name in TERM_NAMES) or float(lam) ** -4
    for name in TERM_NAMES:
        got = density_from_json(doc["terms"][name], 2, "float").value
        assert abs(got - complex(exact[name].value)) <= 1e-9 * scale, name


def test_float_sweep_invariants_hold_at_scaled_v():
    """The sweep invariants judge float values relative to the largest term:
    at |V| scaled by 1e-2 the terms are about 1e8 while the assembled
    density cancels to about 0."""
    rng = random.Random(5)
    for _ in range(3):
        s = _scaled(random_scenario(2, "float", rng), 1e-2, FLOAT)
        out = scenario_invariant_suite(s, random.Random(1))
        assert out.passed, [line for line in out.lines if line.startswith("FAIL")]


def test_float_sweep_gates_like_the_report_at_small_terms(monkeypatch):
    """At |V| scaled by 10 the terms are about 1e-5.  A derived closed form
    off by 1e-6 of the largest term fails the report's gating, and the
    sweep's per-term invariant, judged by the same rule, fails with it."""
    s = _scaled(random_scenario(2, "float", random.Random(5)), 10, FLOAT)
    shift = 1e-6 * max(abs(complex(d.value)) for d in term_densities(s).values())
    assert 1e-13 < shift < 1e-10
    assert build_report(s, perturb=("l4", Fraction(shift)))["pass"] is False

    derived = checks.reference_term_densities

    def shifted(inv):
        ref = dict(derived(inv))
        ref["l4"] = DensityValue(ref["l4"].value + shift, inv.m)
        return ref

    monkeypatch.setattr(checks, "reference_term_densities", shifted)
    out = scenario_invariant_suite(s, random.Random(1))
    failed = [line for line in out.lines if line.startswith("FAIL")]
    assert len(failed) == 1 and "match derived closed forms" in failed[0]


@pytest.mark.parametrize("variant, up, down, line", [
    pytest.param("X", "l1", "k1", "assembled density is X-independent", id="X"),
    pytest.param("Jacobian", "l3", "h1", "density depends on the Jacobian only through d|V|^2",
                 id="Jacobian"),
])
def test_sweep_judges_the_terms_of_a_new_x_or_jacobian(monkeypatch, variant, up, down, line):
    """One term shifted by +1 and another by -1 on the new-X or new-Jacobian
    scenario alone leave the assembled density as it is; the record of that
    scenario fails on the terms, at residual 1, and no other record fails."""
    s = random_scenario(2, "exact", random.Random(7))
    route = checks.term_densities

    def shifted(scenario):
        terms = route(scenario)
        new_x = scenario.X is not s.X
        new_jacobian = scenario.V.value is s.V.value and scenario.V is not s.V
        if new_x if variant == "X" else new_jacobian:
            one = EXACT.of(1)
            terms[up] = DensityValue(terms[up].value + one, scenario.m)
            terms[down] = DensityValue(terms[down].value - one, scenario.m)
        return terms

    monkeypatch.setattr(checks, "term_densities", shifted)
    out = scenario_invariant_suite(s, random.Random(1))
    failed = [row for row in out.lines if row.startswith("FAIL")]
    assert failed == [f"FAIL {line} (residual 1.00e+00)"]


def test_symbols_equal_is_relative_at_small_coefficients():
    """At |V| scaled by 10 the coefficients of q_{-2} are about 4e-6.  A
    relative error of 1e-4 fails a 1e-9 comparison (an absolute floor of
    1.0 let it pass), while rounding-sized differences still pass."""
    s = _scaled(random_scenario(2, "float", random.Random(5)), 10, FLOAT)
    q2, _ = inverse_symbols(s)
    assert symbols_equal(q2, q2.scale(1 + 1e-4)) is False
    assert symbols_equal(q2, q2.scale(1 + 1e-12)) is True


def test_sweep_trial_runs_the_oracle_once(monkeypatch):
    """The derived scenarios of a sweep trial run the term route alone; only
    the scenario itself is checked against the composition oracle."""
    calls = []
    oracle = torsion.composition_oracle_density

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(torsion, "composition_oracle_density", counted)
    out = scenario_invariant_suite(random_scenario(2, "exact", random.Random(3)), random.Random(3))
    assert out.passed and len(out.lines) == 8
    assert len(calls) == 1


def test_sweep_trial_retraces_the_u_variants(monkeypatch):
    """The u-scaled and u<->w scenarios of a sweep trial trace the scenario's
    own term symbols; only the scenario, the new X, the new Jacobian and 2V
    build term symbols."""
    calls = []
    build = torsion.pipeline_symbols

    def counted(s, *args):
        calls.append(s)
        return build(s, *args)

    monkeypatch.setattr(torsion, "pipeline_symbols", counted)
    out = scenario_invariant_suite(random_scenario(2, "exact", random.Random(3)), random.Random(3))
    assert out.passed and len(out.lines) == 8
    assert len(calls) == 4


def _retraced_sweep_failures(monkeypatch, prefactor_of):
    """The failed lines of an exact sweep trial whose retrace traces the
    term symbols under ``prefactor_of(derived scenario)``."""
    s = random_scenario(2, "exact", random.Random(3))
    original = checks.torsion_prefactor_element
    monkeypatch.setattr(checks, "torsion_prefactor_element",
                        lambda scenario: original(prefactor_of(s, scenario)))
    out = scenario_invariant_suite(s, random.Random(3))
    return [line for line in out.lines if line.startswith("FAIL")]


def test_sweep_linearity_in_u_fails_on_a_wrong_retrace(monkeypatch):
    """The assembled density is 0 in exact mode, so only the per-term rows
    can see a retrace that ignores the doubled u."""
    failed = _retraced_sweep_failures(monkeypatch, lambda s, derived: s)
    assert len(failed) == 1 and "linear in u" in failed[0]


def test_sweep_u_w_exchange_fails_on_a_wrong_retrace(monkeypatch):
    """A retrace that exchanges u and v where u and w were meant keeps the
    assembled density at 0; the exchange-invariant terms catch it."""
    def prefactor_of(s, derived):
        if derived.u == s.w and derived.w == s.u:
            return replace(s, u=s.v, v=s.u)
        return derived

    failed = _retraced_sweep_failures(monkeypatch, prefactor_of)
    assert len(failed) == 1 and "u<->w" in failed[0]
