"""The benchmark's output checks must call wrong outputs incorrect.

Each negative control starts from a real, correct output of the program,
shows that the check accepts it, then corrupts it and shows that the
check reports it.
"""

import json
import os
import random
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import verify  # noqa: E402
import workloads  # noqa: E402
from torsionres.checks import LEMMA_CHECKS, scenario_invariant_suite  # noqa: E402
from torsionres.report import build_report, report_to_text  # noqa: E402
from torsionres.scenario_io import parse_scenario  # noqa: E402
from torsionres.spheres import monomial_integral  # noqa: E402


def _format_gaussian(re_part: Fraction, im_part: Fraction) -> str:
    """The report's text form of (real, imaginary)."""
    if im_part == 0:
        return str(re_part)
    if re_part == 0:
        return f"{im_part}i"
    sign = "+" if im_part > 0 else "-"
    return f"{re_part}{sign}{abs(im_part)}i"


def _report(mode: str, seed: int = 3):
    doc = workloads.scenario_doc(2, mode, random.Random(seed))
    scenario, _ = parse_scenario(doc)
    return doc, json.loads(report_to_text(build_report(scenario)))


def test_exact_report_with_one_term_shifted_by_one_seventh_is_incorrect():
    doc, report = _report("exact")
    assert verify.check_report(doc, report) == []
    re_part, im_part = verify.parse_gaussian(report["terms"]["l4"]["rational"])
    report["terms"]["l4"]["rational"] = _format_gaussian(re_part + Fraction(1, 7), im_part)
    problems = verify.check_report(doc, report)
    assert any(p.startswith("term l4:") for p in problems)
    assert any("sum of terms" in p for p in problems)


def test_float_report_off_by_one_part_in_a_million_is_incorrect():
    doc, report = _report("float")
    assert verify.check_report(doc, report) == []
    for name in verify.TERM_NAMES:
        bad = json.loads(json.dumps(report))
        value = bad["terms"][name]["value"]
        value["re"] *= 1 + 1e-6
        value["im"] *= 1 + 1e-6
        assert any(p.startswith(f"term {name}:") for p in verify.check_report(doc, bad))


def test_gaussian_text_round_trips():
    for re_part, im_part in ((Fraction(-3, 4), Fraction(0)), (Fraction(0), Fraction(-1, 2)),
                             (Fraction(5), Fraction(2, 3)), (Fraction(-1, 6), Fraction(-7))):
        text = _format_gaussian(re_part, im_part)
        assert verify.parse_gaussian(text) == (re_part, im_part)


def test_sweep_outcome_with_one_failed_record_is_incorrect():
    doc = workloads.scenario_doc(2, "exact", random.Random(4))
    scenario, _ = parse_scenario(doc)
    outcome = scenario_invariant_suite(scenario, random.Random(5))
    assert verify.check_sweep_outcome(outcome) == []
    outcome.record(False, "density is linear in u (residual 1.00e+00)", 1.0)
    assert verify.check_sweep_outcome(outcome)


def test_lemma_outcome_with_one_failed_record_is_incorrect():
    outcome = LEMMA_CHECKS["gamma"](1)
    assert verify.check_lemma_outcome("gamma", outcome) == []
    outcome.record(False, "m=2: representation deviation 1.00e+00", 1.0)
    assert verify.check_lemma_outcome("gamma", outcome)


def test_sphere_moments_off_by_one_part_in_a_billion_are_incorrect():
    assert verify.check_sphere_moments(monomial_integral) == []

    def skewed(alpha, n):
        return monomial_integral(alpha, n) * Fraction(10**9 + 1, 10**9)

    assert len(verify.check_sphere_moments(skewed)) == verify.LEMMA_CASES["sphere"]
