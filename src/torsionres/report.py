"""Torsion reports: the machine-readable output of a scenario run.

A report carries the per-term densities, their sum, the generic
composition oracle, the printed closed forms, and one diff row per
comparison.  Two kinds of comparison appear:

* gating -- machine-internal consistency: assembled against the
  composition oracle, each term against the engine's derived closed form
  (optionally perturbed by a negative-control fixture), and reality of
  the assembled density.  Any gating failure makes the run fail.
* reported -- the printed closed forms under verification: per-term
  printed variants, the printed group sums, and the final printed
  theorem value.  These rows document agreement or disagreement without
  deciding the exit code; the machine pipeline, with its two independent
  routes, is the arithmetic ground truth.

Exact-mode densities serialize as {"rational": "p/q", "unit":
"2^m*Vol(S^{2m-1})"}; float mode serializes the numeric value with the
unit multiplied in.  Serialization is deterministic: identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .geometry import Scenario
from .reference import (
    DensityValue,
    paper_group_densities,
    paper_term_densities,
    reference_term_densities,
    scenario_invariants,
    theorem_density,
)
from .scalars import FLOAT, GaussianRational
from .torsion import TERM_NAMES, TermBreakdown, assemble_density, sum_terms

SCHEMA_VERSION = 1


def density_to_json(d: DensityValue, mode: str) -> Dict:
    if mode == "exact":
        return {"rational": str(d.value), "unit": d.unit_label()}
    total = d.float_total()
    return {"value": {"re": total.real, "im": total.imag}}


def density_from_json(obj: Dict, m: int, mode: str) -> DensityValue:
    if mode == "exact":
        return DensityValue(GaussianRational.parse(obj["rational"]), m)
    from .spheres import sphere_volume

    unit = (2**m) * sphere_volume(2 * m)
    val = complex(obj["value"]["re"], obj["value"]["im"]) / unit
    return DensityValue(val, m)


@dataclass
class Comparison:
    name: str
    left: DensityValue
    right: DensityValue
    gating: bool
    scale: float = 1.0  # float mode: the tolerance is relative to at least this

    @property
    def diff(self) -> complex:
        return complex(self.left.value) - complex(self.right.value)

    @property
    def passed(self) -> bool:
        """Judged in the field of the compared values: exact values are
        equal, float values agree within the float tolerance relative to
        the scale."""
        if isinstance(self.left.value, GaussianRational):
            return self.left.value == self.right.value
        scale = max(self.scale, abs(complex(self.left.value)), abs(complex(self.right.value)))
        return abs(self.diff) <= FLOAT.tolerance * scale

    def to_json(self, mode: str) -> Dict:
        return {
            "name": self.name,
            "left": density_to_json(self.left, mode),
            "right": density_to_json(self.right, mode),
            "diff": {"re": self.diff.real, "im": self.diff.imag},
            "pass": self.passed,
            "gating": self.gating,
        }


def scenario_to_json(s: Scenario) -> Dict:
    def scal(x) -> str | float:
        if s.mode == "exact":
            return str(x)
        return complex(x).real

    def vec(v) -> List:
        return [scal(c) for c in v.components]

    doc = {
        "schema": SCHEMA_VERSION,
        "m": s.m,
        "mode": s.mode,
        "V": {
            "value": vec(s.V.value),
            "jacobian": [[scal(c) for c in row] for row in s.V.jacobian],
        },
        "X": vec(s.X),
        "u": vec(s.u),
        "v": vec(s.v),
        "w": vec(s.w),
    }
    if s.seed is not None:
        doc["seed"] = s.seed
    return doc


def term_scale(*term_sets: Dict[str, DensityValue]) -> float:
    """The float gates' scale: the largest term magnitude, 1.0 if every
    term is zero.  Float rounding follows the size of the terms, not of
    their sum, which cancels to about zero."""
    return max(abs(complex(d.value)) for terms in term_sets for d in terms.values()) or 1.0


def gating_comparisons(
    s: Scenario,
    breakdown: TermBreakdown,
    reference: Dict[str, DensityValue],
) -> List[Comparison]:
    """The rows that decide a scenario's verdict: each term against its
    derived closed form, the assembled density against the composition
    oracle, and the imaginary part of the assembled density against zero,
    all relative to the largest term."""
    scale = term_scale(breakdown.terms)
    rows = [
        Comparison(f"term:{name}:reference", breakdown.terms[name], reference[name],
                   True, scale)
        for name in TERM_NAMES
    ]
    rows.append(Comparison("assembled:composition_oracle", breakdown.assembled,
                           breakdown.composition_oracle, True, scale))
    if s.mode == "exact":
        imag_val = GaussianRational(0, breakdown.assembled.value.im)
    else:
        imag_val = complex(0.0, complex(breakdown.assembled.value).imag)
    rows.append(Comparison("assembled:imaginary_part_zero", DensityValue(imag_val, s.m),
                           DensityValue(s.field.of(0), s.m), True, scale))
    return rows


def build_report(s: Scenario, perturb: Optional[Tuple[str, Fraction]] = None) -> Dict:
    """Run the pipeline on one scenario and assemble the report document.

    ``perturb`` is the negative-control hook: ("l4", delta) shifts the
    derived closed form of that term by delta (in density units) before
    the gating comparison, which must then fail in exactly that term.
    """
    breakdown = assemble_density(s)
    terms = breakdown.terms
    inv = scenario_invariants(s)
    reference = reference_term_densities(inv)
    printed = paper_term_densities(inv, reference)
    groups = paper_group_densities(inv, printed)
    theorem = theorem_density(inv)

    if perturb is not None:
        term, delta = perturb
        if term not in TERM_NAMES:
            raise ValueError(f"unknown term {term!r} in perturbation fixture")
        reference = dict(reference)
        reference[term] = DensityValue(reference[term].value + s.field.of(delta), s.m)

    comparisons = gating_comparisons(s, breakdown, reference)
    for name in TERM_NAMES:
        comparisons.append(
            Comparison(f"term:{name}:paper", terms[name], printed[name], False)
        )
    h2_machine = sum_terms(terms, ("l1", "l2", "l3", "l4", "l5"))
    h3_machine = sum_terms(terms, ("k1", "k2"))
    comparisons.extend(
        [
            Comparison("group:h1:paper", terms["h1"], groups["h1"], False),
            Comparison("group:h2:paper", h2_machine, groups["h2"], False),
            Comparison("group:h3:paper", h3_machine, groups["h3"], False),
            Comparison("assembled:theorem", breakdown.assembled, theorem, False),
        ]
    )

    overall = all(c.passed for c in comparisons if c.gating)
    doc = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario_to_json(s),
        "tolerance": FLOAT.tolerance,
        "terms": {name: density_to_json(terms[name], s.mode) for name in TERM_NAMES},
        "assembled": density_to_json(breakdown.assembled, s.mode),
        "composition_oracle": density_to_json(breakdown.composition_oracle, s.mode),
        "paper": {key: density_to_json(groups[key], s.mode) for key in ("h1", "h2", "h3")},
        "theorem": density_to_json(theorem, s.mode),
        "diffs": [c.to_json(s.mode) for c in comparisons],
        "pass": overall,
    }
    return doc


def report_to_text(doc: Dict) -> str:
    """Deterministic serialization; round-trips through ``json.loads``.

    Raises ``ValueError`` if a float value is not finite: a report never
    holds ``NaN`` or ``Infinity``, which are not JSON."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def summarize_report(doc: Dict) -> List[str]:
    lines = [
        f"mode={doc['scenario']['mode']} m={doc['scenario']['m']} "
        f"gating={'PASS' if doc['pass'] else 'FAIL'}"
    ]
    for row in doc["diffs"]:
        kind = "gate" if row["gating"] else "info"
        mark = "PASS" if row["pass"] else "FAIL"
        diff = row["diff"]
        lines.append(
            f"  [{kind}] {mark} {row['name']} (diff {diff['re']:+.3e}{diff['im']:+.3e}i)"
        )
    return lines
