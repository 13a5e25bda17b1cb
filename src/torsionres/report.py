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
    paper_term_densities,
    reference_term_densities,
)
from .scalars import GaussianRational
from .torsion import TERM_NAMES, TermBreakdown, assemble_density

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
    tolerance: float
    scale: float = 1.0  # float mode: the tolerance is relative to at least this

    @property
    def diff(self) -> complex:
        return complex(self.left.value) - complex(self.right.value)

    @property
    def passed(self) -> bool:
        if self.tolerance == 0.0:
            return self.left.value == self.right.value
        scale = max(self.scale, abs(complex(self.left.value)), abs(complex(self.right.value)))
        return abs(self.diff) <= self.tolerance * scale

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
    if s.curvature is not None:
        doc["curvature"] = [
            {"indices": list(idx), "value": str(val)}
            for idx, val in sorted(s.curvature.components.items())
        ]
    if s.seed is not None:
        doc["seed"] = s.seed
    return doc


def build_report(
    s: Scenario,
    tolerance: float = 1e-9,
    perturb: Optional[Tuple[str, Fraction]] = None,
) -> Dict:
    """Run the pipeline on one scenario and assemble the report document.

    ``perturb`` is the negative-control hook: ("l4", delta) shifts the
    derived closed form of that term by delta (in density units) before
    the gating comparison, which must then fail in exactly that term.
    """
    fld = s.field
    cmp_tol = 0.0 if s.mode == "exact" else tolerance
    breakdown: TermBreakdown = assemble_density(s, cmp_tol)
    # float rounding follows the size of the terms, not of their sum, which
    # cancels to about zero: gate relative to the largest term
    gate_scale = max(abs(complex(breakdown.term(name).value)) for name in TERM_NAMES) or 1.0
    reference = reference_term_densities(s)
    printed = paper_term_densities(s)

    if perturb is not None:
        term, delta = perturb
        if term not in TERM_NAMES:
            raise ValueError(f"unknown term {term!r} in perturbation fixture")
        reference = dict(reference)
        reference[term] = DensityValue(
            reference[term].value + fld.of(delta), s.m
        )

    comparisons: List[Comparison] = []
    for name in TERM_NAMES:
        comparisons.append(
            Comparison(
                name=f"term:{name}:reference",
                left=breakdown.term(name),
                right=reference[name],
                gating=True,
                tolerance=cmp_tol,
                scale=gate_scale,
            )
        )
    comparisons.append(
        Comparison(
            name="assembled:composition_oracle",
            left=breakdown.assembled,
            right=breakdown.composition_oracle,
            gating=True,
            tolerance=cmp_tol,
            scale=gate_scale,
        )
    )
    zero = DensityValue(fld.of(0), s.m)
    if s.mode == "exact":
        imag_val = GaussianRational(0, breakdown.assembled.value.im)
    else:
        imag_val = complex(0.0, complex(breakdown.assembled.value).imag)
    imag_part = DensityValue(imag_val, s.m)
    comparisons.append(
        Comparison(
            name="assembled:imaginary_part_zero",
            left=imag_part,
            right=zero,
            gating=True,
            tolerance=cmp_tol,
            scale=gate_scale,
        )
    )

    for name in TERM_NAMES:
        comparisons.append(
            Comparison(
                name=f"term:{name}:paper",
                left=breakdown.term(name),
                right=printed[name],
                gating=False,
                tolerance=cmp_tol,
            )
        )
    h2_machine = breakdown.l1
    for t in ("l2", "l3", "l4", "l5"):
        h2_machine = h2_machine + breakdown.term(t)
    comparisons.extend(
        [
            Comparison("group:h1:paper", breakdown.h1, breakdown.paper_h1, False, cmp_tol),
            Comparison("group:h2:paper", h2_machine, breakdown.paper_h2, False, cmp_tol),
            Comparison(
                "group:h3:paper", breakdown.k1 + breakdown.k2, breakdown.paper_h3, False, cmp_tol
            ),
            Comparison(
                "assembled:theorem", breakdown.assembled, breakdown.theorem, False, cmp_tol
            ),
        ]
    )

    overall = all(c.passed for c in comparisons if c.gating)
    doc = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario_to_json(s),
        "tolerance": tolerance,
        "terms": {
            name: density_to_json(breakdown.term(name), s.mode) for name in TERM_NAMES
        },
        "assembled": density_to_json(breakdown.assembled, s.mode),
        "composition_oracle": density_to_json(breakdown.composition_oracle, s.mode),
        "paper": {
            "h1": density_to_json(breakdown.paper_h1, s.mode),
            "h2": density_to_json(breakdown.paper_h2, s.mode),
            "h3": density_to_json(breakdown.paper_h3, s.mode),
        },
        "theorem": density_to_json(breakdown.theorem, s.mode),
        "diffs": [c.to_json(s.mode) for c in comparisons],
        "pass": overall,
    }
    return doc


def report_to_text(doc: Dict) -> str:
    """Deterministic serialization; round-trips through ``json.loads``."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
