"""Output checks for the benchmark, computed apart from the program.

* Reports: the eight per-term densities are recomputed here from the
  scenario data through the spinor trace identities, with plain
  ``fractions.Fraction`` arithmetic in exact mode and ``complex`` within
  ``FLOAT_REL`` in float mode.  ``assembled`` must equal the sum of the
  eight terms as parsed from the report, must equal the independent
  ``composition_oracle`` route, and must be real.
* Sweep trials: every one of the eight invariants is reported and passes
  with residual exactly 0.
* Lemma checks: each passes with the case count its arguments fix, and
  the cosphere moments match this module's own ``math.gamma`` values.

Every check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import Dict, List, Tuple

TERM_NAMES = ("h1", "l1", "l2", "l3", "l4", "l5", "k1", "k2")
FLOAT_REL = 1e-9
SPHERE_REL = 1e-12

# The phrases of the eight invariants in the order the suite records them.
SWEEP_INVARIANTS = (
    "equals composition oracle",
    "match derived closed forms",
    "is real",
    "X-independent",
    "linear in u",
    "u<->w",
    "Jacobian only through",
    "scaling law",
)

# Case counts fixed by the default arguments of each lemma check:
# 2.1 draws 10 curvatures for each of n = 4, 6; 2.4 and 2.5 draw 10
# scenarios; 3.3 draws 50 tuples for each of m = 2, 3; 3.4 draws 100
# scenarios; gamma covers m = 1, 2, 3; sphere counts its even moments.
SPHERE_DIMS = (4, 6)
SPHERE_MAX_TOTAL = 8


def _even_moments():
    for n in SPHERE_DIMS:
        half = SPHERE_MAX_TOTAL // 2
        for halves in itertools.product(range(half + 1), repeat=n):
            if 2 * sum(halves) <= SPHERE_MAX_TOTAL:
                yield n, tuple(2 * h for h in halves)


LEMMA_CASES = {
    "2.1": 20,
    "2.4": 10,
    "2.5": 10,
    "3.3": 100,
    "3.4": 100,
    "sphere": sum(1 for _ in _even_moments()),
    "gamma": 3,
}


def sphere_volume(n: int) -> float:
    """Vol(S^{n-1})."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def density_unit(m: int) -> float:
    """2^m Vol(S^{2m-1}), the unit exact densities are given in."""
    return 2.0**m * sphere_volume(2 * m)


def parse_gaussian(text: str) -> Tuple[Fraction, Fraction]:
    """Read "p/q", "p/qi" or "a+bi"/"a-bi" into (real, imaginary)."""
    if not text.endswith("i"):
        return Fraction(text), Fraction(0)
    body = text[:-1]
    k = max(body.rfind("+"), body.rfind("-"))
    if k > 0:
        return Fraction(body[:k]), Fraction(body[k:])
    return Fraction(0), Fraction(body)


def closed_form_terms(scenario: Dict) -> Dict[str, Tuple]:
    """Per-term densities from the trace identities, as (real, imaginary).

    Exact scenarios give ``Fraction`` pairs in units of 2^m Vol(S^{2m-1});
    float scenarios give ``float`` pairs without the unit.
    """
    m = scenario["m"]
    n = 2 * m
    num = Fraction if scenario["mode"] == "exact" else float
    vec = lambda xs: [num(x) for x in xs]  # noqa: E731
    V = vec(scenario["V"]["value"])
    J = [vec(row) for row in scenario["V"]["jacobian"]]  # J[j][a] = d V_a / d x_j
    X, u, v, w = (vec(scenario[k]) for k in ("X", "u", "v", "w"))

    def dot(a, b):
        return sum((x * y for x, y in zip(a, b)), num(0))

    def grad(a):  # the derivative of V along a
        return [sum((a[j] * J[j][al] for j in range(n)), num(0)) for al in range(n)]

    norm = dot(V, V)
    d_norm = [2 * sum((V[a] * J[j][a] for a in range(n)), num(0)) for j in range(n)]
    div = sum((J[j][j] for j in range(n)), num(0))
    g_uv, g_uw, g_vw = dot(u, v), dot(u, w), dot(v, w)
    g_uV, g_vV, g_wV = dot(u, V), dot(v, V), dot(w, V)
    nV, nu, nv, nw = grad(V), grad(u), grad(v), grad(w)

    t1 = g_uv * dot(w, d_norm) - g_uw * dot(v, d_norm) + g_vw * dot(u, d_norm)
    a = -t1 / 2
    b = dot(u, nV) * g_vw - dot(v, nV) * g_uw + dot(w, nV) * g_uv
    c = (
        -g_wV * dot(u, nv) + g_wV * dot(v, nu)
        + g_vV * dot(u, nw) - g_vV * dot(w, nu)
        - g_uV * dot(v, nw) + g_uV * dot(w, nv)
    )
    d = div * (g_wV * g_uv - g_vV * g_uw + g_uV * g_vw)
    x = g_uv * dot(w, X) - g_uw * dot(v, X) + dot(u, X) * g_vw
    wm1 = norm ** (-2 * m + 1)
    wm2 = norm ** (-2 * m + 2)
    zero = num(0)
    return {
        "h1": (-wm1 * (a + b + c - d), wm2 * x),
        "l1": (wm1 * (a - b + c + d), zero),
        "l2": (zero, -wm2 * x),
        "l3": (-m * wm1 * t1, zero),
        "l4": (2 * wm1 * t1, zero),
        "l5": ((m - 1) * wm1 * t1, zero),
        "k1": (wm1 * (a + b - c - d), zero),
        "k2": (wm1 * (a + b + c - d), zero),
    }


def _exact_value(obj) -> Tuple[Fraction, Fraction]:
    return parse_gaussian(obj["rational"])


def _float_value(obj) -> complex:
    return complex(obj["value"]["re"], obj["value"]["im"])


def check_report(scenario: Dict, report: Dict) -> List[str]:
    """Problems with one parsed report of ``scenario``."""
    problems = []
    if report.get("pass") is not True:
        problems.append("report does not pass its own gating comparisons")
    for row in report.get("diffs", []):
        if row["gating"] and not row["pass"]:
            problems.append(f"gating comparison {row['name']} failed")
    echo = report.get("scenario", {})
    if echo.get("m") != scenario["m"] or echo.get("mode") != scenario["mode"]:
        problems.append("report echoes another scenario")
        return problems
    expected = closed_form_terms(scenario)
    if scenario["mode"] == "exact":
        got = {k: _exact_value(report["terms"][k]) for k in TERM_NAMES}
        for k in TERM_NAMES:
            if got[k] != expected[k]:
                problems.append(f"term {k}: {got[k]} != closed form {expected[k]}")
        total = (sum(g[0] for g in got.values()), sum(g[1] for g in got.values()))
        assembled = _exact_value(report["assembled"])
        oracle = _exact_value(report["composition_oracle"])
        if assembled != total:
            problems.append(f"assembled {assembled} != sum of terms {total}")
        if assembled != oracle:
            problems.append(f"assembled {assembled} != composition oracle {oracle}")
        if assembled[1] != 0:
            problems.append(f"assembled has imaginary part {assembled[1]}")
        return problems

    unit = density_unit(scenario["m"])
    got = {k: _float_value(report["terms"][k]) for k in TERM_NAMES}
    want = {k: complex(*expected[k]) * unit for k in TERM_NAMES}
    scale = max(abs(z) for z in want.values())
    for k in TERM_NAMES:
        if abs(got[k] - want[k]) > FLOAT_REL * max(abs(got[k]), abs(want[k])):
            problems.append(f"term {k}: {got[k]!r} != closed form {want[k]!r}")
    assembled = _float_value(report["assembled"])
    oracle = _float_value(report["composition_oracle"])
    if abs(assembled - sum(got.values())) > FLOAT_REL * scale:
        problems.append(f"assembled {assembled!r} != sum of terms")
    if abs(assembled - oracle) > FLOAT_REL * scale:
        problems.append(f"assembled {assembled!r} != composition oracle {oracle!r}")
    if abs(assembled.imag) > FLOAT_REL * scale:
        problems.append(f"assembled has imaginary part {assembled.imag!r}")
    return problems


_RESIDUAL = re.compile(r"\(\D*([0-9.]+e[+-][0-9]+)\)")


def check_sweep_outcome(outcome) -> List[str]:
    """Problems with one exact invariant-suite trial."""
    problems = []
    if not outcome.passed or outcome.failures:
        problems.append(f"trial failed {outcome.failures} invariant(s)")
    if outcome.cases != 1:
        problems.append(f"trial counted {outcome.cases} cases, expected 1")
    if outcome.max_residual != 0.0:
        problems.append(f"max residual {outcome.max_residual!r}, expected exactly 0")
    if len(outcome.lines) != len(SWEEP_INVARIANTS):
        problems.append(f"{len(outcome.lines)} invariants reported, expected 8")
    for phrase, line in zip(SWEEP_INVARIANTS, outcome.lines):
        found = _RESIDUAL.search(line)
        if not line.startswith("PASS ") or phrase not in line:
            problems.append(f"expected a passing '{phrase}' record, got {line!r}")
        elif found is None or float(found.group(1)) != 0.0:
            problems.append(f"nonzero residual in {line!r}")
    return problems


def check_lemma_outcome(name: str, outcome) -> List[str]:
    """Problems with one lemma check's outcome."""
    problems = []
    if outcome.name != name:
        problems.append(f"outcome is for check {outcome.name!r}, expected {name!r}")
    if not outcome.passed or outcome.failures:
        problems.append(f"check {name} failed {outcome.failures} record(s)")
    if outcome.cases != LEMMA_CASES[name]:
        problems.append(f"check {name} ran {outcome.cases} cases, expected {LEMMA_CASES[name]}")
    bad = [line for line in outcome.lines if not line.startswith("PASS ")]
    if bad or not outcome.lines:
        problems.append(f"check {name} records: {bad or 'none'}")
    return problems


def check_sphere_moments(monomial_integral) -> List[str]:
    """The program's exact cosphere moments against Gamma-function values."""
    problems = []
    for n, alpha in _even_moments():
        got = float(monomial_integral(alpha, n)) * sphere_volume(n)
        want = 2.0 * math.prod(math.gamma((a + 1) / 2.0) for a in alpha)
        want /= math.gamma((sum(alpha) + n) / 2.0)
        if abs(got - want) > SPHERE_REL * abs(want):
            problems.append(f"moment {alpha} on S^{n - 1}: {got!r} != {want!r}")
    return problems


@functools.cache
def sphere_moment_problems() -> Tuple[str, ...]:
    """``check_sphere_moments`` on the installed program, computed once."""
    from torsionres.spheres import monomial_integral

    return tuple(check_sphere_moments(monomial_integral))
