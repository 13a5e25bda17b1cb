"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with  `pytest tests/test_acceptance.py -v -s`  to see the lines as the
criteria execute.  Stated runtime bounds are asserted where the criterion
pins one.

Two criteria compare the machine pipeline against printed closed forms
that the machine demonstrably contradicts; per the engine's design the
machine value (confirmed by two independent routes plus the dense-matrix
oracle) is the arithmetic ground truth and the deviation is documented,
not hidden: criterion 6 additionally proves the printed variants differ
by exactly the three characterized slips, and criterion 8 passes through
its documented-discrepancy branch with the per-term diff table emitted.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np

from torsionres.checks import _perturbed_jacobian
from torsionres.cli import main as cli_main
from torsionres.clifford import CliffordElement, FrameVector, clifford_of_vector
from torsionres.gamma import build_gamma_matrices, represent_element
from torsionres.geometry import (
    Scenario,
    VectorFieldJet,
    laplacian_inverse_check,
    random_curvature,
    random_scenario,
    rescaled_dirac_inverse_symbols,
    rescaled_dirac_square_sigma1_pieces,
    rescaled_dirac_square_symbols,
    rescaled_dirac_symbols,
)
from torsionres.reference import (
    paper_term_densities,
    reference_term_densities,
    scenario_invariants,
    theorem_density,
)
from torsionres.scalars import EXACT
from torsionres.spheres import (
    monomial_integral,
    monomial_integral_closed_form,
    sphere_volume,
)
from torsionres.symbols import (
    norm_squared_symbol,
    symbol_compose,
    symbols_equal,
)
from torsionres.torsion import (
    TERM_NAMES,
    assemble_density,
    lemma33_trace_identity,
    lemma34_contraction,
    plain_dirac_torsion_density,
    term_densities,
    trace_pairing_formula,
)

from conftest import exact_vector, small_rational


def report(number: int, passed: bool, detail: str):
    line = f"criterion {number:02d} {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def test_criterion_01_trace_identities():
    """Trace identities for 200 random tuples, m in {2,3}; gamma <= 1e-10."""
    t0 = time.time()
    rng = random.Random(101)
    worst = 0.0
    for m in (2, 3):
        n = 2 * m
        gammas = build_gamma_matrices(m)
        for _ in range(200):
            vectors = [
                FrameVector(n, tuple(EXACT.of(small_rational(rng)) for _ in range(n)))
                for _ in range(6)
            ]
            for k in (2, 4, 6):
                prod = clifford_of_vector(vectors[0])
                for v in vectors[1:k]:
                    prod = prod * clifford_of_vector(v)
                value = lemma33_trace_identity(vectors[:k], prod)
                worst = max(
                    worst,
                    abs(np.trace(represent_element(prod, gammas)) - complex(value)),
                )
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"400 tuples x 3 identities exact, gamma residual {worst:.2e} ({elapsed:.1f}s < 10s)",
    )


def test_criterion_02_sphere_integrals():
    """Recursion vs Gamma oracle, |alpha| <= 8, n in {4,6}; sum rule exact."""
    t0 = time.time()
    worst = 0.0
    count = 0
    for n in (4, 6):
        vol = sphere_volume(n)
        for halves in itertools.product(range(5), repeat=n):
            if sum(halves) > 4:
                continue
            alpha = tuple(2 * h for h in halves)
            exact = float(monomial_integral(alpha, n)) * vol
            oracle = monomial_integral_closed_form(alpha, n)
            worst = max(worst, abs(exact - oracle) / max(abs(oracle), 1e-300))
            total = sum(
                monomial_integral(
                    tuple(x + (2 if i == a else 0) for i, x in enumerate(alpha)), n
                )
                for a in range(n)
            )
            assert total == monomial_integral(alpha, n)
            count += 1
    elapsed = time.time() - t0
    report(
        2,
        worst <= 1e-12 and elapsed < 1.0,
        f"{count} even moments vs Gamma oracle, worst rel {worst:.2e}; sum rule exact ({elapsed:.2f}s < 1s)",
    )


def test_criterion_03_inverse_laplacian():
    """Jet-built Laplacian inverted by the recursion reproduces the
    normal-coordinate closed forms, 10 random curvature tensors."""
    t0 = time.time()
    rng = random.Random(103)
    cases = 0
    for n in (4, 6):
        for _ in range(5):
            curv = random_curvature(n, rng)
            laplacian_inverse_check(curv)  # raises on mismatch
            cases += 1
    elapsed = time.time() - t0
    report(3, elapsed < 5.0, f"{cases} curvature tensors, n in {{4,6}}, exact ({elapsed:.1f}s < 5s)")


def test_criterion_04_square_and_inverse_symbols():
    """Composition reproduces the closed-form square symbols, the
    recursion reproduces the closed-form inverse, and the left-inverse law
    holds -- 50 random exact scenarios over m in {2,3}."""
    t0 = time.time()
    rng = random.Random(104)
    cases = 0
    for k in range(50):
        m = 2 if k % 2 == 0 else 3
        s = random_scenario(m, "exact", rng)
        dirac = rescaled_dirac_symbols(s)
        closed = rescaled_dirac_square_symbols(s, rescaled_dirac_square_sigma1_pieces(s))
        composed = symbol_compose(dirac, dirac, 1)
        assert symbols_equal(composed.take_degree(2), closed.take_degree(2))
        assert symbols_equal(
            composed.take_degree(1).evaluate_jets_at_origin(),
            closed.take_degree(1).evaluate_jets_at_origin(),
        )
        q2, q3 = rescaled_dirac_inverse_symbols(s, closed)
        li = symbol_compose(q2 + q3, closed, -1)
        assert symbols_equal(li.take_degree(0), norm_squared_symbol(s.n, 1, s.field, s.n, 0))
        assert li.take_degree(-1).evaluate_jets_at_origin().is_zero()
        cases += 1
    elapsed = time.time() - t0
    report(4, elapsed < 30.0, f"{cases} scenarios, all four identities exact ({elapsed:.1f}s < 30s)")


def test_criterion_05_contraction_identities():
    """All fifteen contraction identities, brute force vs closed form, on
    100 random exact scenarios."""
    t0 = time.time()
    rng = random.Random(105)
    for k in range(100):
        s = random_scenario(2 if k % 2 == 0 else 3, "exact", rng)
        for index in range(1, 16):
            lemma34_contraction(index, s)  # raises on mismatch
    elapsed = time.time() - t0
    report(5, elapsed < 5.0, f"100 scenarios x 15 identities exact ({elapsed:.1f}s < 5s)")


def test_criterion_06_per_term_densities():
    """Per-term densities against the closed forms: exact for 50 random
    m=2 scenarios, float <= 1e-9 relative for m=3.

    The machine terms are required to equal the derived closed forms (the
    printed brackets with their two internally inconsistent divergence
    signs repaired and the dropped sphere factor restored).  The printed
    variants of h1, l3 and k2 are additionally shown to deviate by exactly
    those three characterized slips, so the disagreement with the printed
    text is fully accounted for, term by term.
    """
    rng = random.Random(106)
    for _ in range(50):
        s = random_scenario(2, "exact", rng)
        td = term_densities(s)
        inv = scenario_invariants(s)
        ref = reference_term_densities(inv)
        printed = paper_term_densities(inv, ref)
        wm1 = EXACT.one
        for _ in range(2 * s.m - 1):
            wm1 = wm1 / inv.w
        for name in TERM_NAMES:
            assert td[name].value == ref[name].value, name
        # printed-variant deltas are exactly the identified slips
        assert td["h1"].value - printed["h1"].value == EXACT.of(-2) * inv.div * inv.s2 * wm1
        assert td["k2"].value - printed["k2"].value == EXACT.of(2) * inv.div * inv.s2 * wm1
        assert td["l3"].value - printed["l3"].value == EXACT.of(Fraction(1 - 2 * s.m, 2)) * inv.t1 * wm1
        for name in ("l1", "l2", "l4", "l5", "k1"):
            assert td[name].value == printed[name].value, name
    worst = 0.0
    for _ in range(25):
        s = random_scenario(3, "float", rng)
        td = term_densities(s)
        ref = reference_term_densities(scenario_invariants(s))
        for name in TERM_NAMES:
            a, b = complex(td[name].value), complex(ref[name].value)
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    report(
        6,
        worst <= 1e-9,
        "50 exact m=2 scenarios term-exact; printed h1/l3/k2 variants deviate "
        f"by exactly the characterized slips (documented); float m=3 worst rel {worst:.2e}",
    )


def test_criterion_07_oracle_equivalence():
    """Assembled H1+H2+H3 equals the generic-composition density exactly,
    50 scenarios each for m in {2,3}."""
    t0 = time.time()
    rng = random.Random(107)
    for m in (2, 3):
        for _ in range(50):
            s = random_scenario(m, "exact", rng)
            bd = assemble_density(s)
            assert bd.assembled.value == bd.composition_oracle.value
    elapsed = time.time() - t0
    report(7, True, f"50+50 scenarios, assembled == composition oracle exactly ({elapsed:.0f}s)")


def test_criterion_08_theorem_end_to_end(derived_scenario, capsys):
    """The derived m=2 scenario: closed-form value is 8 pi^2; the pipeline
    disagrees with the printed theorem and the per-term discrepancy table
    is emitted (the criterion's documented-discrepancy branch)."""
    t0 = time.time()
    bd = assemble_density(derived_scenario)
    inv = scenario_invariants(derived_scenario)
    theorem = theorem_density(inv)
    assert theorem.value == EXACT.of(1)
    assert abs(theorem.float_total() - 78.95683520871486) <= 1e-9
    assert bd.assembled.value == bd.composition_oracle.value == EXACT.of(0)

    lines = ["    per-term discrepancy table (machine vs printed, units 2^m Vol(S^{2m-1})):"]
    printed = paper_term_densities(inv, reference_term_densities(inv))
    for name in TERM_NAMES:
        machine = bd.terms[name].value
        paper = printed[name].value
        marker = "" if machine == paper else "   <-- differs"
        lines.append(f"      {name}: machine {machine}  printed {paper}{marker}")
    lines.append(
        f"      assembled {bd.assembled.value}  printed theorem {theorem.value}   <-- differs"
    )

    rng = random.Random(108)
    s3 = random_scenario(3, "exact", rng)
    bd3 = assemble_density(s3)
    assert bd3.assembled.value == bd3.composition_oracle.value
    elapsed = time.time() - t0
    with capsys.disabled():
        print()
        for line in lines:
            print(line)
    report(
        8,
        elapsed < 60.0,
        "theorem value 8 pi^2 reproduced from the closed form; machine total 0 "
        f"documented against it with the per-term table, m in {{2,3}} ({elapsed:.0f}s < 60s)",
    )


def test_criterion_09_cancellation_properties():
    """X-independence over 10 values; constant-|V|^2 gives 0; plain Dirac
    gives 0; the scaling law holds for lambda in {2, 1/3}."""
    rng = random.Random(109)
    s = random_scenario(2, "exact", rng)
    base = assemble_density(s).assembled.value
    for _ in range(10):
        x = exact_vector(*[small_rational(rng) for _ in range(4)])
        s_x = Scenario(m=s.m, mode=s.mode, V=s.V, X=x, u=s.u, v=s.v, w=s.w)
        assert assemble_density(s_x).assembled.value == base

    # constant |V|^2: Jacobian orthogonal to V (first column zero for V = e1)
    zero = EXACT.of(0)
    jac = [[zero] + [EXACT.of(small_rational(rng)) for _ in range(3)] for _ in range(4)]
    s_const = Scenario(
        m=2, mode="exact",
        V=VectorFieldJet(exact_vector(1, 0, 0, 0), tuple(tuple(r) for r in jac)),
        X=exact_vector(0, 0, 0, 0),
        u=s.u, v=s.v, w=s.w,
    )
    assert all(not bool(c) for c in s_const.V.d_norm_sq().components)
    bd_const = assemble_density(s_const)
    assert bd_const.assembled.value == EXACT.of(0)
    assert theorem_density(scenario_invariants(s_const)).value == EXACT.of(0)

    for m in (2, 3):
        n = 2 * m
        u, v, w = (
            exact_vector(*[small_rational(rng) for _ in range(n)]) for _ in range(3)
        )
        assert plain_dirac_torsion_density(u, v, w).value == EXACT.of(0)

    for lam in (Fraction(2), Fraction(1, 3)):
        scaled = Scenario(
            m=s.m, mode=s.mode,
            V=VectorFieldJet(
                s.V.value.scale(EXACT.of(lam)),
                tuple(tuple(EXACT.of(lam) * c for c in row) for row in s.V.jacobian),
            ),
            X=s.X, u=s.u, v=s.v, w=s.w,
        )
        factor = EXACT.of(lam ** (-4 * s.m + 4))
        td, tds = term_densities(s), term_densities(scaled)
        for name in TERM_NAMES:
            assert tds[name].value == td[name].value * factor
    report(9, True, "X-independence (10 values), constant-|V|^2 zero, plain Dirac zero, scaling law exact")


def test_criterion_10_negative_control(tmp_path, capsys):
    """A fixture with one perturbed reference coefficient exits 1 with a
    nonzero diff in exactly that term."""
    doc = {
        "schema": 1, "m": 2, "mode": "exact",
        "V": {"value": ["1", "0", "0", "0"],
              "jacobian": [["0"] * 4, ["1", "0", "0", "0"], ["0"] * 4, ["0"] * 4]},
        "X": ["0"] * 4, "u": ["0", "1", "0", "0"],
        "v": ["0", "1", "0", "0"], "w": ["0", "1", "0", "0"],
        "perturb": {"term": "l4", "delta": "1/7"},
    }
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(doc))
    code = cli_main(["run", "--scenario", str(path)])
    out = capsys.readouterr().out
    rep = json.loads(out)
    failing = [d["name"] for d in rep["diffs"] if d["gating"] and not d["pass"]]
    report(
        10,
        code == 1 and failing == ["term:l4:reference"],
        f"perturbed fixture exits 1 with the diff confined to l4 (gates failing: {failing})",
    )
