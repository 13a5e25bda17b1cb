"""Reusable verification runners behind the CLI's sweep and lemma commands.

Each runner returns a ``CheckOutcome`` carrying a pass flag, the worst
residual seen (0.0 in exact mode when everything matches), and one
human-readable line per case; the CLI prints the lines and maps the flag
to its exit code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

import numpy as np

from .clifford import FrameVector, clifford_of_vector
from .gamma import (
    anticommutation_residual,
    build_gamma_matrices,
    represent_element,
    verify_representation,
)
from .geometry import (
    Scenario,
    VectorFieldJet,
    VerificationError,
    _random_components,
    laplacian_inverse_check,
    random_curvature,
    random_scenario,
    rescaled_dirac_inverse_symbols,
    rescaled_dirac_square_sigma1_pieces,
    rescaled_dirac_square_symbols,
    rescaled_dirac_symbols,
)
from .reference import reference_term_densities, scenario_invariants, theorem_density
from .report import Comparison, gating_comparisons, term_scale
from .spheres import monomial_integral, monomial_integral_closed_form, sphere_volume
from .symbols import (
    norm_squared_symbol,
    symbol_compose,
    symbol_square_to_invert,
    symbols_equal,
)
from .torsion import (
    TERM_NAMES,
    assemble_density,
    lemma33_trace_identity,
    lemma34_contraction,
    sum_terms,
    term_densities,
    torsion_prefactor_element,
    trace_terms,
)


@dataclass
class CheckOutcome:
    name: str
    passed: bool = True
    max_residual: float = 0.0
    cases: int = 0
    failures: int = 0
    lines: List[str] = dc_field(default_factory=list)

    def record(self, ok: bool, line: str, residual: float = 0.0):
        if not ok:
            self.failures += 1
            self.passed = False
        self.max_residual = max(self.max_residual, residual)
        self.lines.append(("PASS " if ok else "FAIL ") + line)


# ---------------------------------------------------------------------------
# targeted identity checks (the CLI's `lemma` command)
# ---------------------------------------------------------------------------


def check_laplacian_inverse(seed: int = 0) -> CheckOutcome:
    """Inverse Laplacian symbols in normal coordinates, n in {4, 6}."""
    out = CheckOutcome("2.1")
    rng = random.Random(seed)
    for n in (4, 6):
        for k in range(10):
            curv = random_curvature(n, rng)
            try:
                laplacian_inverse_check(curv)
                out.record(True, f"n={n} case {k + 1}: inverse symbols match")
            except VerificationError as exc:
                out.record(False, f"n={n} case {k + 1}: {exc}", residual=1.0)
            out.cases += 1
    return out


def check_square_symbols(seed: int = 0) -> CheckOutcome:
    """Squared-operator symbols: composition route against the closed form.

    The composed square is the oracle's, sigma_1 at the base point where
    the closed form has it."""
    out = CheckOutcome("2.4")
    rng = random.Random(seed)
    for k in range(10):
        m = 2 if k % 2 == 0 else 3
        s = random_scenario(m, "exact", rng)
        dirac = rescaled_dirac_symbols(s)
        pieces = rescaled_dirac_square_sigma1_pieces(s)
        closed = rescaled_dirac_square_symbols(s, pieces)
        composed = symbol_square_to_invert(dirac)
        ok2 = symbols_equal(composed.take_degree(2), closed.take_degree(2))
        ok1 = symbols_equal(composed.take_degree(1), closed.take_degree(1))
        out.record(ok2 and ok1, f"m={m} case {k + 1}: sigma_2 {ok2}, sigma_1 {ok1}")
        out.cases += 1
    return out


def check_inverse_square_symbols(seed: int = 0) -> CheckOutcome:
    """Two-term inversion against its closed form plus the left-inverse law."""
    out = CheckOutcome("2.5")
    rng = random.Random(seed)
    for k in range(10):
        m = 2 if k % 2 == 0 else 3
        s = random_scenario(m, "exact", rng)
        closed = rescaled_dirac_square_symbols(s, rescaled_dirac_square_sigma1_pieces(s))
        try:
            q2, q3 = rescaled_dirac_inverse_symbols(s, closed)
        except VerificationError as exc:
            out.record(False, f"m={m} case {k + 1}: {exc}", residual=1.0)
            out.cases += 1
            continue
        li = symbol_compose(q2 + q3, closed, -1)
        one = norm_squared_symbol(s.n, 1, s.field, s.n, 0)
        ok0 = symbols_equal(li.take_degree(0), one)
        okm1 = li.take_degree(-1).evaluate_jets_at_origin().is_zero()
        out.record(ok0 and okm1, f"m={m} case {k + 1}: left-inverse {ok0}/{okm1}")
        out.cases += 1
    return out


def check_trace_identities(seed: int = 0) -> CheckOutcome:
    """2-, 4- and 6-fold spinor trace identities, exact and gamma-matrix."""
    out = CheckOutcome("3.3")
    rng = random.Random(seed)
    for m in (2, 3):
        n = 2 * m
        gammas = build_gamma_matrices(m)
        worst = 0.0
        ok_all = True
        for _ in range(50):
            vectors = [FrameVector(n, _random_components(n, "exact", rng)) for _ in range(6)]
            # one left-to-right chain c(v_1)...c(v_k), extended from k to k + 2,
            # traced by the identity and represented by gamma matrices
            prod = clifford_of_vector(vectors[0])
            done = 1
            try:
                for k in (2, 4, 6):
                    for vv in vectors[done:k]:
                        prod = prod * clifford_of_vector(vv)
                    done = k
                    value = lemma33_trace_identity(vectors[:k], prod)
                    mat = represent_element(prod, gammas)
                    worst = max(worst, abs(np.trace(mat) - complex(value)))
            except VerificationError:
                ok_all = False
        out.record(
            ok_all and worst <= 1e-10,
            f"m={m}: 50 tuples, gamma residual {worst:.2e}",
            residual=worst,
        )
        out.cases += 50
    return out


def check_contraction_identities(seed: int = 0) -> CheckOutcome:
    """All fifteen Jacobian contraction identities on random scenarios."""
    out = CheckOutcome("3.4")
    rng = random.Random(seed)
    bad = 0
    for k in range(100):
        s = random_scenario(2 if k % 2 == 0 else 3, "exact", rng)
        for index in range(1, 16):
            try:
                lemma34_contraction(index, s)
            except VerificationError:
                bad += 1
        out.cases += 1
    out.record(bad == 0, f"100 scenarios x 15 identities, {bad} failures")
    return out


def check_sphere_integrals() -> CheckOutcome:
    """Recursion against the Gamma closed form, plus the sum rule, up to
    total degree 8."""
    out = CheckOutcome("sphere")
    import itertools

    worst = 0.0
    checked = 0
    for n in (4, 6):
        vol = sphere_volume(n)
        for halves in itertools.product(range(5), repeat=n):
            if sum(halves) > 4:
                continue
            alpha = tuple(2 * h for h in halves)
            exact = float(monomial_integral(alpha, n)) * vol
            oracle = monomial_integral_closed_form(alpha, n)
            rel = abs(exact - oracle) / max(1e-300, abs(oracle))
            worst = max(worst, rel)
            # sum rule: sum_a I(alpha + 2 e_a) = I(alpha), exactly
            total = Fraction(0)
            for a in range(n):
                bumped = tuple(x + (2 if i == a else 0) for i, x in enumerate(alpha))
                total += monomial_integral(bumped, n)
            if total != monomial_integral(alpha, n):
                out.record(False, f"sum rule broken at {alpha}, n={n}", residual=1.0)
            checked += 1
    out.cases = checked
    out.record(worst <= 1e-12, f"{checked} even moments, worst relative {worst:.2e}", worst)
    return out


def check_gamma_oracle(seed: int = 0) -> CheckOutcome:
    """Anticommutation residuals and exact-vs-matrix agreement."""
    out = CheckOutcome("gamma")
    for m in (1, 2, 3):
        res = anticommutation_residual(build_gamma_matrices(m))
        out.record(res <= 1e-14, f"m={m}: anticommutation residual {res:.2e}", res)
        dev = verify_representation(m, 100 if m < 3 else 25, seed)
        out.record(dev <= 1e-10, f"m={m}: representation deviation {dev:.2e}", dev)
        out.cases += 1
    return out


LEMMA_CHECKS: Dict[str, Callable[[int], CheckOutcome]] = {
    "2.1": lambda seed: check_laplacian_inverse(seed),
    "2.4": lambda seed: check_square_symbols(seed),
    "2.5": lambda seed: check_inverse_square_symbols(seed),
    "3.3": lambda seed: check_trace_identities(seed),
    "3.4": lambda seed: check_contraction_identities(seed),
    "sphere": lambda seed: check_sphere_integrals(),
    "gamma": lambda seed: check_gamma_oracle(seed),
}


# ---------------------------------------------------------------------------
# scenario invariants (the CLI's `sweep` command)
# ---------------------------------------------------------------------------


def _perturbed_jacobian(s: Scenario, rng: random.Random) -> Scenario:
    """New scenario with the same V value and d|V|^2 but a different Jacobian."""
    n, fld = s.n, s.field
    w = s.V.norm_sq()
    v0 = s.V.value
    rows = []
    for j in range(n):
        raw = [
            fld.of(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
            if fld.kind == "exact"
            else fld.of(rng.gauss(0.0, 1.0))
            for _ in range(n)
        ]
        # project the perturbation row orthogonal to V so V^T J is preserved
        dotv = raw[0] * v0.components[0]
        for a in range(1, n):
            dotv = dotv + raw[a] * v0.components[a]
        coef = dotv / w
        row = tuple(
            s.V.jacobian[j][a] + raw[a] - coef * v0.components[a] for a in range(n)
        )
        rows.append(row)
    return replace(s, V=VectorFieldJet(v0, tuple(rows)))


# Term groups that a derived scenario leaves unchanged, judged next to the
# assembled density.  A new X changes h1 and l2; the u<->w exchange, and a
# new Jacobian with the same d|V|^2, change h1, l1, k1 and k2; each by parts
# that cancel in the sum of the last group.
_X_GROUPS = (("l1",), ("l3",), ("l4",), ("l5",), ("k1",), ("k2",), ("h1", "l2"))
_UW_AND_JACOBIAN_GROUPS = (("l2",), ("l3",), ("l4",), ("l5",), ("h1", "l1", "k1", "k2"))


def scenario_invariant_suite(s: Scenario, rng: random.Random) -> CheckOutcome:
    """Every torsion-pipeline invariant on one scenario.

    The first three records are the gating rows of the scenario's report:
    oracle equivalence, per-term fidelity against the derived closed forms,
    and reality.  Then X-independence, linearity in u, outer-argument
    symmetry, Jacobian reduction and the scaling law, on derived scenarios:
    a new X, Jacobian or V runs the term route alone, and the u-variants
    retrace the scenario's own term symbols.  The assembled density is 0 in
    exact mode, so the four derived scenarios that keep it also judge the
    terms: linearity each of the eight, X-independence the groups of
    ``_X_GROUPS``, the u<->w exchange and Jacobian reduction those of
    ``_UW_AND_JACOBIAN_GROUPS``.  Every float value is judged by the
    report's rule, relative to the largest term compared.
    """
    out = CheckOutcome("invariants")
    fld = s.field

    def compare(left, right, *term_sets) -> Comparison:
        return Comparison("invariant", left, right, True, term_scale(*term_sets))

    def record(rows: List[Comparison], line: str, gates: Sequence[Comparison] = ()) -> None:
        worst = max(abs(row.diff) for row in rows)
        passed = all(row.passed for row in [*rows, *gates])
        out.record(passed, line.format(worst), worst)

    def unchanged(terms, groups: Sequence[Sequence[str]]) -> List[Comparison]:
        """The assembled density, then the sum of each group, of ``terms``
        against the scenario's own."""
        return [compare(sum_terms(bd.terms, names), sum_terms(terms, names), bd.terms, terms)
                for names in (TERM_NAMES, *groups)]

    def retrace(scenario: Scenario):
        return trace_terms(bd.symbols, torsion_prefactor_element(scenario))

    bd = assemble_density(s)
    inv = scenario_invariants(s)
    *term_rows, oracle_row, imag_row = gating_comparisons(s, bd, reference_term_densities(inv))
    record([oracle_row], "assembled equals composition oracle (residual {:.2e})")
    record(term_rows, "per-term densities match derived closed forms (worst {:.2e})")
    record([imag_row], "assembled density is real ({:.2e})")

    other_x = FrameVector(s.n, _random_components(s.n, s.mode, rng))
    x_terms = term_densities(replace(s, X=other_x))
    record(unchanged(x_terms, _X_GROUPS),
           "assembled density is X-independent (residual {:.2e})")

    # trilinearity in u: each term is linear in the prefactor argument
    two = fld.of(2)
    two_u_terms = retrace(replace(s, u=s.u.scale(two)))
    record([compare(sum_terms(two_u_terms), bd.assembled.scale(two), bd.terms, two_u_terms)]
           + [compare(two_u_terms[name], bd.terms[name].scale(two), bd.terms, two_u_terms)
              for name in TERM_NAMES],
           "density is linear in u (residual {:.2e})")

    s_wu = replace(s, u=s.w, w=s.u)
    wu_terms = retrace(s_wu)
    theorem = compare(theorem_density(inv), theorem_density(scenario_invariants(s_wu)),
                      bd.terms, wu_terms)
    record(unchanged(wu_terms, _UW_AND_JACOBIAN_GROUPS),
           "outer arguments u<->w may be exchanged (residual {:.2e})", [theorem])

    jac_terms = term_densities(_perturbed_jacobian(s, rng))
    record(unchanged(jac_terms, _UW_AND_JACOBIAN_GROUPS),
           "density depends on the Jacobian only through d|V|^2 (residual {:.2e})")

    s_scaled = replace(s, V=VectorFieldJet(
        s.V.value.scale(two), tuple(tuple(two * c for c in row) for row in s.V.jacobian)
    ))
    factor = fld.one
    for _ in range(4 * s.m - 4):
        factor = factor / two
    td_scaled = term_densities(s_scaled)
    record([compare(td_scaled[name], bd.terms[name].scale(factor), td_scaled)
            for name in TERM_NAMES],
           "scaling law density(2V) = 2^(-4m+4) density(V) (worst {:.2e})")

    out.cases = 1
    return out


SWEEP_M = (2, 3, 4)


def run_sweep(m: int, trials: int, seed: int, mode: str) -> CheckOutcome:
    """Random-scenario sweep over the full invariant suite, for m in
    ``SWEEP_M``."""
    if m not in SWEEP_M:
        raise ValueError(f"sweep supports m in {SWEEP_M}, got {m}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    out = CheckOutcome(f"sweep m={m} mode={mode}")
    for t in range(trials):
        s = random_scenario(m, mode, rng)
        sub = scenario_invariant_suite(s, rng)
        out.cases += 1
        out.max_residual = max(out.max_residual, sub.max_residual)
        if not sub.passed:
            out.failures += 1
            out.passed = False
            out.lines.extend(f"  trial {t + 1}: {line}" for line in sub.lines
                             if line.startswith("FAIL"))
    out.lines.append(
        f"{'PASS' if out.passed else 'FAIL'} {out.cases} trials, "
        f"{out.failures} failures, max residual {out.max_residual:.2e}"
    )
    return out
