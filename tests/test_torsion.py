import argparse
import inspect
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from torsionres import (
    checks, cli, clifford, gamma, geometry, jets, reference, report, scalars, symbols, torsion,
)
from torsionres.clifford import CliffordElement, FrameVector, clifford_of_vector, clifford_trace
from torsionres.gamma import build_gamma_matrices, represent_element
from torsionres.geometry import Scenario, VectorFieldJet, random_scenario
from torsionres.reference import (
    paper_group_densities,
    paper_term_densities,
    reference_term_densities,
    scenario_invariants,
    theorem_density,
)
from torsionres.scalars import EXACT
from torsionres.scenario_io import load_scenario
from torsionres.torsion import (
    TERM_NAMES,
    assemble_density,
    composition_oracle_density,
    lemma34_contraction,
    pipeline_symbols,
    plain_dirac_torsion_density,
    term_densities,
    torsion_prefactor_element,
    trace_terms,
)

from conftest import exact_vector


def _scenario(m, v, jac_entries, x, u, vv, w):
    n = 2 * m
    zero = EXACT.of(0)
    jac = [[zero] * n for _ in range(n)]
    for (j, a), val in jac_entries.items():
        jac[j][a] = EXACT.of(val)
    return Scenario(
        m=m,
        mode="exact",
        V=VectorFieldJet(exact_vector(*v), tuple(tuple(r) for r in jac)),
        X=exact_vector(*x),
        u=exact_vector(*u),
        v=exact_vector(*vv),
        w=exact_vector(*w),
    )


# -- prefactor ----------------------------------------------------------------


def test_prefactor_value(derived_scenario):
    # c(e1) c(e2)^3 c(e1) = -c(e2)
    pre = torsion_prefactor_element(derived_scenario)
    assert pre == CliffordElement.basis(4, 2, EXACT.one).scale(EXACT.of(-1))


def test_prefactor_repeated_argument_reduces():
    s = _scenario(2, (0, 0, 1, 0), {}, (0, 0, 0, 0), (1, 2, 0, 0), (1, 2, 0, 0), (0, 0, 0, 1))
    pre = torsion_prefactor_element(s)
    # c(u)c(u) = -|u|^2 = -5 inside the sandwich
    cV = clifford_of_vector(s.V.value)
    cw = clifford_of_vector(s.w)
    expect = (cV * cw * cV).scale(EXACT.of(-5))
    assert pre == expect


@pytest.mark.parametrize("m", [2, 3])
def test_prefactor_matches_gamma_oracle(m):
    rng = random.Random(m * 11)
    gammas = build_gamma_matrices(m)
    for _ in range(5):
        s = random_scenario(m, "exact", rng)
        pre = torsion_prefactor_element(s)
        mats = [
            represent_element(clifford_of_vector(v), gammas)
            for v in (s.V.value, s.u, s.v, s.w, s.V.value)
        ]
        prod = mats[0]
        for mt in mats[1:]:
            prod = prod @ mt
        assert np.abs(represent_element(pre, gammas) - prod).max() <= 1e-12


# -- worked m = 2 scenario ------------------------------------------------------


def test_derived_scenario_term_values(derived_scenario):
    td = term_densities(derived_scenario)
    expected = {
        "h1": 1, "l1": -1, "l2": 0, "l3": -4, "l4": 4, "l5": 2, "k1": -1, "k2": -1,
    }
    for name, val in expected.items():
        assert td[name].value == EXACT.of(val), name


def test_derived_scenario_assembly(derived_scenario):
    bd = assemble_density(derived_scenario)
    assert bd.assembled.value == EXACT.of(0)
    assert bd.composition_oracle.value == EXACT.of(0)
    theorem = theorem_density(scenario_invariants(derived_scenario))
    assert theorem.value == EXACT.of(1)
    # 1 * 2^2 Vol(S^3) = 8 pi^2
    assert abs(theorem.float_total() - 78.95683520871486) <= 1e-9


def test_closed_form_density_values(derived_scenario):
    assert theorem_density(scenario_invariants(derived_scenario)).value == EXACT.of(1)
    # d|V|^2 = 0 -> closed form 0
    s0 = _scenario(2, (1, 0, 0, 0), {}, (0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0))
    assert theorem_density(scenario_invariants(s0)).value == EXACT.of(0)


def test_closed_form_scaling(derived_scenario):
    s = derived_scenario
    lam = Fraction(2)
    scaled = Scenario(
        m=s.m, mode=s.mode,
        V=VectorFieldJet(
            s.V.value.scale(EXACT.of(lam)),
            tuple(tuple(EXACT.of(lam) * c for c in row) for row in s.V.jacobian),
        ),
        X=s.X, u=s.u, v=s.v, w=s.w,
    )
    # homogeneity degree -4m+4 in V
    assert theorem_density(scenario_invariants(scaled)).value == (
        theorem_density(scenario_invariants(s)).value * Fraction(1, 16)
    )


# -- constant V ---------------------------------------------------------------


def test_constant_unit_v_everything_vanishes():
    for x in ((0, 0, 0, 0), (2, -1, 0, 3)):
        s = _scenario(2, (1, 0, 0, 0), {}, x, (1, 1, 0, 0), (0, 1, 2, 0), (0, 0, 1, 0))
        bd = assemble_density(s)
        assert bd.assembled.value == EXACT.of(0)
        assert theorem_density(scenario_invariants(s)).value == EXACT.of(0)
        if x == (0, 0, 0, 0):
            for name in TERM_NAMES:
                assert bd.terms[name].value == EXACT.of(0), name


def test_constant_v_x_terms_cancel():
    """With constant unit V and X nonzero only h1 and l2 are nonzero and
    they cancel exactly."""
    s = _scenario(2, (1, 0, 0, 0), {}, (0, 2, 0, 0), (1, 1, 0, 0), (0, 1, 2, 0), (0, 0, 1, 0))
    td = term_densities(s)
    inv = scenario_invariants(s)
    expect_h1 = EXACT.i * inv.x_sum  # |V| = 1
    assert td["h1"].value == expect_h1
    assert td["l2"].value == EXACT.of(0) - expect_h1
    for name in ("l1", "l3", "l4", "l5", "k1", "k2"):
        assert td[name].value == EXACT.of(0), name


# -- per-term fidelity and oracle equivalence -----------------------------------


@pytest.mark.parametrize("m", [2, 3])
def test_terms_match_reference_closed_forms(m):
    rng = random.Random(m * 7)
    for _ in range(3 if m == 3 else 6):
        s = random_scenario(m, "exact", rng)
        td = term_densities(s)
        ref = reference_term_densities(scenario_invariants(s))
        for name in TERM_NAMES:
            assert td[name].value == ref[name].value, name


@pytest.mark.parametrize("m", [2, 3])
def test_assembled_equals_composition_oracle_and_vanishes(m):
    rng = random.Random(m * 13)
    for _ in range(2 if m == 3 else 4):
        s = random_scenario(m, "exact", rng)
        bd = assemble_density(s)
        assert bd.assembled.value == bd.composition_oracle.value
        assert bd.assembled.value == EXACT.of(0)
        assert bd.assembled.value.im == 0  # reality


def test_h_groups_from_term_densities(derived_scenario):
    td = term_densities(derived_scenario)
    assert td["h1"].value == EXACT.of(1)
    l_terms = [td[name] for name in ("l1", "l2", "l3", "l4", "l5")]
    assert [t.value for t in l_terms] == [EXACT.of(v) for v in (-1, 0, -4, 4, 2)]
    assert (td["k1"].value, td["k2"].value) == (EXACT.of(-1), EXACT.of(-1))


def test_x_independence():
    rng = random.Random(19)
    s = random_scenario(2, "exact", rng)
    base = assemble_density(s).assembled.value
    for _ in range(3):
        x = exact_vector(*[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])
        s_x = Scenario(m=s.m, mode=s.mode, V=s.V, X=x, u=s.u, v=s.v, w=s.w)
        assert assemble_density(s_x).assembled.value == base


def test_trilinearity():
    rng = random.Random(41)
    s = random_scenario(2, "exact", rng)
    u2 = exact_vector(*[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])
    s_u2 = Scenario(m=s.m, mode=s.mode, V=s.V, X=s.X, u=u2, v=s.v, w=s.w)
    s_sum = Scenario(m=s.m, mode=s.mode, V=s.V, X=s.X, u=s.u.add(u2), v=s.v, w=s.w)
    td, td2, tds = term_densities(s), term_densities(s_u2), term_densities(s_sum)
    for name in TERM_NAMES:
        assert tds[name].value == td[name].value + td2[name].value, name


@pytest.mark.parametrize("m,mode,seed", [(2, "exact", 51), (3, "exact", 52), (2, "float", 53)])
def test_term_symbols_do_not_depend_on_u_v_w(m, mode, seed):
    """u, v and w enter only through the prefactor: the term symbols of one
    scenario, traced under the prefactor of a scenario with other u, v, w,
    give that scenario's term densities exactly (bit for bit in float)."""
    rng = random.Random(seed)
    s = random_scenario(m, mode, rng)
    fresh = random_scenario(m, mode, rng)
    symbols = pipeline_symbols(s, geometry.rescaled_dirac_symbols(s))
    assert list(symbols) == list(TERM_NAMES)
    for derived in (
        replace(s, u=s.u.scale(s.field.of(2))),
        replace(s, u=s.w, w=s.u),
        replace(s, u=fresh.u, v=fresh.v, w=fresh.w),
    ):
        retraced = trace_terms(symbols, torsion_prefactor_element(derived))
        direct = term_densities(derived)
        for name in TERM_NAMES:
            assert retraced[name] == direct[name], name


def _counted_calls(monkeypatch, fn, modules):
    """Record every result of ``fn`` while it runs, rebinding it in each of
    ``modules`` that binds it under its own name."""
    results = []

    def counted(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    for module in modules:
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return results


def _coefficients(sym):
    return {
        (key, xmono, blade): c
        for key, jet in sym.terms.items()
        for xmono, elem in jet.terms.items()
        for blade, c in elem.terms.items()
    }


def test_report_builds_each_input_once(monkeypatch):
    """One report builds sigma(T), the prefactor, the scenario invariants,
    and the square's first-order pieces and symbols once each, and both
    symbol routes leave the shared sigma(T) as built."""
    modules = (geometry, torsion, reference, report)
    diracs = _counted_calls(monkeypatch, geometry.rescaled_dirac_symbols, modules)
    pieces = _counted_calls(monkeypatch, geometry.rescaled_dirac_square_sigma1_pieces, modules)
    squares = _counted_calls(monkeypatch, geometry.rescaled_dirac_square_symbols, modules)
    prefactors = _counted_calls(monkeypatch, torsion.torsion_prefactor_element, modules)
    invariants = _counted_calls(monkeypatch, reference.scenario_invariants, modules)
    built = []
    pipeline = torsion.pipeline_symbols

    def snapshot_then_build(s, *args):
        built.extend(_coefficients(d) for d in diracs)
        return pipeline(s, *args)

    monkeypatch.setattr(torsion, "pipeline_symbols", snapshot_then_build)
    doc = report.build_report(random_scenario(2, "exact", random.Random(7)))
    assert doc["pass"] is True
    assert (len(diracs), len(prefactors), len(invariants)) == (1, 1, 1)
    assert (len(pieces), len(squares)) == (1, 1)
    assert built == [_coefficients(diracs[0])]


ROUTE_STEPS = (
    torsion.pipeline_symbols,
    torsion.composition_oracle_density,
    torsion.lemma33_trace_identity,
    geometry.rescaled_dirac_square_symbols,
    geometry.rescaled_dirac_inverse_closed_forms,
    geometry.rescaled_dirac_inverse_symbols,
    reference.reference_term_densities,
    reference.paper_term_densities,
    reference.paper_group_densities,
    reference.theorem_density,
)


def test_route_steps_take_every_input_as_a_required_argument():
    """A route step has one call form: no input it reads has a default that
    builds it when missing."""
    defaulted = [
        (fn.__name__, name)
        for fn in ROUTE_STEPS
        for name, param in inspect.signature(fn).parameters.items()
        if param.default is not inspect.Parameter.empty
    ]
    assert defaulted == []


# parameters that every caller set to one value, or that another argument fixes
FIXED_PARAMETERS = (
    (symbols.symbol_product, "lowest_degree"),
    (symbols.Symbol.is_zero, "tol"),
    (gamma._random_element, "max_grade"),
    (geometry._scalar_jet, "max_degree"),
    (geometry.NormalMetricJets, "field"),
    (torsion.lemma33_trace_identity, "field"),
    (torsion.lemma33_trace_identity, "k"),
    (torsion.trace_pairing_formula, "field"),
    (geometry.plain_dirac_symbols, "mode"),
    (torsion.plain_dirac_torsion_density, "mode"),
    (torsion.trace_integrate, "field"),
    (symbols.symbol_invert_order2, "dim"),
    # m is half the frame dimension of the operand
    (clifford.clifford_trace, "m"),
    (clifford.clifford_trace_of_product, "m"),
    (torsion.trace_integrate, "m"),
    (torsion.trace_terms, "m"),
    (torsion.composition_oracle_density, "m"),
    (torsion.plain_dirac_torsion_density, "m"),
    (torsion.lemma33_trace_identity, "m"),
    (torsion.trace_pairing_formula, "m"),
    (jets.invert_scalar_jet, "dim"),
    (geometry.rescaled_dirac_inverse_closed_forms, "pieces"),
    (geometry.rescaled_dirac_inverse_symbols, "pieces"),
    # the tolerance is the scalar field's
    (report.build_report, "tolerance"),
    (report.gating_comparisons, "tolerance"),
    (report.Comparison, "tolerance"),
    (checks.run_sweep, "tol"),
    (checks.scenario_invariant_suite, "tol"),
    (torsion.assemble_density, "tol"),
    (torsion.term_densities, "tol"),
    (torsion.pipeline_symbols, "tol"),
    (geometry.rescaled_dirac_inverse_symbols, "tol"),
    (geometry.require_symbols_equal, "tol"),
    (symbols.symbols_equal, "tol"),
    (symbols.symbol_is_zero, "tol"),
)

# command-line options with one value in use
FIXED_OPTIONS = (("run", "--tolerance"), ("sweep", "--tolerance"))

# members that nothing reads
UNREAD_MEMBERS = (
    (scalars._ExactField, "eq"),
    (scalars._FloatField, "eq"),
    (scalars._FloatField, "complex_of"),
    (gamma, "OracleReport"),
    (jets.Jet, "with_max_degree"),
)


def test_no_function_takes_a_value_that_its_callers_never_vary():
    """Each of these values is a constant or derived from another argument,
    so it is no parameter, and no member is kept that nothing reads."""
    present = [
        (fn.__qualname__, name)
        for fn, name in FIXED_PARAMETERS
        if name in inspect.signature(fn).parameters
    ]
    present += [
        (getattr(owner, "__qualname__", owner.__name__), name)
        for owner, name in UNREAD_MEMBERS
        if hasattr(owner, name)
    ]
    commands = next(
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    present += [
        (command, option) for command, option in FIXED_OPTIONS
        if option in commands[command]._option_string_actions
    ]
    assert present == []



def test_invariant_suite_builds_the_scenario_invariants_once_per_scenario(monkeypatch):
    """One sweep trial builds the invariants of its scenario once, shared by
    the per-term closed forms and the theorem value, and those of the
    u<->w scenario once."""
    invariants = _counted_calls(monkeypatch, reference.scenario_invariants, (reference, checks))
    rng = random.Random(8)
    outcome = checks.scenario_invariant_suite(random_scenario(2, "exact", rng), rng)
    assert outcome.passed
    assert len(invariants) == 2

def test_outer_argument_symmetry():
    rng = random.Random(43)
    s = random_scenario(2, "exact", rng)
    s_wu = Scenario(m=s.m, mode=s.mode, V=s.V, X=s.X, u=s.w, v=s.v, w=s.u)
    assert assemble_density(s).assembled.value == assemble_density(s_wu).assembled.value
    assert theorem_density(scenario_invariants(s)).value == (
        theorem_density(scenario_invariants(s_wu)).value
    )


def test_jacobian_reduction_of_theorem_value():
    """The closed form depends on the Jacobian only through d|V|^2."""
    rng = random.Random(47)
    s = random_scenario(2, "exact", rng)
    from torsionres.checks import _perturbed_jacobian

    s2 = _perturbed_jacobian(s, rng)
    assert s.V.d_norm_sq().components == s2.V.d_norm_sq().components
    assert theorem_density(scenario_invariants(s)).value == (
        theorem_density(scenario_invariants(s2)).value
    )
    assert assemble_density(s).assembled.value == assemble_density(s2).assembled.value


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(1, 3)])
def test_scaling_law_per_term(lam):
    rng = random.Random(53)
    s = random_scenario(2, "exact", rng)
    scaled = Scenario(
        m=s.m, mode=s.mode,
        V=VectorFieldJet(
            s.V.value.scale(EXACT.of(lam)),
            tuple(tuple(EXACT.of(lam) * c for c in row) for row in s.V.jacobian),
        ),
        X=s.X, u=s.u, v=s.v, w=s.w,
    )
    td, tds = term_densities(s), term_densities(scaled)
    factor = EXACT.of(lam ** (-4 * s.m + 4))
    for name in TERM_NAMES:
        assert tds[name].value == td[name].value * factor, name


@pytest.mark.parametrize("m", [2, 3])
def test_plain_dirac_torsion_vanishes(m):
    rng = random.Random(59)
    n = 2 * m
    for _ in range(2):
        u, v, w = (
            exact_vector(*[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
            for _ in range(3)
        )
        assert plain_dirac_torsion_density(u, v, w).value == EXACT.of(0)
    zero = exact_vector(*([0] * n))
    assert plain_dirac_torsion_density(zero, zero, zero).value == EXACT.of(0)


# -- contraction identities -----------------------------------------------------


def test_contraction_identity_example_item1():
    # V = e1 with dV_1/dx_1 = 3, u = e1, v = w = e2:
    # LHS = -3, RHS = -(1/2) u(|V|^2) g(v,w) = -(1/2) * 6 = -3
    s = _scenario(2, (1, 0, 0, 0), {(0, 0): 3}, (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0))
    lhs, rhs = lemma34_contraction(1, s)
    assert lhs == EXACT.of(-3) and rhs == EXACT.of(-3)


def test_contraction_identity_example_item9():
    # diagonal Jacobian diag(a,b,c,d): item 9 = -(a+b+c+d) g(V,w) g(u,v)
    diag = {(j, j): v for j, v in enumerate((1, 2, -1, 3))}
    s = _scenario(2, (1, 0, 0, 0), diag, (0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 0, 0))
    lhs, rhs = lemma34_contraction(9, s)
    inv = scenario_invariants(s)
    assert inv.div == EXACT.of(5)
    assert lhs == rhs == EXACT.of(-1) * inv.div * inv.s1  # -10 here


def test_contraction_identity_zero_jacobian():
    s = _scenario(2, (1, 0, 0, 0), {}, (0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 0, 0))
    for index in range(1, 16):
        lhs, rhs = lemma34_contraction(index, s)
        assert lhs == EXACT.of(0) and rhs == EXACT.of(0)


def test_all_contraction_identities_random():
    rng = random.Random(61)
    for _ in range(10):
        s = random_scenario(rng.choice((2, 3)), "exact", rng)
        for index in range(1, 16):
            lemma34_contraction(index, s)  # raises on mismatch


def test_contraction_index_range():
    s = _scenario(2, (1, 0, 0, 0), {}, (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError):
        lemma34_contraction(0, s)
    with pytest.raises(ValueError):
        lemma34_contraction(16, s)



def _reference_lemma34_lhs(index, s):
    """The left side of identity ``index`` as a plain loop over every
    nonzero J[j][alpha], each pairing factor evaluated inside the loop."""
    n, fld = s.n, s.field
    pairing, sign = torsion._SIX_PAIRINGS[index - 1]
    vecs = [s.V.value, s.u, s.v, s.w]

    def pair_value(a, b, j, alpha):
        if a < 4 and b < 4:
            return vecs[a].dot(vecs[b])
        if a < 4:
            return vecs[a].components[j if b == 4 else alpha]
        if b < 4:
            return vecs[b].components[j if a == 4 else alpha]
        return fld.one if j == alpha else fld.of(0)

    lhs = fld.of(0)
    for j in range(n):
        for alpha in range(n):
            jac = s.V.jacobian[j][alpha]
            if not bool(jac):
                continue
            prod = fld.one if sign > 0 else fld.of(-1)
            for (a, b) in pairing:
                prod = prod * pair_value(a, b, j, alpha)
            lhs = lhs + jac * prod
    return lhs


def _triple(x):
    return (x._a, x._b, x._d)


def test_contraction_identities_match_the_full_loop():
    rng = random.Random(67)
    scenarios = [random_scenario(2 + k % 3, "exact", rng) for k in range(42)]
    # a Jacobian with a single off-diagonal entry: dV_3/dx_2 = -5/2
    scenarios.append(
        _scenario(2, (1, 2, 0, -1), {(1, 2): Fraction(-5, 2)}, (0, 0, 0, 0),
                  (1, 1, 0, 2), (0, 3, 1, 0), (2, 0, -1, 1))
    )
    nonzero = 0
    for s in scenarios:
        for index in range(1, 16):
            expected = _triple(_reference_lemma34_lhs(index, s))
            lhs, rhs = lemma34_contraction(index, s)
            assert _triple(lhs) == expected and _triple(rhs) == expected
            nonzero += expected[:2] != (0, 0)
    assert nonzero > 500


@pytest.mark.parametrize("index", range(1, 16))
def test_contraction_identity_with_a_flipped_pairing_sign_fails(monkeypatch, index):
    s = random_scenario(3, "exact", random.Random(72))  # all fifteen values nonzero
    assert bool(_reference_lemma34_lhs(index, s))
    flipped = list(torsion._SIX_PAIRINGS)
    pairing, sign = flipped[index - 1]
    flipped[index - 1] = (pairing, -sign)
    monkeypatch.setattr(torsion, "_SIX_PAIRINGS", tuple(flipped))
    with pytest.raises(geometry.VerificationError):
        lemma34_contraction(index, s)


def _counting_dots(monkeypatch):
    calls = []
    dot = FrameVector.dot

    def counted(self, other):
        calls.append(1)
        return dot(self, other)

    monkeypatch.setattr(FrameVector, "dot", counted)
    return calls


def test_contraction_identity_pairs_fixed_slots_once(monkeypatch):
    """The loop-invariant pairings leave the (j, alpha) sum: at most two
    for the left side and two for the closed form, on a Jacobian with no
    zero entry."""
    s = random_scenario(3, "exact", random.Random(73))
    jac = tuple(tuple(e if bool(e) else EXACT.of(1) for e in row) for row in s.V.jacobian)
    s = replace(s, V=VectorFieldJet(s.V.value, jac))
    calls = _counting_dots(monkeypatch)
    for index in range(1, 16):
        calls.clear()
        lemma34_contraction(index, s)
        assert len(calls) <= 4, index


def test_trace_pairing_formula_pairs_each_two_vectors_once(monkeypatch):
    rng = random.Random(79)
    vectors = [exact_vector(*[rng.randint(1, 3) for _ in range(6)]) for _ in range(6)]
    calls = _counting_dots(monkeypatch)
    value = torsion.trace_pairing_formula(vectors)
    assert len(calls) <= 15
    product = clifford_of_vector(vectors[0])
    for x in vectors[1:]:
        product = product * clifford_of_vector(x)
    assert value == clifford_trace(product)


def test_trace_identity_check_builds_one_chain_per_tuple(monkeypatch):
    """Lemma check 3.3 traces and represents one chain c(v_1)...c(v_k) per
    tuple, extended from k to k + 2: 1 + 2 + 2 Clifford products for its
    k = 2, 4, 6, with the lines it prints unchanged."""
    calls = []
    product = clifford.clifford_product

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(clifford, "clifford_product", counted)
    outcome = checks.check_trace_identities(1)
    assert outcome.cases == 100
    assert len(calls) <= 5 * outcome.cases
    golden = Path(__file__).parent / "data" / "lemma_3.3_seed1.txt"
    assert outcome.lines == golden.read_text().splitlines()[:2]


# -- printed-variant characterization -------------------------------------------


def test_printed_forms_differ_by_exactly_the_known_slips():
    """The printed closed forms deviate from the machine values in exactly
    three places: the l3 coefficient (-1/2 printed vs -m derived) and one
    divergence sign in each of the h1 and k2 brackets."""
    rng = random.Random(67)
    for m in (2, 3):
        s = random_scenario(m, "exact", rng)
        td = term_densities(s)
        inv = scenario_invariants(s)
        printed = paper_term_densities(inv, reference_term_densities(inv))
        fld = s.field
        wm1 = fld.one
        for _ in range(2 * m - 1):
            wm1 = wm1 / inv.w
        assert td["h1"].value - printed["h1"].value == fld.of(-2) * inv.div * inv.s2 * wm1
        assert td["k2"].value - printed["k2"].value == fld.of(2) * inv.div * inv.s2 * wm1
        assert td["l3"].value - printed["l3"].value == (
            fld.of(Fraction(1 - 2 * m, 2)) * inv.t1 * wm1
        )
        for name in ("l1", "l2", "l4", "l5", "k1"):
            assert td[name].value == printed[name].value, name


def test_printed_group_values(derived_scenario):
    inv = scenario_invariants(derived_scenario)
    printed = paper_term_densities(inv, reference_term_densities(inv))
    groups = paper_group_densities(inv, printed)
    assert groups["h1"].value == EXACT.of(1)
    assert groups["h2"].value == EXACT.of(4)
    assert groups["h3"].value == EXACT.of(-2)
    # printed sum (3 units) differs from both machine total (0) and the
    # printed theorem value (1 unit)
    total = groups["h1"] + groups["h2"] + groups["h3"]
    assert total.value == EXACT.of(3)
    assert theorem_density(inv).value == EXACT.of(1)


# -- float against exact on the same inputs ------------------------------------


def _float_scaled(s, lam):
    """The float scenario ``s`` with V (value and Jacobian) multiplied by the
    float ``lam``."""
    jac = tuple(tuple(lam * c for c in row) for row in s.V.jacobian)
    return replace(s, V=VectorFieldJet(s.V.value.scale(lam), jac))


def _dyadic_scenario(s):
    """The float scenario ``s`` run exactly on the values of its floats."""

    def exact(c):
        return EXACT.complex_of(Fraction(c.real), Fraction(c.imag))

    def vec(v):
        return FrameVector(v.dim, tuple(exact(c) for c in v.components))

    jac = tuple(tuple(exact(c) for c in row) for row in s.V.jacobian)
    return Scenario(
        m=s.m, mode="exact", V=VectorFieldJet(vec(s.V.value), jac),
        X=vec(s.X), u=vec(s.u), v=vec(s.v), w=vec(s.w),
    )


def _assert_float_matches_dyadic(s):
    """Each float term, the assembled value and the composition oracle lie
    within 1e-12 of the largest term of their exact-dyadic values."""
    got = assemble_density(s)
    want = assemble_density(_dyadic_scenario(s))
    assert not want.assembled.value and not want.composition_oracle.value
    big = max(abs(complex(want.terms[name].value)) for name in TERM_NAMES)
    assert big > 0
    pairs = [(got.terms[name], want.terms[name]) for name in TERM_NAMES]
    pairs += [(got.assembled, want.assembled), (got.composition_oracle, want.composition_oracle)]
    for f, e in pairs:
        assert abs(complex(f.value) - complex(e.value)) <= 1e-12 * big


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("m", [2, 3])
def test_float_density_matches_its_exact_dyadic_value(m, lam):
    """|V| scaled by 1e-3, 1 and 1e3: the terms scale as |V|^{-4m+4}, the
    error relative to the largest term does not."""
    _assert_float_matches_dyadic(_float_scaled(random_scenario(m, "float", random.Random(70 + m)), lam))


@pytest.mark.parametrize("name", ["float_m2", "float_m3"])
def test_float_golden_scenarios_match_their_exact_dyadic_values(name):
    scenario, _ = load_scenario(str(Path(__file__).parent / "data" / f"{name}_scenario.json"))
    _assert_float_matches_dyadic(scenario)


@pytest.mark.parametrize("m", [2, 3])
def test_float_routes_take_their_tolerance_from_the_field(m):
    """Float values compare within the float field's tolerance: on a random
    float scenario the pipeline's symbol checks and every sweep invariant
    pass with no tolerance argument (compared exactly, the symbol checks
    fail on rounding residue of about 1e-17)."""
    s = random_scenario(m, "float", random.Random(9))
    breakdown = assemble_density(s)
    assert term_densities(s) == breakdown.terms
    out = checks.scenario_invariant_suite(s, random.Random(1))
    assert out.passed, [line for line in out.lines if line.startswith("FAIL")]
