import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionres.clifford import CliffordElement
from torsionres.jets import Jet
from torsionres.scalars import EXACT
from torsionres.spheres import (
    monomial_integral,
    monomial_integral_closed_form,
    sphere_volume,
)
from torsionres.symbols import Symbol
from torsionres.torsion import trace_integrate


def test_base_and_quadratic_moments():
    assert monomial_integral((0, 0, 0, 0), 4) == 1
    assert monomial_integral((2, 0, 0, 0), 4) == Fraction(1, 4)
    assert monomial_integral((4, 0, 0, 0), 4) == Fraction(1, 8)
    assert monomial_integral((2, 2, 0, 0), 4) == Fraction(1, 24)


def test_odd_moments_vanish():
    assert monomial_integral((1, 1, 0, 0), 4) == 0
    assert monomial_integral((1, 0, 0, 0), 4) == 0
    assert monomial_integral((3, 2, 0, 0), 4) == 0


def test_closed_form_values():
    assert abs(monomial_integral_closed_form((0, 0, 0, 0), 4) - 2 * math.pi**2) <= 1e-12
    assert abs(monomial_integral_closed_form((2, 2, 0, 0), 4) - math.pi**2 / 12) <= 1e-12
    assert monomial_integral_closed_form((1, 0, 0, 0), 4) == 0.0


def test_volume():
    assert abs(sphere_volume(4) - 2 * math.pi**2) <= 1e-12
    assert abs(sphere_volume(6) - math.pi**3) <= 1e-12


@pytest.mark.parametrize("n", [4, 6])
def test_recursion_matches_gamma_oracle(n):
    vol = sphere_volume(n)
    half = 4
    for halves in itertools.product(range(half + 1), repeat=n):
        if sum(halves) > half:
            continue
        alpha = tuple(2 * h for h in halves)
        exact = float(monomial_integral(alpha, n)) * vol
        oracle = monomial_integral_closed_form(alpha, n)
        assert abs(exact - oracle) <= 1e-12 * max(1.0, abs(oracle))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_sum_rule_and_permutation_symmetry(seed):
    rng = random.Random(seed)
    n = rng.choice((4, 6))
    alpha = tuple(2 * rng.randint(0, 3) for _ in range(n))
    # sum rule: sum_a I(alpha + 2 e_a) = I(alpha), since sum xi_a^2 = 1
    total = sum(
        monomial_integral(
            tuple(x + (2 if i == a else 0) for i, x in enumerate(alpha)), n
        )
        for a in range(n)
    )
    assert total == monomial_integral(alpha, n)
    perm = list(alpha)
    rng.shuffle(perm)
    assert monomial_integral(tuple(perm), n) == monomial_integral(alpha, n)


def _single_term(coeff: CliffordElement, xi_exponents, norm_power: int) -> Symbol:
    return Symbol(4, 1, EXACT, {(xi_exponents, norm_power): Jet.constant(4, 1, coeff)})


def test_integrate_symbol_term():
    """One term A xi^alpha |xi|^{2k} through ``trace_integrate``: with a unit
    prefactor the density is the trace of A, 2^m A, times the moment, over
    2^m."""
    coeff = CliffordElement.scalar(4, EXACT.of(3))
    unit = CliffordElement.scalar(4, EXACT.one)
    # odd monomial integrates to zero
    out = trace_integrate(_single_term(coeff, (1, 1, 0, 0), -3), unit)
    assert out.value == EXACT.of(0)
    # pure norm power: A |xi|^{-4} -> A * Vol
    out = trace_integrate(_single_term(coeff, (0, 0, 0, 0), -2), unit)
    assert out.value == EXACT.of(3)
    # A xi_1^2 |xi|^{-6} -> A / 4 * Vol
    out = trace_integrate(_single_term(coeff, (2, 0, 0, 0), -3), unit)
    assert out.value == EXACT.of(Fraction(3, 4))


def test_integrate_rejects_wrong_homogeneity():
    unit = CliffordElement.scalar(4, EXACT.one)
    with pytest.raises(ValueError):
        trace_integrate(_single_term(unit, (2, 0, 0, 0), -2), unit)
