from fractions import Fraction

import pytest

from torsionres.clifford import CliffordElement
from torsionres.geometry import CurvatureData, build_metric_jets
from torsionres.jets import Jet, invert_scalar_jet, sum_of_products
from torsionres.scalars import EXACT


def scalar_jet(n, deg, entries):
    return Jet(
        n, deg, {m: CliffordElement.scalar(n, EXACT.of(c)) for m, c in entries.items()}
    )


def test_product_truncates():
    one_x1 = scalar_jet(2, 2, {(0, 0): 1, (1, 0): 1})
    prod = one_x1 * one_x1  # (1+x1)^2 truncated at degree 2
    assert prod == scalar_jet(2, 2, {(0, 0): 1, (1, 0): 2, (2, 0): 1})
    cubic = prod * one_x1  # degree-3 part drops
    assert cubic == scalar_jet(2, 2, {(0, 0): 1, (1, 0): 3, (2, 0): 3})


def test_coordinate_product():
    x1 = scalar_jet(2, 2, {(1, 0): 1})
    x2 = scalar_jet(2, 2, {(0, 1): 1})
    assert x1 * x2 == scalar_jet(2, 2, {(1, 1): 1})


def test_noncommutative_coefficients():
    e1 = CliffordElement.basis(4, 1, EXACT.one)
    e2 = CliffordElement.basis(4, 2, EXACT.one)
    a = Jet.constant(4, 1, e1)
    b = Jet.constant(4, 1, e2)
    assert (a * b) == -(b * a)
    assert (a * a) == Jet.constant(4, 1, CliffordElement.scalar(4, EXACT.of(-1)))


def test_sum_of_products_is_the_sum_of_the_products():
    """One accumulator over several pairs gives the sum of the separate
    products: factor order kept, cancellations dropped, empty factors and
    terms past the cap left out, mismatched jets refused."""
    e1 = CliffordElement.basis(2, 1, EXACT.of(Fraction(1, 3)))
    e2 = CliffordElement.basis(2, 2, EXACT.of(Fraction(-2, 5)))
    x1, x2 = (1, 0), (0, 1)
    a = Jet(2, 2, {(0, 0): e1, x1: e2})
    b = Jet(2, 2, {(0, 0): e2, x2: e1, (1, 1): e1})
    empty = Jet(2, 2, {})
    pairs = [(a, b), (b, a), (empty, a), (a, a)]
    want = a * b + b * a + a * a
    assert sum_of_products(pairs) == want
    assert sum_of_products([(a, b), (b, a)]) == a * b + b * a
    assert sum_of_products([(a, b), (b, a)]) != a * b + a * b
    assert sum_of_products([(empty, a)]) == empty
    with pytest.raises(ValueError):
        sum_of_products([(a, b), (Jet(2, 1, {(0, 0): e1}), a)])


def test_partial_x():
    j = scalar_jet(2, 2, {(1, 1): 1})
    assert j.partial_x(1) == scalar_jet(2, 2, {(0, 1): 1})
    assert j.partial_x(2) == scalar_jet(2, 2, {(1, 0): 1})
    const = scalar_jet(2, 2, {(0, 0): 5})
    assert const.partial_x(2).is_zero()


def test_partial_of_curvature_quadratic():
    """d_a of the (1/3) R_acbd x^c x^d jet gives the symmetrized linear jet."""
    curv = CurvatureData.from_entries(4, {(1, 2, 1, 2): Fraction(3)})
    jets = build_metric_jets(curv)
    g11 = jets.g_upper[0][0]  # 1 + (1/3) R_1c1d x^c x^d = 1 + x2^2 (R_1212 = 3)
    assert g11 == scalar_jet(4, 2, {(0, 0, 0, 0): 1, (0, 2, 0, 0): 1})
    d2 = g11.partial_x(2)
    assert d2 == scalar_jet(4, 2, {(0, 1, 0, 0): 2})


def test_inversion():
    j = scalar_jet(2, 2, {(0, 0): 2, (1, 0): 1})  # 2 + x1
    inv = invert_scalar_jet(j, EXACT)
    assert (j * inv) == scalar_jet(2, 2, {(0, 0): 1})
    assert inv == scalar_jet(
        2, 2, {(0, 0): Fraction(1, 2), (1, 0): Fraction(-1, 4), (2, 0): Fraction(1, 8)}
    )


def test_inversion_requires_scalar_and_unit():
    e1 = CliffordElement.basis(4, 1, EXACT.one)
    with pytest.raises(ValueError):
        invert_scalar_jet(Jet.constant(4, 1, e1), EXACT)
    with pytest.raises(ValueError):
        invert_scalar_jet(scalar_jet(2, 2, {(1, 0): 1}), EXACT)


def test_mismatch_errors():
    a = scalar_jet(2, 2, {(0, 0): 1})
    b = scalar_jet(3, 2, {(0, 0, 0): 1})
    with pytest.raises(ValueError):
        a * b
