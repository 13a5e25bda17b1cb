import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionres.clifford import (
    CliffordElement,
    FrameVector,
    blade_product_sign,
    clifford_of_vector,
    clifford_product,
    clifford_product_seq,
    clifford_trace,
    clifford_trace_of_product,
    grade_project,
    sign_mask,
)
from torsionres import clifford
from torsionres.scalars import EXACT, FLOAT

from conftest import exact_vector, small_rational


def basis(dim, i):
    return CliffordElement.basis(dim, i, EXACT.one)


def test_vector_embedding():
    e1 = clifford_of_vector(exact_vector(1, 0, 0, 0))
    assert e1 == basis(4, 1)
    zero = clifford_of_vector(exact_vector(0, 0, 0, 0))
    assert zero.is_zero()
    v = clifford_of_vector(exact_vector(1, 2, 0, 0))
    assert v.coefficient(0b01) == EXACT.of(1)
    assert v.coefficient(0b10) == EXACT.of(2)


def test_generator_relation():
    e1, e2 = basis(4, 1), basis(4, 2)
    assert e1 * e1 == CliffordElement.scalar(4, EXACT.of(-1))
    assert e1 * e2 == CliffordElement(4, {0b11: EXACT.one})
    assert e2 * e1 == CliffordElement(4, {0b11: EXACT.of(-1)})


def test_vector_square_is_minus_norm():
    u = clifford_of_vector(exact_vector(1, 2, 0, 0))
    assert u * u == CliffordElement.scalar(4, EXACT.of(-5))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        clifford_product(basis(4, 1), basis(6, 1))


def test_trace():
    ident = CliffordElement.scalar(4, EXACT.one)
    assert clifford_trace(ident) == EXACT.of(4)
    assert not bool(clifford_trace(basis(4, 1)))
    e1 = basis(4, 1)
    assert clifford_trace(e1 * e1) == EXACT.of(-4)  # -g(e1,e1) tr[id]


def test_grade_project():
    e1, e2 = basis(4, 1), basis(4, 2)
    prod = e1 * e2
    assert grade_project(prod, 2) == prod
    assert grade_project(prod, 0).is_zero()
    sq = e1 * e1
    assert grade_project(sq, 0) == CliffordElement.scalar(4, EXACT.of(-1))
    with pytest.raises(ValueError):
        grade_project(prod, 7)


def _random_element(dim, rng, density=0.3):
    terms = {}
    for mask in range(2**dim):
        if rng.random() < density:
            terms[mask] = EXACT.complex_of(small_rational(rng), small_rational(rng))
    return CliffordElement(dim, terms)


def _random_vector(dim, rng):
    return FrameVector(dim, tuple(EXACT.of(small_rational(rng)) for _ in range(dim)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_anticommutation_of_vectors(seed):
    rng = random.Random(seed)
    dim = rng.choice((4, 6))
    a, b = _random_vector(dim, rng), _random_vector(dim, rng)
    ca, cb = clifford_of_vector(a), clifford_of_vector(b)
    lhs = ca * cb + cb * ca
    rhs = CliffordElement.scalar(dim, EXACT.of(-2) * a.dot(b))
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_associativity(seed):
    rng = random.Random(seed)
    dim = 4
    a, b, c = (_random_element(dim, rng) for _ in range(3))
    assert (a * b) * c == a * (b * c)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_trace_cyclicity(seed):
    rng = random.Random(seed)
    a, b = _random_element(4, rng), _random_element(4, rng)
    ta, tb = clifford_trace(a * b), clifford_trace(b * a)
    assert (EXACT.of(0) + ta) == (EXACT.of(0) + tb)


def test_trace_identities_emerge():
    """The 2-, 4- and 6-fold g-pairing trace formulas hold exactly."""
    from torsionres.torsion import trace_pairing_formula

    rng = random.Random(42)
    for m in (2, 3):
        dim = 2 * m
        for _ in range(30):
            vectors = [_random_vector(dim, rng) for _ in range(6)]
            for k in (2, 4, 6):
                prod = clifford_product_seq(
                    [clifford_of_vector(x) for x in vectors[:k]]
                )
                symbolic = EXACT.of(0) + clifford_trace(prod)
                formula = trace_pairing_formula(vectors[:k])
                assert symbolic == formula


def test_trace_identity_values(derived_scenario):
    """Spot values: tr[c(e1)c(e1)] = -4; the 4- and 6-fold repeats."""
    e1 = exact_vector(1, 0, 0, 0)
    from torsionres.torsion import lemma33_trace_identity

    def chain(k):
        return clifford_product_seq([clifford_of_vector(e1)] * k)

    assert lemma33_trace_identity([e1, e1], chain(2)) == EXACT.of(-4)
    assert lemma33_trace_identity([e1] * 4, chain(4)) == EXACT.of(4)
    assert lemma33_trace_identity([e1] * 6, chain(6)) == EXACT.of(-4)


# -- the integer kernel of exact products ---------------------------------------


def _reference_product(a, b):
    """One scalar product and one scalar sum per coefficient pair, with the
    blade sign applied to the product; zero sums are dropped at the end."""
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            term = ca * cb if blade_product_sign(ma, mb) > 0 else -(ca * cb)
            m = ma ^ mb
            out[m] = out[m] + term if m in out else term
    return {m: c for m, c in out.items() if c}


# a few small values make pairs that land on one blade cancel often
_part = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)]),
    st.fractions(max_denominator=40).filter(lambda q: abs(q) < 10**6),
)


@st.composite
def _exact_operands(draw):
    dim = draw(st.sampled_from((2, 4, 6)))
    terms = st.dictionaries(
        st.integers(min_value=0, max_value=2**dim - 1),
        st.builds(EXACT.complex_of, _part, _part),
        max_size=12,
    )
    return CliffordElement(dim, draw(terms)), CliffordElement(dim, draw(terms))


@settings(max_examples=300, deadline=None)
@given(_exact_operands())
def test_exact_product_matches_per_coefficient_reference(operands):
    a, b = operands
    got = clifford_product(a, b)
    want = _reference_product(a, b)
    assert got.terms == want
    assert all(bool(c) for c in got.terms.values())
    assert hash(got) == hash(CliffordElement(a.dim, want))


def test_exact_product_drops_cancelled_blades():
    # (c e1 + c e2)(c e1 - c e2) = -2 c^2 e12: the scalar blade cancels
    c = EXACT.complex_of(Fraction(1, 3), Fraction(2, 3))
    a = CliffordElement(2, {0b01: c, 0b10: c})
    b = CliffordElement(2, {0b01: c, 0b10: -c})
    assert clifford_product(a, b).terms == {0b11: EXACT.complex_of(Fraction(2, 3), Fraction(-8, 9))}


def test_sign_mask_gives_the_blade_sign():
    """(-1)^popcount(b & W(a)) is the sign of e_A e_B for all blades below 2^8."""
    reference = blade_product_sign.__wrapped__
    for a in range(2**8):
        w = sign_mask(a)
        for b in range(2**8):
            assert (-1) ** (b & w).bit_count() == reference(a, b), (a, b)


def test_product_takes_its_signs_from_the_mask(monkeypatch):
    """A product of two dense dim-6 elements calls no blade sign function."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return blade_product_sign(a, b)

    monkeypatch.setattr(clifford, "blade_product_sign", counted)
    rng = random.Random(6)
    a, b = (
        CliffordElement(6, {m: EXACT.complex_of(rng.randint(-3, 3), 1) for m in range(64)})
        for _ in range(2)
    )
    assert clifford_product(a, b).terms == _reference_product(a, b)
    assert calls == []


# (c e1 + e2)(e1 + v e2) with c = 1 + i has scalar part -(c + v) and e12 part
# c v - 1; each v cancels one part of the scalar blade, or both
@pytest.mark.parametrize(
    "v,scalar",
    [
        ((-1, 0), EXACT.complex_of(0, -1)),  # only the real part cancels
        ((0, -1), EXACT.complex_of(-1, 0)),  # only the imaginary part cancels
        ((-1, -1), None),  # both cancel: the blade is dropped
    ],
)
def test_exact_product_cancels_each_part_of_a_mixed_coefficient(v, scalar):
    c = EXACT.complex_of(1, 1)
    a = CliffordElement(2, {0b01: c, 0b10: EXACT.one})
    b = CliffordElement(2, {0b01: EXACT.one, 0b10: EXACT.complex_of(*v)})
    got = clifford_product(a, b).terms
    assert got == _reference_product(a, b)
    assert got.get(0) == scalar
    assert got[0b11] == c * EXACT.complex_of(*v) - EXACT.one


def _float_element(dim, rng):
    terms = {}
    for mask in range(2**dim):
        if rng.random() < 0.4:
            terms[mask] = complex(rng.uniform(-2, 2), rng.choice((0.0, rng.uniform(-2, 2))))
    return CliffordElement(dim, terms)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((2, 4, 6)))
def test_float_product_is_bit_identical_to_reference(seed, dim):
    rng = random.Random(seed)
    a, b = _float_element(dim, rng), _float_element(dim, rng)
    got = clifford_product(a, b).terms
    want = _reference_product(a, b)
    assert list(got) == list(want)
    for m, c in want.items():
        assert (got[m].real.hex(), got[m].imag.hex()) == (c.real.hex(), c.imag.hex())


def test_exact_times_float_is_a_mode_error():
    exact = CliffordElement(4, {0b01: EXACT.complex_of(1, 2), 0b11: EXACT.of(Fraction(1, 3))})
    flt = CliffordElement(4, {0b10: FLOAT.of(0.5)})
    mixed = CliffordElement(4, {0b01: EXACT.one, 0b10: FLOAT.one})
    for a, b in ((exact, flt), (flt, exact), (exact, mixed), (mixed, exact)):
        with pytest.raises(TypeError):
            clifford_product(a, b)


# -- the trace of a product without the product ------------------------------------


@settings(max_examples=200, deadline=None)
@given(_exact_operands())
def test_exact_trace_of_product_is_trace_of_full_product(operands):
    a, b = operands
    assert clifford_trace_of_product(a, b) == clifford_trace(clifford_product(a, b))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((2, 4, 6)))
def test_float_trace_of_product_is_bit_identical_to_full_product(seed, dim):
    rng = random.Random(seed)
    a, b = _float_element(dim, rng), _float_element(dim, rng)
    got = complex(clifford_trace_of_product(a, b))
    want = complex(clifford_trace(clifford_product(a, b)))
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_trace_of_product_checks_dimensions():
    with pytest.raises(ValueError):
        clifford_trace_of_product(basis(4, 1), basis(6, 1))
