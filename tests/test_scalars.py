from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionres.scalars import EXACT, FLOAT, GaussianRational, _as_fraction, field_for_mode


def test_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussianRational(Fraction(-1, 4), 2)
    assert a + b == GaussianRational(Fraction(1, 4), Fraction(7, 3))
    assert a - b == GaussianRational(Fraction(3, 4), Fraction(-5, 3))
    # (1/2 + i/3)(-1/4 + 2i) = -1/8 - 2/3 + i(1 - 1/12)
    assert a * b == GaussianRational(Fraction(-19, 24), Fraction(11, 12))
    assert (a * b) / b == a
    assert -a == GaussianRational(Fraction(-1, 2), Fraction(-1, 3))


def test_int_and_fraction_interop():
    a = GaussianRational(2, -1)
    assert a * 3 == GaussianRational(6, -3)
    assert 3 * a == GaussianRational(6, -3)
    assert a + Fraction(1, 2) == GaussianRational(Fraction(5, 2), -1)
    assert a == GaussianRational(2, -1)
    assert GaussianRational(5) == 5


def test_mode_mixing_is_an_error():
    a = GaussianRational(1, 1)
    with pytest.raises(TypeError):
        a + 0.5
    with pytest.raises(TypeError):
        a * complex(1, 0)
    with pytest.raises(TypeError):
        0.5 * a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_str_parse_round_trip():
    values = [
        GaussianRational(Fraction(3, 4)),
        GaussianRational(0, Fraction(-1, 2)),
        GaussianRational(Fraction(-2, 7), Fraction(5, 3)),
        GaussianRational(1, -1),
        GaussianRational(0, 0),
    ]
    for v in values:
        assert GaussianRational.parse(str(v)) == v


def test_fields():
    assert field_for_mode("exact") is EXACT
    assert field_for_mode("float") is FLOAT
    with pytest.raises(ValueError):
        field_for_mode("sym")
    assert EXACT.i * EXACT.i == EXACT.of(-1)
    assert FLOAT.i * FLOAT.i == complex(-1)
    assert EXACT.of("2/3") == GaussianRational(Fraction(2, 3))
    assert FLOAT.of(Fraction(1, 4)) == 0.25


@pytest.mark.parametrize(
    "x",
    [
        0, 1, -1, 2**80, -(2**80),
        Fraction(-7, 3), Fraction(2**80 + 1, 3**40), Fraction(-(3**50), 2**70 - 1),
        True, "3/4",
    ],
    ids=repr,
)
def test_exact_of_builds_the_normal_form(x):
    got = EXACT.of(x)
    expected = GaussianRational(_as_fraction(x))
    assert type(got) is GaussianRational
    assert (got._a, got._b, got._d) == (expected._a, expected._b, expected._d)
    assert hash(got) == hash(expected)


def test_exact_of_keeps_a_gaussian_rational_and_refuses_floats():
    g = GaussianRational(Fraction(-2, 9), Fraction(5, 6))
    assert EXACT.of(g) is g
    with pytest.raises(TypeError):
        EXACT.of(1.5)
    with pytest.raises(TypeError):
        EXACT.of(1j)

def test_complex_conversion():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert complex(a) == complex(0.5, -0.75)


# -- property checks against a Fraction-pair reference ------------------

_pairs = st.tuples(
    st.fractions(max_denominator=60).filter(lambda q: abs(q) < 10**6),
    st.fractions(max_denominator=60).filter(lambda q: abs(q) < 10**6),
)


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def _ref_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return ((a * c + b * d) / n, (b * c - a * d) / n)


def _ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def _parts(g):
    return (g.re, g.im)


@settings(max_examples=200, deadline=None)
@given(_pairs, _pairs)
def test_arithmetic_matches_fraction_pair_reference(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    assert _parts(gx) == x
    assert _parts(gx + gy) == (x[0] + y[0], x[1] + y[1])
    assert _parts(gx - gy) == (x[0] - y[0], x[1] - y[1])
    assert _parts(gx * gy) == _ref_mul(x, y)
    assert _parts(-gx) == (-x[0], -x[1])
    assert _parts(gx * y[0]) == (x[0] * y[0], x[1] * y[0])
    assert _parts(y[0] - gx) == (y[0] - x[0], -x[1])
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            gx / gy
    else:
        assert _parts(gx / gy) == _ref_div(x, y)
    assert (gx == gy) == (x == y)
    assert (gx == x[0]) == (x[1] == 0)
    assert bool(gx) == (x != (0, 0))
    assert str(gx) == _ref_str(x)
    assert GaussianRational.parse(str(gx)) == gx


@settings(max_examples=200, deadline=None)
@given(_pairs, _pairs)
def test_equal_values_from_different_paths_hash_equal(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    paths = [(gx + gy) - gy, gy + (gx - gy), -(-gx), GaussianRational.parse(str(gx))]
    if y != (0, 0):
        paths += [(gx * gy) / gy, (gx / gy) * gy]
    for v in paths:
        assert v == gx
        assert hash(v) == hash(gx)
