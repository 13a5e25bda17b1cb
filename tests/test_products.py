"""Exact jet and symbol products and compositions against references.

``Jet.__mul__`` and ``symbol_product`` sum Gaussian-integer numerators
per (output key, blade) in the kernel shared with ``clifford_product``.
The references below take one ``GaussianRational`` product and one sum
per coefficient pair and drop zeros only at the end.  Float operands go
through the same kernel; their products are compared with the exact
product of the same dyadic values, within a rounding bound.
An exact ``symbol_compose`` sums every alpha term in one kernel
accumulator; its reference is the per-alpha loop of symbol operations,
taken over ordered derivative sequences with weight 1/|alpha|!.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionres.clifford import CliffordElement, blade_product_sign
from torsionres.jets import Jet
from torsionres.scalars import EXACT, FLOAT
from torsionres import jets, symbols
from torsionres.geometry import (
    build_metric_jets,
    laplacian_symbol,
    random_curvature,
    random_scenario,
    rescaled_dirac_symbols,
)
from torsionres.report import build_report
from torsionres.symbols import Symbol, symbol_compose, symbol_invert_order2, symbol_product


def _mono_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _reference_elements(pairs):
    """``{key: {blade: coefficient}}`` from ``(key, a, b)`` element pairs,
    one scalar product and one scalar sum per coefficient pair."""
    out = {}
    for key, a, b in pairs:
        acc = out.setdefault(key, {})
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                term = ca * cb if blade_product_sign(ma, mb) > 0 else -(ca * cb)
                m = ma ^ mb
                acc[m] = acc[m] + term if m in acc else term
    pruned = {key: {m: c for m, c in acc.items() if c} for key, acc in out.items()}
    return {key: acc for key, acc in pruned.items() if acc}


def _jet_pairs(a, b):
    """``(product monomial, a coefficient, b coefficient)`` for every pair
    of monomials within the jet cap."""
    return (
        (_mono_add(ma, mb), ca, cb)
        for ma, ca in a.terms.items()
        for mb, cb in b.terms.items()
        if sum(ma) + sum(mb) <= a.max_degree
    )


def _symbol_pairs(a, b):
    """``((xi key, x-monomial), a coefficient, b coefficient)`` for every
    pair of (xi key, x-monomial) rows that a symbol product keeps."""
    return (
        (((_mono_add(ma, mb), ka + kb), _mono_add(xa, xb)), ca, cb)
        for (ma, ka), ja in a.terms.items()
        for (mb, kb), jb in b.terms.items()
        for xa, ca in ja.terms.items()
        for xb, cb in jb.terms.items()
        if sum(xa) + sum(xb) <= a.max_degree
    )


def _reference_jet_product(a, b):
    return _reference_elements(_jet_pairs(a, b))


def _reference_symbol_product(a, b):
    flat = _reference_elements(_symbol_pairs(a, b))
    out = {}
    for (key, xmono), terms in flat.items():
        out.setdefault(key, {})[xmono] = terms
    return out


def _jet_terms(jet):
    return {mono: elem.terms for mono, elem in jet.terms.items()}


def _symbol_terms(s):
    return {key: _jet_terms(jet) for key, jet in s.terms.items()}


def _stored_values(s):
    """The terms of every jet and element a symbol stores, and every
    coefficient."""
    for jet in s.terms.values():
        yield jet.terms
        for elem in jet.terms.values():
            yield elem.terms
            yield from elem.terms.values()


# a few small values make pairs that land on one (key, blade) cancel often
_part = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)]),
    st.fractions(max_denominator=40).filter(lambda q: abs(q) < 10**6),
)


def _elements(dim):
    return st.builds(
        lambda terms: CliffordElement(dim, terms),
        st.dictionaries(
            st.integers(min_value=0, max_value=2**dim - 1),
            st.builds(EXACT.complex_of, _part, _part),
            max_size=4,
        ),
    )


def _monomials(nvars, cap):
    # one degree past the cap: the constructor drops those terms
    return st.lists(
        st.integers(min_value=0, max_value=cap + 1), min_size=nvars, max_size=nvars
    ).map(tuple).filter(lambda mono: sum(mono) <= cap + 1)


def _jets(nvars, cap, dim):
    return st.builds(
        lambda terms: Jet(nvars, cap, terms),
        st.dictionaries(_monomials(nvars, cap), _elements(dim), max_size=4),
    )


@st.composite
def _jet_operands(draw):
    nvars = draw(st.sampled_from((2, 3)))
    cap = draw(st.sampled_from((1, 2)))
    dim = draw(st.sampled_from((2, 4)))
    return dim, draw(_jets(nvars, cap, dim)), draw(_jets(nvars, cap, dim))


@st.composite
def _symbol_operands(draw):
    nvars = draw(st.sampled_from((2, 3)))
    cap = draw(st.sampled_from((1, 2)))
    dim = draw(st.sampled_from((2, 4)))
    keys = st.tuples(
        st.lists(st.integers(min_value=0, max_value=2), min_size=nvars, max_size=nvars).map(tuple),
        st.integers(min_value=-2, max_value=1),
    )
    terms = st.dictionaries(keys, _jets(nvars, cap, dim), max_size=4)
    a = Symbol(nvars, cap, EXACT, draw(terms))
    b = Symbol(nvars, cap, EXACT, draw(terms))
    return dim, a, b


def _jet_of(nvars, cap, dim, terms):
    return Jet(nvars, cap, {m: CliffordElement(dim, t) for m, t in terms.items()})


@settings(max_examples=200, deadline=None)
@given(_jet_operands())
def test_exact_jet_product_matches_per_coefficient_reference(operands):
    dim, a, b = operands
    got = a * b
    want = _reference_jet_product(a, b)
    assert _jet_terms(got) == want
    assert all(elem.terms for elem in got.terms.values())
    assert all(bool(c) for elem in got.terms.values() for c in elem.terms.values())
    assert hash(got) == hash(_jet_of(a.nvars, a.max_degree, dim, want))


@settings(max_examples=150, deadline=None)
@given(_symbol_operands())
def test_exact_symbol_product_matches_per_coefficient_reference(operands):
    dim, a, b = operands
    got = symbol_product(a, b)
    want = _reference_symbol_product(a, b)
    assert _symbol_terms(got) == want
    assert all(bool(v) for v in _stored_values(got))
    assert all(jet.max_degree == a.max_degree for jet in got.terms.values())
    expect = Symbol(a.nvars, a.max_degree, EXACT, {
        key: _jet_of(a.nvars, a.max_degree, dim, terms) for key, terms in want.items()
    })
    assert hash(frozenset(got.terms.items())) == hash(frozenset(expect.terms.items()))


def _reference_compose(p, q, lowest_degree, at_origin):
    """sum over ordered sequences (mu_1..mu_r), r <= the jet cap, of
    (-i)^r / r! d_xi_mu1..d_xi_mur p * d_x_mu1..d_x_mur q, one symbol
    operation at a time; a multi-index alpha appears r!/alpha! times.  The
    terms below ``lowest_degree`` are dropped from the sum."""
    if at_origin:
        p = p.evaluate_jets_at_origin()
    field = p.field
    total = Symbol.zero(p.nvars, p.max_degree, field)
    minus_i_power = field.one
    for order in range(p.max_degree + 1):
        weight = minus_i_power / field.of(math.factorial(order))
        minus_i_power = minus_i_power * (field.of(0) - field.i)
        for mus in itertools.product(range(1, p.nvars + 1), repeat=order):
            dp, dq = p, q
            for mu in mus:
                dp, dq = dp.partial_xi(mu), dq.partial_x(mu)
            if at_origin:
                dq = dq.evaluate_jets_at_origin()
            total = total + symbol_product(dp, dq).scale(weight)
    return Symbol(p.nvars, p.max_degree, field, {
        key: jet for key, jet in total.terms.items() if sum(key[0]) + 2 * key[1] >= lowest_degree
    })


def _triples(s):
    """Every stored coefficient of ``s`` as its normal-form triple."""
    return {
        (key, xmono, blade): (c._a, c._b, c._d)
        for key, jet in s.terms.items()
        for xmono, elem in jet.terms.items()
        for blade, c in elem.terms.items()
    }


@st.composite
def _compose_operands(draw):
    nvars = draw(st.sampled_from((2, 3, 4)))
    cap = draw(st.sampled_from((1, 2)))
    dim = draw(st.sampled_from((2, 4)))
    keys = st.tuples(
        st.lists(st.integers(min_value=0, max_value=2), min_size=nvars, max_size=nvars).map(tuple),
        st.integers(min_value=-2, max_value=1),
    )
    # nonempty by construction: monomials within the cap, nonzero coefficients
    mono = st.lists(st.integers(min_value=0, max_value=nvars - 1), max_size=cap).map(
        lambda idx: tuple(idx.count(i) for i in range(nvars))
    )
    coeff = st.builds(EXACT.complex_of, _part, _part).filter(bool)
    elem = st.dictionaries(st.integers(min_value=0, max_value=2**dim - 1), coeff, min_size=1, max_size=3)
    jet = st.dictionaries(mono, elem.map(lambda t: CliffordElement(dim, t)), min_size=1, max_size=3)
    nonzero = st.dictionaries(keys, jet.map(lambda t: Jet(nvars, cap, t)), min_size=1, max_size=3).map(
        lambda terms: Symbol(nvars, cap, EXACT, terms)
    )
    p, q = draw(nonzero), draw(nonzero)
    lowest = draw(st.integers(min_value=-6, max_value=4))
    return p, q, lowest, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_compose_operands())
def test_exact_compose_matches_the_per_alpha_reference(operands):
    p, q, lowest, at_origin = operands
    got = symbol_compose(p, q, lowest, at_origin=at_origin)
    assert _triples(got) == _triples(_reference_compose(p, q, lowest, at_origin))
    assert all(bool(v) for v in _stored_values(got))
    assert all(jet.max_degree == p.max_degree for jet in got.terms.values())
    assert min(got.degrees(), default=lowest) >= lowest


def _scalar_symbol(nvars, cap, parts):
    """A symbol of scalar (empty-blade) coefficients from
    ``{(xi key, x-monomial): value}``."""
    jets = {}
    for (key, xmono), value in parts.items():
        elem = CliffordElement(2, {0: EXACT.complex_of(Fraction(value), Fraction(0))})
        jets.setdefault(key, {})[xmono] = elem
    return Symbol(nvars, cap, EXACT, {key: Jet(nvars, cap, t) for key, t in jets.items()})


@pytest.mark.parametrize("at_origin", [False, True])
def test_compose_weights_second_order_terms_by_alpha_factorial(at_origin):
    """p = xi1^2 + xi1 xi2, q = x1^2 + x1 x2: the second-order terms give
    (-i)^2 (2 * 2 / 2! + 1 * 1 / 1!) = -3, from alpha = (2, 0) with
    alpha! = 2 and alpha = (1, 1) with alpha! = 1."""
    zero = (0, 0)
    p = _scalar_symbol(2, 2, {(((2, 0), 0), zero): 1, (((1, 1), 0), zero): 1})
    q = _scalar_symbol(2, 2, {(((0, 0), 0), (2, 0)): 1, (((0, 0), 0), (1, 1)): 1})
    # order 0: p q; order 1: -i ((2 xi1 + xi2)(2 x1 + x2) + xi1 x1)
    want = {
        (((2, 0), 0), (2, 0)): 1, (((2, 0), 0), (1, 1)): 1,
        (((1, 1), 0), (2, 0)): 1, (((1, 1), 0), (1, 1)): 1,
        (((1, 0), 0), (1, 0)): -5j, (((1, 0), 0), (0, 1)): -2j,
        (((0, 1), 0), (1, 0)): -2j, (((0, 1), 0), (0, 1)): -1j,
        (((0, 0), 0), zero): -3,
    }
    if at_origin:
        want = {k: v for k, v in want.items() if k[1] == zero}
    got = symbol_compose(p, q, 0, at_origin=at_origin)
    assert {
        (key, xmono): complex(elem.terms[0])
        for key, jet in got.terms.items()
        for xmono, elem in jet.terms.items()
    } == want
    assert _triples(got) == _triples(_reference_compose(p, q, 0, at_origin))
    assert _triples(symbol_compose(p, q, 1, at_origin=at_origin)) == _triples(
        _reference_compose(p, q, 1, at_origin)
    )


@pytest.mark.parametrize("m", [2, 3])
def test_exact_oracle_compositions_skip_the_symbol_operations(m, monkeypatch):
    """The compositions of the oracle at m (the square, a base-point power,
    the last factor) run in the kernel alone: no symbol product, xi
    derivative or scaling, and the same coefficients as the reference."""
    s = random_scenario(m, "exact", random.Random(40 + m))
    dirac = rescaled_dirac_symbols(s)
    q2, q3 = symbol_invert_order2(symbol_compose(dirac, dirac, 1))
    q = q2 + q3
    cases = [(dirac, dirac, 1, False), (q, q, -5, True), (q, dirac, -1 - 2 * m, True)]
    want = [_triples(_reference_compose(*case)) for case in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("symbol operation called in an exact composition")

    monkeypatch.setattr(symbols, "symbol_product", forbidden)
    monkeypatch.setattr(Symbol, "partial_xi", forbidden)
    monkeypatch.setattr(Symbol, "scale", forbidden)
    for (p, r, lowest, at_origin), expected in zip(cases, want):
        assert _triples(symbol_compose(p, r, lowest, at_origin=at_origin)) == expected


@pytest.mark.parametrize(
    "mode,m", [("exact", 2), ("exact", 3), ("exact", 4), ("float", 2), ("float", 3)]
)
def test_square_to_invert_inverts_like_the_full_square(mode, m):
    """The oracle's square, with sigma_1 composed at the base point, makes no
    x-linear sigma_1 jet and inverts to the q_{-2} and q_{-3} of the square
    composed with all its jets: the same normal-form triples in exact mode,
    equal floats in float mode."""
    s = random_scenario(m, mode, random.Random(60 + m))
    dirac = rescaled_dirac_symbols(s)
    square = symbols.symbol_square_to_invert(dirac)
    base = (0,) * s.n
    assert all(set(jet.terms) == {base} for jet in square.take_degree(1).terms.values())
    got = symbol_invert_order2(square)
    want = symbol_invert_order2(symbol_compose(dirac, dirac, 1))
    view = _triples if mode == "exact" else _symbol_terms
    assert [view(q) for q in got] == [view(q) for q in want]



def test_no_row_pair_past_the_jet_cap_reaches_a_key_rule(monkeypatch):
    """Exact jet and symbol products leave out row pairs whose x-degrees add
    up to more than the jet cap before the kernel asks the key rule: over the
    inversion of a curved Laplacian (quadratic jets), neither rule sees one."""
    jet_degrees, symbol_degrees = [], []
    jet_key, symbol_key = jets._jet_pair_key, symbols._symbol_pair_key

    def watched_jet_key(ka, kb):
        jet_degrees.append(sum(ka[0]) + sum(kb[0]))
        return jet_key(ka, kb)

    def watched_symbol_key(ka, kb):
        symbol_degrees.append(sum(ka[3]) + sum(kb[3]))
        return symbol_key(ka, kb)

    monkeypatch.setattr(jets, "_jet_pair_key", watched_jet_key)
    monkeypatch.setattr(symbols, "_symbol_pair_key", watched_symbol_key)
    curv = random_curvature(4, random.Random(5))
    symbol_invert_order2(laplacian_symbol(build_metric_jets(curv)))
    cap = 2
    assert jet_degrees and max(jet_degrees) == cap
    assert symbol_degrees and max(symbol_degrees) == cap


def _patch_everywhere(monkeypatch, fn, replacement):
    """Point every name that a ``torsionres`` module binds to ``fn`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name.startswith("torsionres"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def test_no_row_pair_below_the_lowest_degree_reaches_a_key_rule(monkeypatch):
    """Symbol compositions leave out row pairs whose xi-degrees add up to
    less than ``lowest_degree`` before the kernel asks the key rule (a
    plain product has no floor, and neither has the q_{-3} bracket of the
    inverter, which asks the rule outside any product): over exact m=2 and
    m=3 reports and the inversion of curved Laplacians at n=4 and n=6, the
    rule sees pairs, compositions' pairs among them, and none below."""
    floors, seen, composed, below = [], [], [], []
    product, compose, symbol_key = symbol_product, symbol_compose, symbols._symbol_pair_key

    def watched_product(a, b):
        floors.append(None)
        try:
            return product(a, b)
        finally:
            floors.pop()

    def watched_compose(p, q, lowest_degree, **kwargs):
        floors.append(lowest_degree)
        try:
            return compose(p, q, lowest_degree, **kwargs)
        finally:
            floors.pop()

    def watched_symbol_key(ka, kb):
        floor = floors[-1] if floors else None
        seen.append(ka[2] + kb[2])
        if floor is not None:
            composed.append(ka[2] + kb[2])
            if ka[2] + kb[2] < floor:
                below.append((ka, kb, floor))
        return symbol_key(ka, kb)

    _patch_everywhere(monkeypatch, product, watched_product)
    _patch_everywhere(monkeypatch, compose, watched_compose)
    monkeypatch.setattr(symbols, "_symbol_pair_key", watched_symbol_key)
    for m in (2, 3):
        build_report(random_scenario(m, "exact", random.Random(520 + m)))
    for n in (4, 6):
        curv = random_curvature(n, random.Random(5))
        symbol_invert_order2(laplacian_symbol(build_metric_jets(curv)))
    assert seen and composed
    assert below == []


# -- hand-made cases -------------------------------------------------------------


def _e(dim, mask, re=1, im=0):
    return CliffordElement(dim, {mask: EXACT.complex_of(Fraction(re), Fraction(im))})


def test_exact_products_drop_cancelled_keys():
    """(x1 e1 + x2 e2)(x2 e1 - x1 e2) = -(x1^2 + x2^2) e12: the x1 x2
    scalar parts cancel, so no zero blade and no empty monomial is kept;
    at cap 1 every product lies beyond the cap and the jet is empty.  The
    same holds with xi monomials in place of x monomials."""
    c = (Fraction(1, 3), Fraction(2, 3))
    x1, x2 = (1, 0), (0, 1)
    a = Jet(2, 2, {x1: _e(2, 0b01, *c), x2: _e(2, 0b10, *c)})
    b = Jet(2, 2, {x2: _e(2, 0b01, *c), x1: _e(2, 0b10, *(-q for q in c))})
    got = a * b
    square = EXACT.complex_of(*c) * EXACT.complex_of(*c)
    assert _jet_terms(got) == {(2, 0): {0b11: -square}, (0, 2): {0b11: -square}}
    assert (Jet(2, 1, a.terms) * Jet(2, 1, b.terms)).terms == {}

    zero = (0, 0)
    const = lambda elem: Jet(2, 1, {zero: elem})  # noqa: E731
    sa = Symbol(2, 1, EXACT, {(x1, 0): const(_e(2, 0b01, *c)), (x2, 0): const(_e(2, 0b10, *c))})
    sb = Symbol(2, 1, EXACT, {
        (x2, 0): const(_e(2, 0b01, *c)), (x1, 0): const(_e(2, 0b10, *(-q for q in c))),
    })
    prod = symbol_product(sa, sb)
    assert set(prod.terms) == {((2, 0), 0), ((0, 2), 0)}


# (c e1 + e2)(e1 + v e2) with c = 1 + i: each v cancels the real part, the
# imaginary part or both parts of the scalar blade (see test_clifford.py)
@pytest.mark.parametrize("v", [(-1, 0), (0, -1), (-1, -1)])
def test_exact_products_cancel_each_part_of_a_mixed_coefficient(v):
    """Jet and symbol coefficients carrying the Clifford case: the same
    blades as the reference, a blade whose both parts cancel left out."""
    x1, x2 = (1, 0), (0, 1)
    a = CliffordElement(2, {0b01: EXACT.complex_of(1, 1), 0b10: EXACT.one})
    b = CliffordElement(2, {0b01: EXACT.one, 0b10: EXACT.complex_of(*v)})
    ja, jb = Jet(2, 2, {x1: a}), Jet(2, 2, {x2: b})
    got = _jet_terms(ja * jb)
    assert got == _reference_jet_product(ja, jb)
    assert (0 in got[(1, 1)]) == (v != (-1, -1))
    sa = Symbol(2, 2, EXACT, {(x1, 0): ja})
    sb = Symbol(2, 2, EXACT, {(x2, -1): jb})
    assert _symbol_terms(symbol_product(sa, sb)) == _reference_symbol_product(sa, sb)


def test_exact_products_drop_a_key_whose_every_mixed_blade_cancels():
    """(1 + i) x1 e1 + x2 e2 times x2 e2 + (1 + i) x1 e1: on x1 x2 the
    products (1 + i) e1 e2 and (1 + i) e2 e1 cancel on every blade, so the
    monomial is left out; x1^2 and x2^2 keep -2i and -1.  The same with xi
    monomials in place of x monomials."""
    x1, x2, zero = (1, 0), (0, 1), (0, 0)
    c = _e(2, 0b01, 1, 1)
    a = Jet(2, 2, {x1: c, x2: _e(2, 0b10)})
    b = Jet(2, 2, {x2: _e(2, 0b10), x1: c})
    got = _jet_terms(a * b)
    assert got == _reference_jet_product(a, b)
    assert got == {(2, 0): {0: EXACT.complex_of(0, -2)}, (0, 2): {0: -EXACT.one}}
    const = lambda elem: Jet(2, 1, {zero: elem})  # noqa: E731
    sa = Symbol(2, 1, EXACT, {(x1, 0): const(c), (x2, 0): const(_e(2, 0b10))})
    sb = Symbol(2, 1, EXACT, {(x2, 0): const(_e(2, 0b10)), (x1, 0): const(c)})
    got = _symbol_terms(symbol_product(sa, sb))
    assert got == _reference_symbol_product(sa, sb)
    assert set(got) == {((2, 0), 0), ((0, 2), 0)}


def test_exact_products_keep_factor_order():
    """e1 and e2 anticommute: the products in both orders differ by a sign,
    and each matches its reference."""
    x1 = (1, 0)
    a = Jet(2, 1, {(0, 0): _e(2, 0b01, 1, 2)})
    b = Jet(2, 1, {x1: _e(2, 0b10, Fraction(1, 2))})
    ab, ba = a * b, b * a
    assert ab != ba
    assert ab == -ba
    assert _jet_terms(ab) == _reference_jet_product(a, b)
    assert _jet_terms(ba) == _reference_jet_product(b, a)
    sa = Symbol(2, 1, EXACT, {((1, 0), 0): a})
    sb = Symbol(2, 1, EXACT, {((0, 0), -1): b})
    assert _symbol_terms(symbol_product(sa, sb)) == _reference_symbol_product(sa, sb)
    assert symbol_product(sa, sb).terms != symbol_product(sb, sa).terms


# -- float and mixed operands ------------------------------------------------------


def _float_jet(nvars, cap, dim, rng):
    terms = {}
    for mono in [(0,) * nvars] + [tuple(int(i == k) for i in range(nvars)) for k in range(nvars)]:
        elem = {}
        for mask in range(2**dim):
            if rng.random() < 0.5:
                elem[mask] = complex(rng.uniform(-2, 2), rng.choice((0.0, rng.uniform(-2, 2))))
        terms[mono] = CliffordElement(dim, elem)
    return Jet(nvars, cap, terms)


def _dyadic(c):
    """The exact value of a float coefficient."""
    return EXACT.complex_of(Fraction(c.real), Fraction(c.imag))


def _assert_within_rounding(got, pairs):
    """Each coefficient of ``got`` (``{key: {blade: complex}}``) lies within
    ``k 2^-53 sum |a||b|`` of the exact sum of the products of the dyadic
    values of its ``k/4`` coefficient pairs ``(key, a, b)``.

    A real or imaginary part sums 2n real products of the n pairs, so its
    rounding error is at most gamma_2n sum |a||b|; k = 4n covers both parts
    with room to spare.
    """
    ref = {}
    for key, a, b in pairs:
        acc = ref.setdefault(key, {})
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                term = _dyadic(ca) * _dyadic(cb)
                m = ma ^ mb
                s, mag, n = acc.get(m, (EXACT.zero, 0.0, 0))
                s = s + term if blade_product_sign(ma, mb) > 0 else s - term
                acc[m] = (s, mag + abs(ca) * abs(cb), n + 1)
    checked = 0
    for key in set(ref) | set(got):
        terms, parts = got.get(key, {}), ref.get(key, {})
        for blade in set(terms) | set(parts):
            exact, mag, n = parts.get(blade, (EXACT.zero, 0.0, 0))
            error = abs(complex(_dyadic(terms.get(blade, 0j)) - exact))
            assert error <= 4 * n * 2.0**-53 * mag, (key, blade, error, n, mag)
            checked += 1
    assert checked


@pytest.mark.parametrize("seed", range(6))
def test_float_products_are_within_rounding_of_the_exact_dyadic_product(seed):
    rng = random.Random(seed)
    cap = 1 + seed % 2
    a, b = _float_jet(2, cap, 4, rng), _float_jet(2, cap, 4, rng)
    _assert_within_rounding(_jet_terms(a * b), _jet_pairs(a, b))
    sa = Symbol(2, cap, FLOAT, {((1, 0), 0): a, ((0, 0), 0): b, ((0, 1), 0): b})
    sb = Symbol(2, cap, FLOAT, {((0, 1), -1): b, ((1, 0), 0): a, ((0, 0), 0): a})
    got = {
        (key, xmono): elem.terms
        for key, jet in symbol_product(sa, sb).terms.items()
        for xmono, elem in jet.terms.items()
    }
    _assert_within_rounding(got, _symbol_pairs(sa, sb))


def test_exact_times_float_is_a_mode_error():
    zero = (0, 0)
    exact = Jet(2, 1, {zero: _e(2, 0b01, 1, 2)})
    flt = Jet(2, 1, {zero: CliffordElement(2, {0b10: FLOAT.of(0.5)})})
    mixed = Jet(2, 1, {zero: _e(2, 0b01), (1, 0): CliffordElement(2, {0b10: FLOAT.one})})
    for a, b in ((exact, flt), (flt, exact), (exact, mixed), (mixed, exact)):
        with pytest.raises(TypeError):
            a * b
        key = ((0, 0), 0)
        with pytest.raises(TypeError):
            symbol_product(Symbol(2, 1, EXACT, {key: a}), Symbol(2, 1, EXACT, {key: b}))


def test_float_operand_with_a_non_complex_coefficient_is_a_mode_error():
    """Float rows take ``complex`` coefficients only: a float operand that
    holds an exact coefficient after its complex ones, or a plain int, is
    refused on either side of a product and of a composition."""
    zero, key = (0, 0), ((0, 0), 0)
    flt = Jet(2, 1, {zero: CliffordElement(2, {0b01: FLOAT.of(0.5)})})
    for stray in (EXACT.one, 1):
        mixed = Jet(2, 1, {zero: CliffordElement(2, {0b10: FLOAT.one, 0b01: stray})})
        for a, b in ((flt, mixed), (mixed, flt)):
            with pytest.raises(TypeError):
                a * b
            with pytest.raises(TypeError):
                symbol_compose(Symbol(2, 1, FLOAT, {key: a}), Symbol(2, 1, FLOAT, {key: b}), 0)
