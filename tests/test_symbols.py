import random
from fractions import Fraction

import pytest

from torsionres.clifford import CliffordElement
from torsionres.geometry import (
    build_metric_jets,
    laplacian_symbol,
    random_curvature,
    random_scenario,
    rescaled_dirac_symbols,
)
from torsionres import symbols
from torsionres.jets import Jet, invert_scalar_jet
from torsionres.scalars import EXACT, FLOAT
from torsionres.symbols import (
    Symbol,
    norm_squared_symbol,
    power_expansion,
    symbol_compose,
    symbol_invert_order2,
    symbol_is_zero,
    symbol_product,
    symbols_equal,
    xi_linear_symbol,
)

from conftest import small_rational, square_symbols

N = 4


def one_jet(deg=1):
    return Jet.constant(N, deg, CliffordElement.scalar(N, EXACT.one))


def mono(*exps):
    return tuple(exps)


def sym(terms, deg=1):
    return Symbol(N, deg, EXACT, terms)


def test_partial_xi_monomial_rule():
    s = sym({(mono(2, 0, 0, 0), 0): one_jet()})
    d = s.partial_xi(1)
    assert symbols_equal(d, sym({(mono(1, 0, 0, 0), 0): one_jet().scale(EXACT.of(2))}))
    assert s.partial_xi(2).is_zero()


def test_partial_xi_norm_rule():
    # d/d xi_mu |xi|^{-2m} = -2m |xi|^{-2m-2} xi_mu
    for m in (2, 3):
        s = sym({(mono(0, 0, 0, 0), -m): one_jet()})
        d = s.partial_xi(1)
        expect = sym({(mono(1, 0, 0, 0), -m - 1): one_jet().scale(EXACT.of(-2 * m))})
        assert symbols_equal(d, expect)


def test_partial_xi_mixed():
    # d/d xi_2 (xi_1 |xi|^2) = 2 xi_1 xi_2
    s = sym({(mono(1, 0, 0, 0), 1): one_jet()})
    d = s.partial_xi(2)
    expect = sym({(mono(1, 1, 0, 0), 0): one_jet().scale(EXACT.of(2))})
    assert symbols_equal(d, expect)


def test_norm_representation_equivalence():
    # sum_i xi_i^2 |xi|^{-2} == 1
    terms = {
        (tuple(2 if i == j else 0 for i in range(N)), -1): one_jet() for j in range(N)
    }
    s = sym(terms) - norm_squared_symbol(N, 1, EXACT, N, 0)
    assert symbol_is_zero(s)


def test_xi_linear_symbol():
    """sigma_1(D) = i c(xi) is sum_j (i c(e_j)) xi_j, whose square is
    |xi|^2; a None coefficient gives no term; the jet cap is read from the
    jet coefficients (1 if there are none), and an element beside them
    becomes a constant jet under that cap."""
    i_e = [CliffordElement.basis(N, j + 1, EXACT.one).scale(EXACT.i) for j in range(N)]
    units = [tuple(int(i == j) for i in range(N)) for j in range(N)]
    dirac = xi_linear_symbol(EXACT, i_e)
    assert (dirac.nvars, dirac.max_degree) == (N, 1)
    assert dirac.terms == {(units[j], 0): Jet.constant(N, 1, i_e[j]) for j in range(N)}
    assert symbols_equal(symbol_product(dirac, dirac), norm_squared_symbol(N, 1, EXACT, N, 1))

    assert xi_linear_symbol(EXACT, [None, i_e[1], None, None]).terms == {
        (units[1], 0): Jet.constant(N, 1, i_e[1])
    }

    x1 = Jet(N, 2, {units[0]: CliffordElement.scalar(N, EXACT.one)})
    mixed = xi_linear_symbol(EXACT, [None, i_e[1], x1, None], -2)
    assert mixed.max_degree == 2
    assert mixed.terms == {
        (units[1], -2): Jet.constant(N, 2, i_e[1]),
        (units[2], -2): x1,
    }


def test_flat_compose_is_identity():
    p = norm_squared_symbol(N, 1, EXACT, N, 1)
    q = norm_squared_symbol(N, 1, EXACT, N, -1)
    composed = symbol_compose(p, q, 0)
    assert symbols_equal(composed, norm_squared_symbol(N, 1, EXACT, N, 0))


def test_invert_flat():
    p = norm_squared_symbol(N, 1, EXACT, N, 1)
    q2, q3 = symbol_invert_order2(p)
    assert symbols_equal(q2, norm_squared_symbol(N, 1, EXACT, N, -1))
    assert q3.is_zero()


def test_invert_constant_rescaled():
    # p2 = |V|^4 |xi|^2 with constant |V|^4 = 16 -> q2 = (1/16)|xi|^{-2}
    p = norm_squared_symbol(N, 1, EXACT, N, 1).scale(EXACT.of(16))
    q2, q3 = symbol_invert_order2(p)
    expect = norm_squared_symbol(N, 1, EXACT, N, -1).scale(EXACT.of(Fraction(1, 16)))
    assert symbols_equal(q2, expect)
    assert q3.is_zero()


def test_invert_rejects_bad_leading():
    # A purely monomial quadratic form that is not scalar at the origin
    terms = {(mono(2, 0, 0, 0), 0): one_jet()}
    with pytest.raises(ValueError):
        symbol_invert_order2(sym(terms))
    # mixed term with nonvanishing origin value
    terms = {
        (mono(0, 0, 0, 0), 1): one_jet(),
        (mono(1, 1, 0, 0), 0): one_jet(),
    }
    with pytest.raises(ValueError):
        symbol_invert_order2(sym(terms))


def _float_form(diagonal, mixed=0.0):
    """A float symbol with diagonal coefficients ``diagonal[j]`` on xi_j^2
    and ``mixed`` on xi_1 xi_2, constant in x."""
    def const(c):
        return Jet.constant(N, 1, CliffordElement.scalar(N, FLOAT.of(c)))

    terms = {tuple(2 * (i == j) for i in range(N)): const(c) for j, c in enumerate(diagonal)}
    if mixed:
        terms[mono(1, 1, 0, 0)] = const(mixed)
    return Symbol(N, 1, FLOAT, {(key, 0): jet for key, jet in terms.items()})


@pytest.mark.parametrize("a", [1e-12, 1.0, 1e12])
def test_float_invert_judges_the_leading_form_at_its_own_scale(a):
    """The float tolerance is 1e-9 of the leading coefficients: a form off
    by 1e-4 relative, on its diagonal or in a mixed term, is refused at
    every scale, and rounding residue of 1e-15 relative is accepted."""
    with pytest.raises(ValueError):
        symbol_invert_order2(_float_form([a, a, a, a * (1 + 1e-4)]))
    with pytest.raises(ValueError):
        symbol_invert_order2(_float_form([a] * 4, mixed=1e-4 * a))
    q2, _ = symbol_invert_order2(_float_form([a, a, a * (1 + 1e-15), a], mixed=1e-15 * a))
    assert abs(complex(q2.terms[((0,) * N, -1)].value_at_origin(N).coefficient(0)) * a - 1) < 1e-12


def inverse_power_symbols(q2: Symbol, q3: Symbol, m: int):
    """Degrees -2m and -2m-1 of the m-th power of a (q_{-2}+q_{-3}) inverse.

    s_{-2m}   = q_{-2}^m
    s_{-2m-1} = m q_{-2}^{m-1} q_{-3} - i (power-cross sum of ``power_expansion``)
    """
    if m < 2:
        raise ValueError(f"negative-power expansion needs m >= 2, got {m}")
    field = q2.field
    dq2 = [q2.partial_x(mu) for mu in range(1, q2.nvars + 1)]
    powers, cross = power_expansion(q2, dq2, m)
    s2m1 = symbol_product(powers[m - 1], q3).scale(field.of(m))
    return powers[m], s2m1 - cross.scale(field.i)


def power_by_composition(q2: Symbol, q3: Symbol, m: int):
    """Oracle for ``inverse_power_symbols``: literally compose q with itself.

    The m-th power needs m-1 pairwise compositions; only degrees down to
    -2j-1 are kept after j factors, since anything deeper cannot climb
    back up to the target degrees.
    """
    q = q2 + q3
    acc = q
    for factors in range(2, m + 1):
        acc = symbol_compose(acc, q, -2 * factors - 1)
    return acc.take_degree(-2 * m), acc.take_degree(-2 * m - 1)


def test_inverse_power_flat():
    q2 = norm_squared_symbol(N, 1, EXACT, N, -1)
    q3 = Symbol.zero(N, 1, EXACT)
    for m in (2, 3):
        top, sub = inverse_power_symbols(q2, q3, m)
        assert symbols_equal(top, norm_squared_symbol(N, 1, EXACT, N, -m))
        assert sub.is_zero()
    with pytest.raises(ValueError):
        inverse_power_symbols(q2, q3, 1)


@pytest.mark.parametrize("m", [2, 3])
def test_inverse_power_matches_iterated_composition(m):
    """The closed power expansion equals literal iterated composition."""
    rng = random.Random(100 + m)
    s = random_scenario(m, "exact", rng)
    square = square_symbols(s)
    q2, q3 = symbol_invert_order2(square)
    top_f, sub_f = inverse_power_symbols(q2, q3, m)
    top_c, sub_c = power_by_composition(q2, q3, m)
    assert symbols_equal(top_f, top_c)
    assert symbols_equal(sub_f, sub_c)


def test_composition_associativity_at_base_point():
    """(q o q) o q and q o (q o q) agree at the base point for the degrees
    both sides carry fully."""
    rng = random.Random(7)
    s = random_scenario(3, "exact", rng)
    square = square_symbols(s)
    q2, q3 = symbol_invert_order2(square)
    q = q2 + q3
    left = symbol_compose(symbol_compose(q, q, -5), q, -7)
    right = symbol_compose(q, symbol_compose(q, q, -5), -7)
    for d in (-6, -7):
        assert symbols_equal(
            left.take_degree(d).evaluate_jets_at_origin(),
            right.take_degree(d).evaluate_jets_at_origin(),
        )


def _random_symbol(rng, deg=1):
    terms = {}
    for _ in range(4):
        xi = tuple(rng.randint(0, 1) for _ in range(N))
        k = rng.randint(-2, 1)
        jet_terms = {}
        for _ in range(3):
            monoj = tuple(
                1 if i == rng.randrange(N) and rng.random() < 0.7 else 0
                for i in range(N)
            )
            if sum(monoj) > deg:
                continue
            blade = rng.randrange(2**N)
            jet_terms[monoj] = CliffordElement(
                N, {blade: EXACT.of(small_rational(rng))}
            )
        if jet_terms:
            terms[(xi, k)] = Jet(N, deg, jet_terms)
    return Symbol(N, deg, EXACT, terms)


def test_derivations_are_leibniz():
    rng = random.Random(11)
    for _ in range(10):
        a, b = _random_symbol(rng, deg=2), _random_symbol(rng, deg=2)
        prod = symbol_product(a, b)
        for mu in (1, 3):
            lhs = prod.partial_xi(mu)
            rhs = symbol_product(a.partial_xi(mu), b) + symbol_product(a, b.partial_xi(mu))
            assert symbols_equal(lhs, rhs)
            # the x-derivative of a truncated product is trustworthy one
            # jet order below the truncation
            lhs = prod.partial_x(mu).truncate_jets(1)
            rhs = (
                symbol_product(a.partial_x(mu), b)
                + symbol_product(a, b.partial_x(mu))
            ).truncate_jets(1)
            assert symbols_equal(lhs, rhs)


# -- base-point composition and the valid order of q_{-3} ------------------------


def _at_origin_matches(p, q, lowest_degree):
    """symbol_compose at the base point equals the full composition
    evaluated there, term for term."""
    fast = symbol_compose(p, q, lowest_degree, at_origin=True)
    full = symbol_compose(p, q, lowest_degree).evaluate_jets_at_origin()
    assert fast.terms == full.terms
    return fast


@pytest.mark.parametrize("m", [2, 3])
def test_compose_at_origin_on_oracle_inputs(m):
    """The composition oracle's own inputs: the powers acc o q and the last
    composition acc o dirac, with the exact rescaled operator."""
    s = random_scenario(m, "exact", random.Random(300 + m))
    dirac = rescaled_dirac_symbols(s)
    q2, q3 = symbol_invert_order2(symbol_compose(dirac, dirac, 1))
    q = q2 + q3
    acc = q
    for factors in range(2, m + 1):
        acc = _at_origin_matches(acc, q, -2 * factors - 1)
        assert acc.terms
    assert _at_origin_matches(acc, dirac, -s.n).take_degree(-s.n).terms


def test_compose_at_origin_on_laplacian_jets():
    """Quadratic jets: x-derivatives of order two reach the right factor."""
    curv = random_curvature(N, random.Random(41))
    lap = laplacian_symbol(build_metric_jets(curv))
    assert _at_origin_matches(lap, lap, 2).terms
    q2, q3 = symbol_invert_order2(lap)
    assert _at_origin_matches(q2 + q3, lap, -1).terms


def _q3_full_formula(p, q2):
    """q_{-3} = -q_{-2} (p_1 q_{-2} - i sum_j d_xi_j(p_2) d_x_j(q_{-2})) with
    every factor at its full jet order."""
    p1, p2 = p.take_degree(1), p.take_degree(2)
    corr = Symbol.zero(p.nvars, p.max_degree, p.field)
    for mu in range(1, p.nvars + 1):
        corr = corr + symbol_product(p2.partial_xi(mu), q2.partial_x(mu))
    bracket = symbol_product(p1, q2) - corr.scale(p.field.i)
    return symbol_product(q2, bracket).scale(p.field.of(-1))


def _check_q3_valid_order(p):
    q2, q3 = symbol_invert_order2(p)
    expect = _q3_full_formula(p, q2).truncate_jets(p.max_degree - 1)
    assert q3.terms and q3.terms == expect.terms


@pytest.mark.parametrize("m", [2, 3])
def test_q3_is_full_formula_to_valid_order_rescaled(m):
    rng = random.Random(310 + m)
    for _ in range(2):
        _check_q3_valid_order(square_symbols(random_scenario(m, "exact", rng)))


def test_q3_is_full_formula_to_valid_order_laplacian():
    rng = random.Random(43)
    for n in (4, 6):
        _check_q3_valid_order(laplacian_symbol(build_metric_jets(random_curvature(n, rng))))


# -- the inverter against its first formula ------------------------------------------


def _invert_reference(p):
    """(q_{-2}, q_{-3}) as ``symbol_invert_order2`` first formed them: the
    Neumann series summed from the unit symbol, one power at a time until a
    power comes out empty (at most ``max_degree`` powers), and the q_{-3}
    bracket as one symbol product per xi-direction.  The leading form is
    split as the inverter splits it, lambda read from xi_1^2."""
    n, cap, field = p.nvars, p.max_degree, p.field
    dim = next(iter(next(iter(p.terms.values())).terms.values())).dim
    p1, p2 = p.take_degree(1), p.take_degree(2)
    zero_mono, zero_jet = (0,) * n, Jet(n, cap, {})
    lam = p2.terms.get((mono(2, *(0,) * (n - 1)), 0), zero_jet).value_at_origin(dim).coefficient(0)
    lam_jet = Jet.constant(n, cap, CliffordElement.scalar(dim, lam or field.of(0)))
    lead = p2.terms.get((zero_mono, 1), zero_jet) + lam_jet
    n_sym = Symbol(n, cap, field, {
        (xi, 0): jet - lam_jet if max(xi) == 2 else jet
        for (xi, k), jet in p2.terms.items() if k == 0
    })
    base_inv = Symbol(n, cap, field, {(zero_mono, -1): invert_scalar_jet(lead, field)})
    q2 = base_inv
    if n_sym.terms:
        seed = symbol_product(n_sym, base_inv).scale(field.of(-1))
        series = power = norm_squared_symbol(n, cap, field, dim, 0)
        for _ in range(cap):
            power = symbol_product(power, seed)
            if not power.terms:
                break
            series = series + power
        q2 = symbol_product(base_inv, series)
    valid = cap - 1
    q2_low = q2.truncate_jets(valid)
    bracket = symbol_product(p1.truncate_jets(valid), q2_low)
    p2_low = p2.truncate_jets(valid)
    corr = Symbol.zero(n, cap, field)
    for mu in range(1, n + 1):
        corr = corr + symbol_product(p2_low.partial_xi(mu), q2.partial_x(mu))
    bracket = bracket - corr.scale(field.i)
    q3 = symbol_product(q2_low, bracket).scale(field.of(-1)).truncate_jets(valid)
    return q2, q3


def _assert_inverts_like_reference(p):
    got, want = symbol_invert_order2(p), _invert_reference(p)
    assert got[1].terms
    assert [q.terms for q in got] == [q.terms for q in want]


@pytest.mark.parametrize("n", [4, 6])
def test_invert_matches_reference_on_curved_laplacians(n):
    """Quadratic jets: the seed -N base_inv starts at x-degree 2, so the
    series stops after its first power."""
    rng = random.Random(700 + n)
    for _ in range(3):
        _assert_inverts_like_reference(laplacian_symbol(build_metric_jets(random_curvature(n, rng))))


@pytest.mark.parametrize("m", [2, 3])
def test_invert_matches_reference_on_exact_squares(m):
    """The composed square of the oracle and the closed-form square of the
    term route, both with first-order jets."""
    rng = random.Random(720 + m)
    for _ in range(2):
        s = random_scenario(m, "exact", rng)
        dirac = rescaled_dirac_symbols(s)
        _assert_inverts_like_reference(symbol_compose(dirac, dirac, 1))
        _assert_inverts_like_reference(square_symbols(s))


def _base_point_residue(p):
    """Whether N, the quadratic monomials of p_2 less lambda on the
    diagonal, is nonzero at the base point."""
    dim = p.nvars
    diagonal = {
        jet.value_at_origin(dim).coefficient(0)
        for (xi, k), jet in p.take_degree(2).terms.items() if k == 0 and max(xi) == 2
    }
    return len(diagonal) > 1


@pytest.mark.parametrize("m", [2, 3])
def test_invert_matches_reference_on_float_squares_with_base_point_residue(m):
    """A float composed square keeps rounding residue of N at the base
    point, so the seed has x-valuation 0 and the series keeps its
    max_degree bound; values agree exactly (-0.0 == 0.0)."""
    s = random_scenario(m, "float", random.Random(60 + m))
    dirac = rescaled_dirac_symbols(s)
    square = symbol_compose(dirac, dirac, 1)
    assert _base_point_residue(square)
    _assert_inverts_like_reference(square)


def test_invert_matches_reference_on_a_quadratic_float_form_with_base_point_residue():
    """Quadratic jets and base-point residue: the series takes both powers."""
    x1, x2 = mono(1, 0, 0, 0), mono(0, 1, 0, 0)

    def jet(entries):
        return Jet(N, 2, {m: CliffordElement.scalar(N, FLOAT.of(c)) for m, c in entries.items()})

    diagonal = [1.0, 1.0 + 1e-15, 1.0, 1.0 - 1e-15]
    terms = {
        (tuple(2 * (i == j) for i in range(N)), 0): jet({(0,) * N: c, mono(1, 1, 0, 0): 0.25 * j})
        for j, c in enumerate(diagonal)
    }
    terms[(mono(1, 1, 0, 0), 0)] = jet({(0,) * N: 1e-15, x1: 0.5, mono(0, 2, 0, 0): -0.3})
    terms[(mono(0, 0, 1, 0), 0)] = jet({x1: 0.7, x2: -0.2})
    p = Symbol(N, 2, FLOAT, terms)
    assert _base_point_residue(p)
    _assert_inverts_like_reference(p)


def test_invert_and_laplacian_build_no_product_they_throw_away(monkeypatch):
    """On a curved n=6 Laplacian the inverter multiplies nothing by the
    unit symbol and makes no product that comes out empty, and the
    Laplacian's sigma_1 makes one jet product per xi_b (beside those of
    inverting sqrt g), not one per (a, b)."""
    n = 6
    jets_built = build_metric_jets(random_curvature(n, random.Random(17)))
    jet_products = []
    jet_mul = Jet.__mul__

    def counted_mul(a, b):
        jet_products.append((a, b))
        return jet_mul(a, b)

    monkeypatch.setattr(Jet, "__mul__", counted_mul)
    lap = laplacian_symbol(jets_built)
    monkeypatch.setattr(Jet, "__mul__", jet_mul)
    assert 0 < len(jet_products) <= n + jets_built.sqrt_det.max_degree

    products = []
    product = symbols.symbol_product

    def watched_product(a, b):
        out = product(a, b)
        products.append((a, b, out))
        return out

    monkeypatch.setattr(symbols, "symbol_product", watched_product)
    symbol_invert_order2(lap)
    unit = norm_squared_symbol(n, 2, EXACT, n, 0)
    assert products
    for a, b, out in products:
        assert not symbol_is_zero(a - unit) and not symbol_is_zero(b - unit)
        assert out.terms
