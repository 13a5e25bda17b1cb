import random
from fractions import Fraction

import pytest

from torsionres import geometry
from torsionres.clifford import CliffordElement
from torsionres.geometry import (
    CurvatureData,
    VerificationError,
    build_metric_jets,
    laplacian_inverse_check,
    laplacian_sigma1_closed_form,
    laplacian_symbol,
    random_curvature,
    random_scenario,
    rescaled_dirac_inverse_symbols,
    rescaled_dirac_square_sigma1_pieces,
    rescaled_dirac_symbols,
    plain_dirac_symbols,
    Scenario,
    VectorFieldJet,
)
from torsionres.jets import Jet
from torsionres.scalars import EXACT
from torsionres.symbols import (
    Symbol,
    norm_squared_symbol,
    symbol_compose,
    symbols_equal,
)

from conftest import exact_vector, inverse_symbols, square_symbols


# -- curvature ---------------------------------------------------------------


def test_orbit_completion_and_symmetries():
    curv = CurvatureData.from_entries(4, {(1, 2, 1, 2): Fraction(5, 3)})
    r = Fraction(5, 3)
    assert curv.value(1, 2, 1, 2) == r
    assert curv.value(2, 1, 1, 2) == -r
    assert curv.value(1, 2, 2, 1) == -r
    assert curv.value(2, 1, 2, 1) == r


def test_symmetry_violation_rejected():
    with pytest.raises(ValueError):
        CurvatureData(4, {(1, 2, 1, 2): Fraction(1)})  # orbit not completed
    with pytest.raises(ValueError):
        # breaks the first Bianchi identity: lone pair-symmetric component
        CurvatureData(
            4,
            {
                (1, 2, 3, 4): Fraction(1),
                (2, 1, 3, 4): Fraction(-1),
                (1, 2, 4, 3): Fraction(-1),
                (2, 1, 4, 3): Fraction(1),
                (3, 4, 1, 2): Fraction(1),
                (4, 3, 1, 2): Fraction(-1),
                (3, 4, 2, 1): Fraction(-1),
                (4, 3, 2, 1): Fraction(1),
            },
        )


@pytest.mark.parametrize("n", [4, 6])
def test_random_curvature_is_admissible(n):
    rng = random.Random(3)
    curv = random_curvature(n, rng)
    assert curv.components  # generically nonzero
    # construction validates; double-check a couple of orbit relations
    (a, c, b, d) = next(iter(curv.components))
    assert curv.value(c, a, b, d) == -curv.value(a, c, b, d)
    assert curv.value(b, d, a, c) == curv.value(a, c, b, d)



def _reference_random_curvature(n, rng, terms=2):
    """The components ``random_curvature`` gives: its Kulkarni-Nomizu loop
    over all n^4 index tuples, on ``Fraction`` entries."""

    def sym_matrix():
        mat = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                mat[i][j] = v
                mat[j][i] = v
        return mat

    comps = {}
    for _ in range(terms):
        h, k = sym_matrix(), sym_matrix()
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                for b in range(1, n + 1):
                    for d in range(1, n + 1):
                        v = (
                            h[a - 1][b - 1] * k[c - 1][d - 1]
                            + h[c - 1][d - 1] * k[a - 1][b - 1]
                            - h[a - 1][d - 1] * k[c - 1][b - 1]
                            - h[c - 1][b - 1] * k[a - 1][d - 1]
                        )
                        if v:
                            comps[(a, c, b, d)] = comps.get((a, c, b, d), Fraction(0)) + v
    return {key: v for key, v in comps.items() if v != 0}


def _reference_rejection(n, components):
    """The message ``CurvatureData`` raises for ``components``, or None: the
    symmetry checks on every component, then the first Bianchi identity on
    all n^4 index tuples in order."""
    comps = {key: Fraction(v) for key, v in components.items() if v != 0}

    def value(*key):
        return comps.get(key, Fraction(0))

    for key in comps:
        for idx in key:
            if not 1 <= idx <= n:
                return f"curvature index {idx} out of range 1..{n}"
    for (a, c, b, d), v in comps.items():
        if value(c, a, b, d) != -v or value(a, c, d, b) != -v:
            return f"curvature antisymmetry violated at {(a, c, b, d)}"
        if value(b, d, a, c) != v:
            return f"curvature pair symmetry violated at {(a, c, b, d)}"
    rng = range(1, n + 1)
    for a in rng:
        for c in rng:
            for b in rng:
                for d in rng:
                    if value(a, c, b, d) + value(a, b, d, c) + value(a, d, c, b) != 0:
                        return f"first Bianchi identity violated at {(a, c, b, d)}"
    return None


def _orbit(key, v):
    return {tuple(key[p] for p in perm): sign * v for perm, sign in geometry._ORBIT_SIGNS}


def _shifted(components, key, by):
    out = dict(components)
    for k2, v in _orbit(key, by).items():
        out[k2] = out.get(k2, 0) + v
    return out


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("terms", [1, 2, 3])
def test_random_curvature_matches_the_fraction_loop(n, terms):
    """Same components in the same key order, and the same draws taken."""
    for seed in range(10):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        curv = random_curvature(n, rng, terms)
        want = _reference_random_curvature(n, ref_rng, terms)
        assert list(curv.components.items()) == list(want.items())
        assert rng.random() == ref_rng.random()


_CURVED = random_curvature(4, random.Random(2)).components
_CURVED6 = random_curvature(6, random.Random(4)).components


@pytest.mark.parametrize(
    "n,components",
    [
        (4, _CURVED),
        (6, _CURVED6),
        (4, {(1, 2, 1, 2): Fraction(1)}),
        (4, {(1, 2, 1, 5): Fraction(1)}),
        # lone orbits: the Bianchi sum first fails at (1, 2, 3, 4), where the
        # stored term is R_1234, R_1342 and R_1423 in turn
        (4, _orbit((1, 2, 3, 4), Fraction(1))),
        (4, _orbit((1, 3, 4, 2), Fraction(1))),
        (4, _orbit((1, 4, 2, 3), Fraction(2, 3))),
        (4, {k: v for k, v in _orbit((1, 2, 3, 4), 1).items() if k[0] < 3}),
        (4, {**_CURVED, next(iter(_CURVED)): -next(iter(_CURVED.values()))}),
        (4, _shifted(_CURVED, (1, 2, 3, 4), Fraction(1, 4))),
        (6, _shifted(_CURVED6, (2, 5, 3, 6), Fraction(-1, 2))),
        (6, _shifted(_CURVED6, (4, 1, 6, 3), Fraction(3))),
    ],
)
def test_validation_matches_the_full_index_loop(n, components):
    """``CurvatureData`` accepts what the n^4 loop accepts and rejects what
    it rejects, with the message of the first violation it finds."""
    want = _reference_rejection(n, components)
    if want is None:
        assert CurvatureData(n, components).components == {
            k: v for k, v in components.items() if v
        }
    else:
        with pytest.raises(ValueError) as err:
            CurvatureData(n, components)
        assert str(err.value) == want

# -- metric jets and the Laplacian -------------------------------------------


def test_flat_metric_jets():
    curv = CurvatureData(4, {})
    jets = build_metric_jets(curv)
    ident = Jet.constant(4, 2, CliffordElement.scalar(4, EXACT.one))
    for a in range(4):
        for b in range(4):
            expect = ident if a == b else Jet(4, 2, {})
            assert jets.g_lower[a][b] == expect
            assert jets.g_upper[a][b] == expect
    assert jets.sqrt_det == ident


def test_metric_inverse_to_quadratic_order():
    rng = random.Random(8)
    for n in (4, 6):
        curv = random_curvature(n, rng)
        jets = build_metric_jets(curv)
        ident = Jet.constant(n, 2, CliffordElement.scalar(n, EXACT.one))
        for a in range(n):
            for b in range(n):
                acc = Jet(n, 2, {})
                for c in range(n):
                    acc = acc + jets.g_lower[a][c] * jets.g_upper[c][b]
                assert acc == (ident if a == b else Jet(n, 2, {}))


def test_single_component_metric_entry():
    curv = CurvatureData.from_entries(4, {(1, 2, 1, 2): Fraction(3)})
    jets = build_metric_jets(curv)
    # g_11 = 1 - (1/3) R_1c1d x^c x^d = 1 - x2^2
    expect = Jet(
        4, 2,
        {
            (0, 0, 0, 0): CliffordElement.scalar(4, EXACT.one),
            (0, 2, 0, 0): CliffordElement.scalar(4, EXACT.of(-1)),
        },
    )
    assert jets.g_lower[0][0] == expect


def test_flat_laplacian_symbol():
    curv = CurvatureData(4, {})
    sym = laplacian_symbol(build_metric_jets(curv))
    assert symbols_equal(sym, norm_squared_symbol(4, 2, EXACT, 4, 1))


@pytest.mark.parametrize("n", [4, 6])
def test_laplacian_sigma1_closed_form(n):
    """The jets-derived first-order symbol equals (2i/3) Ric_ab x^a xi_b;
    this fixes the Ricci contraction convention."""
    rng = random.Random(21)
    curv = random_curvature(n, rng)
    sym = laplacian_symbol(build_metric_jets(curv))
    assert symbols_equal(sym.take_degree(1), laplacian_sigma1_closed_form(curv))


def test_laplacian_inverse_flat():
    curv = CurvatureData(4, {})
    q2, q3 = laplacian_inverse_check(curv)
    assert symbols_equal(q2, norm_squared_symbol(4, 2, EXACT, 4, -1))
    assert q3.is_zero()


@pytest.mark.parametrize("n", [4, 6])
def test_laplacian_inverse_normal_coordinates(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        curv = random_curvature(n, rng)
        laplacian_inverse_check(curv)  # raises VerificationError on mismatch


def test_laplacian_mismatch_reports_its_residual(monkeypatch):
    """Closed forms shifted on purpose: each failed check of the Laplacian
    inverse states the largest coefficient of its difference."""
    curv = CurvatureData(4, {})
    extra = CliffordElement.scalar(4, EXACT.of(3))
    # sigma_1 closed form + 3 xi_1
    sigma1_closed = geometry.laplacian_sigma1_closed_form
    monkeypatch.setattr(geometry, "laplacian_sigma1_closed_form", lambda c: (
        sigma1_closed(c)
        + Symbol(4, 2, EXACT, {((1, 0, 0, 0), 0): Jet.constant(4, 2, extra)})
    ))
    with pytest.raises(VerificationError, match=r"sigma_1 .*\(residual 3\)$"):
        laplacian_inverse_check(curv)
    monkeypatch.setattr(geometry, "laplacian_sigma1_closed_form", sigma1_closed)

    closed = geometry.laplacian_inverse_closed_forms(
        build_metric_jets(curv), laplacian_sigma1_closed_form(curv)
    )
    # half of |xi|^{-2}
    monkeypatch.setattr(geometry, "laplacian_inverse_closed_forms", lambda jets, sigma1: (
        closed[0].scale(EXACT.of(Fraction(1, 2))), closed[1]
    ))
    with pytest.raises(VerificationError, match=r"sigma_-2 .*\(residual 0\.5\)$"):
        laplacian_inverse_check(curv)
    # sigma_{-3} closed form + 3 xi_1 |xi|^{-4}
    monkeypatch.setattr(geometry, "laplacian_inverse_closed_forms", lambda jets, sigma1: (
        closed[0], closed[1] + Symbol(4, 2, EXACT, {((1, 0, 0, 0), -2): Jet.constant(4, 2, extra)})
    ))
    with pytest.raises(VerificationError, match=r"sigma_-3 .*\(residual 3\)$"):
        laplacian_inverse_check(curv)


# -- rescaled Dirac symbols ---------------------------------------------------


def _constant_v_scenario(m=2, x=None):
    n = 2 * m
    zero = EXACT.of(0)
    e = [0] * n
    e[0] = 1
    x_vec = exact_vector(*(x or ([0] * n)))
    return Scenario(
        m=m,
        mode="exact",
        V=VectorFieldJet(exact_vector(*e), tuple(tuple([zero] * n) for _ in range(n))),
        X=x_vec,
        u=exact_vector(*([0, 1] + [0] * (n - 2))),
        v=exact_vector(*([0, 1] + [0] * (n - 2))),
        w=exact_vector(*([0, 1] + [0] * (n - 2))),
    )


def test_constant_unit_v_dirac_symbols():
    s = _constant_v_scenario()
    sym = rescaled_dirac_symbols(s)
    assert sym.take_degree(0).is_zero()  # sigma_0 = 0 for constant V, X = 0
    # sigma_1 = i c(e1) c(xi) c(e1)
    e1 = CliffordElement.basis(4, 1, EXACT.one)
    expect = {}
    for j in range(4):
        ej = CliffordElement.basis(4, j + 1, EXACT.one)
        mono = tuple(1 if i == j else 0 for i in range(4))
        expect[(mono, 0)] = Jet.constant(4, 1, (e1 * ej * e1).scale(EXACT.i))
    from torsionres.symbols import Symbol

    assert symbols_equal(sym.take_degree(1), Symbol(4, 1, EXACT, expect))


def test_sigma0_with_x_field():
    # V = e1 constant, X = e2: sigma_0 = i c(e1)c(e2)c(e1) = i c(e2)
    s = _constant_v_scenario(x=[0, 1, 0, 0])
    sym = rescaled_dirac_symbols(s)
    sigma0 = sym.take_degree(0)
    e2 = CliffordElement.basis(4, 2, EXACT.one)
    jet = next(iter(sigma0.terms.values()))
    assert jet.value_at_origin(4) == e2.scale(EXACT.i)


def test_generic_sigma0_contains_gradient():
    zero = EXACT.of(0)
    jac = [[zero] * 4 for _ in range(4)]
    jac[2][1] = EXACT.of(2)  # dV_2/dx_3 = 2
    s = Scenario(
        m=2, mode="exact",
        V=VectorFieldJet(exact_vector(1, 0, 0, 0), tuple(tuple(r) for r in jac)),
        X=exact_vector(0, 0, 0, 0),
        u=exact_vector(0, 1, 0, 0), v=exact_vector(0, 1, 0, 0), w=exact_vector(0, 1, 0, 0),
    )
    sigma0 = rescaled_dirac_symbols(s).take_degree(0)
    # sum_j c(V)c(e_j) d_j[c(V)] at x0 = c(e1)c(e3) * 2 c(e2)
    e = [CliffordElement.basis(4, k, EXACT.one) for k in (1, 2, 3)]
    expect = (e[0] * e[2] * e[1]).scale(EXACT.of(2))
    jet = next(iter(sigma0.terms.values()))
    assert jet.value_at_origin(4) == expect


def test_constant_v_square_flat():
    s = _constant_v_scenario()
    sym = square_symbols(s)
    assert symbols_equal(sym.take_degree(2), norm_squared_symbol(4, 1, EXACT, 4, 1))
    assert sym.take_degree(1).is_zero()
    q2, q3 = inverse_symbols(s)
    assert symbols_equal(q2, norm_squared_symbol(4, 1, EXACT, 4, -1))
    assert q3.evaluate_jets_at_origin().is_zero()


def test_inverse_mismatch_reports_its_residual(monkeypatch):
    """A square that is not the operator's, and an inversion whose q_{-3}
    is off: the failed q_{-2} and q_{-3} checks state the largest
    coefficient of their difference.  (The closed q_{-3} reads sigma_1 of
    the square it is handed, so only a faulty inversion gets past the
    q_{-2} check and fails at q_{-3}.)"""
    s = _constant_v_scenario()
    square = square_symbols(s)
    # twice the square inverts to |xi|^{-2}/2 against the closed |xi|^{-2}
    with pytest.raises(VerificationError, match=r"q_\{-2\}.*\(residual 0\.5\)"):
        rescaled_dirac_inverse_symbols(s, square.scale(EXACT.of(2)))
    # an inversion that adds q_{-3} = -3 xi_1 |xi|^{-4}; the closed form is 0
    extra = Symbol(4, 1, EXACT, {
        ((1, 0, 0, 0), -2): Jet.constant(4, 1, CliffordElement.scalar(4, EXACT.of(-3)))
    })
    invert = geometry.symbol_invert_order2

    def off_by_extra(p):
        q2, q3 = invert(p)
        return q2, q3 + extra

    monkeypatch.setattr(geometry, "symbol_invert_order2", off_by_extra)
    with pytest.raises(VerificationError, match=r"q_\{-3\}.*\(residual 3\)"):
        rescaled_dirac_inverse_symbols(s, square)


@pytest.mark.parametrize("m", [2, 3])
def test_square_composition_matches_closed_form(m):
    """Composed sigma(T) o sigma(T) equals the closed-form square symbols:
    sigma_2 through first jet order, sigma_1 at the base point."""
    rng = random.Random(m)
    for _ in range(3):
        s = random_scenario(m, "exact", rng)
        dirac = rescaled_dirac_symbols(s)
        closed = square_symbols(s)
        composed = symbol_compose(dirac, dirac, 1)
        assert symbols_equal(composed.take_degree(2), closed.take_degree(2))
        assert symbols_equal(
            composed.take_degree(1).evaluate_jets_at_origin(),
            closed.take_degree(1).evaluate_jets_at_origin(),
        )


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_base_point_symbols_carry_no_jets(mode):
    """sigma_0(T) and the three pieces of sigma_1(T^2) are read only at the
    base point and hold only the zero x-monomial; sigma_1(T), whose
    x-derivative H3 and the oracle take, keeps its linear jets."""
    rng = random.Random(41)
    for m in (2, 3):
        s = random_scenario(m, mode, rng)
        zero = (0,) * s.n
        dirac = rescaled_dirac_symbols(s)
        pieces = rescaled_dirac_square_sigma1_pieces(s)
        for sym in [dirac.take_degree(0), *pieces.values()]:
            assert sym.terms
            assert all(set(jet.terms) == {zero} for jet in sym.terms.values())
        linear = [mono for jet in dirac.take_degree(1).terms.values()
                  for mono in jet.terms if sum(mono) == 1]
        assert linear


@pytest.mark.parametrize("m", [2, 3])
def test_inverse_recursion_matches_closed_form(m):
    rng = random.Random(50 + m)
    for _ in range(3):
        s = random_scenario(m, "exact", rng)
        inverse_symbols(s)  # raises VerificationError on mismatch


def test_left_inverse_property():
    rng = random.Random(23)
    for m in (2, 3):
        s = random_scenario(m, "exact", rng)
        square = square_symbols(s)
        q2, q3 = rescaled_dirac_inverse_symbols(s, square)
        li = symbol_compose(q2 + q3, square, -1)
        assert symbols_equal(li.take_degree(0), norm_squared_symbol(s.n, 1, s.field, s.n, 0))
        assert li.take_degree(-1).evaluate_jets_at_origin().is_zero()


def test_jacobian_consistency():
    """d_j |V|^2 = 2 sum_a V_a dV_a/dx_j ties the jet to the Jacobian."""
    rng = random.Random(31)
    s = random_scenario(2, "exact", rng)
    d = s.V.d_norm_sq()
    for j in range(s.n):
        acc = EXACT.of(0)
        for a in range(s.n):
            acc = acc + s.V.value.components[a] * s.V.jacobian[j][a]
        assert d.components[j] == EXACT.of(2) * acc


def test_scaling_of_leading_symbols():
    """V -> 2V multiplies sigma_2 by 16 and q_{-2} by 1/16."""
    rng = random.Random(37)
    s = random_scenario(2, "exact", rng)
    two = EXACT.of(2)
    scaled = Scenario(
        m=s.m, mode=s.mode,
        V=VectorFieldJet(
            s.V.value.scale(two),
            tuple(tuple(two * c for c in row) for row in s.V.jacobian),
        ),
        X=s.X, u=s.u, v=s.v, w=s.w,
    )
    sym = square_symbols(s)
    sym_scaled = square_symbols(scaled)
    assert symbols_equal(sym_scaled.take_degree(2), sym.take_degree(2).scale(EXACT.of(16)))
    q2, _ = inverse_symbols(s)
    q2s, _ = inverse_symbols(scaled)
    assert symbols_equal(q2s, q2.scale(EXACT.of(Fraction(1, 16))))


def test_plain_dirac_symbols():
    sym = plain_dirac_symbols(2)
    assert sym.take_degree(0).is_zero()
    assert len(sym.take_degree(1).terms) == 4


def test_scenario_validation():
    with pytest.raises(ValueError):
        _ = Scenario(
            m=2, mode="exact",
            V=VectorFieldJet(
                exact_vector(0, 0, 0, 0),
                tuple(tuple([EXACT.of(0)] * 4) for _ in range(4)),
            ),
            X=exact_vector(0, 0, 0, 0),
            u=exact_vector(1, 0, 0, 0),
            v=exact_vector(1, 0, 0, 0),
            w=exact_vector(1, 0, 0, 0),
        )
