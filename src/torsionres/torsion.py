"""The spectral-torsion density pipeline at the base point.

The density of Wres( c(V)c(u)c(v)c(w)c(V) * T^{-2m+1} ) for the rescaled
operator T = c(V)(D + i c(X))c(V) is the cosphere integral of the trace of
the degree -2m part of sigma(T^{-2m} T).  The composition formula splits
that degree into three groups,

    H1 = pre * sigma_{-2m}(T^{-2m}) sigma_0(T)
    H2 = pre * sigma_{-2m-1}(T^{-2m}) sigma_1(T)          -> L1..L5
    H3 = pre * (-i) sum_j d_xi_j sigma_{-2m}(T^{-2m}) d_x_j sigma_1(T)
                                                           -> K1, K2

with H2 split along the five fragments of sigma_{-2m-1} (the three
first-order fragments of the squared operator, the |V|^{-4} gradient term
of its inverse, and the power-expansion cross sum), and H3 split by which
factor of c(V) the x-derivative hits.

Everything is computed twice: term-by-term through the closed-form power
expansion, and in one stroke through iterated symbol composition (the
generic oracle).  The two must agree exactly in exact mode.

The term route ends in the eight term symbols (``pipeline_symbols``),
which depend on V and X alone; each density traces one of them under
c(V)c(u)c(v)c(w)c(V) (``trace_terms``), so new u, v, w only retrace them.

Jets in x are first order and carried only where an x-derivative is
taken.  The term route differentiates q_{-2} (in the inverse-gradient
fragment and the power-cross sum) and sigma_1(T) (in H3); so sigma_1(T)
and sigma_2 of the square, from which q_{-2} is inverted, carry jets,
while sigma_0(T), sigma_1 of the square and q_{-3} come at the base point.
The route takes those derivatives and evaluates every symbol at the base
point before forming any product.  In the oracle's square only sigma_2
carries jets, because the inverse of the square differentiates q_{-2},
which comes from sigma_2 alone; sigma_1 of the square enters only q_{-3},
which is kept at the base point, so it is composed there.  The
x-derivative of sigma_0(T) the oracle would need only meets factors of
degree below -2m.  Every later composition (the powers of
q_{-2} + q_{-3} and the last one with the operator) is taken at the base
point: its left factor and each x-derivative of its right factor are
evaluated there before their product, so the right factor's jets serve
only its x-derivatives.

``assemble_density`` builds sigma(T) and the prefactor once and hands
them to both routes; neither route changes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .clifford import (
    CliffordElement,
    FrameVector,
    clifford_of_vector,
    clifford_product,
    clifford_product_seq,
    clifford_trace,
    clifford_trace_of_product,
)
from .geometry import (
    Scenario,
    VerificationError,
    plain_dirac_symbols,
    require_symbols_equal,
    rescaled_dirac_square_sigma1_pieces,
    rescaled_dirac_square_symbols,
    rescaled_dirac_symbols,
    rescaled_dirac_inverse_symbols,
)
from .reference import DensityValue
from .scalars import EXACT
from .spheres import monomial_integral
from .symbols import (
    Symbol,
    power_expansion,
    symbol_compose,
    symbol_invert_order2,
    symbol_product,
    symbol_square_to_invert,
    xi_linear_symbol,
)

TERM_NAMES = ("h1", "l1", "l2", "l3", "l4", "l5", "k1", "k2")


def torsion_prefactor_element(s: Scenario) -> CliffordElement:
    """c(V) c(u) c(v) c(w) c(V) at the base point."""
    cV = clifford_of_vector(s.V.value)
    return clifford_product_seq(
        [cV, clifford_of_vector(s.u), clifford_of_vector(s.v), clifford_of_vector(s.w), cV]
    )


def trace_integrate(sym: Symbol, prefactor: CliffordElement) -> DensityValue:
    """Trace pre * sym fiberwise and integrate over the unit cosphere.

    m is half the frame dimension n of ``sym``.  Every term must be
    homogeneous of degree -2m and already evaluated at the base point; the
    result is a rational multiple of 2^m Vol(S^{2m-1}), in the scalars of
    ``sym``.
    """
    n = sym.nvars
    m = n // 2
    field = sym.field
    total = field.of(0)
    for (mono, k), jet in sym.terms.items():
        if sum(mono) + 2 * k != -n:
            raise ValueError(
                f"trace_integrate expects pure degree {-n}, found {sum(mono) + 2 * k}"
            )
        coeff = jet.value_at_origin(n)
        if coeff.is_zero():
            continue
        moment = monomial_integral(mono, n)
        if moment == 0:
            continue
        tr = clifford_trace_of_product(prefactor, coeff)
        if not bool(tr):
            continue
        total = total + tr * field.of(moment)
    return DensityValue(total / field.of(2**m), m)


_SUB_PIECE_TO_TERM = {
    "vector_gradient": "l1",
    "x_field": "l2",
    "norm_gradient": "l3",
    "inverse_gradient": "l4",
    "power_cross": "l5",
}


def pipeline_symbols(s: Scenario, dirac: Symbol) -> Dict[str, Symbol]:
    """Build and cross-check the degree -2m symbols of h1, l1..l5, k1, k2,
    in ``TERM_NAMES`` order and at the base point.

    The densities need x-derivatives of two symbols: d_x q_{-2} (the
    inverse-gradient and power-cross fragments) and d_x sigma_1(T) (the
    H3 recombination check).  So sigma_1(T) and the square's sigma_2 carry
    first-order jets; sigma_0(T), the fragments of the square's sigma_1
    and q_{-3} come at the base point.  The derivatives are taken first;
    then every symbol is evaluated at the base point before any product,
    since the constant term of a jet product is the product of the
    constant terms.

    The four fragments of sigma_{-2m-1} other than the power-cross sum are
    asserted to add up to m q_{-2}^{m-1} q_{-3}; the H3 split is asserted to
    recombine into -i sum_j d_xi(sigma_{-2m}) d_x(sigma_1).

    ``dirac`` is ``rescaled_dirac_symbols(s)``; it is only read.
    """
    n, m, fld = s.n, s.m, s.field
    frags = rescaled_dirac_square_sigma1_pieces(s)
    dsq = rescaled_dirac_square_symbols(s, frags)
    q2, q3 = rescaled_dirac_inverse_symbols(s, dsq)

    # the only x-derivatives (constant, the jets being first order), then
    # everything at the base point
    dq2 = [q2.partial_x(mu) for mu in range(1, n + 1)]
    sigma1 = dirac.take_degree(1)
    dsigma1 = [sigma1.partial_x(mu) for mu in range(1, n + 1)]
    q2 = q2.evaluate_jets_at_origin()  # q3 comes at the base point already
    p2 = dsq.take_degree(2).evaluate_jets_at_origin()
    dxi_p2 = [p2.partial_xi(mu) for mu in range(1, n + 1)]

    powers, cross = power_expansion(q2, dq2, m)
    power_top = powers[m]

    # five fragments of sigma_{-2m-1}
    minus_one = fld.of(-1)
    minus_i = fld.of(0) - fld.i
    sub_pieces: Dict[str, Symbol] = {}
    head = powers[m - 1].scale(fld.of(m))
    for name, frag in frags.items():
        body = symbol_product(symbol_product(q2, frag), q2).scale(minus_one)
        sub_pieces[name] = symbol_product(head, body)

    grad = Symbol.zero(n, 1, fld)
    for mu in range(n):
        grad = grad + symbol_product(dxi_p2[mu], dq2[mu])
    sub_pieces["inverse_gradient"] = symbol_product(
        head, symbol_product(q2, grad).scale(fld.i)
    )

    recombined = Symbol.zero(n, 1, fld)
    for piece in sub_pieces.values():
        recombined = recombined + piece
    require_symbols_equal(
        recombined, symbol_product(head, q3),
        "sub-leading power symbol: the fragments of the square and of its "
        "inverse do not add up to m q_{-2}^{m-1} q_{-3}",
    )
    sub_pieces["power_cross"] = cross.scale(minus_i)

    # H3 split by which c(V) factor receives the x-derivative; c(e_j)c(V0)
    # and c(V0)c(e_j) are formed once per j (a product with a single blade
    # is exact, so the association does not change a float sum)
    cV0 = clifford_of_vector(s.V.value)
    basis = [CliffordElement.basis(n, j + 1, fld.one) for j in range(n)]
    ej_v = [clifford_product(ej, cV0) for ej in basis]
    v_ej = [clifford_product(cV0, ej) for ej in basis]
    k1_sym = Symbol.zero(n, 1, fld)
    k2_sym = Symbol.zero(n, 1, fld)
    check = Symbol.zero(n, 1, fld)
    for mu in range(n):
        row = clifford_of_vector(s.V.row(mu))
        dxi_top = power_top.partial_xi(mu + 1)
        if not row.is_zero():
            k1 = xi_linear_symbol(fld, [clifford_product(row, x).scale(fld.i) for x in ej_v])
            k2 = xi_linear_symbol(fld, [clifford_product(x, row).scale(fld.i) for x in v_ej])
            k1_sym = k1_sym + symbol_product(dxi_top, k1)
            k2_sym = k2_sym + symbol_product(dxi_top, k2)
        check = check + symbol_product(dxi_top, dsigma1[mu])
    k1_sym = k1_sym.scale(minus_i)
    k2_sym = k2_sym.scale(minus_i)
    require_symbols_equal(
        k1_sym + k2_sym, check.scale(minus_i),
        "H3 split does not recombine at the base point",
    )

    # the last product of each term with sigma_0(T) or sigma_1(T)
    at_origin = dirac.evaluate_jets_at_origin()
    out = {"h1": symbol_product(power_top, at_origin.take_degree(0)).take_degree(-n)}
    sigma1_at_origin = at_origin.take_degree(1)
    for piece_name, term_name in _SUB_PIECE_TO_TERM.items():
        out[term_name] = symbol_product(sub_pieces[piece_name], sigma1_at_origin).take_degree(-n)
    out.update(k1=k1_sym.take_degree(-n), k2=k2_sym.take_degree(-n))
    return out


def trace_terms(symbols: Dict[str, Symbol], prefactor: CliffordElement) -> Dict[str, DensityValue]:
    """``trace_integrate`` of each term symbol under one prefactor."""
    return {name: trace_integrate(sym, prefactor) for name, sym in symbols.items()}


def term_densities(s: Scenario) -> Dict[str, DensityValue]:
    """Machine values of h1, l1..l5, k1, k2 for one scenario."""
    symbols = pipeline_symbols(s, rescaled_dirac_symbols(s))
    return trace_terms(symbols, torsion_prefactor_element(s))


def composition_oracle_density(dirac: Symbol, prefactor: CliffordElement) -> DensityValue:
    """The fully generic route: compose the operator symbol ``dirac`` with
    itself, invert, power up by composition, compose once more, and trace
    against ``prefactor``; m is half the frame dimension of ``dirac``.

    Only sigma_2 of the square keeps its jets, because the inverse
    differentiates q_{-2}; sigma_1 of the square is composed at the base
    point, where q_{-3} is kept.  Every later composition is taken at the
    base point.  ``dirac`` is only read.
    """
    n = dirac.nvars
    m = n // 2
    q2, q3 = symbol_invert_order2(symbol_square_to_invert(dirac))
    q = q2 + q3
    acc = q
    for factors in range(2, m + 1):
        acc = symbol_compose(acc, q, -2 * factors - 1, at_origin=True)
    total = symbol_compose(acc, dirac, -n, at_origin=True).take_degree(-n)
    return trace_integrate(total, prefactor)


def sum_terms(terms: Dict[str, DensityValue], names: Sequence[str] = TERM_NAMES) -> DensityValue:
    """The terms ``names`` added in that order; by default the assembled
    density, added in ``TERM_NAMES`` order so every caller gets the same
    float sum."""
    total = terms[names[0]]
    for name in names[1:]:
        total = total + terms[name]
    return total


@dataclass
class TermBreakdown:
    """Per-term densities and the symbols they trace, their sum, and the generic oracle."""

    terms: Dict[str, DensityValue]
    assembled: DensityValue
    composition_oracle: DensityValue
    symbols: Dict[str, Symbol]


def assemble_density(s: Scenario) -> TermBreakdown:
    """Both routes: the machine terms with their sum, and the generic oracle,
    from one sigma(T) and one prefactor."""
    dirac = rescaled_dirac_symbols(s)
    prefactor = torsion_prefactor_element(s)
    symbols = pipeline_symbols(s, dirac)
    terms = trace_terms(symbols, prefactor)
    oracle = composition_oracle_density(dirac, prefactor)
    return TermBreakdown(terms, sum_terms(terms), oracle, symbols)


def plain_dirac_torsion_density(u: FrameVector, v: FrameVector, w: FrameVector) -> DensityValue:
    """Exact torsion density of the plain Dirac operator at the base point,
    on the 2m-dimensional frame of ``u``.

    Runs the same generic composition route with prefactor c(u)c(v)c(w);
    in normal coordinates every contribution vanishes.
    """
    pre = clifford_product_seq(
        [clifford_of_vector(u), clifford_of_vector(v), clifford_of_vector(w)]
    )
    return composition_oracle_density(plain_dirac_symbols(u.dim // 2), pre)


# ---------------------------------------------------------------------------
# trace and contraction identities
# ---------------------------------------------------------------------------


def trace_pairing_formula(vectors: Sequence[FrameVector]):
    """Closed form for tr[c(X_1)...c(X_k)] via signed perfect pairings, for
    one or more exact vectors on a 2m-dimensional frame.

    Recursion: pair X_1 with each X_j; the cost of walking X_1 up to X_j
    is (-1)^j, and each contraction contributes -g(X_1, X_j).  The pairings
    g(X_a, X_b), a < b, are computed once up front (k(k-1)/2 dots, 15 for
    k = 6) and read by every branch of the recursion.
    """
    field = EXACT
    k = len(vectors)
    if k % 2 == 1:
        return field.of(0)
    gram = {
        (a, b): vectors[a].dot(vectors[b]) for a in range(k) for b in range(a + 1, k)
    }

    def rec(idx: Tuple[int, ...]):
        if not idx:
            return field.one
        total = field.of(0)
        first = idx[0]
        for pos in range(1, len(idx)):
            rest = idx[1:pos] + idx[pos + 1 :]
            term = gram[first, idx[pos]] * rec(rest)
            # pairing across an even gap flips sign: net factor -(-1)^{pos+1}
            if pos % 2 == 1:
                total = total - term
            else:
                total = total + term
        return total

    return rec(tuple(range(k))) * field.of(2 ** (vectors[0].dim // 2))


def lemma33_trace_identity(vectors: Sequence[FrameVector], product: CliffordElement):
    """Evaluate tr of the k-fold Clifford product ``product`` = c(v_1)...c(v_k),
    k = len(vectors), both symbolically and by the pairing formula on the
    exact ``vectors``, assert exact equality, and return the value.  Both
    traces read m from the frame dimension, 2m, of their operands."""
    k = len(vectors)
    if k not in (2, 4, 6):
        raise ValueError(f"trace identity defined for k in {{2,4,6}}, got {k}")
    symbolic = clifford_trace(product)
    if not bool(symbolic):
        symbolic = EXACT.of(0)
    formula = trace_pairing_formula(vectors)
    if symbolic != formula:
        raise VerificationError(
            f"trace identity failed for k={k}: {symbolic} vs {formula}"
        )
    return symbolic


# the fifteen pairings of (X1..X6) in canonical order, with signs
_SIX_PAIRINGS = (
    (((0, 5), (1, 4), (2, 3)), -1),
    (((0, 5), (1, 3), (2, 4)), +1),
    (((0, 5), (1, 2), (3, 4)), -1),
    (((0, 4), (1, 5), (2, 3)), +1),
    (((0, 4), (1, 3), (2, 5)), -1),
    (((0, 4), (1, 2), (3, 5)), +1),
    (((0, 3), (1, 5), (2, 4)), -1),
    (((0, 3), (1, 4), (2, 5)), +1),
    (((0, 3), (1, 2), (4, 5)), -1),
    (((0, 2), (1, 5), (3, 4)), +1),
    (((0, 2), (1, 4), (3, 5)), -1),
    (((0, 2), (1, 3), (4, 5)), +1),
    (((0, 1), (2, 5), (3, 4)), -1),
    (((0, 1), (2, 4), (3, 5)), +1),
    (((0, 1), (2, 3), (4, 5)), -1),
)


def lemma34_contraction(index: int, s: Scenario):
    """One of the fifteen Jacobian contractions behind the h1/k-term traces.

    The left side is the sum over every nonzero J[j][alpha] of
    J[j][alpha] * (pairing term of tr[c(V)c(u)c(v)c(w)c(e_j)c(e_alpha)]),
    the pairing taken from ``_SIX_PAIRINGS``; the right side is the closed
    form in gradients of V.  What does not depend on (j, alpha) is taken
    out of the sum: the sign and the pairings of two fixed slots (V, u, v,
    w) multiply once per call.  When e_j pairs with e_alpha the factor is
    delta_{j alpha}, so only the diagonal entries are visited; otherwise e_j
    pairs with a fixed vector x and e_alpha with a fixed vector y, and the
    sum is factored as sum_j x_j sum_alpha J[j][alpha] y_alpha.  The left
    side reads the Jacobian entries and frame components directly and
    never calls ``d_norm_sq``, ``directional`` or ``divergence``, which the
    closed forms use; each closed form computes d|V|^2 or div V only when
    it reads it.  Items 6 and 12 use the sign the index sum forces
    (+g(w, grad_V V) g(u,v) and +div V g(V,v) g(u,w)); the corresponding
    printed variants carry the opposite sign.  Returns (lhs, rhs) after
    asserting exact equality, for an exact scenario ``s``.
    """
    if not 1 <= index <= 15:
        raise ValueError(f"contraction index {index} out of 1..15")
    n, fld = s.n, s.field
    pairing, sign = _SIX_PAIRINGS[index - 1]

    # slots 0..3 hold V,u,v,w; slot 4 is the basis vector e_j, slot 5 is e_alpha
    vecs = [s.V.value, s.u, s.v, s.w]
    fixed = fld.one if sign > 0 else fld.of(-1)
    row = col = None  # the fixed vectors paired with e_j and with e_alpha
    for (a, b) in pairing:
        if b < 4:
            fixed = fixed * vecs[a].dot(vecs[b])
        elif a < 4:
            if b == 4:
                row = vecs[a].components
            else:
                col = vecs[a].components

    jac = s.V.jacobian
    total = fld.zero
    if row is None:  # e_j paired with e_alpha: delta_{j alpha}
        for j in range(n):
            entry = jac[j][j]
            if bool(entry):
                total = total + entry
    else:
        for j in range(n):
            inner = fld.zero
            for alpha, entry in enumerate(jac[j]):
                if bool(entry):
                    inner = inner + entry * col[alpha]
            total = total + row[j] * inner
    lhs = fixed * total

    u, v, w = s.u, s.v, s.w
    half = fld.of(Fraction(1, 2))
    d = s.V.d_norm_sq
    grad = s.V.directional
    V0 = s.V.value
    div = s.V.divergence
    rhs_table = {
        1: lambda: (fld.of(0) - half) * u.dot(d()) * v.dot(w),
        2: lambda: half * v.dot(d()) * u.dot(w),
        3: lambda: (fld.of(0) - half) * w.dot(d()) * u.dot(v),
        4: lambda: grad(V0).dot(u) * v.dot(w),
        5: lambda: fld.of(-1) * grad(V0).dot(v) * u.dot(w),
        6: lambda: grad(V0).dot(w) * u.dot(v),
        7: lambda: fld.of(-1) * V0.dot(w) * grad(v).dot(u),
        8: lambda: V0.dot(w) * grad(u).dot(v),
        9: lambda: fld.of(-1) * div() * V0.dot(w) * u.dot(v),
        10: lambda: V0.dot(v) * grad(w).dot(u),
        11: lambda: fld.of(-1) * V0.dot(v) * grad(u).dot(w),
        12: lambda: div() * V0.dot(v) * u.dot(w),
        13: lambda: fld.of(-1) * V0.dot(u) * grad(w).dot(v),
        14: lambda: V0.dot(u) * grad(v).dot(w),
        15: lambda: fld.of(-1) * div() * V0.dot(u) * v.dot(w),
    }
    rhs = rhs_table[index]()
    if lhs != rhs:
        raise VerificationError(
            f"contraction identity {index} failed: {lhs} vs {rhs}"
        )
    return lhs, rhs
