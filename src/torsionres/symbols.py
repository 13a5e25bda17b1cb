"""Pseudodifferential symbol arithmetic on jet coefficients.

A symbol is a finite sum of terms

    (jet coefficient) * xi^A * |xi|^{2k},        k an integer,

graded by the homogeneity degree |A| + 2k in xi.  Odd powers of |xi| never
arise and are rejected at construction.  The module provides the xi- and
x-derivatives, the full composition formula

    sigma(P Q) = sum_alpha (-i)^{|alpha|} / alpha! *
                 d_xi^alpha sigma(P) * d_x^alpha sigma(Q),

the two-term inversion of a second-order symbol, and the powers of q_{-2}
with their power-cross sum (``power_expansion``), from which the term
route builds the negative powers.

A ``symbol_product``, exact or float, does not multiply jets pair by pair:
both symbols are flattened into rows keyed by (xi key, x-monomial), in
order of x-degree, and go through the row kernel of ``clifford``, which
reduces each output coefficient once.  An exact coefficient gives a real
and an imaginary row, each with a quarter-turn (see ``clifford``).  Only
row pairs whose x-degrees add up to at most the jet cap reach the kernel,
and in a composition only those whose xi-degrees add up to at least its
``lowest_degree`` (``jets.accumulate_admitted`` on ``(x-degree,
xi-degree)`` labels), so the key rule sees only pairs it keeps.  A
``symbol_compose`` flattens its
operands once, takes the xi- and x-derivatives of every alpha on the rows,
and sums all alpha terms in one kernel accumulator; the (-i)^{|alpha|} of
an alpha term turns the quarter-turn of exact rows and rotates the
coefficients of float rows.

Equality of symbols is decided exactly: the representation by monomials
and norm powers is not unique (sum_i xi_i^2 = |xi|^2), so a difference is
tested for zero by clearing the lowest norm power within each
(degree, x-monomial, blade) group and comparing polynomial coefficients.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Tuple

from .clifford import CliffordElement, operand_rows, reduce
from .jets import Jet, _mono_mul, accumulate_admitted, coefficient_dim, invert_scalar_jet

XiMono = Tuple[int, ...]
TermKey = Tuple[XiMono, int]  # (xi exponents, norm power k meaning |xi|^{2k})


def _xi_degree(key: TermKey) -> int:
    return sum(key[0]) + 2 * key[1]


class Symbol:
    """Finite sum of jet-coefficient xi-terms, graded by homogeneity."""

    __slots__ = ("nvars", "max_degree", "field", "terms")

    def __init__(self, nvars: int, max_degree: int, field, terms: Dict[TermKey, Jet] | None = None):
        self.nvars = nvars
        self.max_degree = max_degree  # x-jet truncation order
        self.field = field
        self.terms: Dict[TermKey, Jet] = {}
        for key, jet in (terms or {}).items():
            if jet.is_zero():
                continue
            if len(key[0]) != nvars:
                raise ValueError("xi multi-index length mismatch")
            if jet.max_degree != max_degree:
                raise ValueError(
                    f"jet degree cap {jet.max_degree} differs from the symbol's {max_degree}"
                )
            self.terms[key] = jet
        if field.kind == "float" and self.terms:
            self._prune_float()

    def _prune_float(self):
        """Drop rounding residue of exact cancellations (float mode only).

        Coefficients below 1e-14 times the largest magnitude of their
        (xi-degree, x-jet degree) group are noise far beneath the field's
        comparison tolerance; keeping them densifies every later product.  Each
        group has its own scale because the groups are never compared with
        each other: large x-linear jet coefficients say nothing about the
        size of the base-point value.
        """
        scale: Dict[Tuple[int, int], float] = {}
        for key, jet in self.terms.items():
            deg = _xi_degree(key)
            for mono, elem in jet.terms.items():
                group = (deg, sum(mono))
                scale[group] = max(scale.get(group, 0.0), elem.max_abs())
        pruned: Dict[TermKey, Jet] = {}
        for key, jet in self.terms.items():
            deg = _xi_degree(key)
            kept_jet = {}
            for mono, elem in jet.terms.items():
                eps = 1e-14 * scale[(deg, sum(mono))]
                kept = {b: c for b, c in elem.terms.items() if abs(complex(c)) > eps}
                if kept:
                    kept_jet[mono] = CliffordElement(elem.dim, kept)
            if kept_jet:
                pruned[key] = Jet(jet.nvars, jet.max_degree, kept_jet)
        self.terms = pruned

    # -- basics -----------------------------------------------------------

    @staticmethod
    def zero(nvars: int, max_degree: int, field) -> "Symbol":
        return Symbol(nvars, max_degree, field, {})

    def _check(self, other: "Symbol"):
        if (
            self.nvars != other.nvars
            or self.max_degree != other.max_degree
            or self.field is not other.field
        ):
            raise ValueError("symbol mismatch (vars, jet degree, or scalar mode)")

    def __add__(self, other: "Symbol") -> "Symbol":
        self._check(other)
        out = dict(self.terms)
        for key, jet in other.terms.items():
            s = out.get(key)
            out[key] = jet if s is None else s + jet
        return Symbol(self.nvars, self.max_degree, self.field, out)

    def __sub__(self, other: "Symbol") -> "Symbol":
        return self + (-other)

    def __neg__(self) -> "Symbol":
        return Symbol(
            self.nvars, self.max_degree, self.field,
            {k: -j for k, j in self.terms.items()},
        )

    def scale(self, s) -> "Symbol":
        return Symbol(
            self.nvars, self.max_degree, self.field,
            {k: j.scale(s) for k, j in self.terms.items()},
        )

    def degrees(self) -> List[int]:
        return sorted({_xi_degree(k) for k in self.terms})

    def take_degree(self, d: int) -> "Symbol":
        return Symbol(
            self.nvars, self.max_degree, self.field,
            {k: j for k, j in self.terms.items() if _xi_degree(k) == d},
        )

    def evaluate_jets_at_origin(self) -> "Symbol":
        return self.truncate_jets(0)

    def truncate_jets(self, degree: int) -> "Symbol":
        return Symbol(
            self.nvars, self.max_degree, self.field,
            {k: j.truncate(degree) for k, j in self.terms.items()},
        )

    def is_zero(self) -> bool:
        return symbol_is_zero(self)

    def __repr__(self):
        degs = self.degrees()
        return f"Symbol(degrees={degs}, {len(self.terms)} terms)"

    # -- calculus -----------------------------------------------------------

    def partial_xi(self, mu: int) -> "Symbol":
        """d/d xi_mu: monomial rule plus d|xi|^{2k} = 2k |xi|^{2k-2} xi_mu."""
        if not 1 <= mu <= self.nvars:
            raise ValueError(f"xi index {mu} out of range 1..{self.nvars}")
        j = mu - 1
        out: Dict[TermKey, Jet] = {}

        def _acc(key: TermKey, jet: Jet):
            if jet.is_zero():
                return
            s = out.get(key)
            out[key] = jet if s is None else s + jet

        for (mono, k), jet in self.terms.items():
            e = mono[j]
            if e:
                m2 = tuple(x - 1 if i == j else x for i, x in enumerate(mono))
                _acc((m2, k), jet.scale(self.field.of(e)))
            if k:
                m2 = tuple(x + 1 if i == j else x for i, x in enumerate(mono))
                _acc((m2, k - 1), jet.scale(self.field.of(2 * k)))
        return Symbol(self.nvars, self.max_degree, self.field, out)

    def partial_x(self, mu: int) -> "Symbol":
        return Symbol(
            self.nvars, self.max_degree, self.field,
            {k: j.partial_x(mu) for k, j in self.terms.items()},
        )


def _symbol_items(s: Symbol):
    """The ``(key, element)`` items of a symbol's rows, one per (xi key,
    x-monomial), keyed by ``(xi exponents, norm power, xi-degree,
    x-monomial, x-degree)`` and in order of x-degree, which fixes the order
    of float sums."""
    by_degree = [[] for _ in range(s.max_degree + 1)]
    for (mono, k), jet in s.terms.items():
        deg = sum(mono) + 2 * k
        for xmono, elem in jet.terms.items():
            xdeg = sum(xmono)
            by_degree[xdeg].append(((mono, k, deg, xmono, xdeg), elem))
    return [item for items in by_degree for item in items]


def _row_times(q: int, row, c: int, quarters: int = 0):
    """``(q, row)`` of the row ``row`` at quarter-turn ``q`` times the
    integer ``c`` and ``(-i)^quarters``.  An exact row takes the rotation
    in its quarter-turn, i^q (-i)^k = i^(q - k); a float row stays at
    q = 0 and rotates its coefficients, ``(a + b i)(-i) = b - a i``."""
    quarters %= 4
    if type(row[0][1]) is not complex:
        return (q - quarters) % 4, row if c == 1 else [(m, c * n) for m, n in row]
    if quarters == 0:
        return q, row if c == 1 else [(m, complex(c * z.real, c * z.imag)) for m, z in row]
    if quarters == 1:
        return q, [(m, complex(c * z.imag, -c * z.real)) for m, z in row]
    if quarters == 2:
        return q, [(m, complex(-c * z.real, -c * z.imag)) for m, z in row]
    return q, [(m, complex(-c * z.imag, c * z.real)) for m, z in row]


def _bumped(mono: Tuple[int, ...], j: int, by: int) -> Tuple[int, ...]:
    return mono[:j] + (mono[j] + by,) + mono[j + 1:]


def _xi_derivative_rows(rows, j: int):
    """``Symbol.partial_xi(j + 1)`` on symbol rows: the monomial rule and
    d|xi|^{2k} = 2k |xi|^{2k-2} xi_j, each scaling the numerators.  Rows
    that land on one key stay separate; the kernel sums them."""
    out = []
    for (mono, k, deg, xmono, xdeg), q, row in rows:
        e = mono[j]
        if e:
            key = (_bumped(mono, j, -1), k, deg - 1, xmono, xdeg)
            out.append((key, *_row_times(q, row, e)))
        if k:
            key = (_bumped(mono, j, 1), k - 1, deg - 1, xmono, xdeg)
            out.append((key, *_row_times(q, row, 2 * k)))
    return out


def _x_derivative_rows(rows, j: int):
    """``Symbol.partial_x(j + 1)`` on symbol rows: x-monomials without x_j
    drop out, the others lose one power and scale by its exponent.  Every
    x-degree drops by one, so rows in order of x-degree stay in order."""
    out = []
    for (mono, k, deg, xmono, xdeg), q, row in rows:
        e = xmono[j]
        if e:
            out.append(((mono, k, deg, _bumped(xmono, j, -1), xdeg - 1), *_row_times(q, row, e)))
    return out


def _symbol_label(key) -> Tuple[int, int]:
    """The label of a symbol row: ``(x-degree, xi-degree)``."""
    return key[4], key[2]


def _admits(cap: int, lowest: float):
    """The ``admits`` rule of a product of symbol rows: x-degrees that add
    up to at most the jet cap ``cap``, and xi-degrees that add up to at
    least ``lowest`` (-inf in a plain product)."""
    return lambda a, b: a[0] + b[0] <= cap and a[1] + b[1] >= lowest


def _symbol_pair_key(ka, kb):
    """The key rule of a product of symbol rows: the output key is
    ``((xi exponents, norm power), x-monomial)``.  Only admitted pairs get
    here: ``accumulate_admitted`` leaves out those past the jet cap and,
    in a composition, those below its lowest degree (``_admits``)."""
    return (_mono_mul(ka[0], kb[0]), ka[1] + kb[1]), _mono_mul(ka[3], kb[3])


def _symbol_of_elements(like: Symbol, elems) -> Symbol:
    """A symbol shaped like ``like`` from kernel output keyed by
    ``(xi key, x-monomial)``."""
    jets: Dict[TermKey, Dict] = {}
    for (key, xmono), elem in elems.items():
        jets.setdefault(key, {})[xmono] = elem
    n, cap = like.nvars, like.max_degree
    return Symbol(n, cap, like.field, {key: Jet._trusted(n, cap, terms) for key, terms in jets.items()})


def _first_dim(a: Symbol, b: Symbol) -> int:
    return coefficient_dim(next(iter(a.terms.values())), next(iter(b.terms.values())))


def symbol_product(a: Symbol, b: Symbol) -> Symbol:
    """Pointwise product (no derivatives); jet coefficients keep their order."""
    a._check(b)
    if not a.terms or not b.terms:
        return Symbol.zero(a.nvars, a.max_degree, a.field)
    xs, ys, d = operand_rows(_symbol_items(a), _symbol_items(b))
    acc: Dict = {}
    admits = _admits(a.max_degree, -math.inf)
    accumulate_admitted(acc, xs, ys, _symbol_label, admits, _symbol_pair_key)
    return _symbol_of_elements(a, reduce(_first_dim(a, b), acc, d))


def _alpha_iter(nvars: int, order: int) -> Iterable[Tuple[Tuple[int, ...], int]]:
    """Multi-indices alpha with |alpha| = order, paired with alpha!."""
    for mus in itertools.combinations_with_replacement(range(1, nvars + 1), order):
        fact = 1
        for _, grp in itertools.groupby(mus):
            fact *= math.factorial(len(list(grp)))
        yield mus, fact


def symbol_compose(
    p: Symbol, q: Symbol, lowest_degree: int, *, at_origin: bool = False
) -> Symbol:
    """Composition formula, truncated below ``lowest_degree``.

    The alpha-sum is finite: each xi-derivative lowers the degree of p by
    one, and x-derivatives annihilate q's jets beyond their truncation
    order.

    With ``at_origin`` the result is the composition evaluated at the base
    point: p and each d_x^alpha q are evaluated there before their product,
    which is exact because the constant term of a jet product is the
    product of the constant terms.

    The operands are flattened into rows once; the derivatives act on the
    rows, (-i)^{|alpha|} L/alpha! (L the lcm of the alpha! that run) is
    folded into the left numerators, and the products of every alpha are
    summed in one kernel accumulator, reduced once over d_p d_q L.
    """
    p._check(q)
    if at_origin:
        p = p.evaluate_jets_at_origin()
    if not p.terms or not q.terms:
        return Symbol.zero(p.nvars, p.max_degree, p.field)
    hi_p = max(p.degrees())
    hi_q = max(q.degrees())
    # x-derivatives annihilate q beyond its actual jet content
    q_content = max(
        (sum(mono) for jet in q.terms.values() for mono in jet.terms), default=0
    )
    # an alpha of order above hi_p + hi_q - lowest_degree only reaches
    # degrees below lowest_degree
    cap = min(p.max_degree, q_content, hi_p + hi_q - lowest_degree)
    alphas = [
        (order, mus, fact)
        for order in range(cap + 1)
        for mus, fact in _alpha_iter(p.nvars, order)
    ]
    p_rows, q_rows, d = operand_rows(_symbol_items(p), _symbol_items(q))
    scale = math.lcm(*(fact for _, _, fact in alphas))
    admits = _admits(p.max_degree, lowest_degree)
    acc: Dict = {}
    for order, mus, fact in alphas:
        dq = q_rows
        for mu in mus:
            dq = _x_derivative_rows(dq, mu - 1)
        if at_origin:
            dq = [row for row in dq if row[0][4] == 0]
        if not dq:
            continue
        dp = p_rows
        for mu in mus:
            dp = _xi_derivative_rows(dp, mu - 1)
        if not dp:
            continue
        c = scale // fact
        dp = [(key, *_row_times(q, row, c, order)) for key, q, row in dp]
        accumulate_admitted(acc, dp, dq, _symbol_label, admits, _symbol_pair_key)
    return _symbol_of_elements(p, reduce(_first_dim(p, q), acc, d * scale))


def norm_squared_symbol(nvars: int, max_degree: int, field, dim: int, power: int = 1) -> Symbol:
    """|xi|^{2 power} with unit coefficient."""
    jet = Jet.constant(nvars, max_degree, CliffordElement.scalar(dim, field.one))
    return Symbol(nvars, max_degree, field, {((0,) * nvars, power): jet})


def symbol_invert_order2(p: Symbol) -> Tuple[Symbol, Symbol]:
    """Two-term inverse of a symbol with degrees {2, 1} (degree 0 ignored).

    Returns (q_{-2}, q_{-3}) with

        q_{-2} = p_2^{-1}
        q_{-3} = -q_{-2} ( p_1 q_{-2} - i sum_j d_xi_j(p_2) d_x_j(q_{-2}) ).

    q_{-2} is exact to the jet order ``max_degree``.  q_{-3} contains
    d_x q_{-2}, which is known only to order ``max_degree - 1``, so q_{-3}
    is returned to that order (its jets carry nothing beyond it): at the
    base point for linear jets, through first order for quadratic ones.

    p_2 may carry its flat part either as jet * |xi|^2 or spread over
    quadratic monomials A_jk(x) xi_j xi_k; invertibility at the base point
    requires A_jk(0) to be a scalar multiple of the identity form.  The
    remainder must vanish at x = 0, which makes the geometric series for
    p_2^{-1} finite in the jet order.  The frame dimension is that of p's
    coefficients.
    """
    p2 = p.take_degree(2)
    p1 = p.take_degree(1)
    nvars, max_degree, field = p.nvars, p.max_degree, p.field
    dim = _symbol_dim(p)
    zero_mono = (0,) * nvars
    zero_jet = Jet(nvars, max_degree, {})

    base_jet = zero_jet
    quad: Dict[XiMono, Jet] = {}
    for (mono, k), jet in p2.terms.items():
        if not jet.is_scalar_valued():
            raise ValueError("leading symbol must have Clifford-scalar coefficients")
        if mono == zero_mono and k == 1:
            base_jet = base_jet + jet
        elif k == 0 and sum(mono) == 2:
            quad[mono] = quad.get(mono, zero_jet) + jet
        else:
            raise ValueError(f"unsupported degree-2 term shape {(mono, k)}")

    # split a common scalar lambda * delta_jk off the quadratic monomials;
    # in float mode allow rounding residue of the field's tolerance times
    # the largest base-point coefficient of the leading form, the only
    # values compared
    tol = field.tolerance
    if tol:
        tol *= max(jet.value_at_origin(dim).max_abs() for jet in [*quad.values(), base_jet])
    lam = None
    for j in range(nvars):
        mono = tuple(2 if i == j else 0 for i in range(nvars))
        c0_elem = quad.get(mono, zero_jet).value_at_origin(dim)
        c0 = c0_elem.coefficient(0)
        c0 = field.of(0) if c0 is None else c0
        if lam is None:
            lam = c0
        elif lam != c0 and not (tol and abs(lam - c0) <= tol):
            raise ValueError("leading quadratic form is not scalar at the base point")
    for mono, jet in quad.items():
        if max(mono) == 2:
            continue
        mixed0 = jet.value_at_origin(dim)
        if not mixed0.is_zero() and not (tol and mixed0.max_abs() <= tol):
            raise ValueError(
                "leading quadratic form has a mixed xi_j xi_k term at the base point"
            )

    lead = base_jet + Jet.constant(nvars, max_degree, CliffordElement.scalar(dim, lam))
    c0 = lead.value_at_origin(dim).coefficient(0)
    if c0 is None or not bool(c0):
        raise ValueError("leading symbol vanishes at the base point; cannot invert")

    # remainder N = p2 - lead * |xi|^2 with representation chosen so that
    # every jet vanishes at the base point (series then terminates)
    n_terms: Dict[TermKey, Jet] = {}
    for mono, jet in quad.items():
        if max(mono) == 2 and sum(mono) == 2:
            j = jet - Jet.constant(nvars, max_degree, CliffordElement.scalar(dim, lam))
        else:
            j = jet
        if not j.is_zero():
            n_terms[(mono, 0)] = j

    inv_jet = invert_scalar_jet(lead, field)
    base_inv = Symbol(nvars, max_degree, field, {(zero_mono, -1): inv_jet})
    if n_terms:
        n_sym = Symbol(nvars, max_degree, field, n_terms)
        # p2 = lead |xi|^2 + N  =>  p2^{-1} = base_inv * sum_k (-N base_inv)^k
        seed = symbol_product(n_sym, base_inv).scale(field.of(-1))
        series = norm_squared_symbol(nvars, max_degree, field, dim, 0)
        power = series
        for _ in range(max_degree):
            power = symbol_product(power, seed)
            if not power.terms:
                break
            series = series + power
        q2 = symbol_product(base_inv, series)
    else:
        q2 = base_inv

    # d_x q_{-2} is known only to order max_degree - 1, so q_{-3} is formed
    # from factors truncated to that order and kept to it
    valid = max_degree - 1
    q2_low = q2.truncate_jets(valid)
    bracket = symbol_product(p1.truncate_jets(valid), q2_low)
    p2_low = p2.truncate_jets(valid)
    corr = Symbol.zero(nvars, max_degree, field)
    for mu in range(1, nvars + 1):
        corr = corr + symbol_product(p2_low.partial_xi(mu), q2.partial_x(mu))
    bracket = bracket - corr.scale(field.i)
    q3 = symbol_product(q2_low, bracket).scale(field.of(-1)).truncate_jets(valid)
    return q2, q3


def symbol_square_to_invert(p: Symbol) -> Symbol:
    """sigma_2 + sigma_1 of p o p, for a first-order symbol p with
    first-order jets, only as deep in jets as ``symbol_invert_order2``
    reads them.

    sigma_2 keeps its jets, because q_{-2} and d_x q_{-2} come from it; its
    alpha-sum is alpha = 0 alone.  sigma_1 enters q_{-3} only, which is
    kept at the base point, so sigma_1 is composed there.
    """
    if p.max_degree != 1:
        raise ValueError(f"expected first-order jets, got order {p.max_degree}")
    sigma1 = symbol_compose(p, p, 1, at_origin=True).take_degree(1)
    return symbol_compose(p, p, 2) + sigma1


def power_expansion(q2: Symbol, dq2: List[Symbol], m: int) -> Tuple[List[Symbol], Symbol]:
    """The powers q_{-2}^0..q_{-2}^m and the power-cross sum

        sum_{k=0}^{m-2} sum_mu d_xi_mu(q_{-2}^{m-k-1}) d_x_mu(q_{-2}) q_{-2}^k,

    with ``dq2[mu - 1]`` the x-derivative d_x_mu(q_{-2}).  Only products are
    taken, so symbols already evaluated at the base point stay there.
    """
    powers = [norm_squared_symbol(q2.nvars, q2.max_degree, q2.field, _symbol_dim(q2), 0)]
    for _ in range(m):
        powers.append(symbol_product(powers[-1], q2))
    cross = Symbol.zero(q2.nvars, q2.max_degree, q2.field)
    for k in range(0, m - 1):
        for mu in range(1, q2.nvars + 1):
            cross = cross + symbol_product(
                symbol_product(powers[m - k - 1].partial_xi(mu), dq2[mu - 1]),
                powers[k],
            )
    return powers, cross


def _symbol_dim(s: Symbol) -> int:
    for jet in s.terms.values():
        for coeff in jet.terms.values():
            return coeff.dim
    return s.nvars


# -- exact equality ---------------------------------------------------------


def _expand_norm_power(nvars: int, p: int) -> Dict[XiMono, int]:
    """Monomial expansion of (sum_i xi_i^2)^p."""
    out: Dict[XiMono, int] = {}
    for combo in itertools.combinations_with_replacement(range(nvars), p):
        counts = [0] * nvars
        for c in combo:
            counts[c] += 1
        coeff = math.factorial(p)
        for c in counts:
            coeff //= math.factorial(c)
        mono = tuple(2 * c for c in counts)
        out[mono] = out.get(mono, 0) + coeff
    return out


def _normal_coefficients(s: Symbol) -> Iterable:
    """The coefficients of ``s`` with the relation sum_i xi_i^2 = |xi|^2
    taken out, so that ``s`` is zero exactly when all of them are.

    Terms are grouped by (homogeneity degree, x-monomial, blade); within a
    group the lowest norm power is cleared by expanding (sum xi_i^2)^j, and
    the coefficients of the resulting polynomial are yielded group by group.
    """
    groups: Dict[Tuple[int, Tuple[int, ...], int], Dict[TermKey, object]] = {}
    for (mono, k), jet in s.terms.items():
        deg = sum(mono) + 2 * k
        for xmono, coeff in jet.terms.items():
            for blade, scalar in coeff.terms.items():
                g = groups.setdefault((deg, xmono, blade), {})
                key = (mono, k)
                if key in g:
                    g[key] = g[key] + scalar
                else:
                    g[key] = scalar
    for (_, _, _), parts in groups.items():
        kmin = min(k for (_, k) in parts)
        poly: Dict[XiMono, object] = {}
        for (mono, k), scalar in parts.items():
            for extra, mult in _expand_norm_power(len(mono), k - kmin).items():
                key = tuple(a + b for a, b in zip(mono, extra))
                add = scalar * mult
                if key in poly:
                    poly[key] = poly[key] + add
                else:
                    poly[key] = add
        yield from poly.values()


def symbol_is_zero(s: Symbol) -> bool:
    """Exact zero test modulo the relation sum_i xi_i^2 = |xi|^2."""
    return not any(_normal_coefficients(s))


def symbol_residual(a: Symbol, b: Symbol) -> float:
    """The largest normal-form coefficient magnitude of ``a - b``: what a
    failed ``symbols_equal`` leaves over, independent of how the norm
    powers of either side are written."""
    return max((abs(complex(val)) for val in _normal_coefficients(a - b)), default=0.0)


def _max_coefficient(s: Symbol) -> float:
    """The largest coefficient magnitude in a symbol, 0.0 if it is empty."""
    mx = 0.0
    for jet in s.terms.values():
        for elem in jet.terms.values():
            mx = max(mx, elem.max_abs())
    return mx


def symbols_equal(a: Symbol, b: Symbol) -> bool:
    """Equality in the operands' field: exact, or in float mode every
    normal-form coefficient of ``a - b`` within the field's tolerance
    relative to the largest coefficient of either operand (1.0 if both are
    zero)."""
    tol = a.field.tolerance
    if not tol:
        return symbol_is_zero(a - b)
    tol *= max(_max_coefficient(a), _max_coefficient(b)) or 1.0
    return all(abs(complex(val)) <= tol for val in _normal_coefficients(a - b))
