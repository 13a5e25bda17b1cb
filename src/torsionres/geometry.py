"""Concrete geometric symbols at the base point in normal coordinates.

Two sub-models live here.

* The curved scalar model: metric jets g_ab = delta_ab - (1/3) R_acbd x^c x^d
  (plus inverse and volume factor) and the Laplacian built from them, in
  exact arithmetic.  It exercises the quadratic jets and the inverse-symbol
  recursion.

* The rescaled-Dirac model: normal coordinates are hard-wired at the base
  point (metric delta, vanishing metric first derivatives and spin
  connection), the rescaling field V enters through its value and
  Jacobian, and X by value only.  Jets are first order and kept only where
  an x-derivative is taken: sigma_1 of the operator and sigma_2 of its
  square (hence q_{-2}).  sigma_0 of the operator and sigma_1 of the
  square are read only at the base point and built there.  Curvature
  corrections are dropped here; they only enter the torsion densities at
  orders that vanish at the base point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .clifford import CliffordElement, FrameVector, clifford_of_vector
from .jets import Jet, invert_scalar_jet
from .scalars import EXACT, _reduced, field_for_mode
from .symbols import Symbol, symbol_invert_order2, symbol_residual, symbols_equal


class VerificationError(AssertionError):
    """A symbolic identity check failed; the message carries the residual."""


def require_symbols_equal(a: Symbol, b: Symbol, message: str) -> None:
    """Raise ``VerificationError`` with ``message`` and the residual unless
    ``symbols_equal(a, b)``."""
    if not symbols_equal(a, b):
        raise VerificationError(f"{message} (residual {symbol_residual(a, b):.6g})")


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


_ORBIT_SIGNS = (
    ((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1), ((1, 0, 3, 2), 1),
    ((2, 3, 0, 1), 1), ((3, 2, 0, 1), -1), ((2, 3, 1, 0), -1), ((3, 2, 1, 0), 1),
)


@dataclass
class CurvatureData:
    """Components R_acbd of an algebraic curvature tensor (1-based indices).

    The index convention follows the metric expansion: antisymmetry in
    (a,c) and (b,d), pair symmetry (a,c)<->(b,d), and the first Bianchi
    identity R_acbd + R_abdc + R_adcb = 0, all validated on construction.

    Validation runs on the integer numerators of the components over one
    common denominator, and on the tensor's support only.  A Bianchi sum at
    (a,c,b,d) can be nonzero only if one of its three terms is a stored
    component, so each stored (x,y,z,w) names the three tuples (x,y,z,w),
    (x,w,y,z) and (x,z,w,y) to check.  They are checked in sorted order: the
    first violation reported is the first in the order of all n^4 tuples.
    """

    n: int
    components: Dict[Tuple[int, int, int, int], Fraction]

    def __post_init__(self):
        self.components = {
            k: v if isinstance(v, Fraction) else Fraction(v)
            for k, v in self.components.items() if v != 0
        }
        for (a, c, b, d) in self.components:
            for idx in (a, c, b, d):
                if not 1 <= idx <= self.n:
                    raise ValueError(f"curvature index {idx} out of range 1..{self.n}")
        self._validate()

    def value(self, a: int, c: int, b: int, d: int) -> Fraction:
        return self.components.get((a, c, b, d), Fraction(0))

    def _validate(self):
        den = math.lcm(*(v.denominator for v in self.components.values()))
        num = {k: v.numerator * (den // v.denominator) for k, v in self.components.items()}
        get = num.get
        for (a, c, b, d), v in num.items():
            if get((c, a, b, d), 0) != -v or get((a, c, d, b), 0) != -v:
                raise ValueError(f"curvature antisymmetry violated at {(a, c, b, d)}")
            if get((b, d, a, c), 0) != v:
                raise ValueError(f"curvature pair symmetry violated at {(a, c, b, d)}")
        candidates = set(num)
        candidates.update((x, w, y, z) for (x, y, z, w) in num)
        candidates.update((x, z, w, y) for (x, y, z, w) in num)
        for (a, c, b, d) in sorted(candidates):
            if get((a, c, b, d), 0) + get((a, b, d, c), 0) + get((a, d, c, b), 0):
                raise ValueError(f"first Bianchi identity violated at {(a, c, b, d)}")

    @staticmethod
    def from_entries(
        n: int, entries: Dict[Tuple[int, int, int, int], Fraction]
    ) -> "CurvatureData":
        """Complete each given component over its symmetry orbit."""
        comps: Dict[Tuple[int, int, int, int], Fraction] = {}
        for key, v in entries.items():
            v = Fraction(v)
            for perm, sign in _ORBIT_SIGNS:
                k2 = tuple(key[p] for p in perm)
                val = sign * v
                if k2 in comps and comps[k2] != val:
                    raise ValueError(f"conflicting orbit completion at {k2}")
                comps[k2] = val
        return CurvatureData(n, comps)

    def ricci(self) -> Dict[Tuple[int, int], Fraction]:
        """Ric_cd = sum_a R_acad (the contraction fixed by the Laplacian check)."""
        sums: Dict[Tuple[int, int], Fraction] = {}
        for (a, c, b, d), v in self.components.items():
            if a == b:
                sums[(c, d)] = sums.get((c, d), 0) + v
        return {cd: sums[cd] for cd in sorted(sums) if sums[cd] != 0}


def random_curvature(n: int, rng: random.Random, terms: int = 2) -> CurvatureData:
    """Random admissible curvature via Kulkarni-Nomizu products of symmetric tensors.

    Every entry of the symmetric tensors is p/q with q in {1, 2}, so the
    products run on the doubled entries in plain ints and each component is
    their sum over 4.
    """

    def doubled_sym_matrix() -> List[List[int]]:
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                p = rng.randint(-2, 2)
                v = 2 * p // rng.randint(1, 2)
                mat[i][j] = v
                mat[j][i] = v
        return mat

    sums: Dict[Tuple[int, int, int, int], int] = {}
    for _ in range(terms):
        h, k = doubled_sym_matrix(), doubled_sym_matrix()
        for a in range(n):
            ha, ka = h[a], k[a]
            for c in range(n):
                if c == a:
                    continue  # antisymmetric in (a, c)
                hc, kc = h[c], k[c]
                for b in range(n):
                    hab, kab, hcb, kcb = ha[b], ka[b], hc[b], kc[b]
                    for d in range(n):
                        v = hab * kc[d] + hc[d] * kab - ha[d] * kcb - hcb * ka[d]
                        if v:
                            key = (a + 1, c + 1, b + 1, d + 1)
                            sums[key] = sums.get(key, 0) + v
    return CurvatureData(n, {key: Fraction(v, 4) for key, v in sums.items() if v})


# ---------------------------------------------------------------------------
# normal-coordinate metric jets and the Laplacian
# ---------------------------------------------------------------------------


@dataclass
class NormalMetricJets:
    """Quadratic jets of g_ab, g^ab and sqrt(det g) in normal coordinates,
    exact."""

    n: int
    g_lower: List[List[Jet]]
    g_upper: List[List[Jet]]
    sqrt_det: Jet


def _scalar_jet(n: int, entries: Dict[Tuple[int, ...], object]) -> Jet:
    return Jet(
        n, 2,
        {mono: CliffordElement.scalar(n, c) for mono, c in entries.items() if bool(c)},
    )


def build_metric_jets(curv: CurvatureData) -> NormalMetricJets:
    """g_ab = delta - (1/3) R_acbd x^c x^d, its inverse, and sqrt(det g)."""
    n = curv.n
    fld = EXACT
    zero_mono = (0,) * n
    monos = [
        [tuple((i == c) + (i == d) for i in range(n)) for d in range(n)] for c in range(n)
    ]
    # R_acbd x^c x^d, grouped by (a, b) in one pass over the nonzero
    # components; sorted, so that each jet lists its monomials in (c, d) order
    quadratic: Dict[Tuple[int, int], Dict[Tuple[int, ...], Fraction]] = {}
    for (a, c, b, d), v in sorted(curv.components.items()):
        group = quadratic.setdefault((a - 1, b - 1), {})
        mono = monos[c - 1][d - 1]
        group[mono] = group.get(mono, 0) + v

    def metric(sign: int) -> List[List[Jet]]:
        rows = []
        for a in range(n):
            row = []
            for b in range(n):
                entries: Dict[Tuple[int, ...], object] = {}
                if a == b:
                    entries[zero_mono] = fld.one
                for mono, v in quadratic.get((a, b), {}).items():
                    entries[mono] = _reduced(sign * v.numerator, 0, 3 * v.denominator)
                row.append(_scalar_jet(n, entries))
            rows.append(row)
        return rows

    g_lower = metric(-1)
    g_upper = metric(+1)

    sixth = Fraction(1, 6)
    entries = {zero_mono: fld.one}
    for (c, d), v in curv.ricci().items():
        mono = monos[c - 1][d - 1]
        coeff = fld.of(-sixth * v)
        entries[mono] = entries.get(mono, fld.of(0)) + coeff
    sqrt_det = _scalar_jet(n, entries)
    return NormalMetricJets(n, g_lower, g_upper, sqrt_det)


def laplacian_symbol(jets: NormalMetricJets) -> Symbol:
    """sigma_2 = g^ab xi_a xi_b, sigma_1 = (-i/sqrt g) d_a(sqrt g g^ab) xi_b, sigma_0 = 0."""
    n, fld = jets.n, EXACT
    terms: Dict[Tuple[Tuple[int, ...], int], Jet] = {}
    zero_mono = (0,) * n

    # degree 2: split off the flat |xi|^2 part so the inverter sees it
    one_jet = Jet.constant(n, 2, CliffordElement.scalar(n, fld.one))
    terms[(zero_mono, 1)] = one_jet
    for a in range(n):
        for b in range(n):
            corr = jets.g_upper[a][b] - (one_jet if a == b else Jet(n, 2, {}))
            if corr.is_zero():
                continue
            mono = tuple(
                (1 if i == a else 0) + (1 if i == b else 0) for i in range(n)
            )
            key = (mono, 0)
            terms[key] = terms.get(key, Jet(n, 2, {})) + corr

    inv_sqrt = invert_scalar_jet(jets.sqrt_det, fld)
    minus_i = fld.of(0) - fld.i
    for b in range(n):
        acc = Jet(n, 2, {})
        for a in range(n):
            acc = acc + (jets.sqrt_det * jets.g_upper[a][b]).partial_x(a + 1)
        jet = (inv_sqrt * acc).scale(minus_i)
        if jet.is_zero():
            continue
        mono = tuple(1 if i == b else 0 for i in range(n))
        key = (mono, 0)
        terms[key] = terms.get(key, Jet(n, 2, {})) + jet
    return Symbol(n, 2, fld, terms)


def laplacian_sigma1_closed_form(curv: CurvatureData) -> Symbol:
    """(2i/3) Ric_ab x^a xi_b, the normal-coordinate first-order symbol."""
    n = curv.n
    fld = EXACT
    terms: Dict[Tuple[Tuple[int, ...], int], Jet] = {}
    two_thirds_i = fld.i * fld.of(Fraction(2, 3))
    for (a, b), v in curv.ricci().items():
        jet = Jet.coordinate(n, 2, a, CliffordElement.scalar(n, two_thirds_i * fld.of(v)))
        mono = tuple(1 if i == b - 1 else 0 for i in range(n))
        key = (mono, 0)
        terms[key] = terms.get(key, Jet(n, 2, {})) + jet
    return Symbol(n, 2, fld, terms)


def laplacian_inverse_closed_forms(
    jets: NormalMetricJets, sigma1_closed: Symbol
) -> Tuple[Symbol, Symbol]:
    """Target symbols for the inverse Laplacian in normal coordinates.

    sigma_{-2} = |xi|^{-4} (delta_ab - (1/3) R_acbd x^c x^d) xi_a xi_b
    sigma_{-3} = -(2i/3) Ric_ab x^a xi_b |xi|^{-4}

    Both come from what the check has already built: the metric jets, and
    ``sigma1_closed`` from ``laplacian_sigma1_closed_form``.
    """
    n, fld = jets.n, EXACT
    terms: Dict[Tuple[Tuple[int, ...], int], Jet] = {}
    zero_mono = (0,) * n
    one_jet = Jet.constant(n, 2, CliffordElement.scalar(n, fld.one))
    terms[(zero_mono, -1)] = one_jet
    for a in range(n):
        for b in range(n):
            corr = jets.g_lower[a][b] - (one_jet if a == b else Jet(n, 2, {}))
            if corr.is_zero():
                continue
            mono = tuple((1 if i == a else 0) + (1 if i == b else 0) for i in range(n))
            key = (mono, -2)
            terms[key] = terms.get(key, Jet(n, 2, {})) + corr
    q2_closed = Symbol(n, 2, fld, terms)
    q3_closed = Symbol(
        n, 2, fld,
        {
            (mono, k - 2): jet.scale(fld.of(-1))
            for (mono, k), jet in sigma1_closed.terms.items()
        },
    )
    return q2_closed, q3_closed


def laplacian_inverse_check(curv: CurvatureData) -> Tuple[Symbol, Symbol]:
    """Invert the jet-built Laplacian and compare with the closed forms.

    The recursion output is exact to the carried jet order: q_{-2} to
    quadratic order, q_{-3} to linear order.  Raises VerificationError
    with the offending residual if either comparison fails.
    """
    jets = build_metric_jets(curv)
    sym = laplacian_symbol(jets)
    q2, q3 = symbol_invert_order2(sym)
    sigma1_closed = laplacian_sigma1_closed_form(curv)
    q2_closed, q3_closed = laplacian_inverse_closed_forms(jets, sigma1_closed)

    require_symbols_equal(
        sym.take_degree(1), sigma1_closed,
        "jet-built sigma_1 of the Laplacian is off closed form",
    )
    require_symbols_equal(q2, q2_closed, "sigma_-2 mismatch")
    require_symbols_equal(q3, q3_closed, "sigma_-3 mismatch")
    return q2, q3


# ---------------------------------------------------------------------------
# scenarios for the rescaled Dirac operator
# ---------------------------------------------------------------------------


@dataclass
class VectorFieldJet:
    """A vector field's value and Jacobian at the base point.

    ``jacobian[j][alpha]`` is the derivative of component alpha along
    direction j (both 0-based rows/columns over the same frame).
    """

    value: FrameVector
    jacobian: Tuple[Tuple[object, ...], ...]

    def __post_init__(self):
        n = self.value.dim
        self.jacobian = tuple(tuple(row) for row in self.jacobian)
        if len(self.jacobian) != n or any(len(r) != n for r in self.jacobian):
            raise ValueError(f"jacobian must be {n}x{n}")

    @property
    def dim(self) -> int:
        return self.value.dim

    def norm_sq(self):
        """|V|^2 at the base point."""
        return self.value.dot(self.value)

    def d_norm_sq(self) -> FrameVector:
        """The frame vector d|V|^2, components 2 sum_a V_a dV_a/dx_j."""
        n = self.dim
        comps = []
        for j in range(n):
            total = self.value.components[0] * self.jacobian[j][0]
            for a in range(1, n):
                total = total + self.value.components[a] * self.jacobian[j][a]
            comps.append(2 * total)
        return FrameVector(n, tuple(comps))

    def directional(self, a: FrameVector) -> FrameVector:
        """The covariant derivative of the field along a at the base point."""
        n = self.dim
        comps = []
        for alpha in range(n):
            total = a.components[0] * self.jacobian[0][alpha]
            for j in range(1, n):
                total = total + a.components[j] * self.jacobian[j][alpha]
            comps.append(total)
        return FrameVector(n, tuple(comps))

    def divergence(self):
        total = self.jacobian[0][0]
        for j in range(1, self.dim):
            total = total + self.jacobian[j][j]
        return total

    def row(self, j: int) -> FrameVector:
        return FrameVector(self.dim, self.jacobian[j])


@dataclass
class Scenario:
    """Pointwise data defining one torsion-density evaluation."""

    m: int
    mode: str
    V: VectorFieldJet
    X: FrameVector
    u: FrameVector
    v: FrameVector
    w: FrameVector
    seed: Optional[int] = None

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"m must be at least 2, got {self.m}")
        n = 2 * self.m
        for name in ("X", "u", "v", "w"):
            vec = getattr(self, name)
            if vec.dim != n:
                raise ValueError(f"{name} has dimension {vec.dim}, expected {n}")
        if self.V.dim != n:
            raise ValueError(f"V has dimension {self.V.dim}, expected {n}")
        if not bool(self.V.norm_sq()):
            raise ValueError("vector field V is zero: |V|^2 must be positive")

    @property
    def n(self) -> int:
        return 2 * self.m

    @property
    def field(self):
        return field_for_mode(self.mode)


def clifford_field_jet(V: VectorFieldJet) -> Jet:
    """c(V(x)) = c(V_0) + sum_j x_j c(dV/dx_j), exact for a linear field."""
    n = V.dim
    terms = {(0,) * n: clifford_of_vector(V.value)}
    for j in range(n):
        row = clifford_of_vector(V.row(j))
        if row.is_zero():
            continue
        mono = tuple(1 if i == j else 0 for i in range(n))
        terms[mono] = row
    return Jet(n, 1, terms)


def norm_sq_jet(V: VectorFieldJet) -> Jet:
    """|V(x)|^2 to first order: |V_0|^2 + sum_j x_j d_j|V|^2."""
    n = V.dim
    d = V.d_norm_sq()
    terms = {(0,) * n: CliffordElement.scalar(n, V.norm_sq())}
    for j in range(n):
        c = d.components[j]
        if bool(c):
            mono = tuple(1 if i == j else 0 for i in range(n))
            terms[mono] = CliffordElement.scalar(n, c)
    return Jet(n, 1, terms)


def _base_point_symbol(
    n: int, fld, elements: Dict[Tuple[Tuple[int, ...], int], CliffordElement]
) -> Symbol:
    """A symbol whose coefficients are constant jets."""
    return Symbol(n, 1, fld, {key: Jet.constant(n, 1, c) for key, c in elements.items()})


def rescaled_dirac_symbols(s: Scenario) -> Symbol:
    """Symbols of c(V)(D + i c(X))c(V) in normal coordinates at the base point.

    sigma_1 = i sum_j c(V) c(e_j) c(V) xi_j
    sigma_0 = sum_j c(V) c(e_j) d_j[c(V)] + i c(V) c(X) c(V)

    sigma_1 keeps its first-order jets, since H3 and the oracle take its
    x-derivative.  sigma_0 is only read at the base point and is built
    there.  The spin-connection contribution to sigma_0 vanishes at the
    base point and is not modelled.
    """
    n, fld = s.n, s.field
    cV = clifford_field_jet(s.V)
    terms: Dict[Tuple[Tuple[int, ...], int], Jet] = {}
    for j in range(n):
        ej = CliffordElement.basis(n, j + 1, fld.one)
        jet = (cV * Jet.constant(n, 1, ej) * cV).scale(fld.i)
        if jet.is_zero():
            continue
        mono = tuple(1 if i == j else 0 for i in range(n))
        terms[(mono, 0)] = jet

    cV0 = clifford_of_vector(s.V.value)
    sigma0 = CliffordElement.zero(n)
    for j in range(n):
        dj = clifford_of_vector(s.V.row(j))
        if dj.is_zero():
            continue
        sigma0 = sigma0 + cV0 * CliffordElement.basis(n, j + 1, fld.one) * dj
    if not s.X.is_zero():
        sigma0 = sigma0 + (cV0 * clifford_of_vector(s.X) * cV0).scale(fld.i)
    if not sigma0.is_zero():
        terms[((0,) * n, 0)] = Jet.constant(n, 1, sigma0)
    return Symbol(n, 1, fld, terms)


def rescaled_dirac_square_sigma1_pieces(s: Scenario) -> Dict[str, Symbol]:
    """The first-order symbol of the square at the base point, split the
    way the density pipeline groups it:

    vector_gradient : 2i |V|^2 c(V) sum_j d_j[c(V)] xi_j
    x_field         : |V|^2 c(V) [ c(e_j) c(X) c(V) + c(X) c(e_j) c(V) ] xi_j
    norm_gradient   : -i c(V) c(d|V|^2) sum_j c(e_j) c(V) xi_j

    Every reader takes these at the base point (the inverse keeps q_{-3}
    there), so they are built from base-point values.
    """
    n, fld = s.n, s.field
    cV = clifford_of_vector(s.V.value)
    w2cV = CliffordElement.scalar(n, s.V.norm_sq()) * cV
    basis = [CliffordElement.basis(n, j + 1, fld.one) for j in range(n)]
    monos = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    pieces: Dict[str, Symbol] = {}

    two_i = fld.i * fld.of(2)
    grad_terms: Dict[Tuple[Tuple[int, ...], int], CliffordElement] = {}
    for j in range(n):
        dj = clifford_of_vector(s.V.row(j))
        if not dj.is_zero():
            grad_terms[(monos[j], 0)] = (w2cV * dj).scale(two_i)
    pieces["vector_gradient"] = _base_point_symbol(n, fld, grad_terms)

    x_terms: Dict[Tuple[Tuple[int, ...], int], CliffordElement] = {}
    if not s.X.is_zero():
        cX = clifford_of_vector(s.X)
        w2cVcX = w2cV * cX
        for j in range(n):
            x_terms[(monos[j], 0)] = w2cV * basis[j] * cX * cV + w2cVcX * basis[j] * cV
    pieces["x_field"] = _base_point_symbol(n, fld, x_terms)

    d_terms: Dict[Tuple[Tuple[int, ...], int], CliffordElement] = {}
    c_d = clifford_of_vector(s.V.d_norm_sq())
    if not c_d.is_zero():
        minus_i = fld.of(0) - fld.i
        cVc_d = cV * c_d
        for j in range(n):
            d_terms[(monos[j], 0)] = (cVc_d * basis[j] * cV).scale(minus_i)
    pieces["norm_gradient"] = _base_point_symbol(n, fld, d_terms)
    return pieces


def rescaled_dirac_square_symbols(s: Scenario, pieces: Dict[str, Symbol]) -> Symbol:
    """Closed-form symbols of the squared operator: sigma_2 = |V|^4 |xi|^2,
    with first-order jets, plus the three first-order groups at the base
    point (``pieces``, from ``rescaled_dirac_square_sigma1_pieces``);
    Christoffel/connection terms vanish at the base point."""
    n, fld = s.n, s.field
    w2 = norm_sq_jet(s.V)
    sym = Symbol(n, 1, fld, {((0,) * n, 1): w2 * w2})
    for piece in pieces.values():
        sym = sym + piece
    return sym


def rescaled_dirac_inverse_closed_forms(s: Scenario, square: Symbol) -> Tuple[Symbol, Symbol]:
    """Closed-form inverse symbols of the squared operator, q_{-2} with
    first-order jets and q_{-3} at the base point.

    q_{-2} = |V|^{-4} |xi|^{-2}
    q_{-3} = -|V|^{-8} |xi|^{-4} sigma_1(square) + 2i |xi|^{-4} xi_mu d_mu(|V|^{-4})

    sigma_1(square) is read from ``square``, the symbols of
    ``rescaled_dirac_square_symbols``.
    """
    n, fld = s.n, s.field
    w2 = norm_sq_jet(s.V)
    w4_inv = invert_scalar_jet(w2 * w2, fld)
    w4_inv_0 = w4_inv.value_at_origin(n)
    w8_inv = w4_inv_0 * w4_inv_0
    q2 = Symbol(n, 1, fld, {((0,) * n, -1): w4_inv})

    q3 = Symbol.zero(n, 1, fld)
    minus_one = fld.of(-1)
    for (mono, k), jet in square.take_degree(1).terms.items():
        q3 = q3 + _base_point_symbol(
            n, fld, {(mono, k - 2): (w8_inv * jet.value_at_origin(n)).scale(minus_one)}
        )
    two_i = fld.i * fld.of(2)
    for mu in range(n):
        dj = w4_inv.partial_x(mu + 1)
        if dj.is_zero():
            continue
        mono = tuple(1 if i == mu else 0 for i in range(n))
        q3 = q3 + Symbol(n, 1, fld, {(mono, -2): dj.scale(two_i)})
    return q2, q3


def rescaled_dirac_inverse_symbols(s: Scenario, square: Symbol) -> Tuple[Symbol, Symbol]:
    """Invert the squared-operator symbol ``square`` and confirm the closed
    forms: q_{-2} through first jet order, q_{-3} at the base point (its
    value already carries the first derivatives of V)."""
    q2, q3 = symbol_invert_order2(square)
    q2_closed, q3_closed = rescaled_dirac_inverse_closed_forms(s, square)
    require_symbols_equal(
        q2, q2_closed, "q_{-2} recursion does not match |V|^{-4}|xi|^{-2}"
    )
    require_symbols_equal(q3, q3_closed, "q_{-3} recursion does not match its closed form")
    return q2, q3


def plain_dirac_symbols(m: int) -> Symbol:
    """Exact symbols of the plain Dirac operator at the base point: i c(xi)
    and 0."""
    n = 2 * m
    fld = EXACT
    terms: Dict[Tuple[Tuple[int, ...], int], Jet] = {}
    for j in range(n):
        ej = CliffordElement.basis(n, j + 1, fld.one)
        mono = tuple(1 if i == j else 0 for i in range(n))
        terms[(mono, 0)] = Jet.constant(n, 1, ej.scale(fld.i))
    return Symbol(n, 1, fld, terms)


# ---------------------------------------------------------------------------
# random scenarios
# ---------------------------------------------------------------------------


def _random_components(n: int, mode: str, rng: random.Random) -> Tuple:
    if mode == "exact":
        return tuple(
            EXACT.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(n)
        )
    return tuple(complex(rng.gauss(0.0, 1.0)) for _ in range(n))


def random_scenario(m: int, mode: str, rng: random.Random) -> Scenario:
    """Draw a scenario with small rational (exact) or normal (float) entries."""
    n = 2 * m
    while True:
        value = FrameVector(n, _random_components(n, mode, rng))
        if bool(value.dot(value)):
            break
    jac = tuple(_random_components(n, mode, rng) for _ in range(n))
    return Scenario(
        m=m,
        mode=mode,
        V=VectorFieldJet(value, jac),
        X=FrameVector(n, _random_components(n, mode, rng)),
        u=FrameVector(n, _random_components(n, mode, rng)),
        v=FrameVector(n, _random_components(n, mode, rng)),
        w=FrameVector(n, _random_components(n, mode, rng)),
    )
