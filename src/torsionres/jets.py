"""Truncated polynomial jets in the normal coordinates around the base point.

A jet is a polynomial in x_1..x_n of total degree at most ``max_degree``
(0, 1 or 2 in this engine) whose coefficients are Clifford elements;
scalar-valued jets are simply multiples of the empty blade.  Products
truncate beyond the degree cap, and coefficient multiplication goes
through the (noncommutative) Clifford product, so jet factors are never
reordered.  A product, exact or float, runs in the row kernel of
``clifford`` keyed by monomial (an exact coefficient gives a real and an
imaginary row): the numerators of all Clifford products that land on one
output monomial are summed before a single reduction per blade.  Only
row pairs whose x-degrees add up to at most the cap reach the kernel
(``accumulate_admitted``, shared with the symbol products of
``symbols``), in the order of the rows, which go by x-degree.  A sum of
several products, such as a Leibniz expansion, goes through the same
kernel in one accumulator (``sum_of_products``), reduced once; a single
product is the sum of one pair.
"""

from __future__ import annotations

from operator import add
from typing import Dict, Sequence, Tuple

from .clifford import CliffordElement, accumulate, operand_rows, reduce

Monomial = Tuple[int, ...]


def _zero_mono(n: int) -> Monomial:
    return (0,) * n


def _mono_degree(mono: Monomial) -> int:
    return sum(mono)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def accumulate_admitted(acc, xs, ys, label, admits, combine) -> None:
    """``accumulate`` on the pairs of rows of ``xs`` and ``ys`` whose key
    labels ``admits(label(key_a), label(key_b))`` allows.

    Each left row meets the right rows its label admits, in their order,
    so the pairs that are kept run in the same order as over all pairs.
    Consecutive left rows that admit the same right rows go to the kernel
    in one call.
    """
    y_labels = [label(row[0]) for row in ys]
    partners = {}
    run, run_ys = [], ys
    for row in xs:
        la = label(row[0])
        admitted = partners.get(la)
        if admitted is None:
            admitted = [y for y, lb in zip(ys, y_labels) if admits(la, lb)]
            if len(admitted) == len(ys):
                admitted = ys
            partners[la] = admitted
        if admitted is not run_ys:
            if run and run_ys:
                accumulate(acc, run, run_ys, combine)
            run, run_ys = [], admitted
        run.append(row)
    if run and run_ys:
        accumulate(acc, run, run_ys, combine)


def _x_degree(key) -> int:
    """The label of a jet row: its x-degree, the last key entry."""
    return key[-1]


def _within_cap(cap: int):
    """The ``admits`` rule of rows labelled by x-degree: the degrees add up
    to at most the jet cap ``cap``."""
    return lambda a, b: a + b <= cap


def _jet_items(jet: "Jet", pair: int):
    """The ``(key, element)`` items of a jet's rows, one per monomial, keyed
    by ``(monomial, pair, degree)`` and in order of degree, which fixes the
    order of float sums; ``pair`` names the product the jet is a factor of."""
    by_degree = [[] for _ in range(jet.max_degree + 1)]
    for mono, elem in jet.terms.items():
        degree = _mono_degree(mono)
        by_degree[degree].append(((mono, pair, degree), elem))
    return [item for items in by_degree for item in items]


def _jet_pair_key(ka, kb) -> Monomial:
    """The key rule of a jet product: the product monomial."""
    return _mono_mul(ka[0], kb[0])


def coefficient_dim(*jets: "Jet") -> int:
    """The frame dimension shared by the coefficients of nonempty jets."""
    dims = {next(iter(j.terms.values())).dim for j in jets}
    if len(dims) != 1:
        raise ValueError(f"Clifford dimension mismatch: {sorted(dims)}")
    return dims.pop()


class Jet:
    """Clifford-coefficient polynomial truncated at ``max_degree``."""

    __slots__ = ("nvars", "max_degree", "terms")

    def __init__(self, nvars: int, max_degree: int, terms: Dict[Monomial, CliffordElement] | None = None):
        self.nvars = nvars
        self.max_degree = max_degree
        self.terms: Dict[Monomial, CliffordElement] = {}
        for mono, coeff in (terms or {}).items():
            if _mono_degree(mono) > max_degree or coeff.is_zero():
                continue
            self.terms[mono] = coeff

    @classmethod
    def _trusted(cls, nvars: int, max_degree: int, terms: Dict[Monomial, CliffordElement]) -> "Jet":
        """Wrap ``terms`` as they are: the caller guarantees no zero
        coefficient and no monomial beyond ``max_degree``."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.max_degree = max_degree
        out.terms = terms
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(nvars: int, max_degree: int, coeff: CliffordElement) -> "Jet":
        return Jet(nvars, max_degree, {_zero_mono(nvars): coeff})

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Jet"):
        if self.nvars != other.nvars or self.max_degree != other.max_degree:
            raise ValueError(
                "jet mismatch: "
                f"({self.nvars} vars, deg {self.max_degree}) vs "
                f"({other.nvars} vars, deg {other.max_degree})"
            )

    def __add__(self, other: "Jet") -> "Jet":
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono)
            out[mono] = coeff if s is None else s + coeff
        return Jet(self.nvars, self.max_degree, out)

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def __neg__(self) -> "Jet":
        return Jet(self.nvars, self.max_degree, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Jet") -> "Jet":
        """Truncated product; coefficients multiply in the given order."""
        return sum_of_products(((self, other),))

    def scale(self, s) -> "Jet":
        return Jet(self.nvars, self.max_degree, {m: c.scale(s) for m, c in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def partial_x(self, mu: int) -> "Jet":
        """Formal d/dx_mu (1-based); the degree of each term drops by one."""
        if not 1 <= mu <= self.nvars:
            raise ValueError(f"variable index {mu} out of range 1..{self.nvars}")
        k = mu - 1
        out: Dict[Monomial, CliffordElement] = {}
        for mono, coeff in self.terms.items():
            e = mono[k]
            if e == 0:
                continue
            m = tuple(x - 1 if i == k else x for i, x in enumerate(mono))
            c = coeff.scale(e) if e != 1 else coeff
            s = out.get(m)
            out[m] = c if s is None else s + c
        return Jet(self.nvars, self.max_degree, out)

    # -- queries -----------------------------------------------------------

    def value_at_origin(self, dim: int) -> CliffordElement:
        return self.terms.get(_zero_mono(self.nvars), CliffordElement.zero(dim))

    def truncate(self, degree: int) -> "Jet":
        """The terms of degree at most ``degree``, under the same cap."""
        return Jet(
            self.nvars,
            self.max_degree,
            {m: c for m, c in self.terms.items() if _mono_degree(m) <= degree},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar_valued(self) -> bool:
        return all(set(c.terms) <= {0} for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.max_degree == other.max_degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.max_degree, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "Jet(0)"
        parts = []
        for mono in sorted(self.terms):
            xs = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            )
            parts.append(f"[{self.terms[mono]!r}]{('*' + xs) if xs else ''}")
        return "Jet(" + " + ".join(parts) + ")"


def sum_of_products(pairs: Sequence[Tuple[Jet, Jet]]) -> Jet:
    """sum_i a_i * b_i over the jet pairs ``(a_i, b_i)``, truncated at their
    common cap; coefficients multiply in the given order.

    The rows of all left factors share one denominator and those of all
    right factors another, so the admitted row pairs of every product feed
    one kernel accumulator, reduced once.
    """
    first = pairs[0][0]
    for a, b in pairs:
        first._check(a)
        first._check(b)
    nvars, cap = first.nvars, first.max_degree
    pairs = [(a, b) for a, b in pairs if a.terms and b.terms]
    if not pairs:
        return Jet(nvars, cap)
    xs, ys, d = operand_rows(
        [item for i, (a, _) in enumerate(pairs) for item in _jet_items(a, i)],
        [item for i, (_, b) in enumerate(pairs) for item in _jet_items(b, i)],
    )
    lefts, rights = [[] for _ in pairs], [[] for _ in pairs]
    for row in xs:
        lefts[row[0][1]].append(row)
    for row in ys:
        rights[row[0][1]].append(row)
    acc: Dict = {}
    admits = _within_cap(cap)
    for left, right in zip(lefts, rights):
        accumulate_admitted(acc, left, right, _x_degree, admits, _jet_pair_key)
    dim = coefficient_dim(*(jet for pair in pairs for jet in pair))
    return Jet._trusted(nvars, cap, reduce(dim, acc, d))


def invert_scalar_jet(j: Jet, field) -> Jet:
    """Multiplicative inverse of a scalar-valued jet with invertible constant term.

    Writes j = c0 (1 + eps) with eps of positive x-degree and expands the
    geometric series; truncation at ``max_degree`` makes the series finite.
    The frame dimension is that of the constant term.
    """
    if not j.is_scalar_valued():
        raise ValueError("jet inversion requires scalar-valued coefficients")
    c0_elem = j.terms.get(_zero_mono(j.nvars))
    c0 = None if c0_elem is None else c0_elem.coefficient(0)
    if c0 is None or not bool(c0):
        raise ValueError("jet inversion requires a nonvanishing constant term")
    inv0 = field.one / c0
    one = Jet.constant(j.nvars, j.max_degree, CliffordElement.scalar(c0_elem.dim, field.one))
    eps = (j - Jet.constant(j.nvars, j.max_degree, c0_elem)).scale(inv0)
    out = one
    power = one
    sign = -1
    for _ in range(j.max_degree):
        power = power * eps
        if power.is_zero():
            break
        out = out + power.scale(field.of(sign))
        sign = -sign
    return out.scale(inv0)
