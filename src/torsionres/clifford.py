"""Clifford algebra over an orthonormal frame.

The generating relation is

    c(e_i) c(e_j) + c(e_j) c(e_i) = -2 delta_ij,

so every generator squares to -1.  Basis blades are products of distinct
generators in strictly increasing index order, encoded as bitmasks (bit k
set means generator e_{k+1} participates).  Elements are sparse maps from
blades to scalars; products are computed by sign-tracked transpositions.

Products of Clifford elements, of jets and of symbols, and the alpha-sum
of a symbol composition, share one kernel: ``accumulate`` and ``reduce``.
``rows`` flattens each operand into keyed rows of numerators over one
common denominator: a Clifford element is a single row, a jet has one row
per x-monomial (``jets.Jet.__mul__``), a symbol one per (xi key,
x-monomial) (``symbols.symbol_product`` and ``symbols.symbol_compose``).
Exact rows hold Gaussian-integer numerators, float rows the real and
imaginary parts of ``complex`` coefficients over 1.0; ``operand_rows``
refuses an exact operand with a float one, and ``rows`` an operand that
mixes both, with ``TypeError``.  Jet and symbol rows are grouped by
x-degree, so that only row pairs within the jet cap are passed to the
kernel (``jets.accumulate_within_cap``).  Row pairs are matched by the
caller's key rule, the numerators landing on each (output key, blade) are
summed under the cached blade sign, and each nonzero sum is reduced once:
for exact rows one gcd per output coefficient rather than one per
coefficient pair and per merge of products on the same monomial.  A
composition feeds the row pairs of all its alpha terms into one
accumulator before that reduction.

The fiberwise trace is the spinor-space trace: on a 2m-dimensional frame
the identity traces to 2^m and every non-empty blade traces to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Dict, Sequence, Tuple

from .scalars import GaussianRational, _reduced


@lru_cache(maxsize=None)
def blade_product_sign(a: int, b: int) -> int:
    """Sign of e_A * e_B relative to e_{A xor B}.

    Each generator of B walks left past the generators of A with larger
    index (one transposition each), after which repeated generators
    annihilate in adjacent pairs, each contributing a factor e_i^2 = -1.
    """
    swaps = 0
    bb = b
    while bb:
        j = (bb & -bb).bit_length() - 1
        swaps += (a >> (j + 1)).bit_count()
        bb &= bb - 1
    squares = (a & b).bit_count()
    return -1 if (swaps + squares) & 1 else 1


def blade_grade(mask: int) -> int:
    return mask.bit_count()


@dataclass(frozen=True)
class FrameVector:
    """A vector given by its components in the orthonormal frame."""

    dim: int
    components: Tuple

    def __post_init__(self):
        if len(self.components) != self.dim:
            raise ValueError(
                f"FrameVector needs {self.dim} components, got {len(self.components)}"
            )

    def dot(self, other: "FrameVector"):
        """Euclidean frame pairing g(a, b) = sum_i a_i b_i."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in frame pairing")
        total = self.components[0] * other.components[0]
        for a, b in zip(self.components[1:], other.components[1:]):
            total = total + a * b
        return total

    def scale(self, s) -> "FrameVector":
        return FrameVector(self.dim, tuple(s * c for c in self.components))

    def add(self, other: "FrameVector") -> "FrameVector":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in vector addition")
        return FrameVector(
            self.dim, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def is_zero(self) -> bool:
        return all(not bool(c) for c in self.components)


class CliffordElement:
    """Sparse element of the Clifford algebra on an n-dimensional frame.

    ``terms`` maps blade bitmasks to scalar coefficients; zero coefficients
    are never stored.  Instances are treated as immutable values.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Dict[int, object] | None = None):
        self.dim = dim
        self.terms = {m: c for m, c in (terms or {}).items() if bool(c)}

    @classmethod
    def _trusted(cls, dim: int, terms: Dict[int, object]) -> "CliffordElement":
        """Wrap ``terms`` as they are: the caller guarantees no zero coefficient."""
        out = cls.__new__(cls)
        out.dim = dim
        out.terms = terms
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "CliffordElement":
        return CliffordElement(dim)

    @staticmethod
    def scalar(dim: int, s) -> "CliffordElement":
        return CliffordElement(dim, {0: s})

    @staticmethod
    def basis(dim: int, index: int, one) -> "CliffordElement":
        """c(e_index) for a 1-based frame index; ``one`` is the field unit."""
        if not 1 <= index <= dim:
            raise ValueError(f"generator index {index} out of range 1..{dim}")
        return CliffordElement(dim, {1 << (index - 1): one})

    # -- ring operations --------------------------------------------------

    def _check(self, other: "CliffordElement"):
        if self.dim != other.dim:
            raise ValueError(
                f"Clifford dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                # a coefficient from one side alone is already nonzero
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return CliffordElement._trusted(self.dim, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        # negating a nonzero coefficient cannot give zero
        return CliffordElement._trusted(self.dim, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "CliffordElement":
        if isinstance(other, CliffordElement):
            return clifford_product(self, other)
        return self.scale(other)

    def __rmul__(self, other) -> "CliffordElement":
        # scalar * element; scalars here always commute with coefficients
        return self.scale(other)

    def scale(self, s) -> "CliffordElement":
        # keeps the zero filter: a float product can underflow to zero
        if not bool(s):
            return CliffordElement(self.dim)
        return CliffordElement(self.dim, {m: s * c for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mask: int):
        return self.terms.get(mask)

    def max_abs(self) -> float:
        """Largest coefficient magnitude (for float-mode residuals)."""
        return max((abs(complex(c)) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        if not self.terms:
            return f"CliffordElement(dim={self.dim}, 0)"
        parts = []
        for m in sorted(self.terms):
            idx = [str(i + 1) for i in range(self.dim) if m >> i & 1]
            blade = "1" if not idx else "e" + "".join(idx)
            parts.append(f"({self.terms[m]})*{blade}")
        return f"CliffordElement(dim={self.dim}, {' + '.join(parts)})"


def clifford_of_vector(v: FrameVector) -> CliffordElement:
    """Embed a frame vector as the grade-1 element sum_i v_i c(e_i)."""
    terms = {}
    for k, c in enumerate(v.components):
        if bool(c):
            terms[1 << k] = c
    return CliffordElement(v.dim, terms)


def rows(items):
    """``([(key, [(mask, a, b), ...]), ...], d)``: each ``(key, element)`` of
    the sequence ``items`` as one row, with every coefficient equal to
    ``(a + b i)/d``.

    Exact rows hold Gaussian-integer numerators over the least common
    denominator ``d`` of all coefficients of all the elements.  When the
    first coefficient met is not a ``GaussianRational``, the rows are float
    rows (``_float_rows``).  A mix of both kinds raises ``TypeError``.
    """
    d = 1
    for _, elem in items:
        for c in elem.terms.values():
            if type(c) is not GaussianRational:
                return _float_rows(items)
            if c._d != d:
                d = lcm(d, c._d)
    return [
        (key, [
            (m, c._a, c._b) if c._d == d else (m, c._a * (d // c._d), c._b * (d // c._d))
            for m, c in elem.terms.items()
        ])
        for key, elem in items
    ], d


def _float_rows(items):
    """``rows`` of elements whose every coefficient is a ``complex``: the
    real and imaginary parts over the float denominator ``1.0``, whose type
    marks the rows as float."""
    out = []
    for key, elem in items:
        row = []
        for m, c in elem.terms.items():
            if type(c) is not complex:
                raise TypeError(
                    "exact/float mode mixing: float rows take complex "
                    f"coefficients, not {type(c).__name__}"
                )
            row.append((m, c.real, c.imag))
        out.append((key, row))
    return out, 1.0


def operand_rows(left, right):
    """``(xs, ys, d)``: the ``rows`` of two operands and the denominator of
    their products; ``TypeError`` unless both are exact or both are float."""
    xs, da = rows(left)
    ys, db = rows(right)
    if type(da) is not type(db):
        raise TypeError("exact/float mode mixing: an exact operand times a float one")
    return xs, ys, da * db


def accumulate(acc: Dict[object, Dict[int, list]], xs, ys, combine) -> None:
    """Add the products of the rows ``xs`` with the rows ``ys`` (the row
    lists of two ``rows`` results) to ``acc``.

    ``combine(key_a, key_b)`` names the output key of a row pair, or returns
    ``None`` to skip the pair.  Row elements multiply left times right.  The
    numerators landing on one (output key, blade) are summed into
    ``acc[key][blade] = [re, im]`` under the blade sign: as plain ints for
    exact rows, as floats in pair order for float rows.  Several row pairs,
    or several calls, may feed one accumulator as long as all left rows
    share one denominator and all right rows another.
    """
    sign = blade_product_sign
    for ka, ra in xs:
        for kb, rb in ys:
            key = combine(ka, kb)
            if key is None:
                continue
            out = acc.get(key)
            if out is None:
                out = acc[key] = {}
            for ma, xa, ya in ra:
                for mb, xb, yb in rb:
                    r = xa * xb - ya * yb
                    i = xa * yb + ya * xb
                    if sign(ma, mb) < 0:
                        r = -r
                        i = -i
                    m = ma ^ mb
                    s = out.get(m)
                    if s is None:
                        out[m] = [r, i]
                    else:
                        s[0] += r
                        s[1] += i


def reduce(dim: int, acc: Dict[object, Dict[int, list]], d) -> Dict[object, CliffordElement]:
    """The elements of an ``accumulate`` accumulator over the denominator
    ``d``, leaving out keys whose every blade cancels.  Over an int ``d``
    each nonzero sum is brought to normal form once; over a float ``d`` it
    becomes ``complex(r/d, i/d)``."""
    result: Dict[object, CliffordElement] = {}
    exact = type(d) is int
    for key, out in acc.items():
        if exact:
            terms = {m: _reduced(r, i, d) for m, (r, i) in out.items() if r or i}
        else:
            terms = {m: complex(r / d, i / d) for m, (r, i) in out.items() if r or i}
        if terms:
            result[key] = CliffordElement._trusted(dim, terms)
    return result


def _single_row(ka, kb):
    """The key rule of a product of two single-row operands."""
    return 0


def clifford_product(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Bilinear product under the relation c(e_i)c(e_j)+c(e_j)c(e_i) = -2 delta_ij."""
    a._check(b)
    if not a.terms or not b.terms:
        return CliffordElement.zero(a.dim)
    xs, ys, d = operand_rows(((0, a),), ((0, b),))
    acc: Dict[object, Dict[int, list]] = {}
    accumulate(acc, xs, ys, _single_row)
    product = reduce(a.dim, acc, d).get(0)
    return CliffordElement.zero(a.dim) if product is None else product


def clifford_product_seq(factors: Sequence[CliffordElement]) -> CliffordElement:
    acc = factors[0]
    for f in factors[1:]:
        acc = clifford_product(acc, f)
    return acc


def clifford_trace(a: CliffordElement, m: int):
    """Spinor trace: 2^m times the empty-blade coefficient.

    Requires the frame dimension to equal 2m; non-scalar blades are
    traceless in the 2^m-dimensional spinor representation.
    """
    if m < 1 or a.dim != 2 * m:
        raise ValueError(f"trace needs dim == 2m; got dim={a.dim}, m={m}")
    c = a.terms.get(0)
    if c is None:
        return 0
    return (2**m) * c


def clifford_trace_of_product(a: CliffordElement, b: CliffordElement, m: int):
    """``clifford_trace(a * b, m)`` without forming the product.

    Only pairs of equal blades reach the empty blade, through
    e_B e_B = blade_product_sign(B, B).  The pairs are summed in the order
    of ``a``'s blades with the sign folded in, as ``clifford_product`` sums
    them, so a float trace is bit-identical to that of the full product.
    """
    a._check(b)
    s = None
    for mask, ca in a.terms.items():
        cb = b.terms.get(mask)
        if cb is None:
            continue
        coeff = ca * cb
        if blade_product_sign(mask, mask) < 0:
            s = -coeff if s is None else s - coeff
        else:
            s = coeff if s is None else s + coeff
    if m < 1 or a.dim != 2 * m:
        raise ValueError(f"trace needs dim == 2m; got dim={a.dim}, m={m}")
    return (2**m) * s if s else 0


def grade_project(a: CliffordElement, k: int) -> CliffordElement:
    if not 0 <= k <= a.dim:
        raise ValueError(f"grade {k} out of range 0..{a.dim}")
    return CliffordElement(
        a.dim, {mq: c for mq, c in a.terms.items() if blade_grade(mq) == k}
    )
