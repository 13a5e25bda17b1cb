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
common denominator: a Clifford element is a single key, a jet has one key
per x-monomial (``jets.Jet.__mul__``), a symbol one per (xi key,
x-monomial) (``symbols.symbol_product`` and ``symbols.symbol_compose``).
An exact element gives at most two single-part rows, its real integer
numerators and its imaginary ones, and each row carries a quarter-turn
``q``: its coefficients are ``i^q`` times its numerators.  A float element
gives one row of its ``complex`` coefficients at ``q = 0``.
``operand_rows`` refuses an exact operand with a float one, and ``rows``
an operand that mixes both, with ``TypeError``.  The caller passes the
kernel only the row pairs it admits (``jets.accumulate_admitted``): jet
and symbol rows within the jet cap, symbol rows at or above the lowest
degree kept.  Row pairs are matched by the caller's key rule, and each
blade pair costs one multiply and one add (a ``complex`` one for float
rows): the product of two numerators lands in the real sums when
``qa + qb`` is even and in the imaginary ones when it is odd; it is
negated if bit 2 of ``qa + qb`` is set, and again if the blade sign is -1.
The sign is read from the left blade's sign mask (``sign_mask``: bit j is
the parity of popcount(a >> j), so e_A e_B has sign
(-1)^popcount(b & W(a))), not from a call per pair.  ``reduce`` merges the real and imaginary
sums of each blade and reduces each nonzero one once: for exact rows one
gcd per output coefficient rather than one per coefficient pair and per
merge of products on the same monomial.  A composition feeds the row
pairs of all its alpha terms into one accumulator before that reduction.
Coefficients with both parts nonzero become two rows, so their products
cost the four multiplies of a complex product; the rest cost one.

The fiberwise trace is the spinor-space trace: on a 2m-dimensional frame
the identity traces to 2^m and every non-empty blade traces to zero.  The
trace reads m from the frame dimension of its operands.
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


class _SignMasks(dict):
    """``W(a)`` per blade ``a``, filled in as blades are met: bit j is the
    parity of popcount(a >> j), so that

        blade_product_sign(a, b) == (-1) ** popcount(b & W(a)).

    Generator j of B passes the generators of A above it and meets its
    twin in A if there is one: popcount(a >> j) sign changes in all.  One
    int per left blade, in any dimension.
    """

    def __missing__(self, a: int) -> int:
        w = 0
        j = 0
        while a >> j:
            w |= ((a >> j).bit_count() & 1) << j
            j += 1
        self[a] = w
        return w


_SIGN_MASKS = _SignMasks()


def sign_mask(a: int) -> int:
    """The sign mask ``W(a)`` of the blade ``a`` (``_SignMasks``)."""
    return _SIGN_MASKS[a]


def rows(items):
    """``([(key, q, [(mask, n), ...]), ...], d)``: the elements of the
    sequence of ``(key, element)`` pairs ``items`` as rows, with each
    coefficient of a row equal to ``i^q n/d``.

    Exact rows hold integer numerators over the least common denominator
    ``d`` of all coefficients of all the elements.  Each element gives at
    most two rows, its real numerators at ``q = 0`` and its imaginary ones
    at ``q = 1``, each holding only the nonzero ones.  When the first
    coefficient met is not a ``GaussianRational``, the rows are float rows
    (``_float_rows``).  A mix of both kinds raises ``TypeError``.
    """
    d = 1
    for _, elem in items:
        for c in elem.terms.values():
            if type(c) is not GaussianRational:
                return _float_rows(items)
            if c._d != d:
                d = lcm(d, c._d)
    out = []
    for key, elem in items:
        re, im = [], []
        for m, c in elem.terms.items():
            a, b, f = c._a, c._b, c._d
            if f != d:
                f = d // f
                a *= f
                b *= f
            if a:
                re.append((m, a))
            if b:
                im.append((m, b))
        if re:
            out.append((key, 0, re))
        if im:
            out.append((key, 1, im))
    return out, d


def _float_rows(items):
    """``rows`` of elements whose every coefficient is a ``complex``: one
    row per element at ``q = 0`` holding the coefficients themselves, over
    the float denominator ``1.0``, whose type marks the rows as float."""
    out = []
    for key, elem in items:
        for c in elem.terms.values():
            if type(c) is not complex:
                raise TypeError(
                    "exact/float mode mixing: float rows take complex "
                    f"coefficients, not {type(c).__name__}"
                )
        out.append((key, 0, list(elem.terms.items())))
    return out, 1.0


def operand_rows(left, right):
    """``(xs, ys, d)``: the ``rows`` of two operands and the denominator of
    their products; ``TypeError`` unless both are exact or both are float."""
    xs, da = rows(left)
    ys, db = rows(right)
    if type(da) is not type(db):
        raise TypeError("exact/float mode mixing: an exact operand times a float one")
    return xs, ys, da * db


def accumulate(acc: Dict[object, Tuple[dict, dict]], xs, ys, combine) -> None:
    """Add the products of the rows ``xs`` with the rows ``ys`` (the row
    lists of two ``rows`` results) to ``acc``.

    ``combine(key_a, key_b)`` names the output key of a row pair.  Row
    elements multiply left times right: one multiply per blade pair, under
    the sign ``(-1) ** popcount(mb & sign_mask(ma))``.  A row pair of
    quarter-turns ``qa + qb = q`` adds into ``acc[key][q & 1]``, the real
    (0) or imaginary (1) sums per blade, negated when ``q & 2``.  Exact
    sums are plain ints, float ones ``complex`` sums in pair order.
    Several row pairs, or several calls, may feed one accumulator as long
    as all left rows share one denominator and all right rows another.
    """
    masks = _SIGN_MASKS
    for ka, qa, ra in xs:
        left = [(ma, xa, masks[ma]) for ma, xa in ra]
        negated = None
        for kb, qb, rb in ys:
            key = combine(ka, kb)
            parts = acc.get(key)
            if parts is None:
                parts = acc[key] = ({}, {})
            q = qa + qb
            out = parts[q & 1]
            if q & 2:
                # only exact rows get here (float rows sit at q = 0), where
                # (-x) * y == -(x * y) holds exactly
                if negated is None:
                    negated = [(ma, -xa, w) for ma, xa, w in left]
                entries = negated
            else:
                entries = left
            for ma, xa, w in entries:
                for mb, xb in rb:
                    p = xa * xb
                    if (w & mb).bit_count() & 1:
                        p = -p
                    m = ma ^ mb
                    s = out.get(m)
                    out[m] = p if s is None else s + p


def reduce(dim: int, acc: Dict[object, Tuple[dict, dict]], d) -> Dict[object, CliffordElement]:
    """The elements of an ``accumulate`` accumulator over the denominator
    ``d``, leaving out keys whose every blade cancels.  Over an int ``d``
    the real and imaginary sums of each blade are merged and each nonzero
    pair is brought to normal form once; over a float ``d`` (whose rows
    all sit at ``q = 0``) each nonzero sum ``s`` becomes
    ``complex(s.real/d, s.imag/d)``."""
    result: Dict[object, CliffordElement] = {}
    exact = type(d) is int
    for key, (re, im) in acc.items():
        if exact:
            terms = {m: _reduced(r, im.get(m, 0), d) for m, r in re.items() if r or im.get(m)}
            for m, i in im.items():
                if i and m not in re:
                    terms[m] = _reduced(0, i, d)
        else:
            terms = {m: complex(s.real / d, s.imag / d) for m, s in re.items() if s}
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


def clifford_trace(a: CliffordElement):
    """Spinor trace: 2^m times the empty-blade coefficient, with m half the
    frame dimension of ``a``; non-scalar blades are traceless in the
    2^m-dimensional spinor representation."""
    c = a.terms.get(0)
    if c is None:
        return 0
    return (2 ** (a.dim // 2)) * c


def clifford_trace_of_product(a: CliffordElement, b: CliffordElement):
    """``clifford_trace(a * b)`` without forming the product.

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
    return (2 ** (a.dim // 2)) * s if s else 0


def grade_project(a: CliffordElement, k: int) -> CliffordElement:
    if not 0 <= k <= a.dim:
        raise ValueError(f"grade {k} out of range 0..{a.dim}")
    return CliffordElement(
        a.dim, {mq: c for mq, c in a.terms.items() if blade_grade(mq) == k}
    )
