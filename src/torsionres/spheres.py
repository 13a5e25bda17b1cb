"""Exact monomial moments of the unit sphere S^{n-1}.

The engine integrates xi-monomials over the unit cosphere.  The working
route is the pairing recursion

    I(xi^{g1} ... xi^{g_d}) = (d - 2 + n)^{-1} *
        sum_k delta^{g1 gk} I(remaining d-2 indices),

with base I(1) = Vol(S^{n-1}).  Every value is an exact rational multiple
of Vol(S^{n-1}); the symbolic volume unit is never expanded in exact mode,
so pi stays out of the rational arithmetic.

The independent oracle is the Gamma-function closed form

    I(prod_i xi_i^{a_i}) = 2 prod_i Gamma((a_i+1)/2) / Gamma((|a|+n)/2)

for all-even exponents, zero otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple


def _validate(alpha: Sequence[int], n: int) -> Tuple[int, ...]:
    if n < 2:
        raise ValueError(f"sphere dimension needs n >= 2, got {n}")
    a = tuple(int(x) for x in alpha)
    if len(a) != n:
        raise ValueError(f"multi-index length {len(a)} != n = {n}")
    if any(x < 0 for x in a):
        raise ValueError("multi-index exponents must be non-negative")
    return a


@lru_cache(maxsize=None)
def _recurse(sorted_alpha: Tuple[int, ...], n: int) -> Fraction:
    # sorted_alpha is descending; permutation symmetry makes this canonical.
    degree = sum(sorted_alpha)
    if degree == 0:
        return Fraction(1)
    # gamma_1 is one instance of the first variable with a nonzero exponent;
    # only partners of the same variable survive the Kronecker delta, and
    # there are (exponent - 1) of them.
    a = list(sorted_alpha)
    v = 0  # descending sort puts a nonzero exponent first
    partners = a[v] - 1
    if partners == 0:
        return Fraction(0)
    a[v] -= 2
    sub = _recurse(tuple(sorted(a, reverse=True)), n)
    return Fraction(partners, degree - 2 + n) * sub


def monomial_integral(alpha: Sequence[int], n: int) -> Fraction:
    """Integral of prod_i xi_i^{alpha_i} over S^{n-1}, as a rational multiple of Vol(S^{n-1})."""
    a = _validate(alpha, n)
    if any(x & 1 for x in a):
        return Fraction(0)
    return _recurse(tuple(sorted(a, reverse=True)), n)


def sphere_volume(n: int) -> float:
    """Vol(S^{n-1}) = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def monomial_integral_closed_form(alpha: Sequence[int], n: int) -> float:
    """Gamma-function oracle for the same moment, as a plain double."""
    a = _validate(alpha, n)
    if any(x & 1 for x in a):
        return 0.0
    num = 2.0
    for x in a:
        num *= math.gamma((x + 1) / 2.0)
    return num / math.gamma((sum(a) + n) / 2.0)
