"""Dense gamma-matrix representation used as an independent numeric oracle.

The 2m generators act on a 2^m-dimensional spinor space.  Construction is
the iterative tensor doubling

    g_{2j-1} = I^{(j-1)} (x) sigma_x (x) sigma_z^{(m-j)}
    g_{2j}   = I^{(j-1)} (x) sigma_y (x) sigma_z^{(m-j)}

which gives Hermitian matrices with g_k^2 = +I and pairwise
anticommutation; scaling by sqrt(-1) turns them into generators gamma_k
with gamma_k^2 = -I, matching the exact algebra's sign convention.

The oracle is deliberately float-only: its job is independence from the
exact route, not exactness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .clifford import CliffordElement, clifford_product, clifford_trace
from .scalars import EXACT

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

MAX_M = 5  # desk-scale cap: 32x32 matrices


def build_gamma_matrices(m: int) -> List[np.ndarray]:
    """Return gamma_1..gamma_2m, each 2^m x 2^m with gamma_i gamma_j + gamma_j gamma_i = -2 delta_ij I."""
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in 1..{MAX_M}, got {m}")
    gammas = []
    for j in range(1, m + 1):
        left = np.eye(2 ** (j - 1), dtype=complex)
        right = np.eye(1, dtype=complex)
        for _ in range(m - j):
            right = np.kron(right, _SIGMA_Z)
        for middle in (_SIGMA_X, _SIGMA_Y):
            gammas.append(1j * np.kron(np.kron(left, middle), right))
    return gammas


_BLADE_CACHE: dict = {}


def _blade_matrix(mask: int, m: int, gammas: Sequence[np.ndarray]) -> np.ndarray:
    key = (m, mask)
    cached = _BLADE_CACHE.get(key)
    if cached is not None:
        return cached
    if mask == 0:
        mat = np.eye(2**m, dtype=complex)
    else:
        low = mask & -mask
        mat = _blade_matrix(mask ^ low, m, gammas)
        mat = gammas[low.bit_length() - 1] @ mat
    _BLADE_CACHE[key] = mat
    return mat


def represent_element(a: CliffordElement, gammas: Sequence[np.ndarray]) -> np.ndarray:
    """Algebra homomorphism: blade {i1<...<ik} -> gamma_i1 ... gamma_ik, extended linearly."""
    if a.dim != len(gammas):
        raise ValueError(
            f"element dimension {a.dim} does not match {len(gammas)} gamma matrices"
        )
    m = a.dim // 2
    size = gammas[0].shape[0]
    out = np.zeros((size, size), dtype=complex)
    for mask, coeff in a.terms.items():
        out += complex(coeff) * _blade_matrix(mask, m, gammas)
    return out


def anticommutation_residual(gammas: Sequence[np.ndarray]) -> float:
    """max_ij || gamma_i gamma_j + gamma_j gamma_i + 2 delta_ij I ||_max."""
    size = gammas[0].shape[0]
    eye = np.eye(size, dtype=complex)
    worst = 0.0
    for i, gi in enumerate(gammas):
        for j, gj in enumerate(gammas):
            acomm = gi @ gj + gj @ gi
            if i == j:
                acomm = acomm + 2 * eye
            worst = max(worst, float(np.abs(acomm).max()))
    return worst


def _random_element(dim: int, rng: random.Random) -> CliffordElement:
    terms = {}
    for mask in range(2**dim):
        if rng.random() < 0.3:
            terms[mask] = EXACT.complex_of(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            )
    return CliffordElement(dim, terms)


def verify_representation(m: int, trials: int, seed: int) -> float:
    """Compare exact products/traces against the matrix representation.

    Draws random exact elements, compares represent(a*b) with represent(a)
    @ represent(b) entrywise and the matrix trace with the exact trace, and
    returns the worst deviation of either kind.
    """
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in 1..{MAX_M}, got {m}")
    rng = random.Random(seed)
    gammas = build_gamma_matrices(m)
    dim = 2 * m
    worst_prod = 0.0
    worst_tr = 0.0
    for _ in range(trials):
        a = _random_element(dim, rng)
        b = _random_element(dim, rng)
        ab = clifford_product(a, b)
        ma, mb = represent_element(a, gammas), represent_element(b, gammas)
        worst_prod = max(
            worst_prod, float(np.abs(represent_element(ab, gammas) - ma @ mb).max())
        )
        tr_exact = complex(clifford_trace(ab))
        worst_tr = max(worst_tr, abs(np.trace(ma @ mb) - tr_exact))
    return max(worst_prod, worst_tr)
