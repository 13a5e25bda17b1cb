import random

import numpy as np
import pytest

from torsionres.clifford import CliffordElement, clifford_of_vector, clifford_trace
from torsionres.gamma import (
    anticommutation_residual,
    build_gamma_matrices,
    represent_element,
    verify_representation,
)
from torsionres.scalars import EXACT

from conftest import exact_vector


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_construction_and_relation(m):
    gammas = build_gamma_matrices(m)
    assert len(gammas) == 2 * m
    assert all(g.shape == (2**m, 2**m) for g in gammas)
    assert anticommutation_residual(gammas) <= 1e-14


def test_m_out_of_range():
    with pytest.raises(ValueError):
        build_gamma_matrices(0)
    with pytest.raises(ValueError):
        build_gamma_matrices(6)


def test_identity_representation_and_trace():
    gammas = build_gamma_matrices(2)
    ident = CliffordElement.scalar(4, EXACT.one)
    mat = represent_element(ident, gammas)
    assert np.abs(mat - np.eye(4)).max() == 0
    assert np.trace(mat).real == 4  # tr[id] = 2^m


def test_representation_is_homomorphism():
    rng = random.Random(9)
    gammas = build_gamma_matrices(2)
    for _ in range(20):
        a = CliffordElement(
            4,
            {
                mask: EXACT.of(rng.randint(-3, 3))
                for mask in range(16)
                if rng.random() < 0.4
            },
        )
        b = CliffordElement(
            4,
            {
                mask: EXACT.of(rng.randint(-3, 3))
                for mask in range(16)
                if rng.random() < 0.4
            },
        )
        lhs = represent_element(a * b, gammas)
        rhs = represent_element(a, gammas) @ represent_element(b, gammas)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_matrix_trace_matches_pairing():
    gammas = build_gamma_matrices(2)
    u = exact_vector(1, 2, 0, 0)
    v = exact_vector(0, 1, -1, 0)
    prod = clifford_of_vector(u) * clifford_of_vector(v)
    mat_trace = np.trace(represent_element(prod, gammas))
    # tr[c(u)c(v)] = -g(u,v) 2^m
    assert abs(mat_trace - complex(-2 * 4)) <= 1e-12
    assert abs(mat_trace - complex(clifford_trace(prod))) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_verify_representation(m):
    assert verify_representation(m, trials=100 if m < 3 else 40, seed=5) <= 1e-10


def test_identity_single_trial_zero_deviation():
    assert verify_representation(1, trials=1, seed=0) <= 1e-12
