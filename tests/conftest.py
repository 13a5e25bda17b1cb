import random
from fractions import Fraction

import pytest

from torsionres.clifford import FrameVector
from torsionres.geometry import (
    Scenario,
    VectorFieldJet,
    rescaled_dirac_inverse_symbols,
    rescaled_dirac_square_sigma1_pieces,
    rescaled_dirac_square_symbols,
)
from torsionres.scalars import EXACT


def exact_vector(*components) -> FrameVector:
    return FrameVector(len(components), tuple(EXACT.of(c) for c in components))


def small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def square_symbols(s: Scenario):
    """The closed-form symbols of the squared rescaled operator."""
    return rescaled_dirac_square_symbols(s, rescaled_dirac_square_sigma1_pieces(s))


def inverse_symbols(s: Scenario):
    """q_{-2} and q_{-3} of the squared rescaled operator, checked against
    their closed forms."""
    return rescaled_dirac_inverse_symbols(s, square_symbols(s))


@pytest.fixture
def derived_scenario() -> Scenario:
    """The worked m=2 scenario: V = e1 with dV_1/dx_2 = 1, u = v = w = e2."""
    zero = EXACT.of(0)
    jac = [[zero] * 4 for _ in range(4)]
    jac[1][0] = EXACT.of(1)
    return Scenario(
        m=2,
        mode="exact",
        V=VectorFieldJet(exact_vector(1, 0, 0, 0), tuple(tuple(r) for r in jac)),
        X=exact_vector(0, 0, 0, 0),
        u=exact_vector(0, 1, 0, 0),
        v=exact_vector(0, 1, 0, 0),
        w=exact_vector(0, 1, 0, 0),
    )
