"""Exact symbolic/numeric engine for spectral-torsion densities of
one-form rescaled Dirac operators via the noncommutative residue."""

from .clifford import (
    CliffordElement,
    FrameVector,
    clifford_of_vector,
    clifford_product,
    clifford_trace,
    grade_project,
)
from .geometry import (
    CurvatureData,
    Scenario,
    VectorFieldJet,
    VerificationError,
    build_metric_jets,
    laplacian_inverse_check,
    laplacian_symbol,
    random_curvature,
    random_scenario,
    rescaled_dirac_inverse_symbols,
    rescaled_dirac_square_symbols,
    rescaled_dirac_symbols,
)
from .reference import (
    DensityValue,
    paper_group_densities,
    paper_term_densities,
    reference_term_densities,
    theorem_density,
)
from .scalars import EXACT, FLOAT, GaussianRational, field_for_mode
from .spheres import (
    monomial_integral,
    monomial_integral_closed_form,
    sphere_volume,
)
from .symbols import (
    Symbol,
    symbol_compose,
    symbol_invert_order2,
    symbol_product,
    symbols_equal,
)
from .torsion import (
    TermBreakdown,
    assemble_density,
    composition_oracle_density,
    lemma33_trace_identity,
    lemma34_contraction,
    plain_dirac_torsion_density,
    term_densities,
    torsion_prefactor_element,
)

__version__ = "0.1.0"
