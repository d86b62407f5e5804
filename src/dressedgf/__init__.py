"""Resolvent toolkit for emitters coupled to finite photonic baths.

Single-excitation Green functions for a diagonalized bath, the impurity
analogy (including vacancies), one dressed emitter, and arrays of identical
emitters with their weak-coupling effective Hamiltonians.  A dense
brute-force cross-check lives in :mod:`dressedgf.oracle`.
"""

from .bath import (
    BandStructure,
    BathSpec,
    SpectralData,
    analytic_chain_green,
    bath_green_element,
    bath_green_squared_element,
    build_ssh_chain,
    build_uniform_chain,
    default_delta,
    detect_bands,
    diagonalize_bath,
    green_column,
    green_matrix,
    green_row,
    load_bath_spec,
)
from .dressed import (
    BoundState,
    DressedStateFunction,
    EmitterSpec,
    ScatteringState,
    VDSClassification,
    classify_vds,
    dressed_green,
    dressed_scattering_state,
    dressed_state_function,
    excitonic_green,
    field_green,
    pole_function_F,
    self_energy,
    self_potential,
    solve_dressed_bound_states,
)
from .errors import BranchError, ConfigError, DressedGFError, PoleError, RegimeError
from .impurity import (
    VACANCY,
    ImpurityBoundState,
    ImpurityScatteringState,
    ImpuritySpec,
    impurity_green,
    impurity_pole_function,
    impurity_scattering_state,
    impurity_state,
    solve_impurity_bound_state,
    vacancy_green,
)
from .multi import (
    EffectiveHamiltonian,
    EmitterArraySpec,
    FMatrix,
    TMatrixReport,
    TwoAtomDecomposition,
    TwoAtomPoles,
    det_f_roots,
    effective_hamiltonian_many,
    effective_hamiltonian_two,
    f_matrix,
    multi_green,
    overlap_matrix,
    residue_coefficients,
    solve_two_atom_poles,
    t_matrix_series_green,
)
from .oracle import (
    DEFAULT_CHECKS,
    CheckResult,
    ComparisonReport,
    build_full_hamiltonian,
    compare,
    direct_resolvent,
    exact_eigensystem,
)

__version__ = "0.1.0"
