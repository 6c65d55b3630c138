"""Finite-groupoid quantum mechanics: algebras, history sums, qubit propagator.

The package models measurement outcomes and transitions as a finite groupoid,
builds the associated *-algebra with its fundamental matrix representation,
sums amplitudes over discrete histories, and solves the unitarity constraints
of the biased two-outcome propagator, including the phase quantization they
force.
"""

from .groupoid import (
    ALPHA,
    ALPHA_INV,
    AxiomFailure,
    FiniteGroupoid,
    GroupoidParseError,
    MAX_ELEMENTS,
    NOT_COMPOSABLE,
    NotComposable,
    OUT_MINUS,
    OUT_PLUS,
    OutcomePartition,
    UNIT_MINUS,
    UNIT_PLUS,
    ValidationReport,
    build_a2,
    build_from_table,
    build_pair_groupoid,
    multiplication_table,
    pair_element,
    validate_axioms,
)
from .lagrangian import (
    OutcomeBias,
    QLagrangian,
    qubit_bias,
    qubit_lagrangian,
)
from .coarse import coarse_grain, is_principal
from .algebra import (
    AlgebraElement,
    StateVector,
    algebra_unit,
    convolve,
    delta,
    element_from_lines,
    fundamental_rep,
    involute,
    is_observable,
    lagrangian_element,
    operator_norm,
)
from .histories import (
    EnumerationCapExceeded,
    TimeGrid,
    action,
    amplitude_via_reference,
    compose_histories,
    decompose_history,
    enumerate_histories,
    fixed_order_power,
    history_amplitude,
    invert_history,
    is_loop,
    make_history,
    n_step_path_sum,
    single_step_matrix,
    total_variation,
    unit_history,
)
from .propagator import (
    PropagatorModel,
    QuantizationScan,
    SignCase,
    evolve_state,
    quantization_scan,
    qubit_propagator,
    sign_case_matrix,
    solve_unitary_gammas,
    special_case_spectrum,
    unitarity_residuals,
)

__version__ = "0.1.0"

