"""Desk-scale density-matrix toolkit for spin-ensemble oracle search,
multiple-quantum spectroscopy, and operator-splitting verification."""

from .linalg import (
    BranchCutError,
    comm,
    expm_unitary,
    magnetic_quantum_numbers,
    matrix_log_skew,
    spin_op,
    total_op,
)
from .oracle import (
    MarkedState,
    aux_pure_state,
    diag_projector,
    oracle_uf,
    oracle_uo,
    selective_phase,
    sign_vector,
)
from .mqalgebra import (
    AliasingError,
    LomsoBasis,
    decompose_orders,
    gradient_crush,
    lomso_transform,
    mq_generator,
    phase_cycle_project,
    zq_dephase,
)
from .sequences import (
    AmbiguousReadoutError,
    GroverCoefficients,
    SearchResult,
    conjugate_multi_selective,
    conversion_coefficient,
    grover_coefficients,
    grover_propagator,
    initial_state,
    measured_conversion_coefficients,
    simple_search,
    spin_echo_hamiltonian,
)
from .spectroscopy import (
    NyquistError,
    PipelineConfig,
    SpinHamiltonian,
    Spectrum,
    cross_zq_hamiltonian,
    eigen_expand,
    inphase_check,
    interaction_frame,
    order_intensities,
    run_pipeline,
    spectrum,
)
from .composition import (
    CompositionResult,
    commutator_product,
    cross_interaction,
    fractal_compose,
    symmetric_sandwich,
    trotter_product,
)

__version__ = "0.1.0"
