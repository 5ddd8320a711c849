"""Moving three-level cascade atom coupled to a quantized cavity mode.

Closed-form resonant overlap and phases, block-diagonal numerical
propagation for arbitrary detuning and atomic motion, and a CLI that emits
deterministic CSV time series.
"""

__version__ = "0.1.0"

from .field_states import (
    FieldSpec,
    FieldSpecError,
    PhotonDistribution,
    ZeroFieldError,
    choose_truncation,
    coherent_coefficients,
    normalization_constant,
    superposed_distribution,
)
from .system import (
    CompositeState,
    ManifoldBlock,
    Motion,
    SystemConfig,
    build_blocks,
    coupling_expectation,
    default_dt_internal,
    initial_state,
    mode_shape,
    pulse_area,
)
from .resonant import (
    OverlapValue,
    arcsin_phase,
    dynamical_phase_resonant,
    overlap_series,
    overlap_xy,
)
from .evolver import (
    ConvergenceReport,
    NormDriftError,
    Trajectory,
    TrajectoryBatch,
    block_hamiltonian,
    convergence_probe,
    evolve,
    lab_frame_reference,
    step_propagator,
)
from .phases import (
    PhaseTimeSeries,
    UndefinedPhaseError,
    dynamical_phase,
    geometric_phase,
    overlap,
    pancharatnam_phase,
    populations,
    series_from_closed_form,
    series_from_trajectory,
    unwrap_with_gaps,
    wrap_angle,
)

__all__ = [
    "__version__",
    "FieldSpec",
    "FieldSpecError",
    "PhotonDistribution",
    "ZeroFieldError",
    "choose_truncation",
    "coherent_coefficients",
    "normalization_constant",
    "superposed_distribution",
    "CompositeState",
    "ManifoldBlock",
    "Motion",
    "SystemConfig",
    "build_blocks",
    "coupling_expectation",
    "default_dt_internal",
    "initial_state",
    "mode_shape",
    "pulse_area",
    "OverlapValue",
    "arcsin_phase",
    "dynamical_phase_resonant",
    "overlap_series",
    "overlap_xy",
    "ConvergenceReport",
    "NormDriftError",
    "Trajectory",
    "TrajectoryBatch",
    "block_hamiltonian",
    "convergence_probe",
    "evolve",
    "lab_frame_reference",
    "step_propagator",
    "PhaseTimeSeries",
    "UndefinedPhaseError",
    "dynamical_phase",
    "geometric_phase",
    "overlap",
    "pancharatnam_phase",
    "populations",
    "series_from_closed_form",
    "series_from_trajectory",
    "unwrap_with_gaps",
    "wrap_angle",
]
