"""Moving three-level cascade atom coupled to a quantized cavity mode.

Closed-form resonant overlap and phases, block-diagonal numerical
propagation for arbitrary detuning and atomic motion, and a CLI that emits
deterministic CSV time series.
"""

__version__ = "0.1.0"

from .field_states import (
    EPSILON_TAIL,
    FieldSpec,
    FieldSpecError,
    PhotonDistribution,
    ZeroFieldError,
    coherent_coefficients,
    normalization_constant,
    superposed_distribution,
)
from .system import (
    CompositeState,
    Motion,
    SystemConfig,
    coupling_expectation,
    default_dt_internal,
    initial_state,
    mode_shape,
    pulse_area,
)
from .resonant import (
    dynamical_phase_resonant,
    overlap_series,
)
from .evolver import (
    NormDriftError,
    Trajectory,
    TrajectoryBatch,
    evolve,
)
from .phases import (
    PhaseTimeSeries,
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
    "coherent_coefficients",
    "normalization_constant",
    "EPSILON_TAIL",
    "superposed_distribution",
    "CompositeState",
    "Motion",
    "SystemConfig",
    "coupling_expectation",
    "default_dt_internal",
    "initial_state",
    "mode_shape",
    "pulse_area",
    "dynamical_phase_resonant",
    "overlap_series",
    "NormDriftError",
    "Trajectory",
    "TrajectoryBatch",
    "evolve",
    "PhaseTimeSeries",
    "series_from_closed_form",
    "series_from_trajectory",
    "unwrap_with_gaps",
    "wrap_angle",
]
