"""Moving three-level cascade atom coupled to a quantized cavity mode.

Closed-form resonant overlap and phases, block-diagonal numerical
propagation for arbitrary detuning and atomic motion, and a CLI that emits
deterministic CSV time series.
"""

__version__ = "0.1.0"

# each module's __all__ is its public interface, republished here
from . import evolver, field_states, phases, resonant, system
from .field_states import *  # noqa: F401,F403
from .system import *  # noqa: F401,F403
from .resonant import *  # noqa: F401,F403
from .evolver import *  # noqa: F401,F403
from .phases import *  # noqa: F401,F403

__all__ = ["__version__", *field_states.__all__, *system.__all__, *resonant.__all__,
           *evolver.__all__, *phases.__all__]
