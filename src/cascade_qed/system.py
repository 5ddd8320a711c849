"""Physical configuration, mode shape, initial state and ladder expectations.

The cascade levels are ordered 1 (upper), 2 (middle), 3 (ground); composite
amplitudes are indexed ``[level - 1, photon]``.  Time is the dimensionless
tau = g t and the detuning is measured in units of the coupling g, so g
itself only fixes the unit and never enters a formula.  For a moving atom
the velocity convention pi v = g L is hard-wired: the mode shape sampled
along the trajectory is then sin(p tau) and its accumulated area has the
closed form (1 - cos(p tau)) / p.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .field_states import FieldSpec, PhotonDistribution

__all__ = [
    "Motion",
    "SystemConfig",
    "CompositeState",
    "mode_shape",
    "pulse_area",
    "initial_state",
    "coupling_expectation",
    "ladder_expectation",
    "default_dt_internal",
]


class Motion(enum.Enum):
    """Whether the atom crosses the standing-wave mode or sits still."""

    MOVING = "moving"
    NEGLECTED = "neglected"


@dataclass(frozen=True)
class SystemConfig:
    """All physical and numerical parameters of one run.

    ``delta`` is the detuning over g, ``theta`` the atomic superposition
    angle, ``p`` the number of half-wavelengths of the mode (ignored when
    the motion is neglected).  ``tau_max``/``n_steps`` define the output
    grid; ``dt_internal`` is the integrator step in scaled time (``None``
    picks the automatic default).
    """

    field: FieldSpec
    delta: float = 0.0
    theta: float = 0.0
    p: int = 1
    motion: Motion = Motion.MOVING
    tau_max: float = 8.0 * math.pi
    n_steps: int = 2000
    dt_internal: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        for key in ("p", "n_steps"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.motion is Motion.MOVING and self.p < 1:
            raise ValueError(f"p must be >= 1 for a moving atom, got {self.p!r}")
        if not (math.isfinite(self.tau_max) and self.tau_max > 0.0):
            raise ValueError(f"tau_max must be > 0, got {self.tau_max!r}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps!r}")
        if self.dt_internal is not None and not (
            math.isfinite(self.dt_internal) and self.dt_internal > 0.0
        ):
            raise ValueError(f"dt_internal must be > 0, got {self.dt_internal!r}")

    def integrator_step(self, n_max: int) -> float:
        """``dt_internal``, or the automatic step for a field cut at n_max."""
        if self.dt_internal is not None:
            return self.dt_internal
        return default_dt_internal(
            self.delta, n_max, self.p if self.motion is Motion.MOVING else 1
        )


@dataclass(frozen=True)
class CompositeState:
    """Complex amplitudes over (atomic level, photon number).

    Shape (3, n_ph + 1); unit Euclidean norm by convention.  Instances are
    immutable (the array is marked read-only) and safe to share.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex)
        if a.ndim != 2 or a.shape[0] != 3 or a.shape[1] < 3:
            raise ValueError(
                f"amplitudes must have shape (3, n_ph + 1) with n_ph >= 2, "
                f"got {a.shape}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def n_ph(self) -> int:
        """Largest photon number retained in the basis."""
        return self.amplitudes.shape[1] - 1


def mode_shape(tau, config: SystemConfig):
    """Mode amplitude seen by the atom: sin(p tau) when moving, 1 otherwise."""
    tau = np.asarray(tau, dtype=float)
    if config.motion is Motion.MOVING:
        out = np.sin(config.p * tau)
    else:
        out = np.ones_like(tau)
    return float(out) if out.ndim == 0 else out


def pulse_area(tau, config: SystemConfig):
    """Accumulated mode area: integral of mode_shape from 0 to tau.

    (1 - cos(p tau)) / p for a moving atom (periodic, vanishing at
    tau = 2 pi k / p), plain tau when the motion is neglected.
    """
    tau = np.asarray(tau, dtype=float)
    if config.motion is Motion.MOVING:
        out = (1.0 - np.cos(config.p * tau)) / config.p
    else:
        out = tau.copy() if tau.ndim else tau
    return float(out) if out.ndim == 0 else out


def initial_state(config: SystemConfig, dist: PhotonDistribution) -> CompositeState:
    """Product state (cos(theta) |upper> - sin(theta) |middle>) x field.

    Both atomic branches carry the same normalized photon weights; the
    ground level starts empty.  The basis keeps photons up to n_max + 2 so
    that every populated ladder has room for its two-photon partner.
    """
    n_ph = dist.n_max + 2
    amps = np.zeros((3, n_ph + 1), dtype=complex)
    amps[0, : dist.n_max + 1] = math.cos(config.theta) * dist.weights
    amps[1, : dist.n_max + 1] = -math.sin(config.theta) * dist.weights
    return CompositeState(amps)


@functools.lru_cache(maxsize=64)
def _ladder_roots(n_ph: int) -> np.ndarray:
    """sqrt(n + 1) for n = 0..n_ph-1, the ladder couplings of a basis cut at
    n_ph; complex, so that the amplitudes multiply them without a cast."""
    roots = np.sqrt(np.arange(1.0, n_ph + 1.0)).astype(complex)
    roots.setflags(write=False)
    return roots


def ladder_expectation(state: CompositeState | np.ndarray) -> complex | np.ndarray:
    """Expectation of the raising half A of the coupling operator V = A + A^dagger,

        A = sum_n sqrt(n+1) (|2,n+1><1,n| + |2,n><3,n+1|).

    2 Re<A> is <V>; under H' = lambda V + delta P2 (the rotating frame,
    P2 the level-2 projector) d<V>/dtau = i delta <[P2, V]> = -2 delta Im<A>.
    An array of shape (..., 3, n_ph + 1) gives one value per leading index
    (a complex for a single state).
    """
    if isinstance(state, CompositeState):
        a = state.amplitudes
    else:
        a = np.asarray(state, dtype=complex)
    mid = a[..., 1, :].conj()
    terms = mid[..., 1:] * a[..., 0, :-1]
    terms += mid[..., :-1] * a[..., 2, 1:]
    total = np.add.reduce(terms * _ladder_roots(a.shape[-1] - 1), axis=-1)
    return complex(total) if total.ndim == 0 else total


def coupling_expectation(state: CompositeState | np.ndarray) -> float | np.ndarray:
    """Expectation of the coupling operator V (H = g lambda(tau) V on resonance).

    V connects |1,n> <-> |2,n+1> with sqrt(n+1) and |2,m> <-> |3,m+1> with
    sqrt(m+1); its expectation is conserved under resonant evolution.  An
    array of shape (..., 3, n_ph + 1) gives one value per leading index (a
    float for a single state).
    """
    return 2.0 * ladder_expectation(state).real


def default_dt_internal(delta: float, n_max: int, p: int = 1) -> float:
    """Automatic integrator step for the fourth-order (CF4) stepping.

    0.3 over the fastest rate in the problem (the detuning, the largest
    ladder frequency sqrt(2 n_max + 3) and the mode's p), shrunk by sqrt(p)
    for the mode curvature: at fixed step the CF4 error grows about as p^2.
    On the 2000-point presets this is one step per output interval at p = 1
    and two at p = 2 with delta = 20.
    """
    return 0.3 / (max(abs(delta), math.sqrt(2.0 * n_max + 3.0), p) * math.sqrt(p))
