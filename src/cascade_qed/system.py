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
    grid; ``dt_internal`` bounds the integrator step in scaled time, ``None``
    picking the automatic one (see ``substeps``).
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
        if self.motion is Motion.MOVING:
            try:
                phase_span = self.p * self.tau_max
            except OverflowError:  # an int p too large for a double
                phase_span = math.inf
            if not math.isfinite(phase_span):
                raise ValueError(
                    f"p * tau_max must be a finite double for a moving atom, got "
                    f"tau_max = {self.tau_max!r} and a p of {int(self.p).bit_length()} bits"
                )
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps!r}")
        if self.n_steps > np.iinfo(np.intp).max:  # no array index holds it
            raise ValueError(f"n_steps must be <= {np.iinfo(np.intp).max}, the largest index")
        if self.dt_internal is not None and not (
            math.isfinite(self.dt_internal) and self.dt_internal > 0.0
        ):
            raise ValueError(f"dt_internal must be > 0, got {self.dt_internal!r}")

    def taus(self) -> np.ndarray:
        """The output grid: ``n_steps`` equally spaced times from 0 to ``tau_max``."""
        return np.linspace(0.0, self.tau_max, self.n_steps)

    def substeps(self, n_max: int) -> float:
        """Substeps the fourth-order (CF4) stepping of a field cut at n_max
        takes in every output interval: the fewest equal ones no longer than
        the step over the grid spacing tau_max / (n_steps - 1).

        The step is ``dt_internal``, or else 0.3 over the fastest rate in the
        problem (the detuning, the largest ladder frequency sqrt(2 n_max + 3)
        and the mode's p, taken as 1 when the motion is neglected), shrunk
        by sqrt(p) for the mode curvature: at fixed step the CF4 error grows
        about as p^2.  On the 2000-point presets this is one substep per
        interval at p = 1 and two at p = 2 with delta = 20.  The count is a
        float, ``inf`` for a step that underflows to 0, so that a count no
        integer holds can be refused before evolving.
        """
        step = self.dt_internal
        if step is None:
            p = self.p if self.motion is Motion.MOVING else 1
            step = 0.3 / (max(abs(self.delta), math.sqrt(2.0 * n_max + 3.0), p) * math.sqrt(p))
        count = self.tau_max / (self.n_steps - 1) / step if step > 0.0 else math.inf
        return max(1.0, float(np.ceil(count - 1e-12)))


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


def mode_shape(tau, config: SystemConfig) -> np.ndarray:
    """Mode amplitude seen by the atom at each tau: sin(p tau) when moving,
    1 otherwise, as an array of tau's shape."""
    tau = np.asarray(tau, dtype=float)
    if config.motion is Motion.MOVING:
        return np.sin(config.p * tau)
    return np.ones_like(tau)


def pulse_area(tau, config: SystemConfig) -> np.ndarray:
    """Accumulated mode area at each tau: integral of mode_shape from 0 to tau.

    (1 - cos(p tau)) / p for a moving atom (periodic, vanishing at
    tau = 2 pi k / p), plain tau when the motion is neglected; an array of
    tau's shape.
    """
    tau = np.asarray(tau, dtype=float)
    if config.motion is Motion.MOVING:
        return (1.0 - np.cos(config.p * tau)) / config.p
    return tau.copy()


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


def _edge_weight(config: SystemConfig, dist: PhotonDistribution) -> float:
    """Weight of ``initial_state(config, dist)`` in the only lanes that reach
    the top photon column n_max + 2, of which it fills |1, n_max> alone:
    cos^2(theta) c_{n_max}^2.  Lanes never couple, so no evolution puts more
    than this in the column.
    """
    x = math.cos(config.theta) * float(dist.weights[-1])
    return x * x


def _lanes(n_ph: int):
    """(r, xi, eta) of the lanes j = 0..n_ph of a basis cut at n_ph.

    Lane j holds |1, j-1>, |2, j>, |3, j+1> with couplings lambda r (xi, eta)
    = lambda (sqrt(j), sqrt(j+1)): lanes 1..n_ph-1 are full triples, lane 0
    the pair (|2,0>, |3,1>) and lane n_ph the pair (|1,n_ph-1>, |2,n_ph>).
    """
    a2 = np.arange(n_ph + 1, dtype=float)
    b2 = np.where(a2 < n_ph, a2 + 1.0, 0.0)
    r = np.sqrt(a2 + b2)
    return r, np.sqrt(a2) / r, np.sqrt(b2) / r


def _abs2(z: np.ndarray, out=None) -> np.ndarray:
    """|z|^2 of a complex array; ``out`` (complex, z's shape) takes the products."""
    return np.multiply(z, np.conjugate(z, out=out), out=out).real


def _lane_split(a: np.ndarray, xi, eta):
    """Bright, middle and dark amplitudes (xi u + eta w, v, eta u - xi w) of
    the lanes (u, v, w) of amplitudes ``a``, shape (..., 3, n_ph + 1), each
    of shape (..., n_ph + 1); only the first two mix.  The singletons |1,n_ph>
    and |3,0> stand in for the edge lanes' missing partners, where they are
    dark.  The inverse is u = xi b + eta d, w = eta b - xi d.
    """
    u = np.concatenate((a[..., 0, -1:], a[..., 0, :-1]), axis=-1)  # np.roll, without its cost
    w = np.concatenate((a[..., 2, 1:], a[..., 2, :1]), axis=-1)
    return xi * u + eta * w, a[..., 1, :], eta * u - xi * w


def ladder_expectation(r, bright: np.ndarray, middle: np.ndarray, out=None) -> np.ndarray:
    """Expectation of the raising half A of the coupling operator V = A + A^dagger,

        A = sum_n sqrt(n+1) (|2,n+1><1,n| + |2,n><3,n+1|) = sum_j r_j |v_j><b_j|,

    from the lanes' r (``_lanes``) and bright and middle amplitudes
    (``_lane_split``): one value per leading index.  2 Re<A> is <V>; under
    H' = lambda V + delta P2 (P2 the level-2 projector) d<V>/dtau =
    i delta <[P2, V]> = -2 delta Im<A>.  ``out`` (complex, middle's shape)
    takes the products.
    """
    prod = np.multiply(np.conjugate(middle, out=out), bright, out=out)
    return np.add.reduce(np.multiply(r, prod, out=prod), axis=-1)


def coupling_expectation(state: CompositeState) -> float:
    """Expectation of the coupling operator V (H = g lambda(tau) V on resonance).

    V connects |1,n> <-> |2,n+1> with sqrt(n+1) and |2,m> <-> |3,m+1> with
    sqrt(m+1); its expectation is conserved under resonant evolution.
    """
    r, xi, eta = _lanes(state.n_ph)
    return float(2.0 * ladder_expectation(r, *_lane_split(state.amplitudes, xi, eta)[:2]).real)
