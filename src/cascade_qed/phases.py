"""Observable series: overlap, Pancharatnam/dynamical/geometric phases, populations.

The total (Pancharatnam) phase of an evolution is the principal argument of
the survival amplitude <psi(0)|psi(tau)>; subtracting the accumulated
energy-expectation integral (the dynamical phase) leaves the geometric
part.  Wherever the survival amplitude collapses to the rounding floor the
phase is undefined and the series records an explicit gap (NaN) rather
than a guess.  The arcsine-convention phase -asin(y/|z|) of the paper's
Eq. 5 is carried alongside as its own column: for x > 0 it is exactly minus
the Pancharatnam phase, for x < 0 the two differ by the branch fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field_states import PhotonDistribution
from .resonant import dynamical_phase_resonant, overlap_series
from .evolver import Trajectory
from .system import SystemConfig

__all__ = [
    "PhaseTimeSeries",
    "wrap_angle",
    "unwrap_with_gaps",
    "series_from_trajectory",
    "series_from_closed_form",
]

_OVERLAP_FLOOR = 1e-12  # below this the phase of <psi(0)|psi(t)> is noise


@dataclass(frozen=True)
class PhaseTimeSeries:
    """Per-time records of the overlap, phases and level populations.

    Each field is the CSV column of the same name, in column order.  Angles
    are radians; undefined phases are NaN (rendered as empty CSV fields).
    ``phi_eq5`` is the paper's Eq. 5 phase, -asin(y/|z|).  Population and
    norm columns are NaN for series built from the closed-form route, which
    does not produce them.
    """

    tau: np.ndarray
    x: np.ndarray
    y: np.ndarray
    phi_pancharatnam: np.ndarray
    phi_dynamical: np.ndarray
    phi_geometric: np.ndarray
    phi_eq5: np.ndarray
    rho11: np.ndarray
    rho22: np.ndarray
    rho33: np.ndarray
    norm_error: np.ndarray


def wrap_angle(phi):
    """Map angles to the interval (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    out = phi - 2.0 * math.pi * np.ceil((phi - math.pi) / (2.0 * math.pi))
    return float(out) if out.ndim == 0 else out


def unwrap_with_gaps(phi: np.ndarray) -> np.ndarray:
    """np.unwrap applied independently to each contiguous finite run."""
    phi = np.asarray(phi, dtype=float)
    out = phi.copy()
    finite = np.isfinite(phi)
    if not finite.any():
        return out
    edges = np.nonzero(np.diff(finite.astype(int)) != 0)[0] + 1
    bounds = np.concatenate(([0], edges, [len(phi)]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if finite[lo]:
            out[lo:hi] = np.unwrap(phi[lo:hi])
    return out


def _phase_columns(x: np.ndarray, y: np.ndarray, phi_dyn: np.ndarray):
    """Pancharatnam, geometric and Eq. 5 (arcsine-convention) series with gaps."""
    mod = np.hypot(x, y)
    defined = mod > _OVERLAP_FLOOR
    phi_total = np.where(defined, np.arctan2(y, x), np.nan)
    phi_geo = np.where(defined, wrap_angle(phi_total - phi_dyn), np.nan)
    with np.errstate(invalid="ignore"):
        ratio = np.clip(np.where(defined, y / np.where(defined, mod, 1.0), np.nan), -1.0, 1.0)
    return phi_total, phi_geo, -np.arcsin(ratio)


def series_from_trajectory(trajectory: Trajectory) -> PhaseTimeSeries:
    """Assemble the full observable record from an evolved trajectory."""
    x = trajectory.overlap.real.copy()
    y = trajectory.overlap.imag.copy()
    phi_dyn = trajectory.phi_dynamical
    phi_total, phi_geo, phi_eq5 = _phase_columns(x, y, phi_dyn)
    rho = trajectory.populations
    return PhaseTimeSeries(
        tau=trajectory.taus.copy(),
        x=x,
        y=y,
        phi_pancharatnam=phi_total,
        phi_dynamical=phi_dyn,
        phi_geometric=phi_geo,
        phi_eq5=phi_eq5,
        rho11=rho[:, 0].copy(),
        rho22=rho[:, 1].copy(),
        rho33=rho[:, 2].copy(),
        norm_error=trajectory.norm_error.copy(),
    )


def series_from_closed_form(
    config: SystemConfig, dist: PhotonDistribution
) -> PhaseTimeSeries:
    """Assemble the observable record from the resonant closed forms.

    Populations and norm error have no closed-form route here and are
    emitted as gaps.
    """
    taus = np.linspace(0.0, config.tau_max, config.n_steps)
    x, y = overlap_series(taus, config, dist)
    phi_dyn = np.asarray(dynamical_phase_resonant(taus, config, dist), dtype=float)
    phi_total, phi_geo, phi_eq5 = _phase_columns(x, y, phi_dyn)
    blank = np.full(len(taus), np.nan)
    return PhaseTimeSeries(
        tau=taus,
        x=x,
        y=y,
        phi_pancharatnam=phi_total,
        phi_dynamical=phi_dyn,
        phi_geometric=phi_geo,
        phi_eq5=phi_eq5,
        rho11=blank.copy(),
        rho22=blank.copy(),
        rho33=blank.copy(),
        norm_error=blank.copy(),
    )
