"""Observable series: overlap, Pancharatnam/dynamical/geometric phases, populations.

The total (Pancharatnam) phase of an evolution is the principal argument of
the survival amplitude <psi(0)|psi(tau)>; subtracting the accumulated
energy-expectation integral (the dynamical phase) leaves the geometric
part.  Wherever the survival amplitude collapses to the rounding floor the
phase is undefined and the series records an explicit gap (NaN) rather
than a guess.  The arcsine-convention phase -asin(y/|z|) of the paper's
Eq. 5 is carried alongside as its own column, folded from the Pancharatnam
phase phi rather than taken through asin, which loses digits as |y|/|z|
nears 1: it is -phi, bit for bit, where x >= 0, and phi -+ pi where x < 0,
off the exact angle by phi's own rounding plus pi's (1.2e-16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field_states import PhotonDistribution
from .resonant import overlap_series
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
    ``phi_eq5`` is the paper's Eq. 5 phase, -asin(y/|z|), folded from
    ``phi_pancharatnam``.  Population and norm columns are NaN for series
    built from the closed-form route, which does not produce them.
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


def wrap_angle(phi) -> np.ndarray:
    """Map angles to the interval (-pi, pi], as an array of phi's shape.

    The subtracted multiple of 2 pi rounds (it takes 13 pi to pi + 4.4e-16);
    what it carries past the cut takes pi - ((pi - phi) mod 2 pi) instead.
    """
    phi = np.asarray(phi, dtype=float)
    out = phi - 2.0 * math.pi * np.ceil((phi - math.pi) / (2.0 * math.pi))
    past = (out <= -math.pi) | (out > math.pi)
    if past.any():  # the mod is exact, but can round up to 2 pi
        rest = np.remainder(math.pi - phi, 2.0 * math.pi)
        out = np.where(past, np.where(rest == 2.0 * math.pi, math.pi, math.pi - rest), out)
    return out


def unwrap_with_gaps(phi: np.ndarray) -> np.ndarray:
    """np.unwrap applied independently to each contiguous finite run."""
    phi = np.asarray(phi, dtype=float)
    out = phi.copy()
    # where finiteness flips, padded with non-finite ends: starts and ends alternate
    edges = np.flatnonzero(np.diff(np.isfinite(phi), prepend=False, append=False))
    for lo, hi in zip(edges[::2], edges[1::2]):
        out[lo:hi] = np.unwrap(phi[lo:hi])
    return out


def _phase_columns(x: np.ndarray, y: np.ndarray, phi_dyn: np.ndarray):
    """Pancharatnam, geometric and Eq. 5 series with gaps; the sign of the
    pi folded off the Eq. 5 phase is phi's, since atan2(-0.0, x < 0) = -pi.
    The geometric phase is a gap too where the rounding of phi_dyn alone
    spans half a turn, so that it carries no digit."""
    phi = np.where(np.hypot(x, y) > _OVERLAP_FLOOR, np.arctan2(y, x), np.nan)
    phi_eq5 = np.where(x >= 0.0, -phi, np.where(phi > 0.0, phi - math.pi, phi + math.pi))
    resolved = np.spacing(np.abs(phi_dyn)) < math.pi
    return phi, np.where(resolved, wrap_angle(phi - phi_dyn), np.nan), phi_eq5


def _series(tau, x, y, phi_dyn, rho, norm_error) -> PhaseTimeSeries:
    """The record of one curve from its overlap x + i y, dynamical phase,
    populations (shape (n, 3)) and norm error; the other phases follow."""
    phi_total, phi_geo, phi_eq5 = _phase_columns(x, y, phi_dyn)
    rho11, rho22, rho33 = rho.T.copy()
    return PhaseTimeSeries(
        tau=tau,
        x=x,
        y=y,
        phi_pancharatnam=phi_total,
        phi_dynamical=phi_dyn,
        phi_geometric=phi_geo,
        phi_eq5=phi_eq5,
        rho11=rho11,
        rho22=rho22,
        rho33=rho33,
        norm_error=norm_error,
    )


def series_from_trajectory(trajectory: Trajectory) -> PhaseTimeSeries:
    """Assemble the full observable record from an evolved trajectory."""
    return _series(
        trajectory.taus.copy(),
        trajectory.overlap.real.copy(),
        trajectory.overlap.imag.copy(),
        trajectory.phi_dynamical,
        trajectory.populations,
        trajectory.norm_error.copy(),
    )


def series_from_closed_form(
    config: SystemConfig, dist: PhotonDistribution
) -> PhaseTimeSeries:
    """Assemble the observable record from the resonant closed forms.

    Populations and norm error have no closed-form route here and are
    emitted as gaps.
    """
    taus = config.taus()
    x, y, phi_dyn = overlap_series(taus, config, dist)
    n = len(taus)
    return _series(taus, x, y, phi_dyn, np.full((n, 3), np.nan), np.full(n, np.nan))
