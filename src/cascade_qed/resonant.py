"""Closed-form resonant solution: overlap series and derived phases.

On resonance the Hamiltonian is proportional to a fixed coupling operator V
scaled by the mode shape, so the evolution is exp(-i A(tau) V) with A the
accumulated pulse area.  The survival amplitude <psi(0)|psi(tau)> then
reduces to sums over the photon ladder with frequencies sqrt(2n+3):

  x(tau) = sum_n c_n^2 cos^2(theta) [n+2 + (n+1) cos(A w_n)] / (2n+3)
         + sum_n c_{n+1}^2 sin^2(theta) cos(A w_n)
  y(tau) = sum_n c_n c_{n+1} sin(2 theta) sqrt((n+1)/(2n+3)) sin(A w_n)

with w_n = sqrt(2n+3) and c_n the normalized photon amplitudes.  The second
x sum starts one rung up the ladder, so the closed form drops the
middle-level vacuum contribution sin^2(theta) c_0^2 cos(A); this is
invisible at large alpha (c_0^2 = e^-25 at alpha = 5) but measurable at
alpha ~ 1, where the numerical route is the reference.

Both x sums share the frequencies, so x is the constant sum of
c_n^2 cos^2(theta) (n+2)/(2n+3) plus one cosine sum with the folded weight
c_n^2 cos^2(theta) (n+1)/(2n+3) + c_{n+1}^2 sin^2(theta) per rung.
"""

from __future__ import annotations

import math

import numpy as np

from .field_states import PhotonDistribution
from .system import SystemConfig, coupling_expectation, initial_state, pulse_area

__all__ = [
    "overlap_series",
    "dynamical_phase_resonant",
]

_TERM_SKIP = 1e-18  # weights below this (relative to unit norm) are dropped
_BLOCK = 1 << 15  # phases per block of rows: 256 KB, which stays in cache


def _require_resonance(config: SystemConfig) -> None:
    if config.delta != 0.0:
        raise ValueError(
            f"closed-form overlap is resonant only (delta = 0); got "
            f"delta = {config.delta!r} -- use the numerical evolver"
        )


def _ladder_sum(area: np.ndarray, omega: np.ndarray, weights: np.ndarray, trig):
    """sum_n weights[n] trig(area omega[n]) per area, over the nonzero weights.

    The phases are formed a block of rows at a time, and each row is reduced
    on its own along the contiguous ladder axis, so the result does not
    depend on the block size.
    """
    kept = np.nonzero(weights)[0]
    omega, weights = omega[kept], weights[kept]
    out = np.empty(area.shape)
    rows = max(1, _BLOCK // max(1, kept.size))
    for lo in range(0, area.size, rows):
        block = np.multiply.outer(area[lo : lo + rows], omega)
        trig(block, out=block)
        block *= weights
        out[lo : lo + rows] = np.add.reduce(block, axis=1)
    return out


def overlap_series(
    taus, config: SystemConfig, dist: PhotonDistribution
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate x(tau), y(tau) on a 1-D grid of scaled times.

    Weights below ``_TERM_SKIP`` are dropped, and the phases are formed for
    the kept rungs only: one cosine pass for the folded x weights, one sine
    pass for the rungs with a nonzero y weight, so theta = 0 and cat states
    give exact zeros.  Each sum is reduced with ``np.add.reduce`` along the
    ladder axis: numpy's pairwise summation, with an O(log n eps) error
    bound, in a fixed order on one thread and with no BLAS call, so the
    bytes do not depend on the thread count.
    """
    _require_resonance(config)
    area = pulse_area(taus, config)
    c = dist.weights
    ns = np.arange(dist.n_max + 1, dtype=float)
    omega = np.sqrt(2.0 * ns + 3.0)
    cos_t = math.cos(config.theta)
    sin_t = math.sin(config.theta)

    # upper-level ladder anchors, and the middle-level ladder one rung up
    w1 = c * c * (cos_t * cos_t)
    w1[w1 < _TERM_SKIP] = 0.0
    w2 = np.append(c[1:] * c[1:] * (sin_t * sin_t), 0.0)
    w2[w2 < _TERM_SKIP] = 0.0
    x0 = np.add.reduce(w1 * (ns + 2.0) / (2.0 * ns + 3.0))
    x = x0 + _ladder_sum(area, omega, w1 * (ns + 1.0) / (2.0 * ns + 3.0) + w2, np.cos)

    # upper/middle cross terms
    wy = c[:-1] * c[1:] * math.sin(2.0 * config.theta)
    wy *= np.sqrt((ns[:-1] + 1.0) / (2.0 * ns[:-1] + 3.0))
    wy[np.abs(wy) < _TERM_SKIP] = 0.0
    return x, _ladder_sum(area, omega[:-1], wy, np.sin)


def dynamical_phase_resonant(tau, config: SystemConfig, dist: PhotonDistribution):
    """Resonant dynamical phase, -<V>_0 times the accumulated pulse area.

    On resonance <V> is a constant of the motion, so the energy-expectation
    integral collapses to the initial expectation times the area.  For a
    plain coherent field the identity sum_n q_n q_{n+1} sqrt(n+1) = alpha
    makes this sin(2 theta) * alpha * area.
    """
    _require_resonance(config)
    v0 = coupling_expectation(initial_state(config, dist))
    return -v0 * pulse_area(tau, config)
