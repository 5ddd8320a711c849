"""Library-independent evaluation of the resonant closed form.

Pure ``math`` code: photon weights from ``math.lgamma`` in log space and
every ladder sum through ``math.fsum``.  It reproduces the closed form as
the library states it, including the omitted middle-level vacuum-rung term
sin^2(theta) c_0^2 cos(A): the middle-level sum starts one rung up.  The
truncation is its own (mean plus twelve standard deviations, renormalized),
so a deviation from the library also bounds the library's truncation.
"""

from __future__ import annotations

import math


def photon_weights(alpha: float, r: float) -> list[float]:
    """Normalized amplitudes c_n of |alpha> + r|-alpha>, n = 0..N."""
    if alpha == 0.0:
        return [1.0]
    n_top = int(math.ceil(alpha * alpha + 12.0 * alpha + 30.0))
    log_alpha = math.log(alpha)
    raw = []
    for n in range(n_top + 1):
        parity = 1.0 + r if n % 2 == 0 else 1.0 - r
        log_q = math.fsum((-0.5 * alpha * alpha, n * log_alpha, -0.5 * math.lgamma(n + 1.0)))
        raw.append(parity * math.exp(log_q))
    norm = math.sqrt(math.fsum(c * c for c in raw))
    return [c / norm for c in raw]


def pulse_area(tau: float, p: int, moving: bool) -> float:
    return (1.0 - math.cos(p * tau)) / p if moving else tau


def overlap(tau: float, alpha: float, theta: float, r: float, p: int,
            moving: bool = True, weights: list[float] | None = None) -> tuple[float, float]:
    """Closed-form x(tau), y(tau) of <psi(0)|psi(tau)> on resonance."""
    # a zero past the top rung closes the sums that reach one rung up
    c = list(weights if weights is not None else photon_weights(alpha, r)) + [0.0]
    area = pulse_area(tau, p, moving)
    cos2 = math.cos(theta) ** 2
    sin2 = math.sin(theta) ** 2
    sin_2t = math.sin(2.0 * theta)
    x_terms = []
    y_terms = []
    for n in range(len(c) - 1):
        w = math.sqrt(2.0 * n + 3.0)
        cos_aw = math.cos(area * w)
        x_terms.append(c[n] * c[n] * cos2 * (n + 2.0 + (n + 1.0) * cos_aw) / (2.0 * n + 3.0))
        x_terms.append(c[n + 1] * c[n + 1] * sin2 * cos_aw)
        y_terms.append(c[n] * c[n + 1] * sin_2t * math.sqrt((n + 1.0) / (2.0 * n + 3.0))
                       * math.sin(area * w))
    return math.fsum(x_terms), math.fsum(y_terms)
