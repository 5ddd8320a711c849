"""Photon-number statistics of the initial cavity field.

Builds normalized number-state amplitude distributions for a coherent state
and for the one-parameter family of superpositions |alpha> + r|-alpha>
(r = +1: even cat, r = -1: odd cat, r = 0: plain coherent state), together
with a tail-mass rule for truncating the Fock basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldSpecError",
    "ZeroFieldError",
    "FieldSpec",
    "PhotonDistribution",
    "coherent_coefficients",
    "normalization_constant",
    "choose_truncation",
    "superposed_distribution",
]

# exp(-x) underflows past x ~ 745; switch to log-space evaluation well before
_RECURRENCE_EXPONENT_LIMIT = 700.0
_LOG_FLOOR = -745.0
_TRUNCATION_HARD_CAP = 1_000_000


class FieldSpecError(ValueError):
    """Invalid field parameters."""


class ZeroFieldError(FieldSpecError):
    """The requested superposition has zero total weight (alpha=0, r=-1)."""


@dataclass(frozen=True)
class FieldSpec:
    """Field amplitude, superposition constant and truncation tolerance.

    ``alpha`` is taken real and nonnegative (only alpha^2 and real photon
    amplitudes enter anywhere downstream).  ``epsilon_tail`` bounds the
    photon-number probability mass allowed beyond the truncated basis.
    """

    alpha: float
    r: float = 0.0
    epsilon_tail: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise FieldSpecError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        if not math.isfinite(self.r):
            raise FieldSpecError(f"r must be finite, got {self.r!r}")
        if not (0.0 < self.epsilon_tail <= 1e-3):
            raise FieldSpecError(
                f"epsilon_tail must lie in (0, 1e-3], got {self.epsilon_tail!r}"
            )


@dataclass(frozen=True)
class PhotonDistribution:
    """Normalized photon-number amplitudes c_n for n = 0..n_max.

    ``weights`` is a real array with unit Euclidean norm; ``norm_constant``
    is the superposition normalizer B; ``dropped_tail`` records the
    probability mass removed by truncation (before renormalization).
    """

    n_max: int
    weights: np.ndarray
    norm_constant: float
    dropped_tail: float = 0.0

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n_max + 1,):
            raise ValueError(
                f"weights shape {w.shape} does not match n_max={self.n_max}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def coherent_coefficients(alpha: float, n_max: int) -> np.ndarray:
    """Coherent-state amplitudes q_n = exp(-alpha^2/2) alpha^n / sqrt(n!).

    Evaluated by the stable recurrence q_{n+1} = q_n * alpha / sqrt(n+1)
    (n! overflows a double at n = 171), falling back to log-space when
    exp(-alpha^2/2) itself would underflow.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    if alpha == 0.0:
        q = np.zeros(n_max + 1)
        q[0] = 1.0
        return q
    half_nbar = 0.5 * alpha * alpha
    if half_nbar < _RECURRENCE_EXPONENT_LIMIT:
        q = np.empty(n_max + 1)
        q[0] = math.exp(-half_nbar)
        for n in range(n_max):
            q[n + 1] = q[n] * alpha / math.sqrt(n + 1.0)
        return q
    # log q_n = -alpha^2/2 + n ln(alpha) - ln(n!)/2
    ns = np.arange(n_max + 1, dtype=float)
    log_q = -half_nbar + ns * math.log(alpha) - 0.5 * np.array(
        [math.lgamma(n + 1.0) for n in range(n_max + 1)]
    )
    return np.where(log_q > _LOG_FLOOR, np.exp(np.maximum(log_q, _LOG_FLOOR)), 0.0)


def normalization_constant(alpha: float, r: float) -> float:
    """Normalizer B of the superposition weights q_n (1 + r(-1)^n).

    B = 1 + r^2 + 2 r exp(-2 alpha^2) is the value that makes the weights
    sum to one in quadrature; it is evaluated as
    (1 + r)^2 + 2 r expm1(-2 alpha^2) to stay accurate near the vanishing
    superposition, and is zero only for alpha = 0, r = -1.
    """
    B = (1.0 + r) ** 2 + 2.0 * r * math.expm1(-2.0 * alpha * alpha)
    if B <= 0.0:
        raise ZeroFieldError(
            f"superposition with alpha={alpha}, r={r} has zero total weight"
        )
    return B


def _truncation(alpha: float, r: float, epsilon_tail: float) -> tuple[int, np.ndarray]:
    """``choose_truncation``'s cutoff n_max and the coherent amplitudes
    q_0..q_n_max from its scan (the recurrence fixes every prefix, so they
    equal ``coherent_coefficients(alpha, n_max)``)."""
    if not (0.0 < epsilon_tail <= 1e-3):
        raise ValueError(f"epsilon_tail must lie in (0, 1e-3], got {epsilon_tail!r}")
    B = normalization_constant(alpha, r)
    nbar = alpha * alpha
    n_hi = max(32, int(2.0 * nbar) + 16)
    while True:
        q = coherent_coefficients(alpha, n_hi)
        w = q * np.where(np.arange(n_hi + 1) % 2 == 0, 1.0 + r, 1.0 - r)
        w = w * w / B  # unnormalized probabilities
        # window is wide enough once the top weights have underflowed
        if np.max(w[-4:]) == 0.0 or n_hi >= _TRUNCATION_HARD_CAP:
            break
        n_hi *= 2
    tail = np.cumsum(w[::-1])[::-1]  # tail[k] = sum of w_n for n >= k
    below = np.nonzero(tail[1:] < epsilon_tail)[0]
    if below.size == 0:
        raise RuntimeError(
            f"no truncation below epsilon_tail={epsilon_tail} within {n_hi} states"
        )
    n_max = int(below[0]) + 2
    return n_max, q[: n_max + 1]


def choose_truncation(alpha: float, r: float, epsilon_tail: float = 1e-12) -> int:
    """Photon-number cutoff: smallest n with tail mass < epsilon_tail, plus 2.

    The +2 margin keeps the top retained amplitudes far below the tolerance
    once the distribution is embedded in the composite atom-field basis.
    """
    return _truncation(alpha, r, epsilon_tail)[0]


def superposed_distribution(
    spec: FieldSpec, n_max: int | None = None
) -> PhotonDistribution:
    """Truncated, renormalized amplitudes c_n = q_n (1 + r(-1)^n) / sqrt(B).

    The parity factor is applied as exact (1 + r) / (1 - r) alternation so
    that cat states carry exact zeros on the forbidden parity.  ``n_max``
    overrides the automatic tail-based cutoff (used by convergence checks).
    """
    B = normalization_constant(spec.alpha, spec.r)
    if n_max is None:
        n_max, q = _truncation(spec.alpha, spec.r, spec.epsilon_tail)
    else:
        q = coherent_coefficients(spec.alpha, n_max)
    parity = np.where(np.arange(n_max + 1) % 2 == 0, 1.0 + spec.r, 1.0 - spec.r)
    raw = q * parity / math.sqrt(B)
    kept = float(np.add.reduce(raw * raw))
    if kept <= 0.0:
        raise ZeroFieldError(
            f"superposition with alpha={spec.alpha}, r={spec.r} has zero weight "
            f"on the truncated basis"
        )
    weights = raw / math.sqrt(kept)
    return PhotonDistribution(
        n_max=n_max,
        weights=weights,
        norm_constant=B,
        dropped_tail=max(0.0, 1.0 - kept),
    )
