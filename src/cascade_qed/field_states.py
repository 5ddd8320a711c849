"""Photon-number statistics of the initial cavity field.

Builds normalized number-state amplitude distributions for a coherent state
and for the one-parameter family of superpositions |alpha> + r|-alpha>
(r = +1: even cat, r = -1: odd cat, r = 0: plain coherent state), truncated
where the photon-number tail mass falls below the fixed ``EPSILON_TAIL``.
One scan over a doubling window finds that cutoff, and an alpha whose first
window is over ``_MAX_SCAN_WINDOW`` states is refused before it allocates.
``coherent_coefficients`` carries the rounding of its mode amplitude as a
factor common to every amplitude; each output is a ratio that cancels it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldSpecError",
    "FieldSpec",
    "PhotonDistribution",
    "coherent_coefficients",
    "normalization_constant",
    "EPSILON_TAIL",
    "superposed_distribution",
]

# photon-number probability mass allowed beyond the truncated basis
EPSILON_TAIL = 1e-12
_MAX_SCAN_WINDOW = 1_000_000


class FieldSpecError(ValueError):
    """Invalid field parameters."""


@dataclass(frozen=True)
class FieldSpec:
    """Field amplitude and superposition constant.

    ``alpha`` is taken real and nonnegative (only alpha^2 and real photon
    amplitudes enter anywhere downstream).
    """

    alpha: float
    r: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise FieldSpecError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        if not math.isfinite(self.r):
            raise FieldSpecError(f"r must be finite, got {self.r!r}")


@dataclass(frozen=True)
class PhotonDistribution:
    """Normalized photon-number amplitudes c_n for n = 0..n_max.

    ``weights`` is a real array with unit Euclidean norm; ``norm_constant``
    is the superposition normalizer B; ``dropped_tail`` is the scanned mass
    above ``n_max`` over the whole scanned mass.  Both normalize away the
    common rounding factor of ``coherent_coefficients``.
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

    q_m at the mode m = min(n_max, floor(alpha^2)) is taken from log space
    (an exact sum of log(alpha / sqrt(n)) over n <= m, less alpha^2 / 2);
    the rest is built outward by running products of alpha / sqrt(n) above
    m and sqrt(n) / alpha below it.  No product grows, so nothing overflows
    and the tails underflow to 0.  q_m's rounding is a factor common to
    every q_n, which every program output normalizes away.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    m = int(min(alpha * alpha, n_max))
    roots = np.sqrt(np.arange(1.0, n_max + 1.0))  # sqrt(n) for n = 1..n_max
    rises = alpha / roots  # q_n / q_{n-1}
    q = np.empty(n_max + 1)
    q[m] = math.exp(math.fsum(np.log(rises[:m])) - 0.5 * alpha * alpha)
    q[m + 1 :] = q[m] * np.cumprod(rises[m:])
    q[:m] = q[m] * np.cumprod(roots[:m][::-1] / alpha)[::-1]
    return q


def normalization_constant(alpha: float, r: float) -> float:
    """Normalizer B of the superposition weights q_n (1 + r(-1)^n).

    B = 1 + r^2 + 2 r exp(-2 alpha^2) is the value that makes the weights
    sum to one in quadrature; it is evaluated as
    (1 + r)^2 + 2 r expm1(-2 alpha^2) to stay accurate near the vanishing
    superposition, and is zero only for alpha = 0, r = -1.  An r whose
    (1 + r)^2 overflows a double is refused.
    """
    try:
        B = (1.0 + r) ** 2 + 2.0 * r * math.expm1(-2.0 * alpha * alpha)
    except OverflowError:
        raise FieldSpecError(f"r={r!r} is too large: (1 + r)^2 overflows") from None
    if B <= 0.0:
        raise FieldSpecError(
            f"superposition with alpha={alpha}, r={r} has zero total weight"
        )
    return B


def _parity(n_max: int, r: float) -> np.ndarray:
    """Parity factors 1 + r (even n) and 1 - r (odd n) for n = 0..n_max."""
    return np.where(np.arange(n_max + 1) % 2 == 0, 1.0 + r, 1.0 - r)


def superposed_distribution(spec: FieldSpec) -> PhotonDistribution:
    """Truncated, renormalized amplitudes c_n = q_n (1 + r(-1)^n) / sqrt(B).

    The parity factor is applied as exact (1 + r) / (1 - r) alternation so
    that cat states carry exact zeros on the forbidden parity.  The cutoff is
    the smallest n whose tail mass sum_{k > n} c_k^2 is below
    ``EPSILON_TAIL``, plus 2; a single scan finds it, over a window that
    starts at max(32, int(2 alpha^2) + 16) and doubles until its top weights
    underflow.  An alpha whose first window exceeds ``_MAX_SCAN_WINDOW`` is
    refused before anything is allocated.
    """
    B = normalization_constant(spec.alpha, spec.r)
    # clamped first, so that an alpha^2 that overflows still reaches the check
    n_hi = max(32, int(min(2.0 * spec.alpha * spec.alpha, _MAX_SCAN_WINDOW)) + 16)
    if n_hi > _MAX_SCAN_WINDOW:
        raise FieldSpecError(
            f"alpha={spec.alpha!r} needs a photon-number scan window over the "
            f"ceiling of {_MAX_SCAN_WINDOW} states; lower alpha"
        )
    while True:
        raw = coherent_coefficients(spec.alpha, n_hi) * _parity(n_hi, spec.r)
        w = raw * raw / B  # unnormalized probabilities
        # window is wide enough once the top weights have underflowed
        if np.max(w[-4:]) == 0.0:
            break
        n_hi *= 2
    tail = np.cumsum(w[::-1])[::-1]  # tail[k] = sum of w_n for n >= k
    n_max = int(np.nonzero(tail[1:] < EPSILON_TAIL)[0][0]) + 2
    raw = raw[: n_max + 1] / math.sqrt(B)
    kept = float(np.add.reduce(raw * raw))
    if kept <= 0.0:
        raise FieldSpecError(
            f"superposition with alpha={spec.alpha}, r={spec.r} has zero weight "
            f"on the truncated basis"
        )
    weights = raw / math.sqrt(kept)
    return PhotonDistribution(
        n_max=n_max,
        weights=weights,
        norm_constant=B,
        dropped_tail=float(tail[n_max + 1] / tail[0]),
    )
