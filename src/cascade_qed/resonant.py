"""Closed-form resonant solution: overlap series and dynamical phase.

On resonance the Hamiltonian is proportional to a fixed coupling operator V
scaled by the mode shape, so the evolution is exp(-i A(tau) V) with A the
accumulated pulse area.  V splits into the lanes of ``system._lanes``: on
lane j it couples the bright amplitude b_j to the middle one v_j with
strength r_j and leaves the dark one d_j still.  The initial amplitudes are
real, so the survival amplitude <psi(0)|psi(tau)> and the dynamical phase
-<V>_0 A (<V> is conserved) are

  x(tau) = sum_j d_j^2 + sum_j (b_j^2 + v_j^2) cos(r_j A)
  y(tau) = -sum_j 2 b_j v_j sin(r_j A)
  phi_dynamical(tau) = -A sum_j 2 r_j b_j v_j

In the paper's photon-ladder form lane j = n + 1 has r = sqrt(2n+3),
xi^2 = (n+1)/(2n+3) and eta^2 = (n+2)/(2n+3).  The closed form drops lane
0's middle rung |2,0>, the vacuum contribution sin^2(theta) c_0^2 cos(A)
with c_n the normalized photon amplitudes; this is invisible at large
alpha (c_0^2 = e^-25 at alpha = 5) but measurable at alpha ~ 1, where the
numerical route is the reference.

Each sum is Re or Im of S(A) = sum_j w_j exp(i A r_j) over the kept lanes,
whose frequencies span a narrow band (about 11 wide at alpha = 40).  So
where the grid holds many more points than the band needs nodes (a moving
atom's areas span at most 2 / p), S is summed at a few Chebyshev points in
A only and carried to the grid by barycentric interpolation; elsewhere
the same routine sums each lane at each point (``_ladder_sums``).
References: Trefethen, Approximation Theory and Approximation Practice
(SIAM 2013), chs. 3, 5 and 8; Berrut & Trefethen, SIAM Rev. 46 (2004) 501.
"""

from __future__ import annotations

import math

import numpy as np

from .field_states import PhotonDistribution
from .system import SystemConfig, initial_state, ladder_expectation, pulse_area
from .system import _lane_split, _lanes

__all__ = ["overlap_series"]

_TERM_SKIP = 1e-18  # weights below this (relative to unit norm) are dropped
_BLOCK = 1 << 13  # terms per block: 64 KB of doubles, with its temporaries in cache
# the interpolated sums' cost in direct terms (a trig call, product and sum per
# kept rung and area: 17-35 ns on an AVX-512 Xeon, numpy 2.4): per node and rung
# of the node sums, and per area, node and (rows + 1) of the barycentric
# formula, the upper ends of what was timed there
_NODE_COST = 4.0
_BARYCENTRIC_COST = 0.35


def _chebyshev_degree(c):
    """Degree at which the Chebyshev coefficients of exp(i c t) on [-1, 1],
    2 i^k J_k(c), are all below 1e-17 (checked for 0 <= c <= 1e4); a float,
    ``inf`` for an infinite c."""
    return np.ceil(c + 12.0 * np.cbrt(c) + 16.0)


def _trig_sums(points: np.ndarray, omega: np.ndarray, terms) -> np.ndarray:
    """sum_n w[n] trig(points omega[n]) for each (trig, w) of ``terms``: a
    (len(terms), points) array.  Each distinct trig runs once per block of
    points, into ``out=``; each sum is reduced pairwise along the ladder
    axis, so it does not depend on the block size.  The phases, each trig's
    values and the weighted terms of a block are arrays made once per call."""
    out = np.empty((len(terms), points.size))
    rows = max(1, min(points.size, _BLOCK // max(1, omega.size)))
    # one array each, so that none outgrows _BLOCK doubles
    phase, product = np.empty((rows, omega.size)), np.empty((rows, omega.size))
    values = {trig: np.empty((rows, omega.size)) for trig, _ in terms}
    for lo in range(0, points.size, rows):
        n = min(rows, points.size - lo)
        np.multiply.outer(points[lo : lo + n], omega, out=phase[:n])
        for trig, value in values.items():
            trig(phase[:n], out=value[:n])
        for k, (trig, w) in enumerate(terms):
            np.add.reduce(np.multiply(values[trig][:n], w, out=product[:n]), axis=1,
                          out=out[k, lo : lo + n])
    return out


def _barycentric(points: np.ndarray, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The interpolants of the rows of ``values`` at Chebyshev-Lobatto
    ``nodes``, at ``points``: the second barycentric formula, a block of
    points at a time.  A point on a node (or so near one that 1 / (point -
    node) overflows), where the formula reads nan, takes the node's value.
    A block's q = weight / (point - node) and its products with a row of
    ``values`` are arrays made once per call."""
    weights = np.ones(nodes.size)
    weights[1::2] = -1.0
    weights[[0, -1]] *= 0.5
    out = np.empty((len(values), points.size))
    rows = max(1, min(points.size, _BLOCK // nodes.size))
    q, product = np.empty((rows, nodes.size)), np.empty((rows, nodes.size))
    total = np.empty(rows)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, points.size, rows):
            n = min(rows, points.size - lo)
            block, terms, sums = q[:n], product[:n], total[:n]
            np.subtract.outer(points[lo : lo + n], nodes, out=block)
            np.divide(weights, block, out=block)
            np.add.reduce(block, axis=1, out=sums)
            for k, value in enumerate(values):
                row = out[k, lo : lo + n]
                np.add.reduce(np.multiply(block, value, out=terms), axis=1, out=row)
                row /= sums
    hit = np.nonzero(np.isnan(out[0]))[0]
    node = np.argmin(np.abs(np.subtract.outer(points[hit], nodes)), axis=1)
    out[:, hit] = values[:, node]
    return out


def _ladder_sums(area: np.ndarray, omega: np.ndarray, wx: np.ndarray, wy: np.ndarray):
    """sum_n wx[n] cos(A omega[n]) and sum_n wy[n] sin(A omega[n]) per area A,
    over the nonzero weights; the sine sum is exactly 0 where no wy is kept.

    Both are parts of complex sums S(A) = sum_n w_n exp(i A omega[n]) =
    exp(i w_c A) B(A), with w_c the power of two nearest the band's midpoint
    (so w_c A is exact) and B narrowband.  B is summed at the n + 1
    Chebyshev-Lobatto nodes of the area range, n the degree for
    c = max|omega - w_c| (A_max - A_min) / 2, and carried to the areas by
    barycentric interpolation; as sum_n |w_n| <= 1, the error is a few 1e-17.
    Where that would cost more than one trig call per kept rung and area
    (many nodes against few areas), or where the area range is too narrow
    for distinct nodes, the same trig sums are taken at the areas directly.
    """
    kept = np.nonzero((wx != 0.0) | (wy != 0.0))[0]
    rows = [wx[kept], wy[kept]] if wy.any() else [wx[kept]]
    direct_terms = area.size * (np.count_nonzero(wx) + np.count_nonzero(wy))
    if kept.size and area.size:
        mantissa, exponent = math.frexp(0.5 * (omega[kept[0]] + omega[kept[-1]]))
        centre = math.ldexp(1.0, exponent if mantissa > 0.75 else exponent - 1)
        offset = omega[kept] - centre
        a_lo, a_hi = float(area.min()), float(area.max())
        n = float(_chebyshev_degree(float(np.max(np.abs(offset))) * 0.5 * (a_hi - a_lo)))
        cost = (n + 1.0) * (
            _NODE_COST * kept.size + _BARYCENTRIC_COST * (1 + len(rows)) * area.size
        )
        # the nodes' smallest spacing, about 2.5 (A_max - A_min) / n^2, spans many ulps
        resolved = a_hi - a_lo > n * n * 2.0**-40 * max(abs(a_lo), abs(a_hi))
        if resolved and cost < direct_terms:
            n = int(n)
            t = np.sin(0.5 * math.pi * np.arange(n, -n - 1, -2) / n)  # cos(pi j / n)
            nodes = 0.5 * (a_lo + a_hi) + 0.5 * (a_hi - a_lo) * t
            terms = [(trig, w) for w in rows for trig in (np.cos, np.sin)]
            band = _barycentric(area, nodes, _trig_sums(nodes, offset, terms))
            cos, sin = np.cos(centre * area), np.sin(centre * area)
            x = cos * band[0] - sin * band[1]
            if len(rows) == 1:
                return x, np.zeros(area.shape)
            return x, sin * band[2] + cos * band[3]
    sums = _trig_sums(area, omega[kept], list(zip((np.cos, np.sin), rows)))
    return sums[0], sums[1] if len(rows) == 2 else np.zeros(area.shape)


def overlap_series(
    taus, config: SystemConfig, dist: PhotonDistribution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate x(tau), y(tau) and the dynamical phase -<V>_0 A(tau) on a
    1-D grid of scaled times, from one lane split of the initial state.

    Weights below ``_TERM_SKIP`` are dropped.  x adds the cosine sum of the
    lanes' b^2 + v^2 to the dark weights' sum, y is the sine sum of their
    -2 b v: exactly 0 when none is kept (theta = 0, cat states).  Every
    reduction is ``np.add.reduce`` in a fixed order on one thread, with no
    BLAS call, so the bytes do not depend on the thread count.
    """
    if config.delta != 0.0:
        raise ValueError(
            f"closed-form overlap is resonant only (delta = 0); got "
            f"delta = {config.delta!r} -- use the numerical evolver"
        )
    area = pulse_area(taus, config)
    state = initial_state(config, dist)
    r, xi, eta = _lanes(state.n_ph)
    b, v, d = _lane_split(state.amplitudes, xi, eta)  # complex, as in coupling_expectation
    v0 = 2.0 * ladder_expectation(r, b, v).real
    b, v, d = b.real, v.real, d.real
    wx = b * b + v * v
    wx[0] = 0.0  # the closed form omits the vacuum term, lane 0's |2,0>
    wx[wx < _TERM_SKIP] = 0.0
    wy = -2.0 * b * v
    wy[np.abs(wy) < _TERM_SKIP] = 0.0
    x, y = _ladder_sums(area, r, wx, wy)
    return np.add.reduce(d * d) + x, y, -v0 * area
