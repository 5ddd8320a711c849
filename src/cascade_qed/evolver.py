"""Block-diagonal numerical propagation for arbitrary detuning and motion.

The interaction Hamiltonian carries explicit exp(+-i delta tau) factors on
its couplings.  Internally the evolver works in the rotating frame that
removes them: every level-2 amplitude is multiplied by exp(-i delta tau),
which turns each invariant block into a real symmetric matrix

    H'(tau) = lambda(tau) * couplings  +  delta on level-2 diagonal entries

whose only time dependence is the smooth mode shape.  Propagation uses the
fourth-order commutator-free Magnus scheme CF4 (Blanes & Moan, Appl. Numer.
Math. 56 (2006) 1519): over a step [t, t + h] it samples lambda at the two
Gauss nodes and applies two exact exponentials of H' with effective mode
amplitudes, each over h/2.  On a lane's (bright, middle) plane each is an
SU(2) matrix, built in closed form, times a phase that every lane shares;
that phase, exp(-i delta tau / 2) in all, is applied exactly on the output
grid.  The frame is undone there too, so overlaps, phases and any kept
states live in the same interaction picture as the closed-form resonant
route; the tests pin the sign convention of the frame map against a direct
integration of the original Hamiltonian with its oscillating phases.

The dynamical phase is integrated on the same step grid, to the same
order: the trapezoid sum of <H> with the Euler-Maclaurin endpoint
correction, which takes the exact derivative d<H>/dtau at every node.

Each block is a lane (``system._lanes``), whose dark combination of its
level-1 and level-3 amplitudes is stationary: a lane advances as its
(bright, middle) pair, one 2x2 map per step.  ``evolve`` works a chunk of
steps at a time: it builds the chunk's substep grid, mode-shape samples
and plane maps, applies them, and reduces the pairs to <A> and to the
``Trajectory`` observables while they are still in cache.  The maps and
then the reductions' complex products are written into one work buffer,
allocated once per call, and every step's operands are made then too, so
that a step allocates nothing.  The maps' real intermediates are written
into a second buffer made once per call, so that building a chunk's maps
takes no fresh array of the chunk's size, whose pages the allocator would
hand back to the system and fault in again for the next chunk.  A chunk
holds about a fixed number of lane entries, so memory does not grow with
the substep count, nor with the basis up to that many lanes; a larger
basis takes one step per chunk, and memory grows with it.  All reductions
use a fixed deterministic order.  Curves that differ only in their
initial state advance together as a batch that shares each propagator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .system import CompositeState, Motion, SystemConfig, mode_shape
from .system import _abs2, _lane_split, _lanes, ladder_expectation

__all__ = [
    "NormDriftError",
    "Trajectory",
    "TrajectoryBatch",
    "evolve",
]

_NORM_DRIFT_LIMIT = 1e-6

# CF4: lambda is sampled at the Gauss nodes t + (1/2 -+ sqrt(3)/6) h, and the
# two exponentials carry 2 (a2 lam1 + a1 lam2) and 2 (a1 lam1 + a2 lam2) with
# a1,2 = (3 -+ 2 sqrt(3)) / 12, that is mean(lam) +- (lam1 - lam2) / sqrt(3)
# (exactly 1 for a constant mode shape).
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_CF4_SKEW = 1.0 / math.sqrt(3.0)
# A chunk of steps is built and applied together: the fewest steps that hold
# _CHUNK_LANES lane entries (113 for fig4b's 73 lanes), so that its arrays
# keep one size up to _CHUNK_LANES lanes (alpha about 88).  For the fig4b
# pair the lane pairs (32 bytes per lane entry and curve) take 520 KiB, the
# work buffer, which holds the maps (64 bytes per lane entry) and then the
# reductions' products, 520 KiB, and the maps' real scratch (80 bytes per
# lane entry) 644 KiB.  Each step's operands, views of these and one
# products buffer of 64 bytes per lane and curve, are made once per call;
# one warm call, its states built beforehand, peaks at 2.32 MiB
# (tracemalloc, numpy 2.4).  None of it is made per chunk: per-chunk arrays
# of about 132 KB fault their pages in again in every fresh process.
# A larger basis takes one step per chunk, so its arrays grow with the
# basis: a whole alpha = 137 run, inside the CLI's photon-cutoff ceiling,
# peaks at 10.47 MB (in one process, after a fig4b and an alpha = 40 run).
_CHUNK_LANES = 1 << 13


class NormDriftError(RuntimeError):
    """State norm drifted beyond tolerance (broken propagator or input)."""


@dataclass(frozen=True)
class Trajectory:
    """Observables of an evolution on the output grid, plus diagnostics.

    ``overlap`` is the survival amplitude <psi(0)|psi(tau)> and
    ``populations`` the level populations, shape (n_out, 3).  ``norm_error``
    is each state's norm drift.  ``expectation_V`` is the coupling-operator
    expectation (conserved on resonance) and ``phi_dynamical`` the
    accumulated dynamical phase, minus the integral of <H>/g from 0.
    ``substeps`` counts the integrator steps taken.  ``states`` holds the
    states, shape (n_out, 3, n_ph + 1), when ``evolve`` was asked to keep
    them, and is empty, shape (0, 3, n_ph + 1), otherwise.
    """

    taus: np.ndarray
    overlap: np.ndarray
    populations: np.ndarray
    norm_error: np.ndarray
    expectation_V: np.ndarray
    phi_dynamical: np.ndarray
    substeps: int
    states: np.ndarray


@dataclass(frozen=True)
class TrajectoryBatch:
    """Curves evolved together through shared propagators.

    ``states`` stacks the curves' kept states, shape (n_curves, n_out, 3,
    n_ph + 1), or is empty, (n_curves, 0, 3, n_ph + 1); ``curves`` holds one
    ``Trajectory`` per curve, in input order, with views into the batch's.
    """

    states: np.ndarray
    curves: tuple[Trajectory, ...]


def _plane_sums(r, delta: float, dtau, scratch):
    """exp(-i dtau M) less its phase exp(-i delta dtau / 2) on the plane of
    the bright b = xi u + eta w and the middle v of lanes (u, v, w),

        M = [[0, r xi, 0], [r xi, delta, r eta], [0, r eta, 0]],  xi^2 + eta^2 = 1,

    where eta u - xi w stays: with s^2 = r^2 + delta^2 / 4 and x = dtau s,

        [[p + i q, -i w], [-i w, p - i q]],  p = 1 - 2 sin^2(x / 2),
        q = (delta / 2) sin(x) / s,  w = r sin(x) / s.

    Returns the real (sin^2(x / 2), q, w), both sines rational in tan(x / 2)
    (numpy's tan takes a fraction of sin's time), so p^2 + q^2 + w^2 = 1 to
    rounding whatever tan's error; at s = 0 the identity.  ``dtau``
    broadcasts against ``r``.  ``scratch``, five contiguous float arrays of
    r's shape, holds s, t, sin^2(x / 2), q and w in that order; the last
    three are returned.  ``r`` may be the w slot, which takes r t in place.
    """
    s, t, half2, q, w = scratch
    np.multiply(r, r, out=s)
    s += 0.25 * delta * delta
    np.sqrt(s, out=s)
    np.multiply(0.5 * dtau, s, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=half2)
    inv = np.add(half2, 1.0, out=q)  # in the q slot until q is made
    np.reciprocal(inv, out=inv)
    half2 *= inv  # sin^2(x / 2)
    t *= inv
    t *= 2.0
    t /= np.maximum(s, np.finfo(float).tiny, out=s)  # sin(x) / s, 0 at s = 0
    np.multiply(0.5 * delta, t, out=q)
    np.multiply(r, t, out=w)
    return half2, q, w


def _step_operands(maps, node) -> list[tuple]:
    """The operands of ``_steps``, made once: for each step i, map i as
    (2, 2, 1, lanes), node rows i and i + 1 and their bright rows, and one
    buffer of the products m[o, i] x[i], shape (2, 2, curves, lanes), with
    its two input columns.  ``maps`` (n, 2, 2, lanes) is where the maps
    will be written; ``node`` (n + 1, 2, curves, lanes) holds the lane
    pairs (b, v) before the first step in row 0."""
    terms = np.empty((2,) + node.shape[1:], dtype=complex)
    columns = terms[:, 0], terms[:, 1]
    rows = [(x, x[0]) for x in node]
    return [(m[:, :, None], x, out, terms, *columns, out_b, x_b)
            for m, (x, x_b), (out, out_b) in zip(maps, rows, rows[1:])]


def _steps(operands) -> None:
    """Take the steps of ``_step_operands``: row i + 1 is [[1 + m00, m01],
    [m10, m11]] (b, v) of row i, by three ufunc calls into the buffers
    given, the products m[o, i] x[i] in (out, in) order."""
    for m, x, out, terms, from_b, from_v, out_b, x_b in operands:
        np.multiply(m, x, out=terms)
        np.add(from_b, from_v, out=out)
        np.add(out_b, x_b, out=out_b)


def _cf4_amplitudes(t, h, config: SystemConfig) -> np.ndarray:
    """Effective mode amplitudes of the CF4 steps [t, t + h], shape (n, 2),
    with the factor applied first in column 0."""
    lam1 = mode_shape(t + (0.5 - _GAUSS_OFFSET) * h, config)
    lam2 = mode_shape(t + (0.5 + _GAUSS_OFFSET) * h, config)
    mean = 0.5 * (lam1 + lam2)
    skew = _CF4_SKEW * (lam1 - lam2)
    # the factor weighted towards the earlier node acts first
    return np.stack((mean + skew, mean - skew), axis=1)


def _cf4_planes(lam, sqrt_r, delta: float, half_h, maps, scratch):
    """Plane maps of CF4 steps less their phase exp(-i delta h / 2), written
    into ``maps``, shape (n, 2, 2, lanes), and returned; 1 less in the corner
    as ``_steps`` takes them.

    ``lam`` (n, 2) holds the effective mode amplitudes of n steps, the factor
    applied first in column 0, and ``half_h`` (n,) half of each step.  The
    product of the two ``_plane_sums`` factors is [[1 + c, m], [-conj(m),
    conj(1 + c)]]; with h1, h2 their sin^2(x / 2), c = 4 h1 h2 - 2 (h1 + h2)
    - q2 q1 - w2 w1 + i (p2 q1 + q2 p1) adds like-signed terms for small
    steps, so nothing cancels.  Every intermediate is written into
    ``scratch``, float (5, 2, n, lanes), factor by factor, as
    ``_plane_sums`` lays it out: once q and w are made, p1 and p2 take the
    s slot and two products the t slot.  Each part of the maps is made in a
    contiguous slot and copied into them, where numpy would buffer a ufunc
    writing to their strided views.
    """
    p, (a, b) = scratch[0], scratch[1]
    r = np.multiply(lam.T[:, :, None], sqrt_r, out=scratch[4])
    (h1, h2), (q1, q2), (w1, w2) = _plane_sums(r, delta, half_h[:, None], scratch)
    np.multiply(2.0, scratch[2], out=p)
    p1, p2 = np.subtract(1.0, p, out=p)
    corner, off, lower, diagonal = maps[:, 0, 0], maps[:, 0, 1], maps[:, 1, 0], maps[:, 1, 1]
    # c = 4 h1 h2 - 2 (h1 + h2) - q2 q1 - w2 w1 + i (p2 q1 + q2 p1), and
    # conj(1 + c), whose imaginary part is -(c.imag + 0.0)
    np.multiply(4.0, h1, out=a)
    a *= h2
    np.add(h1, h2, out=b)
    np.multiply(2.0, b, out=b)
    a -= b
    a -= np.multiply(q2, q1, out=b)
    a -= np.multiply(w2, w1, out=b)
    corner.real = a
    diagonal.real = np.add(a, 1.0, out=a)
    corner.imag = np.add(np.multiply(p2, q1, out=a), np.multiply(q2, p1, out=b), out=a)
    np.add(a, 0.0, out=a)
    diagonal.imag = np.negative(a, out=a)
    # m = q2 w1 - w2 q1 - i (p2 w1 + w2 p1), and -conj(m)
    off.real = np.subtract(np.multiply(q2, w1, out=a), np.multiply(w2, q1, out=b), out=a)
    lower.real = np.negative(a, out=a)
    np.add(np.multiply(p2, w1, out=a), np.multiply(w2, p1, out=b), out=a)
    off.imag = lower.imag = np.negative(a, out=a)
    return maps


@np.errstate(over="ignore", invalid="ignore")  # the norm check reports a blow-up
def evolve(
    initial: CompositeState | Sequence[CompositeState],
    config: SystemConfig,
    *,
    keep_states: bool = False,
) -> Trajectory | TrajectoryBatch:
    """Propagate composite states over the configured output grid.

    Every output interval is covered by the same number of equal substeps,
    ``config.substeps`` of them, and every substep is one CF4 step: two exact
    exponentials of the rotating-frame Hamiltonian, with the mode shape
    sampled at the substep's Gauss nodes.  The observed global error is
    fourth order in the substep, and the stepping is exact whenever the
    mode shape is constant.  The dynamical phase is the Euler-Maclaurin
    corrected trapezoid sum of <H> over the substep nodes, also fourth
    order.  Raises ``NormDriftError`` when the norm of a state on the output
    grid drifts beyond 1e-6 or turns nan, and ``ValueError`` when the step is
    so far below the grid spacing that no integer counts the substeps.

    The lane pairs are reduced to the ``Trajectory`` observables a chunk of
    steps at a time and dropped, so memory grows with the output grid and,
    above ``_CHUNK_LANES`` lanes, with the basis.
    ``keep_states`` also rebuilds the states, n_out * 3 * (n_ph + 1) * 16
    bytes per curve (14 MB for the two fig4b curves); the observables are
    the same bits either way.

    A sequence of states on one basis evolves as a batch: they share every
    propagator, and each curve's amplitudes equal those of evolving it
    alone.  A single state returns its ``Trajectory``; a sequence returns a
    ``TrajectoryBatch``.
    """
    batch = isinstance(initial, Sequence)
    members = list(initial) if batch else [initial]
    if not members or len({m.amplitudes.shape for m in members}) != 1:
        raise ValueError("evolve needs at least one state, all on the same basis")
    amps = np.array([m.amplitudes for m in members], dtype=complex)
    n_curves, _, width = amps.shape
    n_ph = width - 1

    delta = float(config.delta)
    moving = config.motion is Motion.MOVING
    p = config.p
    taus = config.taus()
    n_out = len(taus)
    m = config.substeps(n_ph - 2)  # substeps per output interval
    dt = taus[1] / m  # the step taken, to within rounding
    total = m * (n_out - 1)
    if not total < np.iinfo(np.intp).max:
        raise ValueError(
            f"dt_internal = {dt:.3g} takes {total:.3g} substeps, more than an integer holds"
        )
    m = int(m)
    n_sub = m * (n_out - 1)
    # node j starts a substep at taus[j // m] + (j % m) step_widths[j // m];
    # the last node, tau_max, starts one of width 0
    step_widths = np.append(np.diff(taus) / m, 0.0)

    sqrt_r, xi, eta = _lanes(n_ph)
    bright, middle, dark = _lane_split(amps, xi, eta)
    dark2 = _abs2(dark)
    # the dark shares of the norm, level 1 and level 3, and level 1's cross term
    dark_sums = [np.add.reduce(x, axis=-1) for x in (dark2, eta * eta * dark2, xi * xi * dark2)]
    dark_cross = 2.0 * xi * eta * dark.conj()
    ref = np.stack((bright, middle)).conj()
    turn = np.exp(-0.5j * delta * taus)  # the rotating frame's phase that the pairs lack
    norm_err = np.empty((n_curves, n_out))
    overlap = np.empty((n_curves, n_out), dtype=complex)
    populations = np.empty((n_curves, n_out, 3))
    exp_v = np.empty((n_curves, n_out))
    phi_dyn = np.zeros((n_curves, n_out))
    states = np.empty((n_curves, n_out if keep_states else 0, 3, width), dtype=complex)
    chunk = math.ceil(_CHUNK_LANES / width)
    # row 0 holds the lane pairs at a chunk's first node, row i + 1 those after its step i
    node = np.empty((min(chunk, n_sub) + 1, 2, n_curves, width), dtype=complex)
    # a chunk's plane maps while its steps are applied, then the reductions' products
    work = np.empty(max((len(node) - 1) * 4 * width, node.size), dtype=complex)
    # the plane maps' real intermediates: five slots of (2, steps, width)
    real = np.empty(10 * (len(node) - 1) * width)

    def scratch(shape):
        return work[: math.prod(shape)].reshape(shape)

    # a chunk's maps sit at fixed offsets of work, its pairs at fixed rows of node
    steps = _step_operands(scratch((len(node) - 1, 2, 2, width)), node)

    def observe(ks, pairs, a):
        """Reduce the lane pairs at output nodes ``ks``, shape (len(ks), 2,
        n_curves, width), and their <A>, to the observables.  (u, w) -> (b, d)
        is orthogonal and d constant, so the norm, overlap and populations
        sum |b|^2, |v|^2, |d|^2 and Re(conj(d) b) over the lanes, turned by
        the phase the pairs lack.  Each is one pairwise ``np.add.reduce``
        over a row of lanes: its bits do not depend on the nodes or curves."""
        # b to the rotating frame; v (times exp(i delta tau)) and <A> to the interaction picture
        back = turn[ks, None]
        square = _abs2(pairs, scratch(pairs.shape))
        sums = np.add.reduce(square, axis=-1)
        level1 = np.add.reduce(xi * xi * square[:, 0], axis=-1) + dark_sums[1]
        level3 = np.add.reduce(eta * eta * square[:, 0], axis=-1) + dark_sums[2]
        dark_part = np.multiply(dark_cross, pairs[:, 0], out=scratch(pairs[:, 0].shape))
        cross = (back * np.add.reduce(dark_part, axis=-1)).real
        with_ref = np.add.reduce(np.multiply(ref, pairs, out=scratch(pairs.shape)), axis=-1)
        norm_err[:, ks] = np.abs(np.sqrt(sums[:, 0] + sums[:, 1] + dark_sums[0]) - 1.0).T
        overlap[:, ks] = (back * with_ref[:, 0] + back.conj() * with_ref[:, 1] + dark_sums[0]).T
        rho = level1 + cross, sums[:, 1], level3 - cross
        populations[:, ks] = np.stack(rho, axis=-1).swapaxes(0, 1)
        exp_v[:, ks] = 2.0 * (a * back * back).real.T
        if keep_states:
            b, v = pairs[:, 0] * back[..., None], pairs[:, 1] * back.conj()[..., None]
            u, w = xi * b + eta * dark, eta * b - xi * dark
            rows = np.roll(u, -1, axis=-1), v, np.roll(w, 1, axis=-1)
            states[:, ks] = np.stack(rows, axis=-2).swapaxes(0, 1)

    node[0] = bright, middle
    observe(np.arange(1), node[:1], ladder_expectation(sqrt_r, bright, middle)[None])
    if not np.all(norm_err[:, 0] <= _NORM_DRIFT_LIMIT):  # also refuses nan
        raise ValueError(f"initial states must be unit norm, norm errors {norm_err[:, 0].tolist()}")
    phase = np.full((n_curves, 1), -0.0)  # the phase sum so far; -0.0 + x is x
    for lo in range(0, n_sub, chunk):
        hi = min(lo + chunk, n_sub)
        nodes = np.arange(lo, hi + 1)
        interval, offset = np.divmod(nodes, m)
        t = taus[interval] + offset * step_widths[interval]
        h = step_widths[interval[:-1]]
        n = hi - lo
        _cf4_planes(_cf4_amplitudes(t[:-1], h, config), sqrt_r, delta, 0.5 * h,
                    scratch((n, 2, 2, width)), real[: 10 * n * width].reshape(5, 2, n, width))
        _steps(steps[:n])
        a = ladder_expectation(sqrt_r, node[: n + 1, 0], node[: n + 1, 1],
                               scratch((n + 1, n_curves, width)))
        ks = np.arange(lo // m + 1, hi // m + 1)  # the output nodes in (lo, hi]
        at = slice(m - lo % m, n + 1, m)  # and their rows
        observe(ks, node[at], a[at])
        drift = norm_err[:, ks].T
        breach = ~(drift <= _NORM_DRIFT_LIMIT)  # nan too
        if breach.any():
            k, worst = np.unravel_index(np.argmax(breach), drift.shape)
            raise NormDriftError(
                f"norm drifted by {drift[k, worst]:.3e} at tau = {taus[ks[k]]:g} "
                f"(curve {worst}, dt_internal = {dt}, n_ph = {n_ph})"
            )

        # f = <H>/g = lambda <V> and its exact derivative, with <V> = 2 Re<A>
        # and, in the rotating frame, d<V>/dtau = -2 delta Im<A>; each substep
        # adds the Euler-Maclaurin corrected trapezoid
        # h (f0 + f1) / 2 - h^2 (f1' - f0') / 12.  np.cumsum adds in sequence,
        # so starting from the sum so far gives the bits of one whole sum.
        lam = mode_shape(t, config)
        dlam = p * np.cos(p * t) if moving else np.zeros(len(t))
        v_node = 2.0 * a.real.T
        f = lam * v_node
        df = dlam * v_node - (2.0 * delta) * lam * a.imag.T
        pieces = 0.5 * h * (f[:, 1:] + f[:, :-1]) - (h * h / 12.0) * (df[:, 1:] - df[:, :-1])
        phase = np.cumsum(np.concatenate((phase[:, -1:], pieces), axis=1), axis=1)
        phi_dyn[:, ks] = -phase[:, at]
        node[0] = node[n]

    states.setflags(write=False)
    curves = tuple(
        Trajectory(
            taus=taus,
            overlap=overlap[c],
            populations=populations[c],
            norm_error=norm_err[c],
            expectation_V=exp_v[c],
            phi_dynamical=phi_dyn[c],
            substeps=n_sub,
            states=states[c],
        )
        for c in range(n_curves)
    )
    return TrajectoryBatch(states=states, curves=curves) if batch else curves[0]

