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
amplitudes, each over h/2.  Both have the coupling-triple form, whose
exponential is built in closed form from the block spectrum (the
characteristic polynomial of a triple factors as E (E^2 - delta E - R^2),
so no iterative eigensolver is needed on the hot path).  The frame is
undone before observables are taken, so overlaps, phases and any kept
states live in the same interaction picture as the closed-form resonant
route; the tests pin the sign convention of the frame map against a direct
integration of the original Hamiltonian with its oscillating phases.

The dynamical phase is integrated on the same step grid, to the same
order: the trapezoid sum of <H> with the Euler-Maclaurin endpoint
correction, which takes the exact derivative d<H>/dtau at every node.

Each block is a lane (``system._lanes``), whose dark combination of its
level-1 and level-3 amplitudes is stationary: a lane advances as its
(bright, middle) pair, one 2x2 map per step, and the states are rebuilt
from the pairs and the dark amplitudes only on the output grid.
``evolve`` works a chunk of steps at a time: it builds the chunk's substep
grid, mode-shape samples and plane maps, applies them, and reduces the
pairs to <A> and the states to the ``Trajectory`` observables while they
are still in cache.  A chunk holds about a fixed number of lane entries,
so memory grows with neither the substep count nor the basis.  All
reductions use a fixed deterministic order.  Curves that differ only in
their initial state advance together as a batch that shares each
propagator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .system import CompositeState, Motion, SystemConfig, ladder_expectation, mode_shape
from .system import _lane_split, _lanes

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
# _CHUNK_LANES lane entries (113 for fig4b's 73 lanes, one on a basis of more
# lanes), so that its arrays keep about one size whatever the basis.  The
# plane build's complex arrays, 32 bytes per lane entry, then reach the 256 KiB
# from which numpy reuses a temporary in place; below it, each chunk's
# temporaries fault fresh pages.  The maps (64 bytes per lane entry) and the
# per-node lane pairs (32 per curve) take 516 and 520 KiB for the fig4b pair.
_CHUNK_LANES = 1 << 13


class NormDriftError(RuntimeError):
    """State norm drifted beyond tolerance (broken propagator or input)."""


@dataclass(frozen=True)
class Trajectory:
    """Observables of an evolution on the output grid, plus diagnostics.

    ``overlap`` is the survival amplitude <psi(0)|psi(tau)>, ``populations``
    the level populations, shape (n_out, 3), and ``top_rung_population``
    the population of the basis's top photon column summed over the levels,
    which is leakage into the truncation edge.  ``norm_error`` is each
    state's norm drift.  ``expectation_V`` is the coupling-operator
    expectation (conserved on resonance) and ``phi_dynamical`` the
    accumulated dynamical phase, minus the integral of <H>/g from 0.
    ``substeps`` counts the integrator steps taken.  ``states`` holds the
    states, shape (n_out, 3, n_ph + 1), when ``evolve`` was asked to keep
    them, and is empty, shape (0, 3, n_ph + 1), otherwise.
    """

    taus: np.ndarray
    overlap: np.ndarray
    populations: np.ndarray
    top_rung_population: np.ndarray
    norm_error: np.ndarray
    expectation_V: np.ndarray
    phi_dynamical: np.ndarray
    substeps: int
    states: np.ndarray


@dataclass(frozen=True)
class TrajectoryBatch:
    """Curves evolved together through shared propagators.

    ``states`` stacks the curves' kept states, shape
    (n_curves, n_out, 3, n_ph + 1), or is empty, shape
    (n_curves, 0, 3, n_ph + 1), when they were not kept; ``curves`` holds
    one ``Trajectory`` per curve, in input order, whose arrays are views
    into the batch's.
    """

    states: np.ndarray
    curves: tuple[Trajectory, ...]


def _plane_sums(r, delta: float, dtau):
    """Action of exp(-i dtau M) on the (bright, middle) plane of triple lanes,

        M = [[0, r xi, 0], [r xi, delta, r eta], [0, r eta, 0]],  xi^2 + eta^2 = 1.

    The dark combination eta u - xi w of a lane (u, v, w) is stationary; the
    bright one b = xi u + eta w and v mix through [[S0, r S1], [r S1, S2]],
    the spectral sums over the roots E+- of E^2 - delta E - r^2 with
    s = sqrt(delta^2 / 4 + r^2) and w+- = exp(-i dtau E+-):

        S0 = (w- E+ - w+ E-) / 2s,  S1 = (w+ - w-) / 2s,  S2 = (w+ E+ - w- E-) / 2s.

    Returns (S0 - 1, r S1, S2).  The root of smaller magnitude is formed as
    -r^2 over the larger, so no subtraction cancels for either sign of
    delta; at delta = 0 the sums are cos(r dtau) and -i sin(r dtau), which
    stay defined where r = 0.  ``r`` and ``dtau`` broadcast.
    """
    if delta == 0.0:
        x = r * dtau
        half = np.sin(0.5 * x)
        return -2.0 * half * half, -1j * np.sin(x), np.cos(x)
    r2 = r * r
    s = np.sqrt(r2 + 0.25 * delta * delta)
    if delta > 0.0:
        e_p = s + 0.5 * delta
        e_m = -r2 / e_p
    else:
        e_m = 0.5 * delta - s
        e_p = -r2 / e_m
    half_inv_s = 0.5 / s
    phase = -1j * dtau
    w_p = np.exp(e_p * phase)
    w_m = np.exp(e_m * phase)
    s0_minus_1 = (w_m * e_p - w_p * e_m) * half_inv_s - 1.0
    rs1 = (w_p - w_m) * (r * half_inv_s)
    s2 = (w_p * e_p - w_m * e_m) * half_inv_s
    return s0_minus_1, rs1, s2


def _step(x, m, out) -> None:
    """Write [[1 + m00, m01], [m10, m11]] (b, v) into ``out``, with ``m`` of
    shape (2, 2, lanes) and the lane pairs x = (b, v) of (2, curves, lanes)."""
    terms = m[:, :, None] * x
    np.add(terms[:, 0], terms[:, 1], out=out)
    out[0] += x[0]


def _cf4_amplitudes(t, h, config: SystemConfig) -> np.ndarray:
    """Effective mode amplitudes of the CF4 steps [t, t + h], shape (n, 2),
    with the factor applied first in column 0."""
    lam1 = mode_shape(t + (0.5 - _GAUSS_OFFSET) * h, config)
    lam2 = mode_shape(t + (0.5 + _GAUSS_OFFSET) * h, config)
    mean = 0.5 * (lam1 + lam2)
    skew = _CF4_SKEW * (lam1 - lam2)
    # the factor weighted towards the earlier node acts first
    return np.stack((mean + skew, mean - skew), axis=1)


def _cf4_planes(lam, sqrt_r, delta: float, half_h):
    """Plane maps of CF4 steps: the product of the two exponentials.

    ``lam`` has shape (n, 2), the effective mode amplitudes of n steps with
    the factor applied first in column 0; ``half_h`` has shape (n,), half
    of each step.  Both factors act on the same plane of every lane, so a
    step is one 2x2 map, less 1 in the corner as ``_step`` takes it, and the
    maps have shape (n, 2, 2, lanes).
    """
    sums = _plane_sums(lam[:, :, None] * sqrt_r, delta, half_h[:, None, None])
    a0, a1, a2 = (x[:, 0] for x in sums)
    b0, b1, b2 = (x[:, 1] for x in sums)
    # [[1 + b0, b1], [b1, b2]] @ [[1 + a0, a1], [a1, a2]]
    maps = np.empty((len(lam), 2, 2, sqrt_r.size), dtype=complex)
    maps[:, 0, 0] = a0 + b0 + b0 * a0 + b1 * a1
    maps[:, 0, 1] = a1 + b0 * a1 + b1 * a2
    maps[:, 1, 0] = b1 + b1 * a0 + b2 * a1
    maps[:, 1, 1] = b1 * a1 + b2 * a2
    return maps


def _norms(states: np.ndarray) -> np.ndarray:
    """Euclidean norm of each state in a stack of shape (..., 3, n_ph + 1)."""
    *lead, levels, width = states.shape
    flat = np.abs(states).reshape(*lead, levels * width)
    return np.sqrt(np.add.reduce(np.square(flat), axis=-1))


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
    grid drifts beyond 1e-6, and ``ValueError`` when the step is so far
    below the grid spacing that no integer counts the substeps.

    Each lane is stepped as its (bright, middle) pair, and the states on
    the output grid are rebuilt from the pairs and reduced to the
    ``Trajectory`` observables a chunk of steps at a time, then dropped, so
    memory grows with the output grid only.  ``keep_states`` also keeps
    them, which costs n_out * 3 * (n_ph + 1) * 16 bytes per curve (14 MB for
    the two fig4b curves); the observables are the same bits either way.

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
    norm0 = _norms(amps)
    if np.any(np.abs(norm0 - 1.0) > _NORM_DRIFT_LIMIT):
        raise ValueError(f"initial states must be unit norm, got norms {norm0.tolist()}")

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
    bright, middle, dark = _lane_split(amps, xi, eta)  # the dark amplitudes stay as they start

    def rebuild(b, v):
        """States (k, n_curves, 3, width) of lane pairs (k, n_curves, width)."""
        u, w = xi * b + eta * dark, eta * b - xi * dark
        return np.stack((np.roll(u, -1, axis=-1), v, np.roll(w, 1, axis=-1)), axis=-2)

    # the interaction picture: level-2 amplitudes carry exp(+i delta tau)
    # relative to the rotating frame, so <A> there carries exp(-i delta tau)
    frame = np.exp(1j * delta * taus)
    ref = amps.copy()  # the conjugated initial states, framed as every node is
    ref[:, 1] *= frame[0]
    np.conjugate(ref, out=ref)
    norm_err = np.empty((n_curves, n_out))
    overlap = np.empty((n_curves, n_out), dtype=complex)
    populations = np.empty((n_curves, n_out, 3))
    top_rung = np.empty((n_curves, n_out))
    exp_v = np.empty((n_curves, n_out))
    phi_dyn = np.zeros((n_curves, n_out))
    states = np.empty((n_curves, n_out if keep_states else 0, 3, width), dtype=complex)

    def observe(ks, stored, a):
        """Reduce the rotating-frame states at output nodes ``ks``, shape
        (len(ks), n_curves, 3, width), and their <A>, to the observables.
        Each overlap and population is one pairwise ``np.add.reduce`` over a
        contiguous row, so its bits do not depend on how many nodes a call
        takes."""
        norm_err[:, ks] = np.abs(_norms(stored) - 1.0).T
        exp_v[:, ks] = 2.0 * (a * frame.conj()[ks, None]).real.T
        stored[:, :, 1] *= frame[ks, None, None]
        rows = (ref * stored).reshape(len(ks), n_curves, 3 * width)
        overlap[:, ks] = np.add.reduce(rows, axis=-1).T
        prob = np.abs(stored) ** 2
        populations[:, ks] = np.add.reduce(prob, axis=-1).swapaxes(0, 1)
        top_rung[:, ks] = np.add.reduce(prob[..., -1], axis=-1).T
        if keep_states:
            states[:, ks] = stored.swapaxes(0, 1)

    # tau = 0 is the initial states themselves; a row rebuilt from lanes may round
    observe(np.arange(1), amps[None].copy(), ladder_expectation(sqrt_r, bright, middle)[None])
    phase = np.full((n_curves, 1), -0.0)  # the phase sum so far; -0.0 + x is x
    chunk = math.ceil(_CHUNK_LANES / width)
    # row 0 holds the lane pairs at a chunk's first node, row i + 1 those after its step i
    node = np.empty((min(chunk, n_sub) + 1, 2, n_curves, width), dtype=complex)
    node[0] = bright, middle
    for lo in range(0, n_sub, chunk):
        hi = min(lo + chunk, n_sub)
        nodes = np.arange(lo, hi + 1)
        interval, offset = np.divmod(nodes, m)
        t = taus[interval] + offset * step_widths[interval]
        h = step_widths[interval[:-1]]
        maps = _cf4_planes(_cf4_amplitudes(t[:-1], h, config), sqrt_r, delta, 0.5 * h)
        n = hi - lo
        for i in range(n):
            _step(node[i], maps[i], node[i + 1])
        a = ladder_expectation(sqrt_r, node[: n + 1, 0], node[: n + 1, 1])  # rotating frame
        ks = np.arange(lo // m + 1, hi // m + 1)  # the output nodes in (lo, hi]
        at = ks * m - lo
        observe(ks, rebuild(node[at, 0], node[at, 1]), a[at])
        drift = norm_err[:, ks].T
        if np.any(drift > _NORM_DRIFT_LIMIT):
            k, worst = np.unravel_index(np.argmax(drift > _NORM_DRIFT_LIMIT), drift.shape)
            raise NormDriftError(
                f"norm drifted by {drift[k, worst]:.3e} at tau = {taus[ks[k]]:.6f} "
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
            top_rung_population=top_rung[c],
            norm_error=norm_err[c],
            expectation_V=exp_v[c],
            phi_dynamical=phi_dyn[c],
            substeps=n_sub,
            states=states[c],
        )
        for c in range(n_curves)
    )
    return TrajectoryBatch(states=states, curves=curves) if batch else curves[0]

