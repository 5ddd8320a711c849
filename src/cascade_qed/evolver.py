"""Block-diagonal numerical propagation for arbitrary detuning and motion.

The interaction Hamiltonian carries explicit exp(+-i delta tau) factors on
its couplings.  Internally the evolver works in the rotating frame that
removes them: every level-2 amplitude is multiplied by exp(-i delta tau),
which turns each invariant block into a real symmetric matrix

    H'(tau) = lambda(tau) * couplings  +  delta on level-2 diagonal entries

whose only time dependence is the smooth mode shape.  Propagation freezes
H' at each step midpoint and applies its exact exponential, built in closed
form from the block spectrum (the characteristic polynomial of a coupling
triple factors as E (E^2 - delta E - R^2), so no iterative eigensolver is
needed on the hot path).  The frame is undone before states are stored, so
stored amplitudes, overlaps and phases all live in the same interaction
picture as the closed-form resonant route; the sign convention of the frame
map is pinned by ``lab_frame_reference``, which integrates the original
Hamiltonian with its oscillating phases directly.

Blocks evolve independently and are written to disjoint array regions, so
processing order cannot change any amplitude; all reductions use a fixed
deterministic order.  The two truncation-edge pairs are triples with one
coupling zero, so one vectorized update advances every block at once, and
curves that differ only in their initial state advance together as a batch
that shares each propagator.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .field_states import superposed_distribution
from .system import (
    CompositeState,
    ManifoldBlock,
    Motion,
    SystemConfig,
    coupling_expectation,
    initial_state,
    mode_shape,
)

__all__ = [
    "NormDriftError",
    "Trajectory",
    "TrajectoryBatch",
    "ConvergenceReport",
    "block_hamiltonian",
    "step_propagator",
    "evolve",
    "convergence_probe",
    "lab_frame_reference",
]

_NORM_DRIFT_LIMIT = 1e-6
_HERMITICITY_TOL = 1e-12


class NormDriftError(RuntimeError):
    """State norm drifted beyond tolerance (broken propagator or input)."""


@dataclass(frozen=True)
class Trajectory:
    """Stored evolution: states on the output grid plus diagnostics.

    ``expectation_V`` is the coupling-operator expectation (conserved on
    resonance); ``h_expectation`` is <H(tau)>/g in the interaction picture.
    The fine internal-grid samples of <H>/g are kept separately so that the
    dynamical-phase quadrature does not alias the fast oscillations;
    ``output_indices`` locates the output nodes inside the fine grid.
    """

    taus: np.ndarray
    states: np.ndarray  # complex, shape (n_out, 3, n_ph + 1)
    expectation_V: np.ndarray
    h_expectation: np.ndarray
    norm_error: np.ndarray
    fine_taus: np.ndarray
    fine_h_expectation: np.ndarray
    output_indices: np.ndarray

    @property
    def n_ph(self) -> int:
        return self.states.shape[2] - 1

    def state_at(self, k: int) -> CompositeState:
        return CompositeState(self.states[k])


@dataclass(frozen=True)
class TrajectoryBatch:
    """Curves evolved together through shared propagators.

    ``states`` stacks the curves' stored states, shape
    (n_curves, n_out, 3, n_ph + 1); ``curves`` holds one ``Trajectory`` per
    curve, in input order, whose arrays are views into the batch's.
    """

    states: np.ndarray
    curves: tuple[Trajectory, ...]


@dataclass(frozen=True)
class ConvergenceReport:
    """Self-convergence probe: deviations under step halving."""

    dt_values: tuple[float, float, float]
    deviation_coarse: float  # max state deviation between dt and dt/2
    deviation_fine: float  # max state deviation between dt/2 and dt/4
    order: float  # log2(coarse/fine); nan at the noise floor


def block_hamiltonian(
    block: ManifoldBlock, tau: float, config: SystemConfig
) -> np.ndarray:
    """Rotating-frame block of H(tau)/g.

    Off-diagonals are the mode shape times the ladder couplings; the
    detuning sits on every level-2 basis state (the frame multiplies
    level-2 amplitudes by exp(-i delta tau) and is undone at output).
    """
    lam = mode_shape(tau, config)
    dim = block.dim
    h = np.zeros((dim, dim))
    for i, c in enumerate(block.couplings):
        h[i, i + 1] = h[i + 1, i] = lam * c
    for i, (level, _photon) in enumerate(block.basis):
        if level == 2:
            h[i, i] = config.delta
    return h


def _triple_step(u, v, w, r, xi, eta, delta: float, dtau: float) -> None:
    """Advance coupling-triple lanes (u, v, w) in place by exp(-i dtau M),

        M = [[0, r xi, 0], [r xi, delta, r eta], [0, r eta, 0]],  xi^2 + eta^2 = 1.

    The dark combination eta u - xi w is stationary; the bright one
    b = xi u + eta w and v mix through [[S0, r S1], [r S1, S2]], the
    spectral sums over the roots E+- of E^2 - delta E - r^2 with
    s = sqrt(delta^2 / 4 + r^2) and w+- = exp(-i dtau E+-):

        S0 = (w- E+ - w+ E-) / 2s,  S1 = (w+ - w-) / 2s,  S2 = (w+ E+ - w- E-) / 2s.

    The root of smaller magnitude is formed as -r^2 over the larger, so no
    subtraction cancels for either sign of delta.  A lane with xi = 0 or
    eta = 0 is a two-level block.  ``r``, ``xi`` and ``eta`` broadcast
    against the lanes, which may carry leading curve axes; every lane needs
    r != 0 or delta != 0.
    """
    r2 = r * r
    s = np.sqrt(r2 + 0.25 * delta * delta)
    if delta >= 0.0:
        e_p = s + 0.5 * delta
        e_m = -r2 / e_p
    else:
        e_m = 0.5 * delta - s
        e_p = -r2 / e_m
    half_inv_s = 0.5 / s
    w_p = np.exp(e_p * (-1j * dtau))
    w_m = np.exp(e_m * (-1j * dtau))
    s0_minus_1 = (w_m * e_p - w_p * e_m) * half_inv_s - 1.0
    rs1 = (w_p - w_m) * (r * half_inv_s)
    s2 = (w_p * e_p - w_m * e_m) * half_inv_s

    bright = xi * u + eta * w
    shift = s0_minus_1 * bright + rs1 * v
    np.add(rs1 * bright, s2 * v, out=v)
    u += xi * shift
    w += eta * shift


def step_propagator(h: np.ndarray, dtau: float) -> np.ndarray:
    """Exact unitary exp(-i h dtau) for a frozen block Hamiltonian.

    Diagonal blocks are phases.  Real 2x2 blocks and the coupling-triple
    structure go through ``_triple_step``, the update ``evolve`` applies,
    propagating the unit vectors (a 2x2 block is a triple lane with one
    coupling zero, once the phase of its second diagonal entry is taken
    out).  Any other Hermitian input falls back to an eigensolver.
    """
    h = np.asarray(h)
    if dtau <= 0.0:
        raise ValueError(f"dtau must be > 0, got {dtau!r}")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > _HERMITICITY_TOL:
        raise ValueError("block Hamiltonian is not Hermitian within 1e-12")
    n = h.shape[0]
    diagonal = np.diag(h).real
    if not np.any(h - np.diag(np.diag(h))):
        return np.diag(np.exp(-1j * dtau * diagonal))
    real_symmetric = np.isrealobj(h) or not np.any(h.imag)
    columns = np.eye(3, dtype=complex)
    u, v, w = columns
    if n == 2 and real_symmetric:
        d1, d2 = diagonal
        _triple_step(u[1:], v[1:], w[1:], float(h[0, 1].real), 0.0, 1.0, d1 - d2, dtau)
        return np.exp(-1j * dtau * d2) * columns[1:, 1:]
    is_triple_shape = (
        n == 3
        and real_symmetric
        and h[0, 0] == 0.0
        and h[2, 2] == 0.0
        and h[0, 2] == 0.0
    )
    if is_triple_shape:
        x, y = float(h[0, 1].real), float(h[1, 2].real)
        r = math.hypot(x, y)
        _triple_step(u, v, w, r, x / r, y / r, float(diagonal[1]), dtau)
        return columns
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * dtau * vals)) @ vecs.conj().T


def _norms(states: np.ndarray) -> np.ndarray:
    """Euclidean norm of each state in a stack of shape (n, 3, n_ph + 1)."""
    flat = np.abs(states).reshape(len(states), -1)
    return np.sqrt(np.add.reduce(np.square(flat), axis=1))


def evolve(
    initial: CompositeState | Sequence[CompositeState], config: SystemConfig
) -> Trajectory | TrajectoryBatch:
    """Propagate composite states over the configured output grid.

    Each output interval is covered by equal substeps no longer than the
    integrator step; every substep applies the exact exponential of the
    rotating-frame Hamiltonian frozen at the substep midpoint (observed
    global error is second order in the substep, and the step is exact
    whenever the mode shape is constant).  Aborts when the norm drifts
    beyond 1e-6.

    A sequence of states on one basis evolves as a batch: they share every
    propagator, and each curve's amplitudes equal those of evolving it
    alone.  A single state returns its ``Trajectory``; a sequence returns a
    ``TrajectoryBatch``.
    """
    batch = not isinstance(initial, CompositeState)
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
    taus = np.linspace(0.0, config.tau_max, config.n_steps)
    dt = config.integrator_step(n_ph - 2)
    grid = taus.tolist()
    substeps = [
        max(1, math.ceil((hi - lo) / dt - 1e-12)) for lo, hi in zip(grid, grid[1:])
    ]
    out_idx = np.concatenate(([0], np.cumsum(substeps))).astype(np.intp)

    # Lane j = 0..n_ph holds |1, j-1>, |2, j>, |3, j+1> with couplings
    # lambda sqrt(j) and lambda sqrt(j+1): lanes 1..n_ph-1 are the full
    # triples, lane 0 is the bottom pair (|2,0>, |3,1>) and lane n_ph the
    # top pair (|1,n_ph-1>, |2,n_ph>); the singletons |3,0> and |1,n_ph> are
    # stationary.  Each curve's state sits in a row of ``buffer`` padded
    # with a zero before and two after, so that the lanes are a strided view
    # of the same memory, with the missing partners of the edge pairs
    # falling on the padding.
    buffer = np.zeros((n_curves, 3 * (width + 1)), dtype=complex)
    psi = buffer[:, 1 : 1 + 3 * width].reshape(n_curves, 3, width)
    psi[...] = amps
    u, v, w = np.moveaxis(buffer.reshape(n_curves, 3, width + 1)[:, :, :width], 1, 0)
    lane = np.arange(width, dtype=float)
    a2 = lane
    b2 = np.where(lane < n_ph, lane + 1.0, 0.0)
    sqrt_r = np.sqrt(a2 + b2)
    # complex dtype, so that the lane updates multiply without a cast
    xi = (np.sqrt(a2) / sqrt_r).astype(complex)
    eta = (np.sqrt(b2) / sqrt_r).astype(complex)

    n_out = len(grid)
    states = np.empty((n_curves, n_out, 3, width), dtype=complex)
    states[:, 0] = psi
    norm_err = np.empty((n_curves, n_out))
    norm_err[:, 0] = np.abs(norm0 - 1.0)
    fine_taus = np.empty(out_idx[-1] + 1)
    fine_lam = np.empty_like(fine_taus)
    fine_v = np.empty((n_curves, len(fine_taus)))
    fine_taus[0] = 0.0
    fine_lam[0] = math.sin(p * 0.0) if moving else 1.0
    fine_v[:, 0] = coupling_expectation(psi)

    node = 0
    for k, m in enumerate(substeps):
        t_lo = grid[k]
        t_hi = grid[k + 1]
        h_sub = (t_hi - t_lo) / m
        for j in range(m):
            lam = math.sin(p * (t_lo + (j + 0.5) * h_sub)) if moving else 1.0
            if lam != 0.0 or delta != 0.0:  # else H vanishes and nothing moves
                _triple_step(u, v, w, lam * sqrt_r, xi, eta, delta, h_sub)
            node += 1
            t_node = t_hi if j == m - 1 else t_lo + (j + 1) * h_sub
            fine_taus[node] = t_node
            fine_lam[node] = math.sin(p * t_node) if moving else 1.0
            fine_v[:, node] = coupling_expectation(psi)

        stored = states[:, k + 1]
        stored[...] = psi
        if delta != 0.0:
            stored[:, 1] *= cmath.exp(1j * delta * t_hi)
        drift = np.abs(_norms(stored) - 1.0)
        norm_err[:, k + 1] = drift
        worst = int(np.argmax(drift))
        if drift[worst] > _NORM_DRIFT_LIMIT:
            raise NormDriftError(
                f"norm drifted by {drift[worst]:.3e} at tau = {t_hi:.6f} "
                f"(curve {worst}, dt_internal = {dt}, n_ph = {n_ph})"
            )

    states.setflags(write=False)
    exp_v = coupling_expectation(states)
    fine_h = fine_v * fine_lam
    h_exp = fine_h[:, out_idx]
    curves = tuple(
        Trajectory(
            taus=taus,
            states=states[c],
            expectation_V=exp_v[c],
            h_expectation=h_exp[c],
            norm_error=norm_err[c],
            fine_taus=fine_taus,
            fine_h_expectation=fine_h[c],
            output_indices=out_idx,
        )
        for c in range(n_curves)
    )
    return TrajectoryBatch(states=states, curves=curves) if batch else curves[0]


def convergence_probe(config: SystemConfig) -> ConvergenceReport:
    """Evolve at dt, dt/2 and dt/4 and report the empirical step order.

    The deviations are max-abs differences between stored amplitudes on the
    shared output grid.  When both deviations sit at the rounding floor
    (time-independent Hamiltonian, where the stepping is exact) the order
    is reported as nan.
    """
    dist = superposed_distribution(config.field)
    psi0 = initial_state(config, dist)
    dt0 = config.integrator_step(dist.n_max)
    runs = [
        evolve(psi0, replace(config, dt_internal=dt0 / 2.0**i)).states
        for i in range(3)
    ]
    dev_coarse = float(np.max(np.abs(runs[0] - runs[1])))
    dev_fine = float(np.max(np.abs(runs[1] - runs[2])))
    if dev_coarse < 1e-14 or dev_fine < 1e-15:
        order = float("nan")
    else:
        order = math.log2(dev_coarse / dev_fine)
    return ConvergenceReport(
        dt_values=(dt0, dt0 / 2.0, dt0 / 4.0),
        deviation_coarse=dev_coarse,
        deviation_fine=dev_fine,
        order=order,
    )


def lab_frame_reference(
    initial: CompositeState, config: SystemConfig, taus
) -> np.ndarray:
    """Independent oracle: integrate with the oscillating phases kept.

    Builds the dense interaction Hamiltonian with its explicit
    exp(+-i delta tau) factors (no rotating frame, no block splitting) and
    integrates the Schroedinger equation adaptively to ~1e-11 tolerance.
    Intended for small toy bases; returns states of shape
    (len(taus), 3, n_ph + 1) in the same picture as ``evolve`` output.
    """
    from scipy.integrate import solve_ivp  # only this oracle needs scipy

    taus = np.asarray(taus, dtype=float)
    amps = np.asarray(initial.amplitudes, dtype=complex)
    n_ph = amps.shape[1] - 1
    dim = 3 * (n_ph + 1)
    delta = float(config.delta)
    moving = config.motion is Motion.MOVING
    p = config.p
    roots = np.sqrt(np.arange(1.0, n_ph + 1.0))

    def hamiltonian(t: float) -> np.ndarray:
        lam = math.sin(p * t) if moving else 1.0
        ph = complex(math.cos(delta * t), math.sin(delta * t))
        h = np.zeros((dim, dim), dtype=complex)
        for n in range(n_ph):
            # <2, n+1| H |1, n> = lam sqrt(n+1) exp(+i delta t)
            i_up = n
            i_mid = (n_ph + 1) + n + 1
            h[i_mid, i_up] = lam * roots[n] * ph
            h[i_up, i_mid] = np.conj(h[i_mid, i_up])
            # <3, n+1| H |2, n> = lam sqrt(n+1) exp(-i delta t)
            j_mid = (n_ph + 1) + n
            j_gnd = 2 * (n_ph + 1) + n + 1
            h[j_gnd, j_mid] = lam * roots[n] * np.conj(ph)
            h[j_mid, j_gnd] = np.conj(h[j_gnd, j_mid])
        return h

    def rhs(t, psi):
        return -1j * (hamiltonian(t) @ psi)

    sol = solve_ivp(
        rhs,
        (float(taus[0]), float(taus[-1])),
        amps.ravel(),
        t_eval=taus,
        method="DOP853",
        rtol=1e-11,
        atol=1e-11,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(len(taus), 3, n_ph + 1)
