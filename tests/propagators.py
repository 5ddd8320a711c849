"""The evolver's step maps as matrices, and the independent oracles the
tests check them against.

``cf4_lane_matrices`` runs the code ``evolve`` runs (``_lanes``,
``_cf4_planes``, through ``cf4_planes``, ``_step_operands`` and ``_steps``)
on unit-vector lanes, each split into its bright, middle and dark
amplitudes and rebuilt after the step, once the pair has taken the step's
phase exp(-i delta h / 2) that the maps leave out.
``allocating_plane_sums`` and ``allocating_cf4_planes`` are the plane maps
written as expressions that allocate every intermediate, the bits the
evolver's scratch-writing kernels must reproduce.
``dense_hamiltonian`` and ``lab_frame_reference`` share no code with the
evolver: the first writes the rotating-frame Hamiltonian out as a dense
matrix on the whole (level, photon) rectangle, the second integrates the
interaction Hamiltonian with its oscillating phases kept.
``observables_from_states`` is the reference for the observables ``evolve``
streams: the formulas series assembly applied to stored states before
``evolve`` reduced them itself.  ``edge_weight`` scans any state for the
bound on its top photon column that ``system._edge_weight`` gives in closed
form for the initial state.  ``convergence_probe`` measures the
evolver's empirical step order under step halving, and ``truncated_at``
builds a photon distribution cut at a chosen n_max.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from cascade_qed import (
    CompositeState,
    FieldSpec,
    Motion,
    PhotonDistribution,
    SystemConfig,
    coherent_coefficients,
    evolve,
    initial_state,
    normalization_constant,
    superposed_distribution,
)
from cascade_qed import evolver, system


def cf4_planes(lam, sqrt_r, delta: float, half_h) -> np.ndarray:
    """``evolver._cf4_planes`` into maps and scratch of its own; the maps,
    shape (n, 2, 2, lanes)."""
    maps = np.empty((len(lam), 2, 2, sqrt_r.size), dtype=complex)
    scratch = np.empty((5, 2, len(lam), sqrt_r.size))
    return evolver._cf4_planes(lam, sqrt_r, delta, half_h, maps, scratch)


def allocating_plane_sums(r, delta: float, dtau):
    """Bitwise oracle of ``evolver._plane_sums``: the same operations in the
    same order, each into an array of its own."""
    s = r * r
    s += 0.25 * delta * delta
    np.sqrt(s, out=s)
    t = (0.5 * dtau) * s
    np.tan(t, out=t)
    half2 = t * t
    inv = half2 + 1.0
    np.reciprocal(inv, out=inv)
    half2 *= inv
    t *= inv
    t *= 2.0
    t /= np.maximum(s, np.finfo(float).tiny, out=s)
    return half2, (0.5 * delta) * t, r * t


def allocating_cf4_planes(lam, sqrt_r, delta: float, half_h) -> np.ndarray:
    """Bitwise oracle of ``evolver._cf4_planes``: its formulas as
    expressions, each intermediate an array of its own; the maps, shape
    (n, 2, 2, lanes)."""
    maps = np.empty((len(lam), 2, 2, sqrt_r.size), dtype=complex)
    (h1, h2), (q1, q2), (w1, w2) = (x.swapaxes(0, 1) for x in allocating_plane_sums(
        lam[:, :, None] * sqrt_r, delta, half_h[:, None, None]))
    p1, p2 = 1.0 - 2.0 * h1, 1.0 - 2.0 * h2
    corner, off = maps[:, 0, 0], maps[:, 0, 1]
    corner.real = 4.0 * h1 * h2 - 2.0 * (h1 + h2) - q2 * q1 - w2 * w1
    corner.imag = p2 * q1 + q2 * p1
    off.real = q2 * w1 - w2 * q1
    off.imag = -(p2 * w1 + w2 * p1)
    np.negative(off.conj(), out=maps[:, 1, 0])
    np.conjugate(corner + 1.0, out=maps[:, 1, 1])
    return maps


def cf4_lane_matrices(lam, n_ph: int, delta: float, h: float) -> np.ndarray:
    """The maps of one CF4 step of width h, shape (n_ph + 1, 3, 3): lane j's
    matrix over (|1, j-1>, |2, j>, |3, j+1>).  ``lam`` is the pair of
    effective mode amplitudes, the factor applied first in ``lam[0]``."""
    sqrt_r, xi, eta = system._lanes(n_ph)
    maps = cf4_planes(np.array([lam], dtype=float), sqrt_r, delta, np.array([0.5 * h]))
    # u[c, j], v[c, j], w[c, j]: lane j started from unit vector c, the
    # three starts taking the place of curves
    u, v, w = np.repeat(np.eye(3, dtype=complex)[:, :, None], n_ph + 1, axis=2).swapaxes(0, 1)
    node = np.empty((2, 2) + u.shape, dtype=complex)
    node[0], dark = (xi * u + eta * w, v), eta * u - xi * w
    evolver._steps(evolver._step_operands(maps, node))
    b, v = node[1] * np.exp(-0.5j * delta * h)  # the step's phase, which the maps leave out
    columns = np.stack((xi * b + eta * dark, v, eta * b - xi * dark))
    return columns.transpose(2, 0, 1)


def truncated_at(spec: FieldSpec, n_max: int) -> PhotonDistribution:
    """``superposed_distribution(spec)`` cut at ``n_max`` instead of at its
    tail bound: q_n (1 + r(-1)^n) / sqrt(B) for n = 0..n_max, renormalized.
    ``dropped_tail`` is the mass above ``n_max`` over the whole mass, both
    summed top down over a window of 4 n_max + 200 states, whose top
    weights must have underflowed."""
    B = normalization_constant(spec.alpha, spec.r)
    width = 4 * n_max + 200
    parity = np.where(np.arange(width + 1) % 2 == 0, 1.0 + spec.r, 1.0 - spec.r)
    raw = coherent_coefficients(spec.alpha, width) * parity
    w = raw * raw / B
    assert not np.any(w[-4:]), "the window does not hold the whole tail"
    tail = np.cumsum(w[::-1])[::-1]
    raw = raw[: n_max + 1] / math.sqrt(B)
    kept = float(np.add.reduce(raw * raw))
    return PhotonDistribution(n_max=n_max, weights=raw / math.sqrt(kept), norm_constant=B,
                              dropped_tail=float(tail[n_max + 1] / tail[0]))


def observables_from_states(states: np.ndarray):
    """Overlap with the first state, level populations, top photon column's
    population and norm drift of states of shape (n_out, 3, n_ph + 1)."""
    n = len(states)
    overlap = np.add.reduce((np.conj(states[0])[None, :, :] * states).reshape(n, -1), axis=1)
    prob = np.abs(states) ** 2
    populations = np.add.reduce(prob, axis=2)
    top_rung = np.add.reduce(prob[:, :, -1], axis=1)
    norms = np.sqrt(np.add.reduce(np.square(np.abs(states).reshape(n, -1)), axis=1))
    return overlap, populations, top_rung, np.abs(norms - 1.0)


def edge_weight(a: np.ndarray) -> float:
    """Weight of amplitudes ``a`` (3, n_ph + 1) in the only lanes that reach
    the top photon column: lanes n_ph - 1 and n_ph and the singleton
    |1,n_ph>.  Lanes never couple, so no evolution puts more than this in
    the column."""
    edge = np.concatenate((a[0, -3:], a[1, -2:], a[2, -1:]))
    return float(np.add.reduce(np.abs(edge) ** 2))


def embed_lanes(matrices: np.ndarray) -> np.ndarray:
    """The whole-state map of per-lane matrices, on amplitudes flattened
    row-major from shape (3, n_ph + 1); the singletons |3,0> and |1,n_ph>
    lie in no lane and map to themselves.  The edge lanes' missing partner
    must neither give nor take amplitude."""
    n_ph = len(matrices) - 1
    width = n_ph + 1
    full = np.eye(3 * width, dtype=complex)
    for j, m in enumerate(matrices):
        index = np.array([j - 1, width + j, 2 * width + j + 1])
        inside = np.array([j >= 1, True, j < n_ph])
        assert not np.any(m[np.ix_(inside, ~inside)]) and not np.any(m[np.ix_(~inside, inside)])
        full[np.ix_(index[inside], index[inside])] = m[np.ix_(inside, inside)]
    return full


def dense_hamiltonian(n_ph: int, lam: float, delta: float) -> np.ndarray:
    """Rotating-frame H'/g on the (level, photon) rectangle, row-major as
    the amplitudes: lam sqrt(n+1) between |1,n> and |2,n+1> and between
    |2,n> and |3,n+1>, and delta on every level-2 state."""
    width = n_ph + 1
    h = np.diag(np.repeat([0.0, delta, 0.0], width))
    for n in range(n_ph):
        for level in (0, 1):
            i, k = level * width + n, (level + 1) * width + n + 1
            h[i, k] = h[k, i] = lam * math.sqrt(n + 1.0)
    return h


def lab_frame_reference(
    initial: CompositeState, config: SystemConfig, taus
) -> np.ndarray:
    """Independent oracle: integrate with the oscillating phases kept.

    Writes the dense interaction Hamiltonian, with its explicit
    exp(+-i delta tau) factors, as the two constant coupling matrices those
    factors multiply (no rotating frame, no block splitting), and integrates
    the Schroedinger equation adaptively to ~1e-11 tolerance.
    Intended for small toy bases; returns states of shape
    (len(taus), 3, n_ph + 1) in the same picture as ``evolve`` output.
    """
    from scipy.integrate import solve_ivp  # only this oracle needs scipy

    taus = np.asarray(taus, dtype=float)
    amps = np.asarray(initial.amplitudes, dtype=complex)
    n_ph = amps.shape[1] - 1
    width = n_ph + 1
    delta = float(config.delta)
    moving = config.motion is Motion.MOVING
    p = config.p
    # the couplings that carry exp(+i delta t): <2, n+1| H |1, n> and
    # <2, n| H |3, n+1>, each lam sqrt(n+1) exp(+i delta t); their
    # conjugates, on the transpose, carry exp(-i delta t)
    raising = np.zeros((3 * width, 3 * width))
    for n in range(n_ph):
        raising[width + n + 1, n] = math.sqrt(n + 1.0)
        raising[width + n, 2 * width + n + 1] = math.sqrt(n + 1.0)
    lowering = raising.T.copy()

    def rhs(t, psi):
        lam = math.sin(p * t) if moving else 1.0
        ph = complex(math.cos(delta * t), math.sin(delta * t))
        return -1j * lam * (ph * (raising @ psi) + ph.conjugate() * (lowering @ psi))

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


@dataclass(frozen=True)
class ConvergenceReport:
    """Self-convergence probe: deviations under step halving."""

    dt_values: tuple[float, float, float]
    deviation_coarse: float  # max state deviation between dt and dt/2
    deviation_fine: float  # max state deviation between dt/2 and dt/4
    order: float  # log2(coarse/fine); nan at the noise floor


def convergence_probe(config: SystemConfig) -> ConvergenceReport:
    """Evolve at dt, dt/2 and dt/4, with dt the step ``config`` takes, and
    report the empirical step order.

    The deviations are max-abs differences between stored amplitudes on the
    shared output grid; CF4 stepping shows order 4 until they reach the
    rounding floor.  When both sit at that floor (a time-independent
    Hamiltonian, where the stepping is exact, or a step so small that the
    error is rounding) the order is reported as nan.
    """
    dist = superposed_distribution(config.field)
    psi0 = initial_state(config, dist)
    dt0 = config.tau_max / (config.n_steps - 1) / config.substeps(dist.n_max)
    runs = [
        evolve(psi0, replace(config, dt_internal=dt0 / 2.0**i), keep_states=True).states
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
