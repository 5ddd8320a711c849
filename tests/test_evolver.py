"""CF4 lane maps and the evolver built from them."""

import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import expm

from cascade_qed import (
    CompositeState,
    FieldSpec,
    Motion,
    SystemConfig,
    coupling_expectation,
    evolve,
    initial_state,
    superposed_distribution,
)
from cascade_qed import evolver, system
from cascade_qed.cli import ScenarioConfig, list_presets
from cascade_qed.evolver import NormDriftError, Trajectory, TrajectoryBatch
from propagators import (
    allocating_cf4_planes,
    allocating_plane_sums,
    cf4_lane_matrices,
    cf4_planes,
    convergence_probe,
    dense_hamiltonian,
    edge_weight,
    embed_lanes,
    lab_frame_reference,
    observables_from_states,
)


def make_config(**kwargs):
    defaults = dict(field=FieldSpec(alpha=2.0, r=0.0), delta=0.0, theta=0.0, p=1)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def stepped(maps, lanes):
    """The lane pairs ``lanes``, shape (2, curves, lanes), after each of
    ``maps`` in turn, by the step code ``evolve`` runs."""
    node = np.empty((len(maps) + 1,) + lanes.shape, dtype=complex)
    node[0] = lanes
    evolver._steps(evolver._step_operands(maps, node))
    return node[-1]


def random_state(n_ph, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(3, n_ph + 1)) + 1j * rng.normal(size=(3, n_ph + 1))
    amps /= np.linalg.norm(amps)
    return CompositeState(amps)


class TestLaneMaps:
    """One CF4 step as ``evolve`` applies it, against a dense Hamiltonian."""

    @pytest.mark.parametrize("n", range(11))
    def test_triple_spectrum_at_resonance(self, n):
        # lane n + 1 is the triple |1,n>, |2,n+1>, |3,n+2>: frequencies 0, +-sqrt(2n+3)
        h = 0.05
        m = cf4_lane_matrices((1.0, 1.0), 14, 0.0, h)[n + 1]
        energies = np.sort(-np.angle(np.linalg.eigvals(m)) / h)
        w = math.sqrt(2.0 * n + 3.0)
        assert energies == pytest.approx([-w, 0.0, w], abs=1e-12)

    def test_bottom_pair_rotation(self):
        # lane 0 is the pair (|2,0>, |3,1>) with coupling lambda
        dtau = 0.37
        m = cf4_lane_matrices((1.0, 1.0), 4, 0.0, dtau)[0]
        rotation = [[math.cos(dtau), -1j * math.sin(dtau)],
                    [-1j * math.sin(dtau), math.cos(dtau)]]
        assert np.max(np.abs(m[1:, 1:] - rotation)) < 1e-14

    @pytest.mark.parametrize("lam", [1.0, -0.6, 0.01])
    @pytest.mark.parametrize("delta", [0.0, 4.0, -20.0])
    @pytest.mark.parametrize("n_ph", [2, 5, 41])
    def test_step_unitary_and_matches_expm(self, n_ph, lam, delta):
        # n_ph = 2 has a single full triple between the edge pairs; n_ph = 41
        # the triples n = 0..39, both edge pairs and both singletons
        dtau = 0.05
        lanes = cf4_lane_matrices((lam, lam), n_ph, delta, dtau)
        assert np.max(np.abs(lanes @ lanes.conj().transpose(0, 2, 1) - np.eye(3))) < 1e-12
        exact = expm(-1j * dtau * dense_hamiltonian(n_ph, lam, delta))
        assert np.max(np.abs(embed_lanes(lanes) - exact)) < 1e-12

    @pytest.mark.parametrize("delta", [0.0, 4.0, -20.0])
    def test_zero_coupling_leaves_only_detuning_phase(self, delta):
        # lambda = 0 (a mode node): every level-2 amplitude turns by
        # exp(-i delta dtau) and nothing moves between levels
        dtau, n_ph = 0.3, 6
        step = embed_lanes(cf4_lane_matrices((0.0, 0.0), n_ph, delta, dtau))
        phases = np.repeat([1.0, np.exp(-1j * delta * dtau), 1.0], n_ph + 1)
        assert np.max(np.abs(step - np.diag(phases))) < 1e-14

    @pytest.mark.parametrize("delta", [0.0, 20.0, -7.0])
    def test_factors_apply_in_order(self, delta):
        # lam[0] acts first, over the first half step
        lam, dtau, n_ph = (0.7, 0.2), 0.05, 10
        first, second = (expm(-0.5j * dtau * dense_hamiltonian(n_ph, x, delta)) for x in lam)
        step = embed_lanes(cf4_lane_matrices(lam, n_ph, delta, dtau))
        assert np.max(np.abs(step - second @ first)) < 1e-12

    @pytest.mark.parametrize("h", [1e-3, 0.05, 1.0])
    def test_step_maps_are_su2(self, h):
        # a step less its phase is [[1 + c, m], [-conj(m), conj(1 + c)]] with
        # |1 + c|^2 + |m|^2 = 1, read as 2 Re c + |c|^2 + |m|^2 so that
        # forming 1 + c adds no rounding.  At h = 1 the half steps turn by up
        # to 5 radians, where p = 1 - 2 sin^2(x / 2) near -1 keeps only its
        # absolute precision: two sines instead of one tangent read 1.5e-15 too
        bound = 2e-15 if h == 1.0 else 4e-16
        sqrt_r = system._lanes(41)[0]
        for delta in (0.0, 4.0, -4.0, 20.0, -20.0):
            for lam in (0.0, 1e-3, 1.0):
                for lam2 in (lam, 0.7 * lam):
                    maps = cf4_planes(np.array([[lam, lam2]]), sqrt_r, delta,
                                      np.array([0.5 * h]))[0]
                    c, m = maps[0]
                    assert np.array_equal(maps[1, 1], np.conj(1.0 + c))
                    assert np.array_equal(maps[1, 0], -np.conj(m))
                    assert np.max(np.abs(2.0 * c.real + np.abs(c) ** 2 + np.abs(m) ** 2)) <= bound
        # lambda = delta = 0 is s = 0, the identity
        maps = cf4_planes(np.zeros((1, 2)), sqrt_r, 0.0, np.array([0.5 * h]))[0]
        assert not np.any(maps[0])
        assert not np.any(maps[1, 0]) and np.all(maps[1, 1] == 1.0)

    def test_unitarity_sweep(self):
        cfg = make_config(delta=20.0, p=1)
        worst = 0.0
        for tau in (0.1, 0.9, 2.2):
            lam = evolver._cf4_amplitudes(np.array([tau]), np.array([0.003]), cfg)[0]
            lanes = cf4_lane_matrices(lam, 8, cfg.delta, 0.003)
            worst = max(worst, float(np.max(np.abs(
                lanes @ lanes.conj().transpose(0, 2, 1) - np.eye(3)))))
        assert worst < 1e-12


class TestLanes:
    """The lane decomposition of the (level, photon) rectangle."""

    @staticmethod
    def lane_members(n_ph):
        # flat row-major indices of |1, j-1>, |2, j>, |3, j+1> that lane j
        # holds: an edge lane's missing partner has a zero coupling
        sqrt_r, xi, eta = system._lanes(n_ph)
        width = n_ph + 1
        for j in range(width):
            members = [(width + j, None)]
            if xi[j] != 0:
                members.append((j - 1, sqrt_r[j] * xi[j]))
            if eta[j] != 0:
                members.append((2 * width + j + 1, sqrt_r[j] * eta[j]))
            yield members

    @pytest.mark.parametrize("n_ph", [2, 3, 5, 10])
    def test_lanes_and_singletons_partition_basis(self, n_ph):
        width = n_ph + 1
        held = [k for lane in self.lane_members(n_ph) for k, _ in lane]
        singletons = [2 * width, n_ph]  # |3,0> and |1,n_ph>
        assert sorted(held + singletons) == list(range(3 * width))

    @pytest.mark.parametrize("n_ph", [2, 3, 5, 10])
    def test_lane_couplings_rebuild_dense_hamiltonian(self, n_ph):
        delta = 2.5
        h = np.zeros((3 * (n_ph + 1),) * 2)
        for (mid, _), *partners in self.lane_members(n_ph):
            h[mid, mid] = delta
            for k, coupling in partners:
                assert coupling > 0.0
                h[mid, k] = h[k, mid] = coupling
        assert np.max(np.abs(h - dense_hamiltonian(n_ph, 1.0, delta))) < 1e-14


class TestEvolve:
    def test_norm_preserved(self):
        cfg = make_config(theta=0.6, delta=3.0, tau_max=6.0, n_steps=61)
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg)
        assert np.max(traj.norm_error) < 1e-9

    def test_theta_zero_revival_populations(self):
        cfg = make_config(
            field=FieldSpec(alpha=5.0, r=0.0), theta=0.0, p=1,
            tau_max=2.0 * math.pi, n_steps=101,
        )
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg)
        rho = traj.populations[-1]
        assert rho[0] == pytest.approx(1.0, abs=1e-8)
        assert rho[1] < 1e-8 and rho[2] < 1e-8

    def test_resonant_revival_fidelity(self):
        cfg = make_config(
            field=FieldSpec(alpha=5.0, r=0.0), theta=math.pi / 4, p=1,
            tau_max=2.0 * math.pi, n_steps=101,
        )
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg)
        assert abs(traj.overlap[-1]) == pytest.approx(1.0, abs=1e-8)

    def test_collapse_without_motion(self):
        # many incommensurate ladder frequencies dephase the overlap well
        # before any revival when the mode shape is constant
        cfg = make_config(
            field=FieldSpec(alpha=5.0, r=0.0), theta=0.0,
            motion=Motion.NEGLECTED, tau_max=2.0 * math.pi, n_steps=101,
        )
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg)
        fidelity = np.abs(traj.overlap)
        assert fidelity[0] == pytest.approx(1.0, abs=1e-12)
        assert np.min(fidelity) < 0.3

    def test_expectation_v_conserved_at_resonance(self):
        cfg = make_config(theta=0.7, tau_max=9.0, n_steps=91)
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg)
        assert np.max(np.abs(traj.expectation_V - traj.expectation_V[0])) < 1e-8

    def test_singletons_are_stationary(self):
        # |3,0> and |1,n_ph> lie in no lane: nothing couples them
        amps = np.zeros((3, 5), dtype=complex)
        amps[2, 0] = amps[0, 4] = math.sqrt(0.5)
        cfg = make_config(delta=3.0, tau_max=2.0, n_steps=21)
        traj = evolve(CompositeState(amps), cfg, keep_states=True)
        assert np.array_equal(traj.states, np.broadcast_to(amps, traj.states.shape))

    def test_non_unit_initial_rejected(self):
        cfg = make_config()
        bad = CompositeState(np.full((3, 5), 0.5 + 0.0j))
        with pytest.raises(ValueError):
            evolve(bad, cfg)

    def test_nan_initial_rejected(self):
        # nan fails every comparison, so a "> limit" guard would let it through
        cfg = make_config(tau_max=1.0, n_steps=5)
        amps = initial_state(cfg, superposed_distribution(cfg.field)).amplitudes.copy()
        amps[2, 0] = math.nan
        with pytest.raises(ValueError, match="unit norm"):
            evolve(CompositeState(amps), cfg)

    def test_output_grid_and_substep_count(self):
        # each 0.1-wide output interval splits into ten equal 0.01 substeps;
        # at the default step a 2000-point preset grid takes one per interval
        cfg = make_config(tau_max=3.0, n_steps=31, dt_internal=0.01)
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg)
        assert traj.taus.shape == (31,)
        assert traj.substeps == 300
        assert traj.phi_dynamical[0] == 0.0
        preset = make_config(delta=20.0, tau_max=25.0, n_steps=2000)
        assert evolve(initial_state(preset, dist), preset).substeps == 1999

    def test_uncountable_step_rejected(self):
        # 1e300 substeps: evolve refuses the count before casting it
        cfg = make_config(delta=20.0, tau_max=1.0, n_steps=10, dt_internal=1e-300)
        state = initial_state(cfg, superposed_distribution(cfg.field))
        message = "dt_internal = 1e-300 takes 1e+300 substeps, more than an integer holds"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                evolve(state, cfg)

    def test_every_interval_takes_the_configured_count(self):
        # every preset basis and step, and steps of spacing / k on grids where
        # rounding leaves some interval widths over k steps (5.0 / 111 over
        # 52, 5.0 / 54 over 108): each interval still takes k substeps
        configs = [ScenarioConfig(**params).system_config()
                   for curves in list_presets().values() for _, params in curves]
        steps = ((5.0, 112, 52), (5.0, 55, 108), (1.0, 101, 7))
        spaced = [make_config(delta=20.0, tau_max=tau_max, n_steps=n_steps,
                              dt_internal=tau_max / (n_steps - 1) / k)
                  for tau_max, n_steps, k in steps]
        assert [c.substeps(2) for c in spaced] == [k for *_, k in steps]
        evolved = set()
        for cfg in configs + spaced:
            dist = superposed_distribution(cfg.field)
            key = (replace(cfg, theta=0.0), dist.n_max)  # theta leaves the step alone
            if key not in evolved:
                evolved.add(key)
                traj = evolve(initial_state(cfg, dist), cfg)
                assert traj.substeps == cfg.substeps(dist.n_max) * (cfg.n_steps - 1)

    def test_schedule_decided_only_in_system_config(self):
        assert not hasattr(evolver, "substep_counts")
        assert not hasattr(SystemConfig, "integrator_step")

    def test_norm_drift_aborts_at_first_breach(self, monkeypatch):
        # a propagator that leaks norm: each step scales level 2 by 1 + 1e-7
        planes = evolver._cf4_planes

        def leaky(*args):
            maps = planes(*args)
            maps[:, 1] *= 1.0 + 1e-7  # the entries that produce v
            return maps

        monkeypatch.setattr(evolver, "_cf4_planes", leaky)
        cfg = make_config(theta=math.pi / 2, tau_max=2.0, n_steps=401, dt_internal=0.005)
        with pytest.raises(NormDriftError) as caught:
            evolve(initial_state(cfg, superposed_distribution(cfg.field)), cfg)
        # all weight starts on level 2 and some leaves it, so ten steps (one
        # per output interval) grow the norm by a little under 1e-6 and the
        # eleventh crosses the limit: the abort names that node and no later one
        assert "at tau = 0.055 (curve 0," in str(caught.value)

    def test_states_read_only(self):
        cfg = make_config(tau_max=1.0, n_steps=5)
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg, keep_states=True)
        with pytest.raises(ValueError):
            traj.states[0, 0, 0] = 1.0

    def test_states_kept_only_on_request(self):
        cfg = make_config(tau_max=1.0, n_steps=5)
        state = initial_state(cfg, superposed_distribution(cfg.field))
        batch = evolve([state, state], cfg)
        assert batch.states.shape == (2, 0, 3, state.n_ph + 1)
        assert batch.states.nbytes == 0
        assert evolve(state, cfg).states.nbytes == 0


class TestBatch:
    """Curves evolved together equal the same curves evolved alone."""

    @pytest.mark.parametrize("delta", [7.0, -9.0, 0.0])
    def test_group_matches_single_runs(self, delta):
        cfg = make_config(delta=delta, p=2, tau_max=2.0, n_steps=21, dt_internal=0.01)
        group = [random_state(5, seed=s) for s in (1, 2, 3)]
        batch = evolve(group, cfg, keep_states=True)
        assert isinstance(batch, TrajectoryBatch)
        assert batch.states.shape == (3, 21, 3, 6)
        for state, curve in zip(group, batch.curves):
            alone = evolve(state, cfg, keep_states=True)
            for field in ("states", "overlap", "populations", "expectation_V",
                          "norm_error", "phi_dynamical"):
                assert np.max(np.abs(getattr(curve, field) - getattr(alone, field))) <= 1e-13
            assert curve.substeps == alone.substeps
        with pytest.raises(ValueError):
            batch.states[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("delta", [6.0, -6.0, 0.0])
    def test_mode_node_step_matches_single_lanes(self, delta):
        # at a node (lambda = 0) only the level-2 detuning phase advances
        # (bright, middle) pairs of 2 curves x 4 lanes
        rng = np.random.default_rng(9)
        lanes = rng.normal(size=(2, 2, 4)) + 1j * rng.normal(size=(2, 2, 4))
        maps = cf4_planes(np.zeros((1, 2)), np.arange(4.0), delta, np.array([0.01]))
        together = stepped(maps, lanes)
        for c in range(2):
            alone = stepped(maps, lanes[:, c : c + 1])
            assert np.max(np.abs(together[:, c] - alone[:, 0])) <= 1e-13
        # the maps leave out the step's phase exp(-i delta h / 2), h = 0.02
        expected = lanes * np.array([1.0, np.exp(-0.02j * delta)])[:, None, None]
        assert np.max(np.abs(together * np.exp(-0.01j * delta) - expected)) < 1e-15

    def test_group_needs_one_basis(self):
        cfg = make_config(tau_max=1.0, n_steps=5)
        with pytest.raises(ValueError):
            evolve([random_state(4), random_state(5)], cfg)
        with pytest.raises(ValueError):
            evolve([], cfg)


class TestLaneIndependence:
    def test_each_lane_evolves_alone_bitwise(self):
        """The update is elementwise over lanes: with every other lane zeroed,
        a lane's amplitudes come out bit for bit the same."""
        cfg = make_config(delta=7.0, p=1)
        n_ph = 6
        sqrt_r = system._lanes(n_ph)[0]
        t = np.array([0.0, 0.01, 0.02])
        h = np.full(3, 0.01)
        maps = cf4_planes(evolver._cf4_amplitudes(t, h, cfg), sqrt_r, cfg.delta, 0.5 * h)
        rng = np.random.default_rng(11)
        # the (bright, middle) pair of each lane, of one curve
        start = rng.normal(size=(2, 1, n_ph + 1)) + 1j * rng.normal(size=(2, 1, n_ph + 1))
        together = stepped(maps, start)
        for k in range(n_ph + 1):
            alone = np.zeros_like(start)
            alone[..., k] = start[..., k]
            alone = stepped(maps, alone)
            assert np.array_equal(alone[..., k], together[..., k])
            assert not np.any(np.delete(alone, k, axis=-1))


class TestTruncationEdge:
    """Lanes never couple, so the top photon column never holds more than
    the initial weight of the lanes that reach it, ``edge_weight``; for the
    initial state ``system._edge_weight`` gives it in closed form."""

    @staticmethod
    def top_column(state, cfg):
        kept = evolve(state, cfg, keep_states=True)
        return observables_from_states(kept.states)[2]

    def test_bound_reached_and_kept(self):
        # |1,2> alone lies in lane 3 of n_ph = 4, r^2 = 7; on resonance with
        # the motion neglected its |3,4> = xi eta (cos(sqrt(7) tau) - 1) peaks
        # at 4 xi^2 eta^2 = 48/49 at tau = pi / sqrt(7)
        amps = np.zeros((3, 5), dtype=complex)
        amps[0, 2] = 1.0
        state = CompositeState(amps)
        bound = edge_weight(state.amplitudes)
        assert bound == 1.0
        still = make_config(motion=Motion.NEGLECTED, tau_max=3.0, n_steps=301)
        assert np.max(self.top_column(state, still)) == pytest.approx(48.0 / 49.0, abs=1e-4)
        moving = make_config(delta=-5.0, p=2, tau_max=3.0, n_steps=301)
        assert 0.5 < np.max(self.top_column(state, moving)) < bound

    @pytest.mark.parametrize("n_ph", [4, 12])
    def test_random_state_stays_below(self, n_ph):
        state = random_state(n_ph, seed=1)
        cfg = make_config(delta=7.0, tau_max=3.0, n_steps=301)
        column = self.top_column(state, cfg)
        assert 0.0 < np.max(column) < edge_weight(state.amplitudes)

    def test_closed_form_is_the_scan_of_the_initial_state(self):
        # 240 seeded curves: alpha uniform over [0, 40] and the small 0,
        # 1e-3, 0.3; r in {0, +-1} or uniform over [-2, 2]; theta over
        # [-4, 4]; both motions
        rng = np.random.default_rng(30)
        alphas = np.concatenate(([0.0, 1e-3, 0.3], rng.uniform(0.0, 40.0, 237)))
        checked = 0
        for alpha in alphas:
            r = float(rng.choice([0.0, 1.0, -1.0, rng.uniform(-2.0, 2.0)]))
            if alpha == 0.0 and r == -1.0:  # zero weight, refused
                continue
            motion = Motion.MOVING if rng.random() < 0.5 else Motion.NEGLECTED
            cfg = make_config(field=FieldSpec(alpha=float(alpha), r=r),
                              theta=float(rng.uniform(-4.0, 4.0)), motion=motion)
            dist = superposed_distribution(cfg.field)
            closed = system._edge_weight(cfg, dist)
            assert closed == edge_weight(initial_state(cfg, dist).amplitudes)
            checked += 1
        assert checked >= 200


class TestConvergence:
    def test_exact_for_time_independent_hamiltonian(self):
        cfg = make_config(
            delta=5.0, theta=0.8, motion=Motion.NEGLECTED,
            tau_max=4.0, n_steps=41, dt_internal=0.01,
        )
        report = convergence_probe(cfg)
        assert report.deviation_coarse < 1e-12
        assert report.deviation_fine < 1e-12

    @pytest.mark.parametrize("dt", [2e-3, 1e-2, 2e-2])
    def test_fourth_order_at_detuning(self, dt):
        cfg = make_config(
            delta=20.0, theta=math.pi / 4, p=1, tau_max=4.0, n_steps=41,
            dt_internal=dt,
        )
        report = convergence_probe(cfg)
        assert report.order is not None
        assert 3.5 <= report.order <= 4.6
        # halving the step divides the deviation by roughly sixteen
        assert report.deviation_coarse / report.deviation_fine == pytest.approx(
            16.0, rel=0.3
        )

    def test_dynamical_phase_fourth_order(self):
        # the Euler-Maclaurin corrected sum keeps pace with the stepping; a
        # plain trapezoid sum over the same nodes would show order 2
        cfg = make_config(
            delta=20.0, theta=math.pi / 4, p=1, tau_max=4.0, n_steps=41,
            dt_internal=1e-2,
        )
        psi0 = initial_state(cfg, superposed_distribution(cfg.field))
        phis = [
            evolve(psi0, replace(cfg, dt_internal=1e-2 / 2**i)).phi_dynamical
            for i in range(3)
        ]
        coarse = np.max(np.abs(phis[0] - phis[1]))
        fine = np.max(np.abs(phis[1] - phis[2]))
        assert 3.5 <= math.log2(coarse / fine) <= 4.6


class TestFrameCorrectness:
    def test_rotating_frame_matches_lab_frame_quick(self):
        """Short, loose version of the frame-map check (the acceptance suite
        runs the long 1e-8 one)."""
        n_ph = 2
        state = random_state(n_ph, seed=42)
        cfg = make_config(
            delta=20.0, p=1, tau_max=2.0, n_steps=21, dt_internal=5e-4
        )
        traj = evolve(state, cfg, keep_states=True)
        ref = lab_frame_reference(state, cfg, traj.taus)
        assert np.max(np.abs(traj.states - ref)) < 1e-6

    def test_default_step_matches_lab_frame(self):
        # one CF4 step of 0.015 per substep at delta = 20 (h delta = 0.3);
        # midpoint stepping, or the two CF4 factors swapped, miss by ~1e-4
        n_ph = 3
        state = random_state(n_ph, seed=2024)
        cfg = make_config(delta=20.0, p=1, tau_max=5.0, n_steps=26)
        traj = evolve(state, cfg, keep_states=True)
        assert traj.substeps == 25 * 14
        ref = lab_frame_reference(state, cfg, traj.taus)
        assert np.max(np.abs(traj.states - ref)) < 1e-8

    def test_neglected_motion_is_exact(self):
        n_ph = 2
        state = random_state(n_ph, seed=1)
        cfg = make_config(
            delta=20.0, motion=Motion.NEGLECTED, tau_max=2.0, n_steps=21,
            dt_internal=0.01,
        )
        traj = evolve(state, cfg, keep_states=True)
        ref = lab_frame_reference(state, cfg, traj.taus)
        assert np.max(np.abs(traj.states - ref)) < 1e-9


STREAMED = ("overlap", "populations", "norm_error", "expectation_V", "phi_dynamical")


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def fig4b_pair():
    """The fig4b preset's two initial states and the configuration they share."""
    (_, r0), (_, r1) = list_presets()["fig4b"]
    configs = [ScenarioConfig(**params).system_config() for params in (r0, r1)]
    return [initial_state(c, superposed_distribution(c.field)) for c in configs], configs[0]


# delta < 0, with 1,000 substeps per output interval: most chunks of steps
# hold no output node
NEGATIVE_DELTA = make_config(field=FieldSpec(alpha=3.0, r=1.0), delta=-9.0, theta=0.4, p=2,
                             tau_max=3.0, n_steps=31, dt_internal=1e-4)


class TestStreamedObservables:
    """The observables ``evolve`` reduces chunk by chunk from the lane pairs
    equal the state-based formulas applied to the kept states to rounding,
    and do not depend, bit for bit, on whether the states are kept, how many
    curves share the batch or how many steps a chunk holds."""

    @staticmethod
    def check(kept, streamed):
        # evolve sums |b|^2, |v|^2, |d|^2 and Re(conj(d) b) over the lanes,
        # the formulas |u|^2, |v|^2 and |w|^2 over the rebuilt states
        overlap, populations, _, norm_error = observables_from_states(kept.states)
        expected = overlap, populations, norm_error
        got = kept.overlap, kept.populations, kept.norm_error
        for ours, theirs in zip(got, expected, strict=True):
            assert np.max(np.abs(ours - theirs)) <= 1e-15
        for field in STREAMED:
            assert_same_bits(getattr(streamed, field), getattr(kept, field))
        assert streamed.states.nbytes == 0

    def test_fig4b_batch(self):
        states, cfg = fig4b_pair()
        kept = evolve(states, cfg, keep_states=True)
        streamed = evolve(states, cfg)
        for k, s in zip(kept.curves, streamed.curves):
            self.check(k, s)

    @pytest.mark.parametrize("cfg", [
        make_config(field=FieldSpec(alpha=5.0, r=0.0), theta=math.pi / 4,
                    tau_max=8.0 * math.pi, n_steps=400),
        NEGATIVE_DELTA,
    ], ids=["resonant", "negative-delta"])
    def test_single_curve(self, cfg):
        state = initial_state(cfg, superposed_distribution(cfg.field))
        kept = evolve(state, cfg, keep_states=True)
        self.check(kept, evolve(state, cfg))

    def test_batch_of_three_matches_single_runs(self):
        cfg = make_config(delta=7.0, p=2, tau_max=2.0, n_steps=21, dt_internal=0.01)
        group = [random_state(5, seed=s) for s in (4, 5, 6)]
        batch = evolve(group, cfg)
        for state, curve in zip(group, batch.curves):
            alone = evolve(state, cfg, keep_states=True)
            self.check(alone, curve)

    @pytest.mark.parametrize("case", ["fig4b", "negative-delta", "resonant"])
    def test_expectation_matches_kept_states(self, case):
        # one definition of <A>: the streamed <V> is coupling_expectation of
        # each kept state, which rebuilds its lanes from the whole state
        if case == "fig4b":
            states, cfg = fig4b_pair()
            cfg = replace(cfg, n_steps=201)
        else:
            cfg = NEGATIVE_DELTA if case == "negative-delta" else make_config(
                theta=0.7, tau_max=9.0, n_steps=91)
            states = [initial_state(cfg, superposed_distribution(cfg.field))]
        for curve in evolve(states, cfg, keep_states=True).curves:
            from_states = [coupling_expectation(CompositeState(s)) for s in curve.states]
            assert np.max(np.abs(from_states - curve.expectation_V)) <= 1e-13

    @pytest.mark.parametrize("case", ["fig4b", "fig4b-no-states", "three-curves", "repeated",
                                      "negative-delta"])
    def test_one_step_chunks_change_no_bits(self, monkeypatch, case):
        # the grid, the mode shape, <A> and the phase sum are built a chunk at
        # a time, and a chunk's maps and products share one work buffer; a
        # chunk of one step must give the bits of the default one, with the
        # states kept or not, for any batch, and when a call repeats
        keep = case != "fig4b-no-states"
        if case == "negative-delta":
            # 3 of NEGATIVE_DELTA's intervals, 3,000 one-step chunks
            cfg = replace(NEGATIVE_DELTA, tau_max=0.3, n_steps=4)
            states = [initial_state(cfg, superposed_distribution(cfg.field))]
        else:
            states, cfg = fig4b_pair()
        if case == "three-curves":
            # fig4b's coherent state and even cat, and the coherent state at
            # theta = 0, on one basis; 4 substeps per output interval
            cfg = replace(cfg, tau_max=5.0, n_steps=101)
            dist = superposed_distribution(cfg.field)
            states.append(initial_state(replace(cfg, theta=0.0), dist))
        calls = 2 if case == "repeated" else 1
        runs = [evolve(states, cfg, keep_states=keep) for _ in range(calls)]
        monkeypatch.setattr(evolver, "_CHUNK_LANES", 1)
        one_step = evolve(states, cfg, keep_states=keep)
        for default in runs:
            assert_same_bits(one_step.states, default.states)
            for ours, theirs in zip(one_step.curves, default.curves, strict=True):
                for field in fields(Trajectory):
                    a, b = getattr(ours, field.name), getattr(theirs, field.name)
                    if isinstance(a, np.ndarray):
                        assert_same_bits(a, b)
                    else:
                        assert a == b


class TestScratchKernels:
    """The plane maps written into scratch made once per call carry the bits
    of the same formulas with every intermediate an array of its own
    (``allocating_plane_sums``, ``allocating_cf4_planes``), and allocate
    little beside that scratch."""

    @pytest.mark.parametrize("h", [1e-3, 0.0125, 2.0])
    @pytest.mark.parametrize("n", [1, 113], ids=["one-step", "fig4b-chunk"])
    @pytest.mark.parametrize("delta", [0.0, 20.0, -20.0])
    def test_maps_match_the_allocating_oracle(self, delta, n, h):
        # h = 2 turns the half steps past pi / 2, so p < 0 and signed zeros
        # reach the maps; lam = 0 with delta = 0 is s = 0.  The scratch and
        # maps start as nan, so a slot read before it is written shows.
        sqrt_r = system._lanes(72)[0]
        rng = np.random.default_rng(34)
        half_h = 0.5 * h * rng.uniform(0.5, 1.0, n)
        for lam in (rng.normal(size=(n, 2)), np.zeros((n, 2))):
            r = lam.T[:, :, None] * sqrt_r  # factor by factor, as evolve lays them out
            scratch = np.full((5,) + r.shape, np.nan)
            sums = evolver._plane_sums(r, delta, half_h[:, None], scratch)
            for ours, theirs in zip(sums, allocating_plane_sums(r, delta, half_h[:, None]),
                                    strict=True):
                assert_same_bits(ours, theirs)
            maps = np.full((n, 2, 2, sqrt_r.size), complex(np.nan, np.nan))
            scratch[:] = np.nan
            evolver._cf4_planes(lam, sqrt_r, delta, half_h, maps, scratch)
            assert_same_bits(maps, allocating_cf4_planes(lam, sqrt_r, delta, half_h))

    @pytest.mark.parametrize("case", ["fig4b", "one-step-chunks", "negative-delta"])
    def test_evolve_matches_the_allocating_oracle(self, monkeypatch, case):
        # fig4b takes 17 chunks of 113 steps and a last one of 78
        states, cfg = fig4b_pair()
        if case == "one-step-chunks":
            cfg = replace(cfg, tau_max=2.5, n_steps=201)
            monkeypatch.setattr(evolver, "_CHUNK_LANES", 1)
        elif case == "negative-delta":
            cfg = replace(NEGATIVE_DELTA, tau_max=0.3, n_steps=4)
            states = [initial_state(cfg, superposed_distribution(cfg.field))]
        ours = evolve(states, cfg, keep_states=True)

        def allocating(lam, sqrt_r, delta, half_h, maps, scratch):
            maps[...] = allocating_cf4_planes(lam, sqrt_r, delta, half_h)
            return maps

        monkeypatch.setattr(evolver, "_cf4_planes", allocating)
        theirs = evolve(states, cfg, keep_states=True)
        assert_same_bits(ours.states, theirs.states)
        for a, b in zip(ours.curves, theirs.curves, strict=True):
            for field in fields(Trajectory):
                if isinstance(getattr(a, field.name), np.ndarray):
                    assert_same_bits(getattr(a, field.name), getattr(b, field.name))

    def test_a_fig4b_chunk_allocates_little_beside_its_scratch(self):
        # 113 steps of 73 lanes.  With every intermediate an array of its own
        # the call peaked at 903 KiB; what is left (129 KiB, numpy 2.4) is
        # numpy's iterator buffers for the operands that broadcast
        sqrt_r = system._lanes(72)[0]
        n = 113
        lam = np.random.default_rng(34).normal(size=(n, 2))
        half_h = np.full(n, 0.00625)
        maps = np.empty((n, 2, 2, sqrt_r.size), dtype=complex)
        scratch = np.empty((5, 2, n, sqrt_r.size))
        evolver._cf4_planes(lam, sqrt_r, 20.0, half_h, maps, scratch)
        tracemalloc.start()
        try:
            evolver._cf4_planes(lam, sqrt_r, 20.0, half_h, maps, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_warm_fig4b_evolve_peak(self):
        # the lane pairs, the work buffer and the plane maps' scratch, 1.65
        # MiB, and the reductions' temporaries: 2.32 MiB (numpy 2.4), as
        # with the maps' intermediates made per chunk
        states, cfg = fig4b_pair()
        evolve(states, cfg)
        tracemalloc.start()
        try:
            evolve(states, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * 2**20
