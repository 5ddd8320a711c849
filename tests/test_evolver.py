"""CF4 lane maps and the evolver built from them."""

import math
import re
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
    convergence_probe,
    evolve,
    initial_state,
    superposed_distribution,
)
from cascade_qed import evolver
from cascade_qed.cli import ScenarioConfig, list_presets
from cascade_qed.evolver import NormDriftError, Trajectory, TrajectoryBatch
from propagators import (
    cf4_lane_matrices,
    dense_hamiltonian,
    embed_lanes,
    lab_frame_reference,
    observables_from_states,
)


def make_config(**kwargs):
    defaults = dict(field=FieldSpec(alpha=2.0, r=0.0), delta=0.0, theta=0.0, p=1)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


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
        sqrt_r, xi, eta = evolver._lanes(n_ph)
        width = n_ph + 1
        for j in range(width):
            members = [(width + j, None)]
            if xi[j] != 0:
                members.append((j - 1, sqrt_r[j] * xi[j].real))
            if eta[j] != 0:
                members.append((2 * width + j + 1, sqrt_r[j] * eta[j].real))
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

    def test_norm_drift_aborts_at_first_breach(self, monkeypatch):
        # a propagator that leaks norm: each step scales level 2 by 1 + 1e-7
        rotate = evolver._rotate_planes

        def leaky(u, v, w, m, xi, eta):
            rotate(u, v, w, m, xi, eta)
            v *= 1.0 + 1e-7

        monkeypatch.setattr(evolver, "_rotate_planes", leaky)
        cfg = make_config(theta=math.pi / 2, tau_max=2.0, n_steps=401, dt_internal=0.005)
        with pytest.raises(NormDriftError) as caught:
            evolve(initial_state(cfg, superposed_distribution(cfg.field)), cfg)
        # all weight starts on level 2 and some leaves it, so ten steps (one
        # per output interval) grow the norm by a little under 1e-6 and the
        # eleventh crosses the limit: the abort names that node and no later one
        assert "at tau = 0.055000 (curve 0," in str(caught.value)

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
            for field in ("states", "overlap", "populations", "top_rung_population",
                          "expectation_V", "norm_error", "phi_dynamical"):
                assert np.max(np.abs(getattr(curve, field) - getattr(alone, field))) <= 1e-13
            assert curve.substeps == alone.substeps
        with pytest.raises(ValueError):
            batch.states[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("delta", [6.0, -6.0, 0.0])
    def test_mode_node_step_matches_single_lanes(self, delta):
        # at a node (lambda = 0) only the level-2 detuning phase advances
        rng = np.random.default_rng(9)
        lanes = rng.normal(size=(3, 2, 4)) + 1j * rng.normal(size=(3, 2, 4))
        xi = np.array([0.0, 0.6, 0.8, 1.0], dtype=complex)
        eta = np.sqrt(1.0 - np.abs(xi) ** 2).astype(complex)
        maps = evolver._cf4_planes(np.zeros((1, 2)), np.arange(4.0), delta, np.array([0.01]))
        step = [m[0] for m in maps]
        together = lanes.copy()
        evolver._rotate_planes(*together, step, xi, eta)
        for c in range(2):
            alone = lanes[:, c].copy()
            evolver._rotate_planes(*alone, step, xi, eta)
            assert np.max(np.abs(together[:, c] - alone)) <= 1e-13
        expected = lanes * np.array([1.0, np.exp(-0.02j * delta), 1.0])[:, None, None]
        assert np.max(np.abs(together - expected)) < 1e-15

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
        sqrt_r, xi, eta = evolver._lanes(n_ph)
        t = np.array([0.0, 0.01, 0.02])
        h = np.full(3, 0.01)
        maps = evolver._cf4_planes(evolver._cf4_amplitudes(t, h, cfg), sqrt_r, cfg.delta, 0.5 * h)
        rng = np.random.default_rng(11)
        start = rng.normal(size=(3, n_ph + 1)) + 1j * rng.normal(size=(3, n_ph + 1))

        def run(lanes):
            for step in zip(*maps):
                evolver._rotate_planes(*lanes, step, xi, eta)
            return lanes

        together = run(start.copy())
        for k in range(n_ph + 1):
            alone = np.zeros_like(start)
            alone[:, k] = start[:, k]
            alone = run(alone)
            assert np.array_equal(alone[:, k], together[:, k])
            assert not np.any(np.delete(alone, k, axis=1))


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


STREAMED = ("overlap", "populations", "top_rung_population", "norm_error",
            "expectation_V", "phi_dynamical")


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
    """The observables ``evolve`` reduces chunk by chunk equal, bit for bit,
    the state-based formulas applied to the kept states, and do not depend
    on whether the states are kept, how many curves share the batch or how
    many steps a chunk holds."""

    @staticmethod
    def check(kept, streamed):
        overlap, populations, top_rung, norm_error = observables_from_states(kept.states)
        assert_same_bits(kept.overlap.real, overlap.real)  # the CSV's x
        assert_same_bits(kept.overlap.imag, overlap.imag)  # the CSV's y
        assert_same_bits(kept.populations, populations)
        assert_same_bits(kept.top_rung_population, top_rung)
        # evolve takes the norm before the frame factor exp(i delta tau),
        # the formula after it: they agree to rounding, exactly on resonance
        assert np.max(np.abs(kept.norm_error - norm_error)) <= 1e-15
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
        # resonant: the frame factor is exactly one, so the norms agree too
        make_config(field=FieldSpec(alpha=5.0, r=0.0), theta=math.pi / 4,
                    tau_max=8.0 * math.pi, n_steps=400),
        NEGATIVE_DELTA,
    ], ids=["resonant", "negative-delta"])
    def test_single_curve(self, cfg):
        state = initial_state(cfg, superposed_distribution(cfg.field))
        kept = evolve(state, cfg, keep_states=True)
        self.check(kept, evolve(state, cfg))
        if cfg.delta == 0.0:
            assert_same_bits(kept.norm_error, observables_from_states(kept.states)[3])

    def test_batch_of_three_matches_single_runs(self):
        cfg = make_config(delta=7.0, p=2, tau_max=2.0, n_steps=21, dt_internal=0.01)
        group = [random_state(5, seed=s) for s in (4, 5, 6)]
        batch = evolve(group, cfg)
        for state, curve in zip(group, batch.curves):
            alone = evolve(state, cfg, keep_states=True)
            self.check(alone, curve)

    @pytest.mark.parametrize("case", ["fig4b", "negative-delta"])
    def test_one_step_chunks_change_no_bits(self, monkeypatch, case):
        # the grid, the mode shape, <A> and the phase sum are built a chunk at
        # a time; a chunk of one step must give the bits of the default one
        if case == "fig4b":
            states, cfg = fig4b_pair()
        else:
            cfg = NEGATIVE_DELTA
            states = [initial_state(cfg, superposed_distribution(cfg.field))]
        default = evolve(states, cfg, keep_states=True)
        monkeypatch.setattr(evolver, "_CHUNK_LANES", 1)
        one_step = evolve(states, cfg, keep_states=True)
        assert_same_bits(one_step.states, default.states)
        for ours, theirs in zip(one_step.curves, default.curves, strict=True):
            for field in fields(Trajectory):
                a, b = getattr(ours, field.name), getattr(theirs, field.name)
                if isinstance(a, np.ndarray):
                    assert_same_bits(a, b)
                else:
                    assert a == b
