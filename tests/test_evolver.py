"""Block Hamiltonians, step propagators and the CF4 evolver."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from cascade_qed import (
    CompositeState,
    FieldSpec,
    Motion,
    SystemConfig,
    block_hamiltonian,
    build_blocks,
    convergence_probe,
    evolve,
    initial_state,
    lab_frame_reference,
    step_propagator,
    superposed_distribution,
)
from cascade_qed import evolver
from cascade_qed.evolver import NormDriftError, TrajectoryBatch, _triple_step


def make_config(**kwargs):
    defaults = dict(field=FieldSpec(alpha=2.0, r=0.0), delta=0.0, theta=0.0, p=1)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def random_state(n_ph, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(3, n_ph + 1)) + 1j * rng.normal(size=(3, n_ph + 1))
    amps /= np.linalg.norm(amps)
    return CompositeState(amps)


class TestBlockHamiltonian:
    def test_first_triple_at_resonance(self):
        cfg = make_config(motion=Motion.NEGLECTED)  # mode shape 1
        triple = next(b for b in build_blocks(4) if b.kind == "triple")
        h = block_hamiltonian(triple, 0.7, cfg)
        assert h[0, 1] == pytest.approx(1.0)
        assert h[1, 2] == pytest.approx(math.sqrt(2.0))
        assert np.all(np.diag(h) == 0.0)
        vals = np.sort(np.linalg.eigvalsh(h))
        assert vals == pytest.approx([-math.sqrt(3.0), 0.0, math.sqrt(3.0)], abs=1e-12)

    @pytest.mark.parametrize("n", range(11))
    def test_triple_spectrum(self, n):
        cfg = make_config(motion=Motion.NEGLECTED)
        blocks = build_blocks(14)
        triple = next(
            b for b in blocks if b.kind == "triple" and b.basis[0] == (1, n)
        )
        vals = np.sort(np.linalg.eigvalsh(block_hamiltonian(triple, 0.0, cfg)))
        w = math.sqrt(2.0 * n + 3.0)
        assert vals == pytest.approx([-w, 0.0, w], abs=1e-12)

    def test_singleton_is_stationary(self):
        cfg = make_config()
        singleton = build_blocks(3)[0]
        assert singleton.basis == ((3, 0),)
        h = block_hamiltonian(singleton, 1.0, cfg)
        assert h.shape == (1, 1) and h[0, 0] == 0.0

    def test_detuning_sits_on_middle_level(self):
        cfg = make_config(delta=4.5, motion=Motion.NEGLECTED)
        blocks = build_blocks(3)
        triple = next(b for b in blocks if b.kind == "triple")
        assert np.allclose(np.diag(block_hamiltonian(triple, 0.0, cfg)), [0, 4.5, 0])
        bottom_pair = blocks[1]
        assert bottom_pair.basis == ((2, 0), (3, 1))
        assert np.allclose(np.diag(block_hamiltonian(bottom_pair, 0.0, cfg)), [4.5, 0])
        top_pair = blocks[-2]
        assert top_pair.basis == ((1, 2), (2, 3))
        assert np.allclose(np.diag(block_hamiltonian(top_pair, 0.0, cfg)), [0, 4.5])

    def test_mode_shape_scales_couplings(self):
        cfg = make_config(p=2)
        triple = next(b for b in build_blocks(3) if b.kind == "triple")
        tau = 0.43
        h = block_hamiltonian(triple, tau, cfg)
        assert h[0, 1] == pytest.approx(math.sin(2 * tau) * 1.0, abs=1e-15)


class TestStepPropagator:
    def test_zero_hamiltonian_gives_identity(self):
        u = step_propagator(np.zeros((1, 1)), 0.3)
        assert u[0, 0] == pytest.approx(1.0)

    def test_resonant_pair_rotation(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        dtau = 0.37
        u = step_propagator(h, dtau)
        assert u[0, 0] == pytest.approx(math.cos(dtau), abs=1e-14)
        assert u[1, 1] == pytest.approx(math.cos(dtau), abs=1e-14)
        assert u[0, 1] == pytest.approx(-1j * math.sin(dtau), abs=1e-14)

    @pytest.mark.parametrize("lam", [1.0, -0.6, 0.01])
    @pytest.mark.parametrize("delta", [0.0, 4.0, -20.0])
    @pytest.mark.parametrize("n", [0, 3, 40])
    def test_triple_unitary_and_matches_expm(self, lam, delta, n):
        a, b = math.sqrt(n + 1.0), math.sqrt(n + 2.0)
        h = np.array([[0.0, lam * a, 0.0], [lam * a, delta, lam * b], [0.0, lam * b, 0.0]])
        dtau = 0.05
        u = step_propagator(h, dtau)
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12
        assert np.max(np.abs(u - expm(-1j * dtau * h))) < 1e-12

    def test_pair_unitary_and_matches_expm(self):
        for d1, d2, c in [(20.0, 0.0, 0.3), (0.0, 20.0, 1.4), (0.0, 0.0, 2.0),
                          (3.0, -1.5, -0.8), (2.5, 2.5, 0.0)]:
            h = np.array([[d1, c], [c, d2]])
            u = step_propagator(h, 0.11)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
            assert np.max(np.abs(u - expm(-1j * 0.11 * h))) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_generic_hermitian_fallback(self, dim):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (m + m.conj().T)
        u = step_propagator(h, 0.2)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12
        assert np.max(np.abs(u - expm(-1j * 0.2 * h))) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            step_propagator(np.array([[0.0, 1.0], [0.5, 0.0]]), 0.1)

    def test_bad_dtau_rejected(self):
        with pytest.raises(ValueError):
            step_propagator(np.zeros((2, 2)), 0.0)

    def test_unitarity_sweep(self):
        cfg = make_config(delta=20.0, p=1)
        worst = 0.0
        for block in build_blocks(8):
            for tau in (0.1, 0.9, 2.2):
                h = block_hamiltonian(block, tau, cfg)
                u = step_propagator(h, 0.003)
                worst = max(worst, float(np.max(np.abs(u @ u.conj().T - np.eye(block.dim)))))
        assert worst < 1e-12


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
        final = np.abs(traj.states[-1]) ** 2
        rho = np.add.reduce(final, axis=1)
        assert rho[0] == pytest.approx(1.0, abs=1e-8)
        assert rho[1] < 1e-8 and rho[2] < 1e-8

    def test_resonant_revival_fidelity(self):
        cfg = make_config(
            field=FieldSpec(alpha=5.0, r=0.0), theta=math.pi / 4, p=1,
            tau_max=2.0 * math.pi, n_steps=101,
        )
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg)
        z = np.add.reduce((np.conj(traj.states[0]) * traj.states[-1]).ravel())
        assert abs(z) == pytest.approx(1.0, abs=1e-8)

    def test_collapse_without_motion(self):
        # many incommensurate ladder frequencies dephase the overlap well
        # before any revival when the mode shape is constant
        cfg = make_config(
            field=FieldSpec(alpha=5.0, r=0.0), theta=0.0,
            motion=Motion.NEGLECTED, tau_max=2.0 * math.pi, n_steps=101,
        )
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg)
        fidelity = np.abs(np.add.reduce(
            (np.conj(traj.states[0])[None] * traj.states).reshape(101, -1), axis=1
        ))
        assert fidelity[0] == pytest.approx(1.0, abs=1e-12)
        assert np.min(fidelity) < 0.3

    def test_expectation_v_conserved_at_resonance(self):
        cfg = make_config(theta=0.7, tau_max=9.0, n_steps=91)
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg)
        assert np.max(np.abs(traj.expectation_V - traj.expectation_V[0])) < 1e-8

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
        assert traj.h_expectation[0] == 0.0  # the mode shape vanishes at tau = 0
        assert traj.phi_dynamical[0] == 0.0
        preset = make_config(delta=20.0, tau_max=25.0, n_steps=2000)
        assert evolve(initial_state(preset, dist), preset).substeps == 1999

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
        traj = evolve(initial_state(cfg, dist), cfg)
        with pytest.raises(ValueError):
            traj.states[0, 0, 0] = 1.0


class TestBatch:
    """Curves evolved together equal the same curves evolved alone."""

    @pytest.mark.parametrize("delta", [7.0, -9.0, 0.0])
    def test_group_matches_single_runs(self, delta):
        cfg = make_config(delta=delta, p=2, tau_max=2.0, n_steps=21, dt_internal=0.01)
        group = [random_state(5, seed=s) for s in (1, 2, 3)]
        batch = evolve(group, cfg)
        assert isinstance(batch, TrajectoryBatch)
        assert batch.states.shape == (3, 21, 3, 6)
        for state, curve in zip(group, batch.curves):
            alone = evolve(state, cfg)
            for field in ("states", "expectation_V", "h_expectation", "norm_error",
                          "phi_dynamical"):
                assert np.max(np.abs(getattr(curve, field) - getattr(alone, field))) <= 1e-13
            assert curve.substeps == alone.substeps
        with pytest.raises(ValueError):
            batch.states[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("delta", [6.0, -6.0])
    def test_mode_node_step_matches_single_lanes(self, delta):
        # at a node (coupling r = 0) only the level-2 detuning phase advances
        rng = np.random.default_rng(9)
        lanes = rng.normal(size=(3, 2, 4)) + 1j * rng.normal(size=(3, 2, 4))
        xi = np.array([0.0, 0.6, 0.8, 1.0], dtype=complex)
        eta = np.sqrt(1.0 - np.abs(xi) ** 2).astype(complex)
        r = np.zeros(4)
        together = lanes.copy()
        _triple_step(*together, r, xi, eta, delta, 0.02)
        for c in range(2):
            alone = lanes[:, c].copy()
            _triple_step(*alone, r, xi, eta, delta, 0.02)
            assert np.max(np.abs(together[:, c] - alone)) <= 1e-13
        expected = lanes * np.array([1.0, np.exp(-0.02j * delta), 1.0])[:, None, None]
        assert np.max(np.abs(together - expected)) < 1e-15

    def test_group_needs_one_basis(self):
        cfg = make_config(tau_max=1.0, n_steps=5)
        with pytest.raises(ValueError):
            evolve([random_state(4), random_state(5)], cfg)
        with pytest.raises(ValueError):
            evolve([], cfg)


class TestBlockIndependence:
    def test_processing_order_is_bitwise_irrelevant(self):
        """Blocks write disjoint regions: any processing order gives the
        same amplitudes bit for bit."""
        cfg = make_config(delta=7.0, p=1)
        n_ph = 6
        state = random_state(n_ph, seed=11)
        blocks = build_blocks(n_ph)
        dtau = 0.01
        taus = [0.005, 0.015, 0.025]

        def run(order):
            psi = np.array(state.amplitudes, dtype=complex)
            for tau in taus:
                out = psi.copy()
                for block in order:
                    idx = tuple(zip(*[(lvl - 1, n) for lvl, n in block.basis]))
                    u = step_propagator(block_hamiltonian(block, tau, cfg), dtau)
                    out[idx] = u @ psi[idx]
                psi = out
            return psi

        fwd = run(list(blocks))
        rev = run(list(blocks)[::-1])
        rng = np.random.default_rng(5)
        shuffled = list(blocks)
        rng.shuffle(shuffled)
        shf = run(shuffled)
        assert np.array_equal(fwd, rev)
        assert np.array_equal(fwd, shf)


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
        traj = evolve(state, cfg)
        ref = lab_frame_reference(state, cfg, traj.taus)
        assert np.max(np.abs(traj.states - ref)) < 1e-6

    def test_default_step_matches_lab_frame(self):
        # one CF4 step of 0.015 per substep at delta = 20 (h delta = 0.3);
        # midpoint stepping, or the two CF4 factors swapped, miss by ~1e-4
        n_ph = 3
        state = random_state(n_ph, seed=2024)
        cfg = make_config(delta=20.0, p=1, tau_max=5.0, n_steps=26)
        traj = evolve(state, cfg)
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
        traj = evolve(state, cfg)
        ref = lab_frame_reference(state, cfg, traj.taus)
        assert np.max(np.abs(traj.states - ref)) < 1e-9
