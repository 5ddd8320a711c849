"""Overlap, phase extraction, populations and series assembly."""

import math

import numpy as np
import pytest

from cascade_qed import (
    CompositeState,
    FieldSpec,
    SystemConfig,
    evolve,
    initial_state,
    overlap_series,
    series_from_closed_form,
    series_from_trajectory,
    superposed_distribution,
    unwrap_with_gaps,
    wrap_angle,
)
from cascade_qed.evolver import Trajectory
from cascade_qed.phases import _phase_columns
from propagators import observables_from_states


def unit_state(seed=0, n_ph=4):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(3, n_ph + 1)) + 1j * rng.normal(size=(3, n_ph + 1))
    amps /= np.linalg.norm(amps)
    return CompositeState(amps)


def stored(states, phi_dynamical=None):
    """A trajectory of the given states, so that series_from_trajectory can
    be fed states chosen by hand: its observables are the reference
    formulas applied to them."""
    states = np.array(states, dtype=complex)
    n = len(states)
    overlap, populations, _, norm_error = observables_from_states(states)
    return Trajectory(
        taus=np.arange(float(n)), overlap=overlap, populations=populations,
        norm_error=norm_error, expectation_V=np.zeros(n),
        phi_dynamical=np.zeros(n) if phi_dynamical is None else np.asarray(phi_dynamical),
        substeps=max(1, n - 1), states=states,
    )


def phases(x, y, phi_dyn=0.0):
    """(Pancharatnam, geometric, arcsine) columns for the given overlaps."""
    x, y = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float))
    return _phase_columns(x, y, np.broadcast_to(np.asarray(phi_dyn, dtype=float), x.shape))


class TestOverlap:
    def test_self_overlap_is_one(self):
        psi = unit_state().amplitudes
        series = series_from_trajectory(stored([psi, psi]))
        assert series.x[1] == pytest.approx(1.0, abs=1e-14)
        assert series.y[1] == pytest.approx(0.0, abs=1e-14)

    def test_global_phase(self):
        psi = unit_state().amplitudes
        series = series_from_trajectory(stored([psi, 1j * psi]))
        assert series.x[1] == pytest.approx(0.0, abs=1e-14)
        assert series.y[1] == pytest.approx(1.0, abs=1e-14)
        assert series.phi_pancharatnam[1] == pytest.approx(math.pi / 2, abs=1e-14)

    def test_orthogonal_states(self):
        a = np.zeros((3, 5), dtype=complex)
        a[0, 0] = 1.0
        b = np.zeros((3, 5), dtype=complex)
        b[1, 1] = 1.0
        series = series_from_trajectory(stored([a, b]))
        assert series.x[1] == 0.0 and series.y[1] == 0.0
        assert math.isnan(series.phi_pancharatnam[1])


class TestPancharatnamPhase:
    def test_examples(self):
        total, _, _ = phases([1.0, 0.0, -1.0], [0.0, 1.0, 0.0])
        assert total[0] == 0.0
        assert total[1] == pytest.approx(math.pi / 2, abs=1e-15)
        # branch edge pinned to +pi
        assert total[2] == pytest.approx(math.pi, abs=1e-15)

    def test_below_floor_is_a_gap(self):
        assert all(math.isnan(col[0]) for col in phases(1e-13, 0.0))


class TestWrapAndUnwrap:
    def test_wrap_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0
        grid = np.linspace(-10.0, 10.0, 401)
        wrapped = wrap_angle(grid)
        assert np.all(wrapped > -math.pi - 1e-12)
        assert np.all(wrapped <= math.pi + 1e-12)

    def test_wrap_odd_multiples_of_pi(self):
        # the subtracted multiple of 2 pi rounds: from 13 pi on, it carries
        # 28,917 of these past pi, by up to 1.1e-10
        wrapped = wrap_angle(np.arange(1, 400_000, 2) * math.pi)
        assert np.all((wrapped > -math.pi) & (wrapped <= math.pi))
        assert np.min(np.abs(wrapped)) > 3.14

    def test_wrap_large_angles(self):
        rng = np.random.default_rng(29)
        phi = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-3.0, 17.0, 200_000)
        phi = np.concatenate((phi, [np.nan, 1e17, -1e17, 1e300, -1e300]))
        wrapped = wrap_angle(phi)
        assert np.isnan(wrapped[-5])
        finite = wrapped[~np.isnan(phi)]
        assert np.all((finite > -math.pi) & (finite <= math.pi))
        # entries the plain formula left inside keep its bits
        plain = phi - 2.0 * math.pi * np.ceil((phi - math.pi) / (2.0 * math.pi))
        inside = (plain > -math.pi) & (plain <= math.pi)
        assert np.count_nonzero(~inside) > 1000
        assert wrapped[inside].tobytes() == plain[inside].tobytes()
        # and every entry is congruent to phi where 2 pi is still resolved
        near = np.abs(phi) < 1e6
        turns = (phi[near] - wrapped[near]) / (2.0 * math.pi)
        assert np.max(np.abs(turns - np.round(turns))) < 1e-9

    def test_unwrap_with_gaps(self):
        phi = np.array([0.0, 3.0, 6.0 - 2 * math.pi, np.nan, 0.5, 0.6])
        out = unwrap_with_gaps(phi)
        assert out[2] == pytest.approx(6.0)
        assert math.isnan(out[3])
        assert out[4] == 0.5 and out[5] == 0.6

    def test_unwrap_all_nan(self):
        phi = np.array([np.nan, np.nan])
        out = unwrap_with_gaps(phi)
        assert np.all(np.isnan(out))

    def test_unwrap_empty(self):
        assert unwrap_with_gaps(np.array([])).shape == (0,)


class TestGeometricPhase:
    """The geometric column: total minus dynamical phase, wrapped."""

    def test_zero_dynamical_returns_total(self):
        total = np.array([0.1, -0.2, 3.0])
        _, geometric, _ = phases(np.cos(total), np.sin(total))
        assert np.allclose(geometric, total)

    def test_pure_dynamical_negates(self):
        dyn = np.array([0.4, 1.0])
        _, geometric, _ = phases(np.ones(2), np.zeros(2), dyn)
        assert np.allclose(geometric, -dyn)

    def test_pi_minus_pi_is_zero(self):
        _, geometric, _ = phases(-1.0, 0.0, math.pi)
        assert geometric[0] == 0.0

    def test_wraps_into_interval(self):
        _, geometric, _ = phases(math.cos(3.0), math.sin(3.0), -3.0)
        assert -math.pi < geometric[0] <= math.pi


class TestPopulations:
    def test_sum_to_one(self):
        psi = unit_state(seed=2).amplitudes
        series = series_from_trajectory(stored([psi, psi]))
        rho = series.rho11 + series.rho22 + series.rho33
        assert np.max(np.abs(rho - 1.0)) < 1e-12


class TestDynamicalPhase:
    def make_run(self, theta, dt=5e-4, alpha=5.0, tau_max=2.0 * math.pi, p=1):
        cfg = SystemConfig(
            field=FieldSpec(alpha=alpha, r=0.0), delta=0.0, theta=theta, p=p,
            tau_max=tau_max, n_steps=81, dt_internal=dt,
        )
        dist = superposed_distribution(cfg.field)
        traj = evolve(initial_state(cfg, dist), cfg)
        return cfg, dist, traj

    def test_theta_zero_identically_zero(self):
        _, _, traj = self.make_run(theta=0.0, dt=2e-3)
        phi = series_from_trajectory(traj).phi_dynamical
        assert np.max(np.abs(phi)) < 1e-12

    def test_quadrature_matches_resonant_closed_form(self):
        cfg, dist, traj = self.make_run(theta=math.pi / 4)
        numeric = series_from_trajectory(traj).phi_dynamical
        closed = overlap_series(traj.taus, cfg, dist)[2]
        assert np.max(np.abs(numeric - closed)) < 1e-6

    def test_stationary_state_has_zero_phase(self):
        # all weight on the decoupled ground-vacuum state: H acts as zero
        amps = np.zeros((3, 4), dtype=complex)
        amps[2, 0] = 1.0
        cfg = SystemConfig(
            field=FieldSpec(alpha=1.0, r=0.0), delta=0.0, theta=0.0,
            tau_max=2.0, n_steps=21, dt_internal=1e-2,
        )
        traj = evolve(CompositeState(amps), cfg, keep_states=True)
        assert np.max(np.abs(series_from_trajectory(traj).phi_dynamical)) == 0.0
        assert np.max(np.abs(traj.states[-1] - traj.states[0])) == 0.0


class TestSeriesAssembly:
    def test_numeric_series_invariants(self):
        cfg = SystemConfig(
            field=FieldSpec(alpha=5.0, r=0.0), delta=0.0, theta=math.pi / 4,
            p=1, tau_max=4.0 * math.pi, n_steps=201,
        )
        dist = superposed_distribution(cfg.field)
        series = series_from_trajectory(evolve(initial_state(cfg, dist), cfg))
        assert np.all(series.x**2 + series.y**2 <= 1.0 + 1e-9)
        assert np.max(np.abs(series.rho11 + series.rho22 + series.rho33 - 1.0)) < 1e-9
        finite = np.isfinite(series.phi_pancharatnam)
        assert np.all(np.abs(series.phi_pancharatnam[finite]) <= math.pi + 1e-12)
        assert np.all(np.abs(series.phi_eq5[np.isfinite(series.phi_eq5)])
                      <= math.pi / 2 + 1e-12)
        # in the right half plane the Eq. 5 phase is minus the Pancharatnam one, bit for bit
        right = series.x >= 0.0
        assert np.array_equal(series.phi_eq5[right], -series.phi_pancharatnam[right],
                              equal_nan=True)

    def test_closed_form_series_gaps(self):
        cfg = SystemConfig(
            field=FieldSpec(alpha=3.0, r=0.0), delta=0.0, theta=0.5,
            p=1, tau_max=6.0, n_steps=64,
        )
        dist = superposed_distribution(cfg.field)
        series = series_from_closed_form(cfg, dist)
        assert np.all(np.isnan(series.rho11))
        assert np.all(np.isnan(series.norm_error))
        assert np.all(np.isfinite(series.x))
        assert len(series.tau) == 64

    def test_engines_agree_on_phases(self):
        cfg = SystemConfig(
            field=FieldSpec(alpha=5.0, r=0.0), delta=0.0, theta=math.pi / 4,
            p=1, tau_max=2.0 * math.pi, n_steps=101, dt_internal=5e-4,
        )
        dist = superposed_distribution(cfg.field)
        numeric = series_from_trajectory(evolve(initial_state(cfg, dist), cfg))
        analytic = series_from_closed_form(cfg, dist)
        assert np.max(np.abs(numeric.x - analytic.x)) < 1e-6
        assert np.max(np.abs(numeric.y - analytic.y)) < 1e-6
        assert np.nanmax(np.abs(numeric.phi_eq5 - analytic.phi_eq5)) < 1e-5
        assert np.max(np.abs(numeric.phi_dynamical - analytic.phi_dynamical)) < 1e-5

    def test_edge_term_visible_at_small_alpha(self):
        # the closed form drops the middle-level vacuum rung; at alpha=1
        # that term carries q_0^2 = e^-1 of weight, so the two routes must
        # disagree measurably, yet never by more than twice that weight
        cfg = SystemConfig(
            field=FieldSpec(alpha=1.0, r=0.0), delta=0.0, theta=math.pi / 4,
            p=1, tau_max=2.0 * math.pi, n_steps=201,
        )
        dist = superposed_distribution(cfg.field)
        numeric = series_from_trajectory(evolve(initial_state(cfg, dist), cfg))
        analytic = series_from_closed_form(cfg, dist)
        dev = np.abs((numeric.x - analytic.x) + 1j * (numeric.y - analytic.y))
        assert np.max(dev) > 1e-3
        assert np.max(dev) < 2.0 * math.exp(-1.0)

    def test_gap_marking_on_synthetic_orthogonal_state(self):
        a = np.zeros((2, 3, 4), dtype=complex)
        a[0, 0, 0] = 1.0
        a[1, 1, 1] = 1.0  # orthogonal to the initial state
        series = series_from_trajectory(stored(a))
        assert math.isnan(series.phi_pancharatnam[1])
        assert math.isnan(series.phi_geometric[1])
        assert math.isnan(series.phi_eq5[1])
        assert series.phi_pancharatnam[0] == 0.0
