"""Mode shape, pulse area, initial state and the coupling expectation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cascade_qed import (
    CompositeState,
    FieldSpec,
    Motion,
    SystemConfig,
    coupling_expectation,
    initial_state,
    mode_shape,
    pulse_area,
    superposed_distribution,
)
from cascade_qed.cli import ConfigError, ScenarioConfig


def populations(state):
    """Level occupations (rho11, rho22, rho33): the photon index traced out."""
    return tuple(float(rho) for rho in np.add.reduce(np.abs(state.amplitudes) ** 2, axis=1))


def make_config(**kwargs):
    defaults = dict(field=FieldSpec(alpha=2.0, r=0.0), delta=0.0, theta=0.0, p=1)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


class TestModeShape:
    def test_zero_at_origin(self):
        assert mode_shape(0.0, make_config(p=1)) == 0.0

    def test_peak_at_quarter_period(self):
        assert mode_shape(math.pi / 2, make_config(p=1)) == pytest.approx(1.0)

    def test_neglected_is_unity(self):
        cfg = make_config(motion=Motion.NEGLECTED)
        assert mode_shape(math.pi / 2, cfg) == 1.0
        assert mode_shape(123.4, cfg) == 1.0

    def test_vectorized(self):
        cfg = make_config(p=2)
        taus = np.linspace(0.0, 3.0, 7)
        assert np.allclose(mode_shape(taus, cfg), np.sin(2 * taus))


class TestPulseArea:
    def test_zero_at_origin(self):
        assert pulse_area(0.0, make_config(p=1)) == 0.0
        assert pulse_area(0.0, make_config(motion=Motion.NEGLECTED)) == 0.0

    def test_half_period_value(self):
        assert pulse_area(math.pi, make_config(p=1)) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("p", [1, 2])
    def test_vanishes_at_full_periods(self, p):
        cfg = make_config(p=p)
        assert abs(pulse_area(2 * math.pi / p, cfg)) < 1e-12

    def test_neglected_is_tau(self):
        cfg = make_config(motion=Motion.NEGLECTED)
        assert pulse_area(7.25, cfg) == 7.25

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.37, 1.9, 5.4, 9.99])
    def test_is_antiderivative_of_mode_shape(self, p, tau):
        cfg = make_config(p=p)
        numeric, _err = quad(lambda t: mode_shape(t, cfg), 0.0, tau, limit=200)
        assert abs(pulse_area(tau, cfg) - numeric) < 1e-10

    def test_neglected_antiderivative(self):
        cfg = make_config(motion=Motion.NEGLECTED)
        numeric, _err = quad(lambda t: mode_shape(t, cfg), 0.0, 4.2)
        assert abs(pulse_area(4.2, cfg) - numeric) < 1e-10


class TestInitialState:
    def test_theta_zero_pure_upper(self):
        dist = superposed_distribution(FieldSpec(alpha=2.0, r=0.0))
        state = initial_state(make_config(theta=0.0), dist)
        assert populations(state) == (1.0, 0.0, 0.0)

    def test_theta_half_pi_pure_middle(self):
        dist = superposed_distribution(FieldSpec(alpha=2.0, r=0.0))
        state = initial_state(make_config(theta=math.pi / 2), dist)
        rho = populations(state)
        assert rho[0] < 1e-30
        assert rho[1] == pytest.approx(1.0, abs=1e-15)
        assert rho[2] == 0.0

    def test_equal_superposition_populations(self):
        dist = superposed_distribution(FieldSpec(alpha=5.0, r=0.0))
        state = initial_state(make_config(theta=math.pi / 4), dist)
        rho = populations(state)
        assert rho[0] == pytest.approx(0.5, abs=1e-15)
        assert rho[1] == pytest.approx(0.5, abs=1e-15)
        assert rho[2] == 0.0

    def test_middle_branch_sign_is_negative(self):
        dist = superposed_distribution(FieldSpec(alpha=1.0, r=0.0))
        state = initial_state(make_config(theta=math.pi / 4), dist)
        assert state.amplitudes[1, 0].real < 0.0
        assert state.amplitudes[0, 0].real > 0.0

    @pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 4, 2.0])
    @pytest.mark.parametrize("r", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("alpha", [0.7, 3.0])
    def test_unit_norm_grid(self, theta, r, alpha):
        dist = superposed_distribution(FieldSpec(alpha=alpha, r=r))
        state = initial_state(make_config(theta=theta), dist)
        norm = math.sqrt(float(np.sum(np.abs(state.amplitudes) ** 2)))
        assert abs(norm - 1.0) < 1e-12

    def test_ground_level_exactly_empty(self):
        dist = superposed_distribution(FieldSpec(alpha=3.0, r=1.0))
        state = initial_state(make_config(theta=1.1), dist)
        assert np.all(state.amplitudes[2, :] == 0.0)

    def test_basis_pads_two_photons(self):
        dist = superposed_distribution(FieldSpec(alpha=2.0, r=0.0))
        state = initial_state(make_config(), dist)
        assert state.n_ph == dist.n_max + 2
        assert np.all(state.amplitudes[:, dist.n_max + 1 :] == 0.0)


class TestCouplingExpectation:
    def test_theta_zero_vanishes(self):
        dist = superposed_distribution(FieldSpec(alpha=5.0, r=0.0))
        state = initial_state(make_config(theta=0.0), dist)
        assert coupling_expectation(state) == 0.0

    def test_coherent_value_is_minus_sin2theta_alpha(self):
        # cross-ladder sum collapses to alpha for a plain coherent field
        dist = superposed_distribution(FieldSpec(alpha=5.0, r=0.0))
        state = initial_state(make_config(theta=math.pi / 4), dist)
        assert coupling_expectation(state) == pytest.approx(-5.0, abs=1e-9)

    def test_cat_states_vanish(self):
        for r in (1.0, -1.0):
            dist = superposed_distribution(FieldSpec(alpha=5.0, r=r))
            state = initial_state(make_config(theta=math.pi / 4), dist)
            assert coupling_expectation(state) == 0.0


class TestValidation:
    def test_amplitudes_read_only(self):
        dist = superposed_distribution(FieldSpec(alpha=1.0, r=0.0))
        state = initial_state(make_config(), dist)
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 1.0

    def test_bad_state_shape_rejected(self):
        with pytest.raises(ValueError):
            CompositeState(np.zeros((2, 5), dtype=complex))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau_max=-1.0),
            dict(n_steps=1),
            dict(dt_internal=0.0),
            dict(p=0),
            dict(delta=math.nan),
            dict(n_steps=20.5),
            dict(p=1.5),
            dict(p=True),
            dict(p=10**400, tau_max=0.1),
            dict(p=10**308, tau_max=25.0),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_config(**kwargs)

    # no array index holds such a grid: 10^400 overflowed a float in
    # substeps, and 2^63 made taus() raise IndexError
    @pytest.mark.parametrize("n_steps", [10**400, 2**63], ids=["1e400", "2^63"])
    def test_unindexable_n_steps_rejected(self, n_steps):
        with pytest.raises(ValueError, match=r"^n_steps must be <= \d+, the largest index$"):
            make_config(n_steps=n_steps)
        edge = int(np.iinfo(np.intp).max)
        assert make_config(n_steps=edge).n_steps == edge

    # a p of over 4,300 digits: converting it to a string for the message
    # raised Python's own integer-to-string ValueError in its place
    @pytest.mark.parametrize("p", [10**400, 10**5000], ids=["1e400", "1e5000"])
    def test_huge_moving_atom_p_message(self, p):
        message = (r"^p \* tau_max must be a finite double for a moving atom, got "
                   rf"tau_max = 0\.1 and a p of {p.bit_length()} bits$")
        with pytest.raises(ValueError, match=message):
            make_config(p=p, tau_max=0.1)
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(p=p, tau_max=0.1)

    def test_p_ignored_when_neglected(self):
        cfg = make_config(p=0, motion=Motion.NEGLECTED)
        assert mode_shape(2.0, cfg) == 1.0
        assert make_config(p=10**400, motion=Motion.NEGLECTED).p == 10**400
