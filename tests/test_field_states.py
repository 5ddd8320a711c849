"""Photon-distribution construction, normalization and truncation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_qed import (
    EPSILON_TAIL,
    FieldSpec,
    FieldSpecError,
    ZeroFieldError,
    coherent_coefficients,
    normalization_constant,
    superposed_distribution,
)
from cascade_qed import field_states

# e^{-12.5}, frozen from a 40-digit evaluation of the closed form
Q0_ALPHA5 = 3.7266531720786709929e-06
# frozen tail-scan constants (brute force over the untruncated distribution,
# criterion: smallest n with mass above n below 1e-12, then +2)
TRUNC_ALPHA5 = 68 + 2
TRUNC_ALPHA1 = 14 + 2


def log_space_coefficients(alpha, n_max):
    """Independent direct evaluation of q_n through logarithms."""
    if alpha == 0.0:
        q = np.zeros(n_max + 1)
        q[0] = 1.0
        return q
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        log_q = -0.5 * alpha * alpha + n * math.log(alpha) - 0.5 * math.lgamma(n + 1)
        out[n] = math.exp(log_q) if log_q > -745.0 else 0.0
    return out


class TestCoherentCoefficients:
    def test_vacuum(self):
        q = coherent_coefficients(0.0, 5)
        assert q[0] == 1.0
        assert np.all(q[1:] == 0.0)

    def test_q0_alpha5_frozen(self):
        q = coherent_coefficients(5.0, 0)
        assert q[0] == pytest.approx(Q0_ALPHA5, rel=1e-12)

    def test_poisson_mode_alpha5(self):
        q = coherent_coefficients(5.0, 80)
        assert int(np.argmax(q)) in (24, 25)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0, 12.0])
    def test_recurrence_matches_log_space(self, alpha):
        q = coherent_coefficients(alpha, 200)
        ref = log_space_coefficients(alpha, 200)
        mask = ref > 1e-280
        assert np.max(np.abs(q[mask] / ref[mask] - 1.0)) < 1e-12

    def test_log_space_branch_for_huge_alpha(self):
        # exp(-alpha^2/2) underflows, yet the peak amplitudes are finite
        q = coherent_coefficients(60.0, 4500)
        assert q[0] == 0.0
        peak = int(np.argmax(q))
        assert abs(peak - 3600) < 80
        assert np.sum(q * q) == pytest.approx(1.0, abs=1e-9)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError):
            coherent_coefficients(1.0, -1)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            coherent_coefficients(-1.0, 3)


class TestNormalizationConstant:
    def test_plain_coherent(self):
        assert normalization_constant(5.0, 0.0) == 1.0

    def test_even_cat_alpha5(self):
        expected = 2.0 + 2.0 * math.exp(-50.0)
        assert normalization_constant(5.0, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroFieldError):
            normalization_constant(0.0, -1.0)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("r", [-0.9, -0.5, 0.7, 1.0, 2.0])
    def test_matches_textbook_form(self, alpha, r):
        direct = 1.0 + r * r + 2.0 * r * math.exp(-2.0 * alpha * alpha)
        assert normalization_constant(alpha, r) == pytest.approx(direct, rel=1e-13)

    def test_small_alpha_odd_cat_stays_accurate(self):
        # the naive form loses all digits to cancellation here
        alpha = 1e-6
        b = normalization_constant(alpha, -1.0)
        assert b == pytest.approx(4.0 * alpha**2, rel=1e-9)


def cutoff(alpha, r=0.0):
    return superposed_distribution(FieldSpec(alpha=alpha, r=r)).n_max


class _ScanReached(Exception):
    pass


class TestChooseTruncation:
    def test_vacuum(self):
        assert cutoff(0.0) == 2

    def test_alpha5_frozen(self):
        assert cutoff(5.0) == TRUNC_ALPHA5

    def test_alpha1_frozen(self):
        assert cutoff(1.0) == TRUNC_ALPHA1

    @pytest.mark.parametrize("alpha,r", [(2.0, 0.0), (5.0, 1.0), (3.0, -1.0)])
    def test_tail_criterion_and_minimality(self, alpha, r):
        n_tail = cutoff(alpha, r) - 2
        q = coherent_coefficients(alpha, 4 * n_tail + 200)
        parity = np.where(np.arange(len(q)) % 2 == 0, 1.0 + r, 1.0 - r)
        w = (q * parity) ** 2 / normalization_constant(alpha, r)
        assert np.sum(w[n_tail + 1 :]) < EPSILON_TAIL
        assert np.sum(w[n_tail:]) >= EPSILON_TAIL

    def test_scan_window_ceiling_is_checked_before_the_scan(self, monkeypatch):
        def window(alpha):  # the first scan window, max(32, int(2 alpha^2) + 16)
            return int(2.0 * alpha * alpha) + 16

        # the largest alpha whose first window is 10^6 states
        alpha = math.sqrt(999_985 / 2)
        while window(alpha) > 10**6:
            alpha = math.nextafter(alpha, 0.0)
        while window(math.nextafter(alpha, math.inf)) <= 10**6:
            alpha = math.nextafter(alpha, math.inf)
        assert window(alpha) == 10**6

        def scan(alpha, n_max):
            raise _ScanReached(n_max)

        monkeypatch.setattr(field_states, "coherent_coefficients", scan)
        with pytest.raises(_ScanReached):
            superposed_distribution(FieldSpec(alpha=alpha))
        with pytest.raises(FieldSpecError, match="alpha="):
            superposed_distribution(FieldSpec(alpha=math.nextafter(alpha, math.inf)))
        with pytest.raises(FieldSpecError, match="alpha="):
            superposed_distribution(FieldSpec(alpha=1e200))


class TestSuperposedDistribution:
    @pytest.mark.parametrize("r", [-1.0, 0.0, 1.0, 0.4])
    def test_unit_norm(self, r):
        dist = superposed_distribution(FieldSpec(alpha=3.0, r=r))
        assert abs(np.sum(dist.weights**2) - 1.0) < 1e-12

    def test_even_cat_parity_zeros_exact(self):
        dist = superposed_distribution(FieldSpec(alpha=5.0, r=1.0))
        assert np.all(dist.weights[1::2] == 0.0)
        assert np.any(dist.weights[0::2] != 0.0)

    def test_odd_cat_parity_zeros_exact(self):
        dist = superposed_distribution(FieldSpec(alpha=5.0, r=-1.0))
        assert np.all(dist.weights[0::2] == 0.0)
        assert np.any(dist.weights[1::2] != 0.0)

    def test_plain_coherent_weights_are_q(self):
        dist = superposed_distribution(FieldSpec(alpha=5.0, r=0.0))
        q = coherent_coefficients(5.0, dist.n_max)
        assert np.max(np.abs(dist.weights - q)) < 1e-12

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroFieldError):
            superposed_distribution(FieldSpec(alpha=0.0, r=-1.0))

    # alpha = 37 still takes the recurrence, alpha = 40 the log-space branch
    @pytest.mark.parametrize("alpha", [1.0, 5.0, 37.0, 40.0])
    @pytest.mark.parametrize("r", [0.0, 1.0, -1.0])
    def test_automatic_cutoff_reuses_scan_amplitudes_exactly(self, alpha, r):
        spec = FieldSpec(alpha=alpha, r=r)
        auto = superposed_distribution(spec)
        explicit = superposed_distribution(spec, n_max=auto.n_max)
        assert np.all(auto.weights == explicit.weights)
        assert auto.dropped_tail == explicit.dropped_tail

    def test_truncation_monotone_before_renormalization(self):
        spec = FieldSpec(alpha=2.0, r=0.5)
        small = superposed_distribution(spec)
        large = superposed_distribution(spec, n_max=small.n_max + 10)
        raw_small = small.weights * math.sqrt(1.0 - small.dropped_tail)
        raw_large = large.weights[: small.n_max + 1] * math.sqrt(1.0 - large.dropped_tail)
        assert np.max(np.abs(raw_small - raw_large)) < 1e-15
        assert small.dropped_tail < EPSILON_TAIL

    def test_dropped_tail_reported(self):
        dist = superposed_distribution(FieldSpec(alpha=5.0, r=0.0))
        assert 0.0 <= dist.dropped_tail < EPSILON_TAIL

    def test_weights_read_only(self):
        dist = superposed_distribution(FieldSpec(alpha=1.0, r=0.0))
        with pytest.raises(ValueError):
            dist.weights[0] = 0.0


class TestFieldSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-1.0),
            dict(alpha=math.inf),
            dict(alpha=1.0, r=math.nan),
            dict(alpha=1.0, r=1e200),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        # refused when the spec is built, or at the latest by its distribution
        with pytest.raises(FieldSpecError):
            superposed_distribution(FieldSpec(**kwargs))


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    r=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_distribution_norm_and_parity_property(alpha, r):
    if alpha < 1e-3 and abs(r + 1.0) < 1e-3:
        return  # too close to the vanishing superposition
    dist = superposed_distribution(FieldSpec(alpha=alpha, r=r))
    assert abs(np.sum(dist.weights**2) - 1.0) < 1e-12
    if r == 1.0:
        assert np.all(dist.weights[1::2] == 0.0)
    if r == -1.0:
        assert np.all(dist.weights[0::2] == 0.0)
