"""Closed-form resonant overlap series against independent oracles."""

import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from cascade_qed import (
    FieldSpec,
    Motion,
    SystemConfig,
    coherent_coefficients,
    coupling_expectation,
    initial_state,
    normalization_constant,
    overlap_series,
    pulse_area,
    superposed_distribution,
)
from cascade_qed import resonant
from cascade_qed.phases import _phase_columns

# 1 - x(0) at alpha=5, theta=pi/4, r=0: the dropped middle-level vacuum term
# sin^2(theta) q_0^2, frozen from a 40-digit evaluation of e^-25 / 2
X0_DEFICIT_ALPHA5 = 6.9439719324815380016e-12


def overlap_at(tau, config, dist):
    """x(tau) + i y(tau) from ``overlap_series`` on the one-point grid [tau]."""
    x, y, _ = overlap_series(np.array([tau]), config, dist)
    return complex(x[0], y[0])


def arcsin_phase(x, y):
    """The phi_eq5 column, -asin(y / |x + i y|), for one overlap."""
    return float(_phase_columns(np.array([x]), np.array([y]), np.zeros(1))[2][0])


# -asin(y / |x + i y|) from a 40-digit evaluation (mpmath), frozen: x at and
# beside 0, and the six fig2b rows nearest |y|/|z| = 1 (1 - |y|/|z| from
# 3.1e-9 to 1.9e-4, two with x < 0), where a float64 asin of the ratio is
# 3.5e-15 to 9.9e-13 off.  The last column is the row's tau.
_PI2 = "1.570796326794896619231321691639751442099"
EXACT_ARCSIN_PHASES = [
    *((x, y, ("-" if y > 0 else "") + _PI2, f"x={x!r},y={y:+g}")
      for x in (0.0, -0.0, 5e-324, -5e-324) for y in (1.0, -1.0)),
    *((float.fromhex(x), float.fromhex(y), exact, f"fig2b tau={tau}") for x, y, exact, tau in (
        ("0x1.8a818efc58000p-15", "-0x1.3052dbc7ba46fp-1",
         "1.570717204651735745644163964392533068138", "2.2505055927666753"),
        ("0x1.8a818efbc2000p-15", "-0x1.3052dbc7ba464p-1",
         "1.570717204651742749958840150745907496266", "22.88223563595167"),
        ("0x1.2b5fa5ba5f300p-10", "0x1.47c47aea36270p-1",
         "-1.569012399207975674603192650266186035758", "9.9701169556646558"),
        ("0x1.2b5fa5ba5a800p-10", "0x1.47c47aea36264p-1",
         "-1.569012399207982174346358778429437900317", "15.162624273053689"),
        ("-0x1.722f947b05880p-8", "0x1.4673a548c9af8p-1",
         "-1.561937432790188627001750279191329885162", "12.019460037346041"),
        ("-0x1.97067ac9c6400p-7", "0x1.4519e672026d8p-1",
         "-1.551236386881900509911109443014092879016", "16.256445427079949"),
    )),
]


def make_config(alpha, r, theta, p=1, motion=Motion.MOVING):
    return SystemConfig(
        field=FieldSpec(alpha=alpha, r=r), delta=0.0, theta=theta, p=p, motion=motion
    )


def dense_coupling_matrix(n_ph):
    """Full coupling operator on the (level, photon) rectangle, by brute force."""
    dim = 3 * (n_ph + 1)
    v = np.zeros((dim, dim))

    def idx(level, n):
        return (level - 1) * (n_ph + 1) + n

    for n in range(n_ph):
        v[idx(2, n + 1), idx(1, n)] = v[idx(1, n), idx(2, n + 1)] = math.sqrt(n + 1.0)
        v[idx(3, n + 1), idx(2, n)] = v[idx(2, n), idx(3, n + 1)] = math.sqrt(n + 1.0)
    return v


def brute_force_overlap(config, dist, tau):
    """exp(-i area V) on the dense matrix, no ladder bookkeeping shared
    with the implementation under test."""
    state = initial_state(config, dist)
    psi0 = state.amplitudes.ravel()
    v = dense_coupling_matrix(state.n_ph)
    u = expm(-1j * pulse_area(tau, config) * v)
    return np.vdot(psi0, u @ psi0)


class TestOverlapAgainstBruteForce:
    @pytest.mark.parametrize(
        "alpha,r,theta",
        [
            (1.2, 0.0, math.pi / 4),
            (1.2, 1.0, math.pi / 4),
            (1.2, -1.0, math.pi / 3),
            (1.2, 0.5, 0.9),
            (2.0, 0.0, 0.3),
            # the middle-level vacuum alone: the omitted term is all of x
            (0.0, 0.0, math.pi / 2),
            # level 1 empty: every lane's bright amplitude is 0
            (1.2, 0.0, math.pi / 2),
        ],
    )
    @pytest.mark.parametrize("motion", [Motion.MOVING, Motion.NEGLECTED])
    @pytest.mark.parametrize("tau", [0.35, 1.1, 2.6])
    def test_series_matches_matrix_exponential(self, alpha, r, theta, motion, tau):
        config = make_config(alpha, r, theta, motion=motion)
        dist = superposed_distribution(config.field)
        z = brute_force_overlap(config, dist, tau)
        val = overlap_at(tau, config, dist)
        # the closed form omits the middle-level vacuum rung, which evolves
        # within the bottom pair as cos(area)
        area = pulse_area(tau, config)
        edge = math.sin(theta) ** 2 * dist.weights[0] ** 2 * math.cos(area)
        assert val.real + edge == pytest.approx(z.real, abs=1e-10)
        assert val.imag == pytest.approx(z.imag, abs=1e-10)

    def test_series_matches_raw_coefficient_form(self):
        # re-evaluate the sums directly from q_n and B instead of the
        # normalized weights
        alpha, r, theta, tau = 2.0, 0.5, 1.0, 1.7
        config = make_config(alpha, r, theta)
        dist = superposed_distribution(config.field)
        area = pulse_area(tau, config)
        b = normalization_constant(alpha, r)
        q = coherent_coefficients(alpha, dist.n_max + 1)
        x_raw = 0.0
        y_raw = 0.0
        for n in range(dist.n_max + 1):
            w = math.sqrt(2.0 * n + 3.0)
            x_raw += (
                q[n] ** 2
                * math.cos(theta) ** 2
                / (b * (2 * n + 3))
                * (1.0 + r * (-1.0) ** n) ** 2
                * (n + 2.0 + (n + 1.0) * math.cos(area * w))
            )
            x_raw += (
                q[n + 1] ** 2
                * math.sin(theta) ** 2
                / b
                * (1.0 - r * (-1.0) ** n) ** 2
                * math.cos(area * w)
            )
            y_raw += (
                q[n] * q[n + 1]
                * math.sin(2.0 * theta)
                / b
                * math.sqrt((n + 1.0) / (2.0 * n + 3.0))
                * (1.0 - r * r)
                * math.sin(area * w)
            )
        val = overlap_at(tau, config, dist)
        assert val.real == pytest.approx(x_raw, abs=1e-10)
        assert val.imag == pytest.approx(y_raw, abs=1e-10)


def fsum_of_kept_terms(config, dist, tau):
    """x and y at one tau as exactly rounded sums of the kept ladder terms."""
    c = [float(v) for v in dist.weights]
    theta = config.theta
    cos2, sin2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    area = float(pulse_area(tau, config))
    xs, ys = [], []
    for n in range(dist.n_max + 1):
        w_n = math.sqrt(2.0 * n + 3.0)
        w1 = c[n] * c[n] * cos2
        if w1 >= 1e-18:
            xs.append(w1 * (n + 2.0 + (n + 1.0) * math.cos(area * w_n)) / (2 * n + 3))
        if n == dist.n_max:
            continue
        w2 = c[n + 1] * c[n + 1] * sin2
        if w2 >= 1e-18:
            xs.append(w2 * math.cos(area * w_n))
        wy = c[n] * c[n + 1] * math.sin(2.0 * theta) * math.sqrt((n + 1.0) / (2 * n + 3))
        if abs(wy) >= 1e-18:
            ys.append(wy * math.sin(area * w_n))
    return math.fsum(xs), math.fsum(ys)


def interpolated_series(monkeypatch, taus, config, dist):
    """``overlap_series`` on taus, asserting that it took the interpolated path."""
    calls = []
    barycentric = resonant._barycentric

    def counted(*args):
        calls.append(args[1].size)
        return barycentric(*args)

    monkeypatch.setattr(resonant, "_barycentric", counted)
    x, y, _ = overlap_series(taus, config, dist)
    assert calls and max(calls) < taus.size  # fewer nodes than grid points
    return x, y


class TestPairwiseSums:
    """The whole-array sums against exactly rounded sums of the same terms."""

    @pytest.mark.parametrize("r", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_fsum_of_kept_terms_at_alpha40(self, r, p):
        # alpha = 40 takes the log-space weight branch, n_max ~ 1,890
        theta = 0.6
        config = make_config(40.0, r, theta, p=p)
        dist = superposed_distribution(config.field)
        assert dist.n_max > 1800
        taus = np.linspace(0.0, 2.0 * math.pi / p, 23)
        x, y, _ = overlap_series(taus, config, dist)
        for k, tau in enumerate(taus):
            x_ref, y_ref = fsum_of_kept_terms(config, dist, tau)
            assert abs(x[k] - x_ref) <= 1e-14
            assert abs(y[k] - y_ref) <= 1e-14
        if r != 0.0:
            assert np.all(y == 0.0)  # cat states: no cross terms at all


def assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


class TestBlocks:
    """The closed form's blocked sums carry the bits of the same formula
    taken over all points in one shot."""

    @pytest.mark.parametrize("size", [5000, 41, 0],
                             ids=["partial-last-block", "under-one-block", "no-points"])
    @pytest.mark.parametrize("lanes", [100, 0])
    def test_trig_sums_match_the_unblocked_formula(self, size, lanes):
        # 100 lanes make blocks of 81 rows: 5,000 points are 61 blocks and 59 rows
        rng = np.random.default_rng(34)
        points, omega = rng.uniform(0.0, 50.0, size), np.sqrt(2.0 * np.arange(lanes) + 3.0)
        terms = [(trig, rng.normal(size=lanes)) for trig in (np.cos, np.sin, np.cos)]
        phase = np.multiply.outer(points, omega)
        expected = np.array([np.add.reduce(trig(phase) * w, axis=1) for trig, w in terms])
        assert_same_bits(resonant._trig_sums(points, omega, terms), expected)

    @pytest.mark.parametrize("size", [5000, 41, 3],
                             ids=["partial-last-block", "under-one-block", "three-points"])
    def test_barycentric_matches_the_unblocked_formula(self, size):
        # 101 nodes make blocks of 81 rows.  Two points are nodes and one lies
        # 1e-320 from the node at 0, where 1 / (point - node) overflows: all
        # three take the nan path to their node's value
        n = 100
        nodes = 2.0 + 2.0 * np.sin(0.5 * math.pi * np.arange(n, -n - 1, -2) / n)
        values = np.random.default_rng(34).normal(size=(4, nodes.size))
        points = np.random.default_rng(35).uniform(-1.0, 5.0, size)
        points[:3] = nodes[0], 1e-320, nodes[50]
        weights = np.ones(nodes.size)
        weights[1::2] = -1.0
        weights[[0, -1]] *= 0.5
        ours = resonant._barycentric(points, nodes, values)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = weights / np.subtract.outer(points, nodes)
            total = np.add.reduce(q, axis=1)
            expected = np.array([np.add.reduce(q * value, axis=1) / total for value in values])
        assert_same_bits(ours[:, 3:], expected[:, 3:])
        assert_same_bits(ours[:, :3], values[:, [0, -1, 50]])


class TestInterpolatedSums:
    """The Chebyshev-interpolated sums where they run (many more points than
    nodes), and the direct sums where they do not, against exactly rounded
    sums of the kept terms."""

    @pytest.mark.parametrize(
        "alpha,r,p,motion",
        [
            (40.0, 0.0, 1, Motion.MOVING),
            (40.0, 1.0, 1, Motion.MOVING),
            (40.0, -1.0, 1, Motion.MOVING),
            (40.0, 0.0, 2, Motion.MOVING),
            (40.0, 1.0, 2, Motion.MOVING),
            (40.0, -1.0, 2, Motion.MOVING),
            (40.0, 0.0, 1, Motion.NEGLECTED),
            # the band's midpoint sits just under 1.5 * 32, so the bulk of the
            # weight lies about 16 from the power-of-two centre, near the
            # largest offset: the curve that needs the degree's margin
            (33.5, 0.0, 1, Motion.MOVING),
        ],
        ids=["r0-p1", "r1-p1", "r-1-p1", "r0-p2", "r1-p2", "r-1-p2", "neglected",
             "alpha33.5"],
    )
    def test_matches_fsum_of_kept_terms(self, monkeypatch, alpha, r, p, motion):
        config = SystemConfig(
            field=FieldSpec(alpha=alpha, r=r), theta=0.6, p=p, motion=motion,
            tau_max=8.0 * math.pi, n_steps=2000,
        )
        dist = superposed_distribution(config.field)
        taus = config.taus()
        x, y = interpolated_series(monkeypatch, taus, config, dist)
        rows = np.random.default_rng(15).choice(taus.size, 25, replace=False)
        for k in [0, taus.size - 1, *rows]:
            x_ref, y_ref = fsum_of_kept_terms(config, dist, taus[k])
            assert abs(x[k] - x_ref) <= 1e-14
            assert abs(y[k] - y_ref) <= 1e-14
        if r != 0.0:
            assert np.all(y == 0.0)  # cat states: no cross terms at all

    def test_theta_zero_y_identically_zero(self, monkeypatch):
        config = make_config(40.0, 0.0, 0.0)
        dist = superposed_distribution(config.field)
        _, y = interpolated_series(monkeypatch, config.taus(), config, dist)
        assert np.all(y == 0.0)

    def test_point_next_to_a_node(self, monkeypatch):
        # 1 / (1e-320 - 0) overflows; the point takes the node's value
        config = make_config(40.0, 0.0, 0.6, motion=Motion.NEGLECTED)
        dist = superposed_distribution(config.field)
        taus = np.concatenate([[1e-320], np.linspace(0.0, 3.0, 500)])
        x, y = interpolated_series(monkeypatch, taus, config, dist)
        for k in (0, 1, 2):
            x_ref, y_ref = fsum_of_kept_terms(config, dist, taus[k])
            assert abs(x[k] - x_ref) <= 1e-14
            assert abs(y[k] - y_ref) <= 1e-14

    @pytest.mark.parametrize(
        "taus,motion,theta",
        [
            (np.zeros(20), Motion.MOVING, 0.6),  # one area: every node would coincide
            (np.full(30, 1.0), Motion.NEGLECTED, 0.6),
            (1.0 + np.arange(40) * 2.0**-52, Motion.NEGLECTED, 0.6),  # 39 ulps wide
            # 1,515 nodes against 2,000 points: more work than the direct sums
            (np.linspace(0.0, 64.0 * math.pi, 2000), Motion.NEGLECTED, 0.6),
            # sin(2 theta) = 0.14 keeps 612 rungs of wy against 624 of wx, so the
            # sine sums run over zero weights at 12 of the kept rungs
            (np.linspace(0.0, 64.0 * math.pi, 2000), Motion.NEGLECTED, 1.5),
        ],
        ids=["constant-moving", "constant-neglected", "ulps", "long-neglected",
             "long-neglected-theta1.5"],
    )
    def test_direct_sums(self, monkeypatch, taus, motion, theta):
        config = make_config(40.0, 0.0, theta, motion=motion)
        dist = superposed_distribution(config.field)
        monkeypatch.setattr(resonant, "_barycentric", None)  # must not be called
        x, y, _ = overlap_series(taus, config, dist)
        for k in [0, taus.size - 1, *range(1, taus.size, 97)]:
            x_ref, y_ref = fsum_of_kept_terms(config, dist, taus[k])
            assert abs(x[k] - x_ref) <= 1e-14
            assert abs(y[k] - y_ref) <= 1e-14

    def test_each_trig_runs_once_per_block(self):
        calls = {np.cos: 0, np.sin: 0}

        def counting(trig):
            def counted(phase):
                calls[trig] += 1
                return trig(phase)
            return counted

        rng = np.random.default_rng(17)
        points, omega = rng.uniform(0.0, 50.0, 5000), np.sqrt(2.0 * np.arange(100) + 3.0)
        terms = [(trig, rng.normal(size=omega.size)) for trig in (np.cos, np.sin) * 2]
        counted = {trig: counting(trig) for trig in calls}
        sums = resonant._trig_sums(points, omega, [(counted[t], w) for t, w in terms])
        blocks = -(-points.size // (resonant._BLOCK // omega.size))
        assert blocks > 2
        assert calls == {np.cos: blocks, np.sin: blocks}
        for row, (trig, w) in zip(sums, terms):
            expected = np.add.reduce(trig(np.multiply.outer(points, omega)) * w, axis=1)
            assert np.array_equal(row, expected)

    def test_node_count_bound(self):
        # the interpolation error is bounded by the Chebyshev coefficients
        # past the degree, 2 |J_k(c)|; J_k(c) falls monotonically in k > c
        cs = np.concatenate([np.linspace(0.0, 10.0, 1001), np.linspace(10.0, 1e4, 4001)])
        for c in cs:
            n = int(resonant._chebyshev_degree(c))
            assert n > c
            assert np.max(np.abs(jv(np.arange(n, n + 40), c))) < 1e-17

    def test_working_set(self):
        # blocked node sums and barycentric reduction: at most the 0.75 MB
        # the one-trig-call-per-rung sums peaked at
        config = make_config(40.0, 0.0, 0.6)
        dist = superposed_distribution(config.field)
        taus = config.taus()
        overlap_series(taus, config, dist)
        tracemalloc.start()
        try:
            overlap_series(taus, config, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75e6


class TestOverlapSpecialValues:
    def test_initial_value_deficit_alpha5(self):
        config = make_config(5.0, 0.0, math.pi / 4)
        dist = superposed_distribution(config.field)
        val = overlap_at(0.0, config, dist)
        assert val.imag == 0.0
        assert (1.0 - val.real) == pytest.approx(X0_DEFICIT_ALPHA5, rel=1e-3)

    def test_theta_zero_y_identically_zero(self):
        config = make_config(5.0, 0.0, 0.0)
        dist = superposed_distribution(config.field)
        _, y, _ = overlap_series(np.linspace(0.0, 12.0, 97), config, dist)
        assert np.all(y == 0.0)

    @pytest.mark.parametrize("r", [1.0, -1.0])
    def test_cat_states_y_identically_zero(self, r):
        config = make_config(5.0, r, math.pi / 4)
        dist = superposed_distribution(config.field)
        _, y, _ = overlap_series(np.linspace(0.0, 12.0, 97), config, dist)
        assert np.all(y == 0.0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_periodicity_moving(self, p):
        config = make_config(5.0, 0.0, math.pi / 4, p=p)
        dist = superposed_distribution(config.field)
        taus = np.linspace(0.0, 2.0 * math.pi / p, 50, endpoint=False)
        x1, y1, _ = overlap_series(taus, config, dist)
        x2, y2, _ = overlap_series(taus + 2.0 * math.pi / p, config, dist)
        assert np.max(np.abs(x1 - x2)) < 1e-12
        assert np.max(np.abs(y1 - y2)) < 1e-12

    def test_full_period_returns_to_start(self):
        config = make_config(5.0, 0.0, math.pi / 4, p=1)
        dist = superposed_distribution(config.field)
        v0 = overlap_at(0.0, config, dist)
        v1 = overlap_at(2.0 * math.pi, config, dist)
        assert v1.real == pytest.approx(v0.real, abs=1e-12)
        assert v1.imag == pytest.approx(v0.imag, abs=1e-12)

    def test_magnitude_bounded(self):
        config = make_config(3.0, 0.0, 0.7)
        dist = superposed_distribution(config.field)
        x, y, _ = overlap_series(np.linspace(0.0, 20.0, 301), config, dist)
        assert np.all(x * x + y * y <= 1.0 + 1e-9)

    def test_detuned_config_rejected(self):
        config = SystemConfig(field=FieldSpec(alpha=2.0, r=0.0), delta=1.0)
        dist = superposed_distribution(config.field)
        with pytest.raises(ValueError):
            overlap_series(np.array([1.0]), config, dist)


class TestArcsinPhase:
    """The arcsine-convention column (phi_eq5) of the phase series."""

    def test_positive_real_axis(self):
        assert arcsin_phase(1.0, 0.0) == 0.0

    def test_imaginary_axis(self):
        assert arcsin_phase(0.0, 1.0) == pytest.approx(-math.pi / 2, abs=1e-15)

    def test_exact_trig_point(self):
        assert arcsin_phase(0.5, math.sqrt(3.0) / 2.0) == pytest.approx(
            -math.pi / 3, abs=1e-15
        )

    def test_zero_vector_is_a_gap(self):
        assert math.isnan(arcsin_phase(0.0, 0.0))

    @pytest.mark.parametrize("x, y, exact", [row[:3] for row in EXACT_ARCSIN_PHASES],
                             ids=[row[3] for row in EXACT_ARCSIN_PHASES])
    def test_exact_angle(self, x, y, exact):
        assert abs(Decimal(arcsin_phase(x, y)) - Decimal(exact)) <= Decimal("4.5e-16")

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y = rng.normal(size=2)
            if x == 0.0 and y == 0.0:
                continue
            phi = arcsin_phase(x, y)
            assert -math.pi / 2 <= phi <= math.pi / 2


def dynamical_phase(taus, config, dist):
    """The dynamical phase column of ``overlap_series`` on the grid taus."""
    return overlap_series(np.atleast_1d(taus), config, dist)[2]


class TestDynamicalPhaseResonant:
    """overlap_series' third column, -<V>_0 A(tau), from its one lane split."""

    def test_theta_zero_vanishes(self):
        config = make_config(5.0, 0.0, 0.0)
        dist = superposed_distribution(config.field)
        assert np.all(dynamical_phase(3.3, config, dist) == 0.0)

    @pytest.mark.parametrize("r", [1.0, -1.0])
    def test_cat_states_vanish(self, r):
        config = make_config(5.0, r, math.pi / 4)
        dist = superposed_distribution(config.field)
        assert np.all(dynamical_phase(3.3, config, dist) == 0.0)

    def test_alpha5_half_period_magnitude(self):
        # <V>_0 = -alpha at theta=pi/4, r=0; area(pi) = 2 for p=1
        config = make_config(5.0, 0.0, math.pi / 4, p=1)
        dist = superposed_distribution(config.field)
        phi = dynamical_phase(math.pi, config, dist)
        assert phi.shape == (1,)
        assert phi[0] == pytest.approx(10.0, abs=1e-9)

    def test_vectorized_follows_pulse_area(self):
        config = make_config(2.0, 0.0, 0.6, p=2)
        dist = superposed_distribution(config.field)
        taus = np.linspace(0.0, 5.0, 21)
        phi = dynamical_phase(taus, config, dist)
        assert phi.shape == taus.shape
        ratio = phi[1:] / pulse_area(taus[1:], config)
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12

    def test_detuned_rejected(self):
        config = SystemConfig(field=FieldSpec(alpha=2.0, r=0.0), delta=2.0)
        dist = superposed_distribution(config.field)
        with pytest.raises(ValueError):
            dynamical_phase(1.0, config, dist)

    def test_bitwise_the_conserved_coupling_times_the_area(self):
        # -<V>_0 A as system defines <V>: -coupling_expectation(initial
        # state) times the pulse area, bit for bit.  <V>_0 comes from the
        # complex lane split; in real arithmetic 2 sum r b v rounds differently
        rng = np.random.default_rng(2029)
        for k in range(36):  # each (r, p, motion) three times
            config = make_config(
                float(rng.uniform(0.5, 40.0)), (0.0, 1.0, -1.0)[k % 3],
                float(rng.uniform(0.0, math.pi)), p=1 + k % 2,
                motion=(Motion.MOVING, Motion.NEGLECTED)[k // 6 % 2],
            )
            dist = superposed_distribution(config.field)
            taus = np.sort(rng.uniform(0.0, 40.0, 37))
            expected = -coupling_expectation(initial_state(config, dist)) * pulse_area(
                taus, config
            )
            got = overlap_series(taus, config, dist)[2]
            assert got.tobytes() == expected.tobytes(), (k, config)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
def test_cross_ladder_identity(alpha):
    """sum_n q_n q_{n+1} sqrt(n+1) telescopes to alpha for a coherent field."""
    q = coherent_coefficients(alpha, 400)
    total = math.fsum(
        q[n] * q[n + 1] * math.sqrt(n + 1.0) for n in range(400)
    )
    assert abs(total - alpha) < 1e-10
