"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Stated tolerances are asserted as written, no looser.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cascade_qed
from cascade_qed import (
    CompositeState,
    FieldSpec,
    Motion,
    SystemConfig,
    coherent_coefficients,
    evolve,
    initial_state,
    series_from_closed_form,
    series_from_trajectory,
    superposed_distribution,
)
from cascade_qed.cli import ScenarioConfig, list_presets
from cascade_qed.evolver import _cf4_amplitudes
from cascade_qed.output import CSV_COLUMNS

import goldens
from propagators import cf4_lane_matrices, convergence_probe, lab_frame_reference, truncated_at


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {name}: {status}  {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def resonant_config(theta, r, p, motion=Motion.MOVING, tau_max=4.0 * math.pi,
                    n_steps=2000, alpha=5.0, dt=None):
    return SystemConfig(
        field=FieldSpec(alpha=alpha, r=r), delta=0.0, theta=theta, p=p,
        motion=motion, tau_max=tau_max, n_steps=n_steps, dt_internal=dt,
    )


ORACLE_CASES = {
    "base": dict(theta=math.pi / 4, r=0.0, p=1),
    "theta0": dict(theta=0.0, r=0.0, p=1),
    "theta60": dict(theta=math.pi / 3, r=0.0, p=1),
    "odd-cat": dict(theta=math.pi / 4, r=-1.0, p=1),
    "even-cat": dict(theta=math.pi / 4, r=1.0, p=1),
    "p2": dict(theta=math.pi / 4, r=0.0, p=2),
    "neglected": dict(theta=math.pi / 4, r=0.0, p=1, motion=Motion.NEGLECTED),
}


@pytest.fixture(scope="module")
def oracle_runs():
    """The criterion-1 run matrix, shared by criteria 1, 2 and 6."""
    runs = {}
    for name, kwargs in ORACLE_CASES.items():
        config = resonant_config(**kwargs)
        dist = superposed_distribution(config.field)
        start = time.perf_counter()
        trajectory = evolve(initial_state(config, dist), config)
        numeric = series_from_trajectory(trajectory)
        analytic = series_from_closed_form(config, dist)
        wall = time.perf_counter() - start
        runs[name] = dict(
            config=config, dist=dist, trajectory=trajectory,
            numeric=numeric, analytic=analytic, wall=wall,
        )
    return runs


@pytest.fixture(scope="module")
def detuned_run():
    """The criterion-5 run: delta=20, p=1, theta=pi/4, r=1 over [0, 25]."""
    config = SystemConfig(
        field=FieldSpec(alpha=5.0, r=1.0), delta=20.0, theta=math.pi / 4,
        p=1, motion=Motion.MOVING, tau_max=25.0, n_steps=2000,
    )
    dist = superposed_distribution(config.field)
    trajectory = evolve(initial_state(config, dist), config)
    return config, dist, trajectory, series_from_trajectory(trajectory)


def test_criterion_1_oracle_equivalence(oracle_runs):
    details = []
    ok = True
    for name, run in oracle_runs.items():
        dev_x = float(np.max(np.abs(run["numeric"].x - run["analytic"].x)))
        dev_y = float(np.max(np.abs(run["numeric"].y - run["analytic"].y)))
        dev = max(dev_x, dev_y)
        case_ok = dev < 1e-6 and run["wall"] < 10.0
        ok = ok and case_ok
        details.append(f"{name}: dev={dev:.2e} wall={run['wall']:.1f}s")
    report(1, "oracle equivalence (closed form vs evolver, 1e-6)", ok,
           "; ".join(details))


def test_criterion_2_zero_phase_laws(oracle_runs):
    run = oracle_runs["theta0"]
    y_num = float(np.max(np.abs(run["numeric"].y)))
    phi_num = float(np.nanmax(np.abs(run["numeric"].phi_eq5)))
    y_ana_exact = bool(np.all(run["analytic"].y == 0.0))
    phi_ana_exact = bool(np.all(run["analytic"].phi_eq5 == 0.0))
    y_cats = max(
        float(np.max(np.abs(oracle_runs["even-cat"]["numeric"].y))),
        float(np.max(np.abs(oracle_runs["odd-cat"]["numeric"].y))),
    )
    ok = (
        y_num < 1e-9 and phi_num < 1e-9 and y_ana_exact and phi_ana_exact
        and y_cats < 1e-9
    )
    report(2, "zero-phase laws (theta=0 and resonant cat states)", ok,
           f"theta0: |y|num={y_num:.1e} |phi|num={phi_num:.1e} "
           f"analytic exact={y_ana_exact and phi_ana_exact}; "
           f"cats |y|num={y_cats:.1e}")


@pytest.mark.parametrize("p", [1, 2])
def test_criterion_3_revival_periodicity(p):
    period = 2.0 * math.pi / p
    config = resonant_config(theta=math.pi / 4, r=0.0, p=p,
                             tau_max=2.0 * period, n_steps=2001)
    dist = superposed_distribution(config.field)
    trajectory = evolve(initial_state(config, dist), config)
    series = series_from_trajectory(trajectory)
    half = 1000  # grid index of one period

    fidelity_dev = 0.0
    for k in (1, 2):
        fidelity_dev = max(fidelity_dev, abs(abs(trajectory.overlap[k * half]) - 1.0))

    phi = series.phi_eq5
    both = np.isfinite(phi[:half + 1]) & np.isfinite(phi[half : 2 * half + 1])
    phi_dev = float(np.max(np.abs(
        phi[: half + 1][both] - phi[half : 2 * half + 1][both]
    )))
    rho_dev = 0.0
    for rho in (series.rho11, series.rho22, series.rho33):
        rho_dev = max(rho_dev, float(np.max(np.abs(
            rho[: half + 1] - rho[half : 2 * half + 1]
        ))))
    ok = fidelity_dev < 1e-8 and phi_dev < 1e-6 and rho_dev < 1e-6
    report(3, f"revival and 2pi/{p} periodicity (p={p})", ok,
           f"|1-fidelity|={fidelity_dev:.1e} phi_dev={phi_dev:.1e} "
           f"rho_dev={rho_dev:.1e}")


@pytest.mark.parametrize("p,bound", [(1, 0.55), (2, 0.65)])
def test_criterion_4_population_bounds(p, bound):
    config = resonant_config(theta=math.pi / 4, r=0.0, p=p,
                             tau_max=8.0 * math.pi, n_steps=2000)
    dist = superposed_distribution(config.field)
    series = series_from_trajectory(evolve(initial_state(config, dist), config))
    peak = max(
        float(np.max(series.rho11)),
        float(np.max(series.rho22)),
        float(np.max(series.rho33)),
    )
    report(4, f"population bound at theta=pi/4 (p={p})", peak <= bound,
           f"max rho_ii={peak:.4f} bound={bound}")


def test_criterion_5_detuned_phase_suppression(detuned_run):
    config, dist, trajectory, series = detuned_run
    tau = series.tau
    phi = np.abs(series.phi_eq5)
    early = float(np.nanmax(phi[(tau >= 0.0) & (tau <= 8.0)]))
    late = float(np.nanmax(phi[(tau >= 10.0) & (tau <= 25.0)]))
    ratio = late / early

    # verify the default-step series against a finer-step run before trusting
    # the ratio
    fine_config = replace(config, dt_internal=1e-3)
    fine = series_from_trajectory(
        evolve(initial_state(fine_config, dist), fine_config)
    )
    step_dev = float(np.nanmax(np.abs(series.phi_eq5 - fine.phi_eq5)))

    # contrast: off resonance the overlap does acquire an imaginary part
    y_peak = float(np.max(np.abs(series.y)))

    ok = ratio <= 0.25 and step_dev < 1e-3 and y_peak > 1e-3
    report(5, "detuned geometric-phase suppression (delta=20, r=1)", ok,
           f"early={early:.3f} late={late:.3f} ratio={ratio:.3f} "
           f"fine-step dev={step_dev:.1e} max|y|={y_peak:.2f}")


def test_criterion_6_numerical_hygiene(oracle_runs, detuned_run):
    worst_norm = max(
        float(np.max(run["trajectory"].norm_error)) for run in oracle_runs.values()
    )
    worst_norm = max(worst_norm, float(np.max(detuned_run[2].norm_error)))

    # every lane map of the CF4 steps [tau, tau + h] on a basis cut at n_ph = 80
    worst_unitarity = 0.0
    cfg_sweep = SystemConfig(field=FieldSpec(alpha=5.0, r=0.0), delta=20.0, p=1)
    cfg_res = SystemConfig(field=FieldSpec(alpha=5.0, r=0.0), delta=0.0, p=1)
    for config in (cfg_sweep, cfg_res):
        for tau in (0.05, 0.9, 2.2, 4.7):
            for h in (1e-3, 0.05):
                lam = _cf4_amplitudes(np.array([tau]), np.array([h]), config)[0]
                u = cf4_lane_matrices(lam, 80, config.delta, h)
                worst_unitarity = max(worst_unitarity, float(np.max(np.abs(
                    u @ u.conj().transpose(0, 2, 1) - np.eye(3)
                ))))

    probe = convergence_probe(
        SystemConfig(
            field=FieldSpec(alpha=5.0, r=0.0), delta=20.0, theta=math.pi / 4,
            p=1, tau_max=5.0, n_steps=51, dt_internal=1e-3,
        )
    )

    base = oracle_runs["base"]
    doubled = truncated_at(base["config"].field, 2 * base["dist"].n_max)
    ana2 = series_from_closed_form(base["config"], doubled)
    nmax_dev = float(np.nanmax(np.abs(ana2.phi_eq5 - base["analytic"].phi_eq5)))

    ok = (
        worst_norm < 1e-9
        and worst_unitarity < 1e-12
        and probe.order >= 1.7
        and nmax_dev < 1e-8
    )
    report(6, "numerical hygiene", ok,
           f"norm={worst_norm:.1e} unitarity={worst_unitarity:.1e} "
           f"order={probe.order:.2f} n_max-doubling dphi={nmax_dev:.1e}")


def test_criterion_7_frame_correctness():
    n_ph = 3
    rng = np.random.default_rng(2024)
    amps = rng.normal(size=(3, n_ph + 1)) + 1j * rng.normal(size=(3, n_ph + 1))
    amps /= np.linalg.norm(amps)
    state = CompositeState(amps)
    config = SystemConfig(
        field=FieldSpec(alpha=1.0, r=0.0), delta=20.0, theta=0.0, p=1,
        tau_max=5.0, n_steps=26, dt_internal=1e-3,
    )
    trajectory = evolve(state, config, keep_states=True)
    reference = lab_frame_reference(state, config, trajectory.taus)
    dev = float(np.max(np.abs(trajectory.states - reference)))
    report(7, "rotating frame vs direct lab-frame integration", dev < 1e-8,
           f"max state deviation={dev:.2e} over tau in [0, 5] at delta=20")


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
def test_criterion_8_cross_ladder_identity(alpha):
    q = coherent_coefficients(alpha, 400)
    total = math.fsum(q[n] * q[n + 1] * math.sqrt(n + 1.0) for n in range(400))
    dev = abs(total - alpha)
    report(8, f"cross-ladder identity (alpha={alpha})", dev < 1e-10,
           f"|sum - alpha|={dev:.2e}")


def _run_preset(name: str, out: Path, threads: str) -> list[Path]:
    env = dict(os.environ)
    # the package under test first: pytest's pythonpath setting does not reach the child
    src = str(Path(cascade_qed.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env["OMP_NUM_THREADS"] = threads
    env["OPENBLAS_NUM_THREADS"] = threads
    start = time.perf_counter()
    cp = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cascade_qed", "preset", name, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    wall = time.perf_counter() - start
    assert cp.returncode == 0, cp.stderr
    assert wall < 60.0, f"preset {name} took {wall:.0f}s"
    return [Path(line) for line in cp.stdout.strip().splitlines()]


def test_criterion_9_determinism_and_golden_regression(tmp_path):
    first = _run_preset("fig5a", tmp_path / "a.csv", threads="1")
    second = _run_preset("fig5a", tmp_path / "b.csv", threads="4")
    identical = first[0].read_bytes() == second[0].read_bytes()

    outputs = {"fig5a.csv": first[0]}
    fig4b_files = _run_preset("fig4b", tmp_path / "fig4b.csv", threads="2")
    outputs.update({path.name: path for path in fig4b_files if path.suffix == ".csv"})
    assert sorted(outputs) == sorted(
        name for names in goldens.PINNED_PRESETS.values() for name in names
    )

    # value goldens: the portable check
    values_ok, reports = True, []
    for name, path in outputs.items():
        ok, text = goldens.compare_values(goldens.read_csv(path), goldens.load_golden(name),
                                          goldens.VALUE_TOLERANCE[name])
        values_ok = values_ok and ok
        reports.append(f"{name}:\n  " + text.replace("\n", "\n  "))

    # sha256 pins: exact, asserted where the environment matches theirs
    pins = json.loads(goldens.HASHES_PATH.read_text())
    fingerprint_match = goldens.environment_fingerprint() == pins["fingerprint"]
    hashes_equal = all(
        goldens.sha256(path) == pins["sha256"][name] for name, path in outputs.items()
    )
    ok = identical and values_ok and (hashes_equal or not fingerprint_match)
    detail = (f"byte-identical={identical} value-goldens={values_ok} "
              f"fingerprint-match={fingerprint_match} sha256-equal={hashes_equal}"
              + ("" if fingerprint_match else " (sha256 not asserted)"))
    if not values_ok:
        detail += "\n" + "\n".join(reports)
    report(9, "determinism and golden-file regression", ok, detail)


@pytest.fixture(scope="module")
def golden_curve():
    return goldens.load_golden("fig4b_r0.csv")


FIG4B_TOLERANCE = goldens.VALUE_TOLERANCE["fig4b_r0.csv"]


def _copy(curve):
    return {column: values.copy() for column, values in curve.items()}


@pytest.mark.parametrize("column", [c for c in CSV_COLUMNS if c != "norm_error"])
def test_golden_comparator_rejects_1e9_shift(golden_curve, column):
    shifted = _copy(golden_curve)
    shifted[column][1234] += 1e-9
    ok, text = goldens.compare_values(shifted, golden_curve, FIG4B_TOLERANCE)
    assert not ok
    assert f"{column}: max |dev| 1.00e-09 at row 1234" in text


def test_golden_comparator_accepts_rounding_shift(golden_curve):
    shifted = _copy(golden_curve)
    for column, values in shifted.items():
        values[1234] += 1e-14
    ok, text = goldens.compare_values(shifted, golden_curve, FIG4B_TOLERANCE)
    assert ok, text


def test_golden_comparator_wraps_only_wrapped_phases(golden_curve):
    eps = 1e-12
    want, got = _copy(golden_curve), _copy(golden_curve)
    for column in goldens.WRAPPED_COLUMNS:
        want[column][7] = -math.pi + eps
        got[column][7] = math.pi - eps
    ok, text = goldens.compare_values(got, want, FIG4B_TOLERANCE)
    assert ok, text
    # phi_dynamical is an accumulated integral, not an angle mod 2pi
    want["phi_dynamical"][7] = -math.pi + eps
    got["phi_dynamical"][7] = math.pi - eps
    assert not goldens.compare_values(got, want, FIG4B_TOLERANCE)[0]


def test_golden_comparator_gaps_and_norm_bound(golden_curve):
    gap = _copy(golden_curve)
    gap["phi_eq5"][40] = math.nan
    ok, text = goldens.compare_values(gap, golden_curve, FIG4B_TOLERANCE)
    assert not ok and "phi_eq5: NaN gaps differ in 1 row(s), first at row 40" in text

    # norm_error is bounded, not compared: a different small value passes,
    # one above the bound fails
    noisy = _copy(golden_curve)
    noisy["norm_error"][:] = 9e-13
    assert goldens.compare_values(noisy, golden_curve, FIG4B_TOLERANCE)[0]
    noisy["norm_error"][3] = 2e-12
    ok, text = goldens.compare_values(noisy, golden_curve, FIG4B_TOLERANCE)
    assert not ok and "norm_error: 2.00e-12 at row 3 exceeds 1e-12" in text


def test_golden_comparator_rejects_fig5a_at_half_step():
    # a resonant step change moves fig5a by ~1e-11: inside a uniform 1e-10,
    # outside the curve's own tolerance
    ((_, params),) = list_presets()["fig5a"]
    config = ScenarioConfig(**params).system_config()
    state = initial_state(config, superposed_distribution(config.field))
    golden = goldens.load_golden("fig5a.csv")
    default = evolve(state, config)
    half = replace(config, dt_internal=config.tau_max / default.substeps / 2.0)
    verdicts = []
    for trajectory in (default, evolve(state, half)):
        series = series_from_trajectory(trajectory)
        columns = {c: getattr(series, c) for c in CSV_COLUMNS}
        verdicts.append(goldens.compare_values(columns, golden,
                                               goldens.VALUE_TOLERANCE["fig5a.csv"]))
    assert verdicts[0][0], verdicts[0][1]
    assert not verdicts[1][0] and "x: 1.7" in verdicts[1][1]
