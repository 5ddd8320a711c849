"""Regenerate the goldens: criterion 9's value goldens and fingerprinted
sha256 pins, and the byte golden ``run_small.csv`` of ``test_cli``.

Runs the pinned presets (fig5a, fig4b) and the small run of
``goldens.RUN_SMALL_ARGV`` through the CLI, then refuses to write anything
unless all four independent cross-checks pass:

* fig5a ``x`` and ``y`` against the resonant closed form, within 1e-6
  (the criterion-1 bound);
* fig4b ``x``, ``y`` and ``rho*`` against the fine-step (dt = 2.5e-4)
  reference in ``bench/reference/``, each column within the reference's
  gate multiple (2x) of its recorded seed deviation;
* fig4b ``phi_dynamical``, which the reference does not hold, against the
  same preset evolved at an eighth of the step it takes, within 1e-5;
* the small run's ``x``, ``y`` and ``rho*`` against
  ``propagators.lab_frame_reference``, within ``RUN_SMALL_ORACLE_BOUND``.

On success it writes ``preset_hashes.json`` (the CSV sha256 values with the
environment fingerprint they hold for) and ``run_small.csv`` (the small
run's bytes), and prints every measured deviation.  For each file whose
pin changes it prints the largest move of every column, the wrapped
phases by wrapped difference: ``run_small.csv`` against the bytes it
replaces, and a preset CSV, whose replaced bytes are on record only as a
sha256, against its value golden.  A curve's
``<curve>.npz`` (every CSV column at full float64 precision) is written
only where there is none yet or the curve no longer matches it within its
``VALUE_TOLERANCE``: a value golden that still holds is kept as committed,
so that a re-pin of the bytes leaves it as a fixed check.  Run from the
repository root (about four seconds):

    python3 tests/golden/make_goldens.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE.parent))

from goldens import (  # noqa: E402
    HASHES_PATH,
    PINNED_PRESETS,
    RUN_SMALL_ARGV,
    RUN_SMALL_PATH,
    VALUE_TOLERANCE,
    compare_values,
    deviation,
    environment_fingerprint,
    load_golden,
    read_csv,
    sha256,
)
from propagators import lab_frame_reference, observables_from_states  # noqa: E402

from dataclasses import replace  # noqa: E402

from cascade_qed import (  # noqa: E402
    evolve,
    initial_state,
    series_from_closed_form,
    series_from_trajectory,
    superposed_distribution,
)
from cascade_qed.cli import (  # noqa: E402
    ScenarioConfig, _scenario_from_args, build_parser, list_presets, main as cli_main,
)

CLOSED_FORM_BOUND = 1e-6
DYNAMICAL_PHASE_BOUND = 1e-5
# The small run sits at most 9.8e-11 from the lab-frame oracle (rho22; x
# 5.6e-11, y exactly 0), which is partly the oracle's own error.  Doubling
# its step (dt 0.01 -> 0.02) puts x 5.0e-10 off, and 0.04 8.2e-9, so 3e-10
# holds about 3x the measured deviation and refuses a doubled step.
RUN_SMALL_ORACLE_BOUND = 3e-10
FINE_STEP_DIVISOR = 8
REFERENCE_DIR = REPO / "bench" / "reference"


def closed_form_deviation(curve: dict[str, np.ndarray]) -> float:
    """Max |x|, |y| deviation of the fig5a curve from the closed form."""
    ((_, params),) = list_presets()["fig5a"]
    config = ScenarioConfig(**params, engine="analytic").system_config()
    analytic = series_from_closed_form(config, superposed_distribution(config.field))
    return max(float(np.max(np.abs(curve[c] - getattr(analytic, c)))) for c in ("x", "y"))


def reference_failures(curves: dict[str, dict[str, np.ndarray]]) -> list[str]:
    """Print each fig4b column's deviation from the fine-step reference and
    return the columns beyond their gate."""
    meta = json.loads((REFERENCE_DIR / "fig4b_reference.json").read_text(encoding="utf-8"))
    failures = []
    with np.load(REFERENCE_DIR / "fig4b_reference.npz") as reference:
        for label, stated in sorted(meta["curves"].items()):
            curve = curves[f"fig4b_{label}.csv"]
            for column in meta["columns"]:
                want = reference[f"{label}_{column}"]
                gate = meta["gate_multiple"] * stated["seed_deviation"][column]
                if len(curve[column]) != len(want):
                    failures.append(f"fig4b {label} has {len(curve[column])} rows, "
                                    f"the reference {len(want)}")
                    continue
                dev = float(np.max(np.abs(curve[column] - want)))
                print(f"fig4b {label} {column}: max |dev| {dev:.3e} (gate {gate:.3e})")
                if not dev <= gate:
                    failures.append(f"fig4b {label} {column}: {dev:.3e} > gate {gate:.3e}")
    return failures


def dynamical_phase_failures(curves: dict[str, dict[str, np.ndarray]]) -> list[str]:
    """Print each fig4b curve's phi_dynamical deviation from the same preset
    at an eighth of the step it takes and return the curves beyond the bound."""
    failures = []
    for label, params in list_presets()["fig4b"]:
        config = ScenarioConfig(**params).system_config()
        dist = superposed_distribution(config.field)
        step = config.tau_max / (config.n_steps - 1) / config.substeps(dist.n_max)
        fine = replace(config, dt_internal=step / FINE_STEP_DIVISOR)
        want = series_from_trajectory(evolve(initial_state(fine, dist), fine)).phi_dynamical
        got = curves[f"fig4b_{label}.csv"]["phi_dynamical"]
        dev = float(np.max(np.abs(got - want))) if len(got) == len(want) else np.inf
        print(f"fig4b {label} phi_dynamical vs dt/{FINE_STEP_DIVISOR}: max |dev| {dev:.3e} "
              f"(bound {DYNAMICAL_PHASE_BOUND:.0e})")
        if not dev <= DYNAMICAL_PHASE_BOUND:
            failures.append(f"fig4b {label} phi_dynamical: {dev:.3e} > {DYNAMICAL_PHASE_BOUND:.0e}")
    return failures


def run_small_failures(path: Path) -> list[str]:
    """Print the small run's x, y and rho* deviations from the lab-frame
    oracle and return the columns beyond ``RUN_SMALL_ORACLE_BOUND``."""
    args = build_parser().parse_args([*RUN_SMALL_ARGV, "--out", str(path)])
    config = _scenario_from_args(args).system_config()
    dist = superposed_distribution(config.field)
    states = lab_frame_reference(initial_state(config, dist), config, config.taus())
    overlap, populations, _, _ = observables_from_states(states)
    want = {"x": overlap.real, "y": overlap.imag, "rho11": populations[:, 0],
            "rho22": populations[:, 1], "rho33": populations[:, 2]}
    got = read_csv(path)
    failures = []
    for column, ref in want.items():
        dev = float(np.max(np.abs(got[column] - ref))) if len(got[column]) == len(ref) else np.inf
        print(f"run_small {column} vs lab frame: max |dev| {dev:.3e} "
              f"(bound {RUN_SMALL_ORACLE_BOUND:.0e})")
        if not dev <= RUN_SMALL_ORACLE_BOUND:
            failures.append(f"run_small {column}: {dev:.3e} > {RUN_SMALL_ORACLE_BOUND:.0e}")
    return failures


def print_moves(label: str, got: dict[str, np.ndarray], was: dict[str, np.ndarray]) -> None:
    """Print the largest move of each column from ``was`` to ``got``."""
    if list(got) != list(was) or len(got["tau"]) != len(was["tau"]):
        print(f"{label}: the columns or rows differ")
        return
    moves = ", ".join(f"{c} {float(np.max(deviation(c, got[c], was[c]))):.2e}" for c in was)
    print(f"{label}, largest move per column: {moves}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for preset, names in PINNED_PRESETS.items():
            if cli_main(["preset", preset, "--out", str(Path(tmp) / f"{preset}.csv")]) != 0:
                print(f"preset {preset} failed", file=sys.stderr)
                return 1
            paths.update({name: Path(tmp) / name for name in names})
        curves = {name: read_csv(path) for name, path in paths.items()}
        hashes = {name: sha256(path) for name, path in sorted(paths.items())}
        small = Path(tmp) / RUN_SMALL_PATH.name
        if cli_main([*RUN_SMALL_ARGV, "--out", str(small)]) != 0:
            print("the small run failed", file=sys.stderr)
            return 1
        small_failures = run_small_failures(small)
        small_bytes, small_columns = small.read_bytes(), read_csv(small)

    closed = closed_form_deviation(curves["fig5a.csv"])
    print(f"fig5a x/y vs closed form: max |dev| {closed:.3e} (bound {CLOSED_FORM_BOUND:.0e})")
    failures = reference_failures(curves) + dynamical_phase_failures(curves) + small_failures
    if not closed <= CLOSED_FORM_BOUND:
        failures.append(f"fig5a vs closed form: {closed:.3e} > {CLOSED_FORM_BOUND:.0e}")
    if failures:
        print("cross-checks failed, goldens not written:", *failures, sep="\n  ",
              file=sys.stderr)
        return 1

    pinned = json.loads(HASHES_PATH.read_text(encoding="utf-8"))["sha256"]
    for name, columns in curves.items():
        if hashes[name] != pinned.get(name):
            print_moves(f"{name} re-pinned, against its value golden", columns, load_golden(name))
    if small_bytes != RUN_SMALL_PATH.read_bytes():
        print_moves(f"{RUN_SMALL_PATH.name} re-pinned, against the bytes it replaces",
                    small_columns, read_csv(RUN_SMALL_PATH))
    for name, columns in curves.items():
        path = HERE / Path(name).with_suffix(".npz")
        if path.exists() and compare_values(columns, load_golden(name), VALUE_TOLERANCE[name])[0]:
            print(f"kept {path.name}: the curve matches it within {VALUE_TOLERANCE[name]:.0e}")
            continue
        np.savez_compressed(path, **columns)
        print(f"wrote {path.name}")
    pins = {"fingerprint": environment_fingerprint(), "sha256": hashes}
    HASHES_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    RUN_SMALL_PATH.write_bytes(small_bytes)
    print(f"wrote {HASHES_PATH.name} and {RUN_SMALL_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
