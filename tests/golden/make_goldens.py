"""Regenerate criterion 9's value goldens and fingerprinted sha256 pins.

Runs the pinned presets (fig5a, fig4b) through the CLI, then refuses to
write anything unless all three independent cross-checks pass:

* fig5a ``x`` and ``y`` against the resonant closed form, within 1e-6
  (the criterion-1 bound);
* fig4b ``x``, ``y`` and ``rho*`` against the fine-step (dt = 2.5e-4)
  reference in ``bench/reference/``, each column within the reference's
  gate multiple (2x) of its recorded seed deviation;
* fig4b ``phi_dynamical``, which the reference does not hold, against the
  same preset evolved at an eighth of the step it takes, within 1e-5.

On success it writes ``<curve>.npz`` (every CSV column at full float64
precision) and ``preset_hashes.json`` (the CSV sha256 values with the
environment fingerprint they hold for), and prints every measured
deviation.  Run from the repository root (about five seconds):

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
    environment_fingerprint,
    read_csv,
    sha256,
)

from dataclasses import replace  # noqa: E402

from cascade_qed import (  # noqa: E402
    evolve,
    initial_state,
    series_from_closed_form,
    series_from_trajectory,
    superposed_distribution,
)
from cascade_qed.cli import ScenarioConfig, list_presets, main as cli_main  # noqa: E402

CLOSED_FORM_BOUND = 1e-6
DYNAMICAL_PHASE_BOUND = 1e-5
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

    closed = closed_form_deviation(curves["fig5a.csv"])
    print(f"fig5a x/y vs closed form: max |dev| {closed:.3e} (bound {CLOSED_FORM_BOUND:.0e})")
    failures = reference_failures(curves) + dynamical_phase_failures(curves)
    if not closed <= CLOSED_FORM_BOUND:
        failures.append(f"fig5a vs closed form: {closed:.3e} > {CLOSED_FORM_BOUND:.0e}")
    if failures:
        print("cross-checks failed, goldens not written:", *failures, sep="\n  ",
              file=sys.stderr)
        return 1

    for name, columns in curves.items():
        np.savez_compressed(HERE / Path(name).with_suffix(".npz"), **columns)
    pins = {"fingerprint": environment_fingerprint(), "sha256": hashes}
    HASHES_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(curves)} value goldens and {HASHES_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
