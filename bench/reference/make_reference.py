"""Regenerate the fine-step accuracy reference of the detuned_fig4b workload.

Evolves both fig4b curves (r = 0, r = 1) at dt_internal = 2.5e-4, a quarter
of the default substep, and stores x, y and the three level populations on
the 2000-point output grid.  The reference's own error is stated by a second
run at 5e-4: the midpoint stepping is second order, so the 2.5e-4 run is
about a third of the 5e-4/2.5e-4 difference away from the exact answer.
The default-step deviation from the reference is stored as the code's
measured deviation; the benchmark fails a curve that drifts beyond
``workloads.GATE_MULTIPLE`` times it.

Run from the repository root (about two minutes on one core):

    python3 bench/reference/make_reference.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))

from workloads import GATE_MULTIPLE  # noqa: E402

from cascade_qed import (  # noqa: E402
    evolve,
    initial_state,
    series_from_trajectory,
    superposed_distribution,
)
from cascade_qed.cli import ScenarioConfig, list_presets  # noqa: E402

COLUMNS = ("x", "y", "rho11", "rho22", "rho33")
DT_REFERENCE = 2.5e-4
DT_CHECK = 5e-4


def columns_at(config, dt):
    """Output columns of one curve evolved at substep ``dt`` (None: default)."""
    config = replace(config, dt_internal=dt)
    dist = superposed_distribution(config.field)
    series = series_from_trajectory(evolve(initial_state(config, dist), config))
    return {name: getattr(series, name) for name in COLUMNS}


def max_dev(a, b):
    return {name: float(np.max(np.abs(a[name] - b[name]))) for name in COLUMNS}


def main() -> None:
    arrays = {}
    curves = list_presets()["fig4b"]
    meta = {
        "preset": "fig4b",
        "tau_max": curves[0][1]["tau_max"],
        "steps": curves[0][1]["steps"],
        "columns": list(COLUMNS),
        "dt_reference": DT_REFERENCE,
        "dt_check": DT_CHECK,
        "gate_multiple": GATE_MULTIPLE,
        "curves": {},
    }
    for label, params in curves:
        config = ScenarioConfig(**params, engine="numeric").system_config()
        ref = columns_at(config, DT_REFERENCE)
        check = columns_at(config, DT_CHECK)
        default = columns_at(config, None)
        for name in COLUMNS:
            arrays[f"{label}_{name}"] = ref[name]
        check_dev = max_dev(check, ref)
        meta["curves"][label] = {
            "reference_vs_check": check_dev,
            # second order: err(2.5e-4) ~ diff(5e-4, 2.5e-4) / 3
            "reference_error_estimate": max(check_dev.values()) / 3.0,
            "seed_deviation": max_dev(default, ref),
            "seed_max_abs_dev": max(max_dev(default, ref).values()),
        }
        print(label, json.dumps(meta["curves"][label]), flush=True)
    np.savez_compressed(HERE / "fig4b_reference.npz", **arrays)
    (HERE / "fig4b_reference.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
