"""Output checks: each call's CSV files against the workload's reference.

A check returns one record per curve: its maximum deviation, its maximum
``norm_error`` (numeric curves only), and whether it passed its gate.  The
checks read the CSV files a user would read, not in-memory results.  A file
whose row count or tau column differs from the grid its call asked for
fails its curve, whatever its values.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import evaluator

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a benchmark CSV by header name; empty fields become NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {
        name: np.array([float(row[i]) if row[i] else math.nan for row in body])
        for i, name in enumerate(header)
    }


def curve(name: str, dev: float, gate: float, norm_error: float | None = None,
          error: str | None = None) -> dict:
    ok = error is None and math.isfinite(dev) and dev <= gate
    if error is None and not ok:
        error = f"max |deviation| {dev:.3e} exceeds the gate {gate:.3e}"
    return {"curve": name, "ok": ok, "max_abs_dev": dev, "gate": gate,
            "max_norm_error": norm_error, "error": error}


def grid_error(cols: dict[str, np.ndarray], tau_max: float, steps: int) -> str | None:
    """Why ``cols`` is not on ``np.linspace(0, tau_max, steps)``, or None."""
    tau = cols["tau"]
    if len(tau) != steps:
        return f"{len(tau)} rows, expected {steps}"
    if not np.array_equal(tau, np.linspace(0.0, tau_max, steps)):
        return f"the tau column is not the grid linspace(0, {tau_max!r}, {steps})"
    return None


def _max_norm_error(cols: dict[str, np.ndarray]) -> float:
    err = cols["norm_error"]
    return float(np.max(err)) if np.all(np.isfinite(err)) else math.inf


def check_fig4b(call: dict, out_dir: Path) -> list[dict]:
    """Both fig4b curves against the 2.5e-4 fine-step reference.

    The tiny size runs the first ``call["steps"]`` nodes of the reference
    grid; their tau must agree with those nodes to rounding.
    """
    meta = json.loads((REFERENCE_DIR / "fig4b_reference.json").read_text(encoding="utf-8"))
    reference = np.load(REFERENCE_DIR / "fig4b_reference.npz")
    steps = call["steps"]
    ref_tau = np.linspace(0.0, meta["tau_max"], meta["steps"])[:steps]
    records = []
    for label, stated in sorted(meta["curves"].items()):
        gate = meta["gate_multiple"] * stated["seed_max_abs_dev"]
        cols = read_csv(out_dir / f"{call['name']}_{label}.csv")
        error = grid_error(cols, call["tau_max"], steps)
        if error is None and not np.allclose(cols["tau"], ref_tau, rtol=0.0, atol=1e-12):
            error = "the tau column is off the reference grid"
        if error is not None:
            records.append(curve(f"{call['name']}_{label}", math.inf, gate, error=error))
            continue
        dev = max(
            float(np.max(np.abs(cols[c] - reference[f"{label}_{c}"][:steps])))
            for c in meta["columns"]
        )
        records.append(curve(f"{call['name']}_{label}", dev, gate, _max_norm_error(cols)))
    return records


def check_closed_form_compare(call: dict, out_dir: Path) -> list[dict]:
    """engine=both: numeric vs closed-form CSVs, and the compare file itself."""
    stem = out_dir / call["name"]
    numeric = read_csv(Path(f"{stem}.numeric.csv"))
    analytic = read_csv(Path(f"{stem}.analytic.csv"))
    compare = read_csv(Path(f"{stem}.compare.csv"))
    p = call["params"]
    for cols in (numeric, analytic, compare):
        error = grid_error(cols, p["tau_max"], p["steps"])
        if error is not None:
            return [curve(call["name"], math.inf, call["gate"], error=error)]
    dev_x = numeric["x"] - analytic["x"]
    dev_y = numeric["y"] - analytic["y"]
    dev = float(max(np.max(np.abs(dev_x)), np.max(np.abs(dev_y))))
    error = None
    if not (np.array_equal(compare["dev_x"], dev_x) and np.array_equal(compare["dev_y"], dev_y)):
        error = "the .compare.csv deviations differ from numeric minus analytic"
    return [curve(call["name"], dev, call["gate"], _max_norm_error(numeric), error)]


def check_evaluator(call: dict, out_dir: Path) -> list[dict]:
    """engine=analytic: seeded rows against the library-independent evaluator."""
    p = call["params"]
    cols = read_csv(out_dir / f"{call['name']}.csv")
    error = grid_error(cols, p["tau_max"], p["steps"])
    if error is not None:
        return [curve(call["name"], math.inf, call["gate"], error=error)]
    weights = evaluator.photon_weights(p["alpha"], p["r"])
    devs = []
    for row in call["rows"]:
        x, y = evaluator.overlap(float(cols["tau"][row]), p["alpha"], p["theta"], p["r"],
                                 p["p"], p["motion"] == "moving", weights)
        devs += [abs(x - cols["x"][row]), abs(y - cols["y"][row])]
    dev = max(devs) if all(map(math.isfinite, devs)) else math.inf
    return [curve(call["name"], float(dev), call["gate"])]


CHECKS = {
    "fig4b_reference": check_fig4b,
    "closed_form_compare": check_closed_form_compare,
    "evaluator": check_evaluator,
}
