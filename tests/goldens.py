"""Preset goldens: value comparison and environment-fingerprinted hashes.

Criterion 9 checks preset output two ways.  The value goldens
(``golden/<curve>.npz``, one array per CSV column) are the portable check:
every column must agree within the curve's ``VALUE_TOLERANCE``.  The sha256 pins in
``golden/preset_hashes.json`` are exact, but CSV bytes depend on the numpy
version and on the SIMD targets numpy dispatches to, so a pin is asserted
only where the running environment's fingerprint equals the stored one.
``golden/make_goldens.py`` regenerates both, and ``golden/run_small.csv``,
which is checked the same two ways.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# the fingerprint every run sidecar records
from cascade_qed.output import environment_fingerprint  # noqa: F401

GOLDEN_DIR = Path(__file__).parent / "golden"
HASHES_PATH = GOLDEN_DIR / "preset_hashes.json"

# Curves pinned by criterion 9: preset name -> CSV files it writes.
PINNED_PRESETS = {
    "fig5a": ("fig5a.csv",),
    "fig4b": ("fig4b_r0.csv", "fig4b_r1.csv"),
}

# A small numerically evolved run, pinned byte for byte as
# ``golden/run_small.csv``: ``cascade-qed <RUN_SMALL_ARGV> --out <path>``.
RUN_SMALL_PATH = GOLDEN_DIR / "run_small.csv"
RUN_SMALL_ARGV = ("run", "--alpha", "2", "--theta", "0.6", "--r", "1", "--p", "2",
                  "--tau-max", "3.0", "--steps", "12", "--dt", "0.01", "--engine", "numeric")
# Its bytes are asserted where the environment's fingerprint equals the
# pins' (``make_goldens.py`` writes both at once); everywhere its columns are
# held to this absolute tolerance.  Disabling numpy's dispatch above its
# baseline (X86_V3 and up) moves rho11 by 5.6e-17 and nothing else; halving
# --dt moves x by 3.0e-11 and rho by 8.6e-12 (rho22) to 1.9e-11 (rho33),
# while y and the phases stay exactly 0.
RUN_SMALL_TOLERANCE = 1e-13

# Absolute tolerance per column, for each pinned curve: above what rounding
# moves, below what a changed integrator step moves.  Rounding alone moves
# the pinned curves by about 1e-13 at most: 1-ulp perturbations of the
# initial amplitudes move every column of fig5a and fig4b by at most 4.1e-14
# (the phase columns; x, y and rho* by under 3e-15), and switching numpy's
# AVX-512 dispatch off moves only the fig4b phase columns, by at most
# 8.9e-16.  Halving the fig4b CF4 step (0.0125 -> 0.00625) moves x by 1.1e-8
# and the least sensitive column (r1 y) by 3.1e-9, so 1e-10 sits ~1000x
# above the rounding spread and ~30x below that change.  On resonance the
# stepping is closer to exact: halving the fig5a step moves x by 1.7e-11
# and rho22, its least sensitive moving column, by 8.5e-12 (theta = 0, so
# y and the phases stay exactly 0), so fig5a is held to 1e-12, ~10x on
# either side.
VALUE_TOLERANCE = {"fig5a.csv": 1e-12, "fig4b_r0.csv": 1e-10, "fig4b_r1.csv": 1e-10}

# norm_error is pure rounding noise (at most 1.1e-14 on the pinned curves),
# so it is held to a bound rather than to its golden value.
NORM_ERROR_BOUND = 1e-12

# Columns the program reports modulo 2pi, in (-pi, pi]: rounding can carry a
# value across the branch cut, so they are compared by wrapped difference.
# phi_dynamical (an accumulated integral) and phi_eq5 (folded into
# [-pi/2, pi/2], where it has no cut) are not reduced mod 2pi, so a 2pi
# difference in them is a real change.
WRAPPED_COLUMNS = ("phi_pancharatnam", "phi_geometric")


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a preset CSV by header name; empty fields become NaN."""
    table = np.genfromtxt(path, delimiter=",", names=True)
    return {name: table[name] for name in table.dtype.names}


def load_golden(name: str) -> dict[str, np.ndarray]:
    """The value golden of CSV file ``name`` (e.g. ``fig4b_r0.csv``)."""
    with np.load(GOLDEN_DIR / Path(name).with_suffix(".npz")) as data:
        return {column: data[column] for column in data.files}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def deviation(column: str, got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """|got - want| of a CSV column, by wrapped difference for the wrapped
    phases; a NaN on both sides is 0 and on one side only infinite."""
    dev = got - want
    if column in WRAPPED_COLUMNS:
        dev = (dev + math.pi) % (2.0 * math.pi) - math.pi
    dev = np.abs(dev)
    dev[np.isnan(got) & np.isnan(want)] = 0.0
    dev[np.isnan(dev)] = math.inf  # a gap on one side only
    return dev


def compare_values(got: dict[str, np.ndarray], golden: dict[str, np.ndarray],
                   tolerance: float) -> tuple[bool, str]:
    """Check a curve's columns against its golden within ``tolerance``
    (the curve's ``VALUE_TOLERANCE``); return (ok, report).

    The report has one line per column: its maximum deviation and the row
    where it occurs (for norm_error: its maximum and row, against
    ``NORM_ERROR_BOUND``), then one line per failure.
    """
    if list(got) != list(golden):
        return False, f"columns {list(got)} differ from the golden's {list(golden)}"
    rows = {len(col) for col in got.values()} | {len(col) for col in golden.values()}
    if len(rows) != 1:
        return False, f"row counts {sorted(rows)} differ"
    lines, failures = [], []
    for column, want in golden.items():
        values = got[column]
        if column == "norm_error":
            dev, bound = np.where(np.isnan(values), math.inf, np.abs(values)), NORM_ERROR_BOUND
        else:
            dev, bound = deviation(column, values, want), tolerance
            gaps = np.flatnonzero(np.isnan(values) != np.isnan(want))
            if gaps.size:
                failures.append(f"{column}: NaN gaps differ in {gaps.size} row(s), "
                                f"first at row {gaps[0]}")
        row = int(np.argmax(dev))
        worst = float(dev[row])
        label = "max" if column == "norm_error" else "max |dev|"
        lines.append(f"{column}: {label} {worst:.2e} at row {row}")
        if not worst <= bound:
            failures.append(f"{column}: {worst:.2e} at row {row} exceeds {bound:.0e}")
    return not failures, "\n".join(lines + [f"FAIL {f}" for f in failures])
