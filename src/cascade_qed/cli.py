"""Command-line front end: scenario runs, figure presets, engine comparison.

Subcommands: ``run`` (one scenario to CSV), ``preset <name>`` (frozen
parameter sets, one CSV per curve), ``compare`` (closed-form vs numerical
overlap deviation report, no files written) and ``list-presets``.  All
three compute through ``_compute``.  Scenarios are fully
deterministic: identical configuration yields byte-identical CSV; wall
times and other environment facts go to the ``.meta.json`` sidecar only.

Exit codes: 0 success (also when stdout's reader has gone), 2 configuration
error, 3 numerical failure (norm drift or comparison tolerance breach).  A
run over one of the ceilings below, or a closed-form curve whose phases
would overflow, is a configuration error: the grid and alpha^2 ceilings are
refused when the scenario is built, the basis-dependent ones once its curve
is truncated, and all before anything is evolved.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import platform
import sys
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .evolver import NormDriftError, evolve
from .field_states import EPSILON_TAIL, FieldSpec, FieldSpecError, superposed_distribution
from .phases import (
    PhaseTimeSeries,
    series_from_closed_form,
    series_from_trajectory,
    unwrap_with_gaps,
)
from .system import Motion, SystemConfig, _edge_weight, initial_state

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "RunResult",
    "run_scenario",
    "environment_fingerprint",
    "list_presets",
    "main",
    "CSV_COLUMNS",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# each CSV column is the series field of the same name
CSV_COLUMNS = tuple(f.name for f in fields(PhaseTimeSeries))

_CSV_ROWS = 256  # rows formatted per write

# Ceilings on a run: output grid points per curve, substeps per evolve call
# and the photon cutoff of a numerically evolved curve.  A fig4b curve takes
# 2,000 points, 1,999 substeps and 70 photons; at these ceilings an evolve
# call would run for minutes to hours.
_MAX_OUTPUT_POINTS = 10**6
_MAX_SUBSTEPS = 10**7
_MAX_PHOTONS = 2 * 10**4

# ScenarioConfig field -> (accepted type, or the tuple of accepted strings;
# the subcommands that take it as a flag and in their --config file; the
# flag's help).  A field whose default is None may also be None.
_RUN_COMPARE = ("run", "compare")
_SCENARIO_SCHEMA = {
    "alpha": (numbers.Real, _RUN_COMPARE, "field amplitude (>= 0)"),
    "delta": (numbers.Real, _RUN_COMPARE, "detuning in units of g"),
    "theta": (numbers.Real, _RUN_COMPARE, "atomic superposition angle (rad)"),
    "r": (numbers.Real, _RUN_COMPARE, "superposition constant (0, +1, -1, ...)"),
    "p": (numbers.Integral, _RUN_COMPARE, "half-wavelength count of the mode"),
    "motion": (tuple(m.value for m in Motion), _RUN_COMPARE, "atomic motion model"),
    "tau_max": (numbers.Real, _RUN_COMPARE, "end of the scaled-time grid"),
    "steps": (numbers.Integral, _RUN_COMPARE, "output grid size"),
    "dt": (numbers.Real, _RUN_COMPARE, "integrator substep (scaled time)"),
    "engine": (("analytic", "numeric", "both"), ("run",), "computation route"),
    "out": (str, ("run",), "output CSV path"),
    "emit_unwrapped": (bool, ("run",), "append unwrapped phase columns"),
    "preset": (str, (), None),
    "curve": (str, (), None),
}
# accepted type -> (what a message asks for, how its flag parses); bool is
# never taken as a number
_KINDS = {
    numbers.Real: ("a number", dict(type=float)),
    numbers.Integral: ("an integer", dict(type=int)),
    str: ("a string", dict(type=str)),
    bool: ("true or false", dict(action="store_true")),
}


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def _output_path(out: str) -> Path:
    """``out`` as a path; ``ConfigError`` when it names no file (".", "/"),
    since the per-curve and per-engine file names are derived from its name."""
    path = Path(out)
    if not path.name:
        raise ConfigError(f"out must name a file, got {out!r}")
    return path


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: physics, grid, engine choice and output location.

    Checked when built, before anything is computed or written.
    ``ConfigError`` names the first fault in this order: a mistyped field, a
    number too large for a double, an unknown engine or motion, an ``out``
    that names no file, or a closed-form engine off resonance; a physical
    range, which ``FieldSpec`` and ``SystemConfig`` check as
    ``system_config`` builds them; a numerically evolved curve with alpha^2
    over ``_MAX_PHOTONS`` (about half its photon mass lies above alpha^2, so
    its cutoff would be over that ceiling too); a grid over
    ``_MAX_OUTPUT_POINTS`` points.  Real-valued fields are stored as floats.
    """

    alpha: float = 5.0
    delta: float = 0.0
    theta: float = math.pi / 4.0
    r: float = 0.0
    p: int = 1
    motion: str = "moving"
    tau_max: float = 8.0 * math.pi
    steps: int = 2000
    dt: float | None = None
    engine: str = "numeric"
    out: str | None = None
    emit_unwrapped: bool = False
    preset: str | None = None
    curve: str | None = None

    def __post_init__(self):
        for f in fields(self):
            kind = _SCENARIO_SCHEMA[f.name][0]
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if isinstance(kind, tuple):
                if value not in kind:
                    raise ConfigError(f"{f.name} must be one of {kind}, got {value!r}")
            elif isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be {_KINDS[kind][0]}, got {value!r}")
            elif kind is numbers.Real:
                try:  # a JSON integer can be of any size
                    object.__setattr__(self, f.name, float(value))
                except OverflowError:
                    raise ConfigError(f"{f.name} is too large for a double") from None
        if self.out is not None:
            _output_path(self.out)
        if self.engine != "numeric" and self.delta != 0.0:
            raise ConfigError(
                f"engine={self.engine} requires delta=0 (the closed form is resonant "
                f"only), got delta={self.delta!r}"
            )
        config = self.system_config()
        alpha = config.field.alpha
        if self.engine != "analytic" and alpha * alpha > _MAX_PHOTONS:
            raise ConfigError(
                f"alpha={alpha!r} puts the photon cutoff of a numerically evolved "
                f"curve over the ceiling of {_MAX_PHOTONS}; lower alpha or use "
                f"engine=analytic"
            )
        if config.n_steps > _MAX_OUTPUT_POINTS:
            raise ConfigError(
                f"run too large: {config.n_steps} output points exceed the ceiling "
                f"of {_MAX_OUTPUT_POINTS}; lower steps"
            )

    def system_config(self) -> SystemConfig:
        try:
            field = FieldSpec(alpha=self.alpha, r=self.r)
            return SystemConfig(
                field=field,
                delta=self.delta,
                theta=self.theta,
                p=self.p,
                motion=Motion(self.motion),
                tau_max=self.tau_max,
                n_steps=self.steps,
                dt_internal=self.dt,
            )
        except (FieldSpecError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunResult:
    """The files written and the sidecar metadata.

    For a batch of scenarios, ``metadata`` holds every curve's sidecar
    under ``curves``.
    """

    paths: tuple[Path, ...]
    metadata: dict


# ---------------------------------------------------------------------------
# presets (frozen parameter sets behind the published figure panels)

_PI4 = math.pi / 4.0
_RESONANT = dict(alpha=5.0, delta=0.0, r=0.0, motion="moving",
                 tau_max=8.0 * math.pi, steps=2000)
_DETUNED = dict(alpha=5.0, delta=20.0, theta=_PI4, tau_max=25.0, steps=2000)

PRESETS: dict[str, tuple[tuple[str, dict], ...]] = {
    "fig1a": (("", dict(_RESONANT, theta=0.0, p=1)),),
    "fig1b": (("", dict(_RESONANT, theta=_PI4, p=1)),),
    "fig2a": (("", dict(_RESONANT, theta=0.0, p=2)),),
    "fig2b": (("", dict(_RESONANT, theta=_PI4, p=2)),),
    "fig3a": (
        ("theta0", dict(_RESONANT, theta=0.0, p=1)),
        ("theta-pi4", dict(_RESONANT, theta=_PI4, p=1)),
    ),
    "fig3b": (
        ("theta0", dict(_RESONANT, theta=0.0, p=2)),
        ("theta-pi4", dict(_RESONANT, theta=_PI4, p=2)),
    ),
    "fig4a": (
        ("r0", dict(_DETUNED, r=0.0, motion="neglected", p=1)),
        ("r1", dict(_DETUNED, r=1.0, motion="neglected", p=1)),
    ),
    "fig4b": (
        ("r0", dict(_DETUNED, r=0.0, motion="moving", p=1)),
        ("r1", dict(_DETUNED, r=1.0, motion="moving", p=1)),
    ),
    "fig4c": (
        ("r0", dict(_DETUNED, r=0.0, motion="moving", p=2)),
        ("r1", dict(_DETUNED, r=1.0, motion="moving", p=2)),
    ),
    "fig5a": (("", dict(_RESONANT, theta=0.0, p=1)),),
    "fig5b": (("", dict(_RESONANT, theta=_PI4, p=1)),),
}


def list_presets() -> dict[str, tuple[tuple[str, dict], ...]]:
    """Preset names and their frozen parameter sets."""
    return PRESETS


# ---------------------------------------------------------------------------
# CSV / metadata emission

_FORMAT = "%.16e"  # every nonzero CSV value is this format's text; zero is "0", NaN empty


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x as hi + lo of 26 bits each (Veltkamp), whose products are exact."""
    c = x * 134217729.0  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


_POW10 = np.array([float(10**k) for k in range(21)])  # each an exact double
_POW10_HI, _POW10_LO = _split(_POW10)
_CELL = 25  # the longest text, "-2.2250738585072014e-308", and its separator
# the ASCII digits of 0 .. 99 as one uint16 each, and of 0 .. 9999 as one uint32
_PAIRS = np.frombuffer("".join("%02d" % i for i in range(100)).encode(), np.uint16)
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=-1).view(np.uint32).ravel()
# "e-04" .. "e+16" as one uint32 each, by decimal exponent e = -4 .. 16 (entry e + 4)
_EXPONENTS = np.frombuffer("".join("e%+03d" % e for e in range(-4, 17)).encode(), np.uint32)


def _scientific(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the values of ``v`` whose ``_FORMAT`` text is settled
    here, and that text in 24 bytes: the sign or NUL at byte 0, NUL at
    byte 1, then the digits, point and exponent at bytes 2 .. 23.

    A value is a candidate when 1e-4 <= |v| < 1e17, where 10**(16 - e) is an
    exact double.  With e = floor(log10 |v|), Dekker's error-free product
    gives t = |v| 10**(16 - e) exactly in float64, as p + err with
    p = fl(t).  When t >= 1e16 > 2**53, p is an even integer, so
    D = p + rint(err) is the 17-digit mantissa rounded half to even.  A value
    is left out if t < 1e16 or D >= 1e17: e is then off by one, or D
    carries to 18 digits.
    """
    a = np.abs(v)
    candidates = np.flatnonzero((a >= 1e-4) & (a < 1e17))  # NaN and inf compare False
    a = a[candidates]
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p = a * _POW10[16 - e]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[16 - e], _POW10_LO[16 - e]
    err = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    mantissa = p.astype(np.int64) + np.rint(err).astype(np.int64)
    sure = ((p > 1e16) | ((p == 1e16) & (err >= 0))) & (mantissa < 10**17)
    fast = candidates[sure]
    mantissa = mantissa[sure].astype(np.uint64)
    m = fast.size

    # the leading digit and the point at bytes 2 .. 3, the other 16 digits
    # as four ASCII quads at bytes 4 .. 19, and the exponent at bytes 20 .. 23
    text = np.zeros((m, 24), np.uint8)
    text[:, 0] = (v[fast] < 0) * ord("-")
    lead = mantissa // 10**16
    text[:, 2] = lead + ord("0")
    text[:, 3] = ord(".")
    mantissa -= lead * 10**16
    halves = np.empty((m, 2), np.uint64)
    halves[:, 0] = mantissa // 10**8
    halves[:, 1] = mantissa - halves[:, 0] * 10**8
    words = text.view(np.uint32)
    quads = words[:, 1:5].reshape(m, 2, 2)
    upper = halves // 10000
    quads[:, :, 0] = _QUADS[upper]
    quads[:, :, 1] = _QUADS[halves - upper * 10000]
    words[:, 5] = _EXPONENTS[e[sure] + 4]
    return fast, text


def _format_block(cols: Sequence[np.ndarray]) -> bytes:
    """CSV rows of equal-length columns: each nonzero value as
    ``_FORMAT % v``, zero (negative zero too) as "0" and NaN as "", byte for
    byte on every platform.

    Values of 1e-4 <= |v| < 1e17 are formatted in whole-array passes
    (``_scientific``); the rest, and those whose exponent estimate is off by
    one, by ``%`` itself.
    """
    rows, width = len(cols[0]), len(cols)
    v = np.array(cols, dtype=np.float64).T.ravel()  # row-major
    fast, text = _scientific(v)
    # one cell per value: its text NUL-padded, then "," or "\n"
    cells = np.zeros((v.size, _CELL), np.uint8)
    cells[:, 0] = (v == 0) * ord("0")
    ends = cells.reshape(rows, width, _CELL)[:, :, -1]
    ends[:] = ord(",")
    ends[:, -1] = ord("\n")
    cells[fast, :24] = text
    rest = ~np.isnan(v) & (v != 0)
    rest[fast] = False
    rest = np.flatnonzero(rest)
    if rest.size:  # no _FORMAT text is longer than 24 bytes
        texts = np.array([_FORMAT % x for x in v[rest].tolist()], "S24")
        cells[rest, :24] = texts.view(np.uint8).reshape(-1, 24)
    cells = cells.ravel()
    return cells[cells != 0].tobytes()


def _write_csv(path: Path, header: Sequence[str], cols: Sequence[np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        # a block of rows at a time, so that the working set stays small
        for lo in range(0, len(cols[0]), _CSV_ROWS):
            fh.write(_format_block([col[lo : lo + _CSV_ROWS] for col in cols]))


def write_series_csv(
    path: Path, series: PhaseTimeSeries, emit_unwrapped: bool = False
) -> None:
    """Write one series with the fixed schema, 17 significant digits."""
    header = list(CSV_COLUMNS)
    cols = [getattr(series, c) for c in CSV_COLUMNS]
    if emit_unwrapped:
        header += ["phi_pancharatnam_unwrapped", "phi_geometric_unwrapped"]
        cols += [
            unwrap_with_gaps(series.phi_pancharatnam),
            unwrap_with_gaps(series.phi_geometric),
        ]
    _write_csv(path, header, cols)


def _write_meta(path: Path, payload: dict) -> None:
    meta_path = Path(str(path) + ".meta.json")
    meta_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _derived_path(out: Path, tag: str) -> Path:
    return out.with_name(out.stem + "." + tag + out.suffix)


def environment_fingerprint() -> dict:
    """What CSV bytes depend on besides the code and its inputs.

    Python and numpy versions, machine, libc and the SIMD targets numpy
    dispatches to at run time (these follow ``NPY_DISABLE_CPU_FEATURES`` as
    well as the CPU).  The CSV formatter adds no platform dependence: it
    writes ``"%.16e" % v`` exactly, by the same float64 passes, everywhere.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": list(platform.libc_ver()),
        "simd": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
    }


def _write_outputs(scenario: ScenarioConfig, series: dict[str, PhaseTimeSeries]):
    """Write a scenario's CSV files; return their paths, the series files
    first (the ``.compare.csv`` table follows them)."""
    out = Path(scenario.out)
    if scenario.engine != "both":
        write_series_csv(out, series[scenario.engine], scenario.emit_unwrapped)
        return [out]
    num, ana = series["numeric"], series["analytic"]
    paths = [_derived_path(out, tag) for tag in ("numeric", "analytic", "compare")]
    write_series_csv(paths[0], num, scenario.emit_unwrapped)
    write_series_csv(paths[1], ana, scenario.emit_unwrapped)
    _write_csv(paths[2], ("tau", "dev_x", "dev_y"), (num.tau, num.x - ana.x, num.y - ana.y))
    return paths


def _preflight(scenario: ScenarioConfig, config: SystemConfig, n_max: int) -> None:
    """Refuse, with ``ConfigError``, the ceilings that need a curve's photon
    cutoff: a closed-form curve whose phases overflow, and a numerically
    evolved curve over ``_MAX_SUBSTEPS`` substeps or ``_MAX_PHOTONS``
    photons.  A batch's members share one grid and one cutoff, so a curve's
    substep count is its evolve call's.  The count is a float, so a step far
    below the grid spacing cannot overflow.  A sqrt(2 n_max + 5), with A the
    largest pulse area, bounds both the largest ladder phase A sqrt(2 n + 3)
    and |<V>_0| A.  A moving atom's A is at most 2 / p, so only a neglected
    motion's can overflow: its area is tau, so A is tau_max."""
    if scenario.engine != "numeric" and config.motion is Motion.NEGLECTED:
        area = config.tau_max
        if not math.isfinite(area * math.sqrt(2.0 * n_max + 5.0)):
            raise ConfigError(
                f"the closed-form phases overflow: a pulse area of {area:.3g} "
                f"times the ladder frequency sqrt(2 n_max + 5) at n_max = "
                f"{n_max} is not a finite double; lower tau_max"
            )
    if scenario.engine != "analytic":
        substeps = config.substeps(n_max) * (config.n_steps - 1)
        if not substeps <= _MAX_SUBSTEPS:
            raise ConfigError(
                f"run too large: {substeps:.3g} substeps exceed the ceiling of "
                f"{_MAX_SUBSTEPS:.3g}; raise dt or lower tau_max"
            )
        if n_max > _MAX_PHOTONS:
            raise ConfigError(
                f"run too large: a photon cutoff of {n_max} exceeds the ceiling of "
                f"{_MAX_PHOTONS} for a numerically evolved curve; lower alpha"
            )


def _compute(
    scenarios: Sequence[ScenarioConfig],
) -> list[tuple[dict[str, PhaseTimeSeries], dict]]:
    """Evolve and assemble scenarios, writing nothing: per scenario,
    its series by engine and its sidecar metadata (less files, wall time and
    environment).  Each curve is refused (``_preflight``) right after its
    truncation, and before anything evolves.  Numerical curves whose
    configurations differ only in theta and the field's alpha and r, and
    whose photon bases have the same size, evolve together through shared
    propagators.  A curve's integrator record is made as its trajectory
    leaves ``evolve``: the step taken, the substep count and how far the
    monitored invariants moved (the norm always, the conserved <V> on
    resonance).  Its ``deviation`` holds, when both routes ran, the largest
    numeric minus closed-form x and y."""
    configs = [scenario.system_config() for scenario in scenarios]
    dists, truncation_s = [], []
    for scenario, config in zip(scenarios, configs):
        t_truncate = time.perf_counter()
        dists.append(superposed_distribution(config.field))
        truncation_s.append(time.perf_counter() - t_truncate)
        _preflight(scenario, config, dists[-1].n_max)

    # curves that share every propagator: same physics apart from the
    # initial state, same basis
    groups: dict[tuple, list[int]] = {}
    for i, (scenario, config, dist) in enumerate(zip(scenarios, configs, dists)):
        if scenario.engine != "analytic":
            field = replace(config.field, alpha=0.0, r=0.0)
            shared = replace(config, theta=0.0, field=field)
            groups.setdefault((shared, dist.n_max), []).append(i)
    # per curve: its trajectory, integrator record and top-rung weight
    records = [(None, {"dt_internal": None, "substeps_total": 0, "evolve_s": 0.0,
                       "batch_size": 0}, None)] * len(scenarios)
    for members in groups.values():
        t_evolve = time.perf_counter()
        states = [initial_state(configs[i], dists[i]) for i in members]
        evolved = evolve(states, configs[members[0]])
        evolve_s = time.perf_counter() - t_evolve
        for i, state, trajectory in zip(members, states, evolved.curves):
            worst = int(np.argmax(trajectory.norm_error))
            integrator = {
                # every output interval takes the same number of equal substeps
                "dt_internal": float(trajectory.taus[-1] / trajectory.substeps),
                "substeps_total": trajectory.substeps,
                "max_norm_drift": float(trajectory.norm_error[worst]),
                "max_norm_drift_tau": float(trajectory.taus[worst]),
                "evolve_s": evolve_s,
                "batch_size": len(members),
            }
            if configs[i].delta == 0.0:
                v = trajectory.expectation_V
                integrator["max_v_drift"] = float(np.max(np.abs(v - v[0])))
            records[i] = (trajectory, integrator, _edge_weight(state.amplitudes))

    curves = []
    for i, (scenario, config, dist) in enumerate(zip(scenarios, configs, dists)):
        trajectory, integrator, edge_weight = records[i]
        series: dict[str, PhaseTimeSeries] = {}
        t_series = time.perf_counter()
        deviation = {}
        if trajectory is not None:
            series["numeric"] = series_from_trajectory(trajectory)
        if scenario.engine != "numeric":
            series["analytic"] = series_from_closed_form(config, dist)
        if len(series) == 2:
            num, ana = series["numeric"], series["analytic"]
            deviation = {"max_abs_dev_x": float(np.max(np.abs(num.x - ana.x))),
                         "max_abs_dev_y": float(np.max(np.abs(num.y - ana.y)))}
        metadata = {
            "version": __version__,
            "parameters": {k: v for k, v in asdict(scenario).items() if k != "out"},
            "truncation": {
                "n_max": dist.n_max,
                "dropped_tail": dist.dropped_tail,
                "epsilon_tail": EPSILON_TAIL,
                "norm_constant": dist.norm_constant,
                "max_top_rung_population": edge_weight,
            },
            "integrator": {
                "scheme": "cf4",
                **integrator,
                "truncation_s": truncation_s[i],
                "series_s": time.perf_counter() - t_series,
            },
            "deviation": deviation,
        }
        curves.append((series, metadata))
    return curves


def run_scenario(scenarios: ScenarioConfig | Sequence[ScenarioConfig]) -> RunResult:
    """Run one scenario, or several as a batch, and write CSV plus sidecars.

    ``engine=both`` writes one CSV per engine plus a per-point deviation
    file ``<stem>.compare.csv``; each series CSV gets a sidecar.  Curves
    that share a basis and differ only in their initial state evolve as one
    batch (see ``_compute``); each curve's CSV is byte-identical to running
    it alone.  A batch's result sums ``substeps_total`` over its curves.
    """
    batch = not isinstance(scenarios, ScenarioConfig)
    scenarios = list(scenarios) if batch else [scenarios]
    if any(scenario.out is None for scenario in scenarios):
        raise ConfigError("an output path is required (--out)")
    t_start = time.perf_counter()
    paths, curves = [], []
    for scenario, (series, metadata) in zip(scenarios, _compute(scenarios)):
        t_csv = time.perf_counter()
        written = _write_outputs(scenario, series)
        metadata["integrator"]["csv_s"] = time.perf_counter() - t_csv
        metadata["files"] = [str(p) for p in written]
        paths += written
        curves.append((written[: len(series)], metadata))

    wall = time.perf_counter() - t_start
    environment = environment_fingerprint()
    for series_paths, metadata in curves:
        metadata.update(wall_time_s=wall, environment=environment)
        for p in series_paths:
            _write_meta(p, metadata)
    per_curve = [metadata for _, metadata in curves]
    if not batch:
        return RunResult(paths=tuple(paths), metadata=per_curve[0])
    substeps_total = sum(m["integrator"]["substeps_total"] for m in per_curve)
    batch_metadata = {"curves": per_curve, "integrator": {"substeps_total": substeps_total},
                      "wall_time_s": wall}
    return RunResult(paths=tuple(paths), metadata=batch_metadata)


# ---------------------------------------------------------------------------
# argument parsing

def _flag_keys(command: str) -> list[str]:
    """The scenario keys ``command`` takes as flags and in its --config file."""
    return [key for key, (_, commands, _) in _SCENARIO_SCHEMA.items() if command in commands]


def _add_scenario_flags(sub: argparse.ArgumentParser, command: str) -> None:
    for key in _flag_keys(command):
        kind, _, help_text = _SCENARIO_SCHEMA[key]
        parse = dict(choices=kind) if isinstance(kind, tuple) else _KINDS[kind][1]
        sub.add_argument("--" + key.replace("_", "-"), default=None, help=help_text, **parse)
    sub.add_argument("--config", type=str, default=None,
                     help="JSON config file of these flags' keys (flags override it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade-qed",
        description="Moving three-level cascade atom in a quantized cavity mode: "
        "overlap, phase and population time series as CSV.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run one scenario and write CSV")
    _add_scenario_flags(run_p, "run")

    preset_p = subs.add_parser("preset", help="run a frozen figure preset")
    preset_p.add_argument("name", choices=sorted(PRESETS))
    preset_p.add_argument("--out", type=str, default=None,
                          help="output CSV path (default: <name>.csv)")
    preset_p.add_argument("--emit-unwrapped", action="store_true", default=False)

    cmp_p = subs.add_parser("compare", help="closed-form vs numerical deviation report")
    _add_scenario_flags(cmp_p, "compare")
    cmp_p.add_argument("--tolerance", type=float, default=1e-6,
                       help="max allowed |deviation| before exit code 3")

    subs.add_parser("list-presets", help="print preset names and frozen parameters")
    return parser


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """Defaults, then config-file values, then explicit CLI flags; the file
    may hold only the keys of the subcommand's flags."""
    keys = _flag_keys(args.command)
    merged: dict = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        try:
            loaded = json.loads(text)
        except ValueError as exc:  # not JSON, or an integer of over 4300 digits
            raise ConfigError(f"cannot parse config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object of flat keys")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        merged.update(loaded)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return ScenarioConfig(**merged)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    result = run_scenario(scenario)
    for p in result.paths:
        print(p)
    return EXIT_OK


def _cmd_preset(args: argparse.Namespace) -> int:
    out = Path(f"{args.name}.csv") if args.out is None else _output_path(args.out)
    scenarios = [
        ScenarioConfig(
            **params,
            engine="numeric",
            out=str(out.with_name(f"{out.stem}_{label}{out.suffix}") if label else out),
            emit_unwrapped=bool(args.emit_unwrapped),
            preset=args.name,
            curve=label or None,
        )
        for label, params in PRESETS[args.name]
    ]
    for p in run_scenario(scenarios).paths:
        print(p)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    tolerance = args.tolerance
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ConfigError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    scenario = replace(_scenario_from_args(args), engine="both")
    ((series, metadata),) = _compute([scenario])
    report = metadata["deviation"]
    worst = max(report.values())
    report.update(max_abs_dev=worst, tolerance=tolerance, within_tolerance=worst <= tolerance,
                  grid_points=len(series["numeric"].tau), tau_max=scenario.tau_max)
    if not report["within_tolerance"]:
        print(f"tolerance breach: {json.dumps(report, sort_keys=True)}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_list_presets(_args: argparse.Namespace) -> int:
    for name in sorted(PRESETS):
        for label, params in PRESETS[name]:
            suffix = f" [{label}]" if label else ""
            print(f"{name}{suffix}  {json.dumps(params, sort_keys=True)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "preset": _cmd_preset,
        "compare": _cmd_compare,
        "list-presets": _cmd_list_presets,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone.  Every command prints only once its work
        # is done, so the run succeeded; stdout goes to devnull so that the
        # interpreter's last flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ConfigError, FieldSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a CSV or sidecar that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NormDriftError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
