"""Command-line front end: scenario runs, figure presets, engine comparison.

Subcommands: ``run`` (one scenario to CSV), ``preset <name>`` (frozen
parameter sets, one CSV per curve), ``compare`` (closed-form vs numerical
overlap deviation report, no files written) and ``list-presets``.  All
three compute through ``_compute``.  Scenarios are fully
deterministic: identical configuration yields byte-identical CSV; wall
times and other environment facts go to the ``.meta.json`` sidecar only.

Exit codes: 0 success (also when stdout's reader has gone), 2 configuration
error, 3 numerical failure (norm drift or comparison tolerance breach).  A
run over one of the ceilings below is a configuration error, refused once
the photon bases are known and before anything is evolved.
"""

from __future__ import annotations

import argparse
import copy
import functools
import importlib.metadata
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
from .evolver import NormDriftError, Trajectory, evolve, substep_counts
from .field_states import EPSILON_TAIL, FieldSpec, FieldSpecError, superposed_distribution
from .phases import (
    PhaseTimeSeries,
    series_from_closed_form,
    series_from_trajectory,
    unwrap_with_gaps,
)
from .system import Motion, SystemConfig, initial_state

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
    "motion": (("moving", "neglected"), _RUN_COMPARE, "atomic motion model"),
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


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: physics, grid, engine choice and output location.

    Checked when built: a mistyped field, an unknown engine or motion, or a
    closed-form engine off resonance raises ``ConfigError``.  Physical
    ranges are checked by ``FieldSpec`` and ``SystemConfig`` when
    ``system_config`` builds them, which ``run_scenario`` does for every
    scenario before it computes or writes anything.
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
        if self.engine != "numeric" and self.delta != 0.0:
            raise ConfigError(
                f"engine={self.engine} requires delta=0 (the closed form is resonant "
                f"only), got delta={self.delta!r}"
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
    """Series per engine plus the files written.

    For a batch of scenarios, ``series`` is keyed by ``<curve>/<engine>``
    (the curve label, or the scenario's index when it has none) and
    ``metadata`` holds every curve's sidecar under ``curves``.
    """

    series: dict[str, PhaseTimeSeries]
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

def _format_column(col: np.ndarray) -> list[str]:
    """17 significant digits per value, "" for NaN; +0.0 folds negative zero."""
    return ["" if v != v else "%.17g" % v for v in (col + 0.0).tolist()]


def _write_csv(path: Path, header: Sequence[str], cols: Sequence[np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # a block of rows at a time, so that few formatted strings are alive at once
        for lo in range(0, len(cols[0]), _CSV_ROWS):
            rows = zip(*(_format_column(col[lo : lo + _CSV_ROWS]) for col in cols))
            fh.write("\n".join(map(",".join, rows)) + "\n")


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

    Python, numpy and scipy versions, machine, libc and the SIMD targets
    numpy dispatches to at run time (these follow ``NPY_DISABLE_CPU_FEATURES``
    as well as the CPU).  scipy's version comes from its installed metadata,
    so scipy is not imported.
    """
    return copy.deepcopy(_environment())


@functools.lru_cache(maxsize=1)
def _environment() -> dict:
    # fixed for the life of the process; reading package metadata takes
    # milliseconds, which a sweep of short runs would pay on every call
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "libc": list(platform.libc_ver()),
        "simd": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
    }


def _engine_deviation(series: dict[str, PhaseTimeSeries]):
    """Numeric minus closed-form x and y per grid point, and their largest
    magnitudes under the report keys."""
    dev_x = series["numeric"].x - series["analytic"].x
    dev_y = series["numeric"].y - series["analytic"].y
    return (dev_x, dev_y), {
        "max_abs_dev_x": float(np.max(np.abs(dev_x))),
        "max_abs_dev_y": float(np.max(np.abs(dev_y))),
    }


def _write_outputs(scenario: ScenarioConfig, series: dict[str, PhaseTimeSeries]):
    """Write a scenario's CSV files; return their paths and the engine deviation."""
    out = Path(scenario.out)
    if scenario.engine != "both":
        write_series_csv(out, series[scenario.engine], scenario.emit_unwrapped)
        return [out], {}
    num_path = _derived_path(out, "numeric")
    ana_path = _derived_path(out, "analytic")
    write_series_csv(num_path, series["numeric"], scenario.emit_unwrapped)
    write_series_csv(ana_path, series["analytic"], scenario.emit_unwrapped)
    cmp_path = _derived_path(out, "compare")
    (dev_x, dev_y), deviation = _engine_deviation(series)
    _write_csv(cmp_path, ("tau", "dev_x", "dev_y"), (series["numeric"].tau, dev_x, dev_y))
    return [num_path, ana_path, cmp_path], deviation


def _integrator_diagnostics(trajectory: Trajectory, config: SystemConfig) -> dict:
    """Step taken, substep count and how far the monitored invariants moved:
    the norm always, the conserved <V> on resonance."""
    worst = int(np.argmax(trajectory.norm_error))
    drifts = {
        # every output interval takes the same number of equal substeps
        "dt_internal": float(trajectory.taus[-1] / trajectory.substeps),
        "substeps_total": trajectory.substeps,
        "max_norm_drift": float(trajectory.norm_error[worst]),
        "max_norm_drift_tau": float(trajectory.taus[worst]),
    }
    if config.delta == 0.0:
        v = trajectory.expectation_V
        drifts["max_v_drift"] = float(np.max(np.abs(v - v[0])))
    return drifts


def _preflight(configs, dists, groups) -> None:
    """Refuse, with ``ConfigError``, a run over one of the ceilings: an
    output grid over ``_MAX_OUTPUT_POINTS``, or an evolve call over
    ``_MAX_SUBSTEPS`` substeps or ``_MAX_PHOTONS`` photons.  The counts are
    floats, so a step far below the grid spacing cannot overflow."""
    for config in configs:
        if config.n_steps > _MAX_OUTPUT_POINTS:
            raise ConfigError(
                f"run too large: {config.n_steps} output points exceed the ceiling "
                f"of {_MAX_OUTPUT_POINTS}; lower steps"
            )
    for members in groups:
        config, n_max = configs[members[0]], dists[members[0]].n_max
        substeps = float(np.sum(substep_counts(config, n_max)))
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
    environment).  Numerical curves whose configurations differ only in
    theta and the field's alpha and r, and whose photon bases have the same
    size, evolve together through shared propagators.  A run over a
    ceiling is refused (``_preflight``) before anything evolves."""
    configs = [scenario.system_config() for scenario in scenarios]
    dists, truncation_s = [], []
    for config in configs:
        t_truncate = time.perf_counter()
        dists.append(superposed_distribution(config.field))
        truncation_s.append(time.perf_counter() - t_truncate)

    # curves that share every propagator: same physics apart from the
    # initial state, same basis
    groups: dict[tuple, list[int]] = {}
    for i, (scenario, config, dist) in enumerate(zip(scenarios, configs, dists)):
        if scenario.engine != "analytic":
            field = replace(config.field, alpha=0.0, r=0.0)
            shared = replace(config, theta=0.0, field=field)
            groups.setdefault((shared, dist.n_max), []).append(i)
    _preflight(configs, dists, groups.values())
    trajectories, evolve_stats = {}, {}
    for members in groups.values():
        t_evolve = time.perf_counter()
        evolved = evolve(
            [initial_state(configs[i], dists[i]) for i in members], configs[members[0]]
        )
        stats = {"evolve_s": time.perf_counter() - t_evolve, "batch_size": len(members)}
        for i, trajectory in zip(members, evolved.curves):
            trajectories[i] = trajectory
            evolve_stats[i] = stats

    curves = []
    for i, (scenario, config, dist) in enumerate(zip(scenarios, configs, dists)):
        series: dict[str, PhaseTimeSeries] = {}
        t_series = time.perf_counter()
        if i in trajectories:
            series["numeric"] = series_from_trajectory(trajectories[i])
        if scenario.engine in ("analytic", "both"):
            series["analytic"] = series_from_closed_form(config, dist)
        integrator = {
            "scheme": "cf4",
            "dt_internal": None,
            "substeps_total": 0,
            **evolve_stats.get(i, {"evolve_s": 0.0, "batch_size": 0}),
            "truncation_s": truncation_s[i],
            "series_s": time.perf_counter() - t_series,
        }
        top_rung = None
        if i in trajectories:
            integrator.update(_integrator_diagnostics(trajectories[i], config))
            top_rung = float(np.max(trajectories[i].top_rung_population))
        metadata = {
            "version": __version__,
            "parameters": {k: v for k, v in asdict(scenario).items() if k != "out"},
            "truncation": {
                "n_max": dist.n_max,
                "dropped_tail": dist.dropped_tail,
                "epsilon_tail": EPSILON_TAIL,
                "norm_constant": dist.norm_constant,
                "max_top_rung_population": top_rung,
            },
            "integrator": integrator,
        }
        curves.append((series, metadata))
    return curves


def run_scenario(scenarios: ScenarioConfig | Sequence[ScenarioConfig]) -> RunResult:
    """Run one scenario, or several as a batch, and write CSV plus sidecars.

    ``engine=both`` writes one CSV per engine plus a per-point deviation
    file ``<stem>.compare.csv``.  Curves that share a basis and differ only
    in their initial state evolve as one batch (see ``_compute``); each
    curve's CSV is byte-identical to running it alone.  A batch's result
    sums ``substeps_total`` over its curves.
    """
    batch = not isinstance(scenarios, ScenarioConfig)
    scenarios = list(scenarios) if batch else [scenarios]
    if any(scenario.out is None for scenario in scenarios):
        raise ConfigError("an output path is required (--out)")
    t_start = time.perf_counter()
    curves = []
    for scenario, (series, metadata) in zip(scenarios, _compute(scenarios)):
        t_csv = time.perf_counter()
        paths, deviation = _write_outputs(scenario, series)
        metadata["integrator"]["csv_s"] = time.perf_counter() - t_csv
        metadata.update(deviation=deviation, files=[str(p) for p in paths])
        curves.append(RunResult(series=series, paths=tuple(paths), metadata=metadata))

    wall = time.perf_counter() - t_start
    substeps_total = sum(c.metadata["integrator"]["substeps_total"] for c in curves)
    environment = environment_fingerprint()
    for curve in curves:
        curve.metadata.update(wall_time_s=wall, environment=environment)
        for p in curve.paths:
            if not p.name.endswith(".compare.csv"):
                _write_meta(p, curve.metadata)
    if not batch:
        return curves[0]
    return RunResult(
        series={
            f"{scenario.curve or i}/{engine}": s
            for i, (scenario, curve) in enumerate(zip(scenarios, curves))
            for engine, s in curve.series.items()
        },
        paths=tuple(p for curve in curves for p in curve.paths),
        metadata={
            "curves": [curve.metadata for curve in curves],
            "integrator": {"substeps_total": substeps_total},
            "wall_time_s": wall,
        },
    )


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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
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
    out = Path(args.out) if args.out else Path(f"{args.name}.csv")
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
    ((series, _),) = _compute([scenario])
    report = _engine_deviation(series)[1]
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
