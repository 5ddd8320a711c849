"""Command-line front end: scenario runs, figure presets, engine comparison.

Subcommands: ``run`` (one scenario to CSV), ``preset <name>`` (frozen
parameter sets, one CSV per curve), ``compare`` (closed-form vs numerical
overlap deviation report, no files written) and ``list-presets``.  All
three compute through ``_compute``.  Scenarios are fully
deterministic: identical configuration yields byte-identical CSV; wall
times and other environment facts go to the ``.meta.json`` sidecar only.
The scenario keys, presets and ceilings are ``scenario``'s; the CSV and
sidecar files are ``output``'s.

Exit codes: 0 success (also when stdout's reader has gone), 2 configuration
error (every refusal of ``scenario`` among them), 3 numerical failure (norm
drift or comparison tolerance breach).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Sequence
from dataclasses import Field, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .evolver import NormDriftError, evolve
from .field_states import EPSILON_TAIL, FieldSpecError, superposed_distribution
from .output import _write_csv, _write_meta, environment_fingerprint, write_series_csv
from .phases import PhaseTimeSeries, series_from_closed_form, series_from_trajectory
from .scenario import (
    _KINDS,
    ConfigError,
    ScenarioConfig,
    _output_path,
    _preflight,
    list_presets,
)
from .system import _edge_weight, initial_state

__all__ = ["RunResult", "run_scenario", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunResult:
    """The files written and the sidecar metadata.

    For a batch of scenarios, ``metadata`` holds every curve's sidecar
    under ``curves``.
    """

    paths: tuple[Path, ...]
    metadata: dict


def _derived_path(out: Path, tag: str) -> Path:
    return out.with_name(out.stem + "." + tag + out.suffix)


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
    leaves ``evolve``: the scheme, the step taken, the substep count and how
    far the monitored invariants moved (the norm always, the conserved <V> on
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
    # per curve: its trajectory and integrator record
    records = [(None, {"dt_internal": None, "substeps_total": 0, "evolve_s": 0.0,
                       "batch_size": 0})] * len(scenarios)
    for members in groups.values():
        t_evolve = time.perf_counter()
        states = [initial_state(configs[i], dists[i]) for i in members]
        evolved = evolve(states, configs[members[0]])
        evolve_s = time.perf_counter() - t_evolve
        for i, trajectory in zip(members, evolved.curves):
            worst = int(np.argmax(trajectory.norm_error))
            integrator = {
                "scheme": "cf4",
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
            records[i] = (trajectory, integrator)

    curves = []
    for i, (scenario, config, dist) in enumerate(zip(scenarios, configs, dists)):
        trajectory, integrator = records[i]
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
                "max_top_rung_population": _edge_weight(config, dist),
            },
            "integrator": {
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

def _flag_fields(command: str) -> list[Field]:
    """The ``ScenarioConfig`` fields ``command`` takes as flags and in its
    --config file."""
    return [f for f in fields(ScenarioConfig) if command in f.metadata["commands"]]


def _add_scenario_flags(sub: argparse.ArgumentParser, command: str) -> None:
    for f in _flag_fields(command):
        kind = f.metadata["kind"]
        parse = dict(choices=kind) if isinstance(kind, tuple) else _KINDS[kind][1]
        sub.add_argument("--" + f.name.replace("_", "-"), default=None,
                         help=f.metadata["help"], **parse)
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
    preset_p.add_argument("name", choices=sorted(list_presets()))
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
    keys = [f.name for f in _flag_fields(args.command)]
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
        for label, params in list_presets()[args.name]
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
    presets = list_presets()
    for name in sorted(presets):
        for label, params in presets[name]:
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
