"""Command-line interface: subcommands, CSV schema, exit codes, determinism."""

import argparse
import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_qed
from cascade_qed import (
    NormDriftError, cli, evolve, initial_state, output, scenario, superposed_distribution, system,
)
from cascade_qed.cli import ConfigError, ScenarioConfig, list_presets, main, run_scenario
from cascade_qed.output import _format_block, environment_fingerprint
import csv_oracle
from goldens import (
    HASHES_PATH, RUN_SMALL_ARGV, RUN_SMALL_PATH, RUN_SMALL_TOLERANCE, compare_values, read_csv,
    sha256,
)
from propagators import edge_weight, observables_from_states

EXPECTED_HEADER = (
    "tau,x,y,phi_pancharatnam,phi_dynamical,phi_geometric,phi_eq5,"
    "rho11,rho22,rho33,norm_error"
)

QUICK = [
    "--alpha", "1.5", "--theta", "0.6", "--tau-max", "3.0", "--steps", "40",
    "--dt", "0.005",
]
QUICK_N_MAX = superposed_distribution(ScenarioConfig(alpha=1.5).system_config().field).n_max


# the package under test, importable from any working directory
SRC = str(Path(cascade_qed.__file__).resolve().parents[1])


def run_python(*args, env_extra=None, cwd=None):
    """Run the interpreter on ``args`` with warnings as errors, as pytest runs
    the in-process tests."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, **(env_extra or {}))
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                          text=True, env=env, cwd=cwd)


def run_cli(*args, env_extra=None, cwd=None):
    return run_python("-m", "cascade_qed", *args, env_extra=env_extra, cwd=cwd)


def run_main(capsys, *args):
    """Run ``main(args)`` in this process, with its exit code and captured
    output in the fields ``run_cli`` returns; argparse's exits arrive as
    ``SystemExit``."""
    capsys.readouterr()
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    for sub in ("run", "preset", "compare", "list-presets"):
        assert sub in cp.stdout


def _subparsers() -> dict:
    (subs,) = [a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def _surface(sub: argparse.ArgumentParser) -> list[tuple]:
    """Each action of ``sub`` as (option strings, dest, choices, type or
    store_true, default, help)."""
    return [
        (tuple(a.option_strings), a.dest, a.choices,
         "store_true" if isinstance(a, argparse._StoreTrueAction) else a.type,
         a.default, a.help)
        for a in sub._actions
    ]


_HELP = (("-h", "--help"), "help", None, None, argparse.SUPPRESS,
         "show this help message and exit")
_PHYSICS_AND_GRID = [
    (("--alpha",), "alpha", None, float, None, "field amplitude (>= 0)"),
    (("--delta",), "delta", None, float, None, "detuning in units of g"),
    (("--theta",), "theta", None, float, None, "atomic superposition angle (rad)"),
    (("--r",), "r", None, float, None, "superposition constant (0, +1, -1, ...)"),
    (("--p",), "p", None, int, None, "half-wavelength count of the mode"),
    (("--motion",), "motion", ("moving", "neglected"), None, None, "atomic motion model"),
    (("--tau-max",), "tau_max", None, float, None, "end of the scaled-time grid"),
    (("--steps",), "steps", None, int, None, "output grid size"),
    (("--dt",), "dt", None, float, None, "integrator substep (scaled time)"),
]
_CONFIG = (("--config",), "config", None, str, None,
           "JSON config file of these flags' keys (flags override it)")


def test_subcommand_flags_keep_their_order_type_default_and_help():
    # the parser is built from ScenarioConfig's fields; its surface is
    # compared action by action, since the --help layout differs between
    # Python versions
    subs = _subparsers()
    assert _surface(subs["run"]) == [
        _HELP,
        *_PHYSICS_AND_GRID,
        (("--engine",), "engine", ("analytic", "numeric", "both"), None, None,
         "computation route"),
        (("--out",), "out", None, str, None, "output CSV path"),
        (("--emit-unwrapped",), "emit_unwrapped", None, "store_true", None,
         "append unwrapped phase columns"),
        _CONFIG,
    ]
    assert _surface(subs["compare"]) == [
        _HELP,
        *_PHYSICS_AND_GRID,
        _CONFIG,
        (("--tolerance",), "tolerance", None, float, 1e-6,
         "max allowed |deviation| before exit code 3"),
    ]
    assert _surface(subs["preset"]) == [
        _HELP,
        ((), "name", ["fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b",
                      "fig4c", "fig5a", "fig5b"], None, None, None),
        (("--out",), "out", None, str, None, "output CSV path (default: <name>.csv)"),
        (("--emit-unwrapped",), "emit_unwrapped", None, "store_true", False, None),
    ]


def _readme_bullet(start: str) -> str:
    """The README bullet whose first line starts with ``start``, as one line."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith(start))
    bullet = [lines[first]]
    for line in lines[first + 1 :]:
        if not line.startswith("  "):
            break
        bullet.append(line)
    return " ".join(line.strip() for line in bullet)


def test_readme_names_every_scenario_flag():
    def flags(text):
        return set(re.findall(r"`(--[a-z-]+)`", text))

    def long_options(sub):
        return {s for a in sub._actions for s in a.option_strings if s.startswith("--")}

    subs = _subparsers()
    run_flags = long_options(subs["run"]) - {"--help", "--config"}
    assert flags(_readme_bullet("- `run` takes")) == run_flags
    (rejected,) = [sentence for sentence in _readme_bullet("- `compare` takes").split(". ")
                   if "rejected" in sentence]
    assert flags(rejected) == run_flags - long_options(subs["compare"])


def test_console_script_entry_point(capsys):
    # the installed cascade-qed command: pyproject's [project.scripts] target
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["cascade-qed"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name)(["list-presets"]) == 0
    assert "fig4b" in capsys.readouterr().out


def test_list_presets_frozen_parameters(capsys):
    cp = run_main(capsys, "list-presets")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    names = {ln.split()[0] for ln in lines}
    assert names == {
        "fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b",
        "fig4a", "fig4b", "fig4c", "fig5a", "fig5b",
    }
    fig1a = next(ln for ln in lines if ln.startswith("fig1a"))
    params = json.loads(fig1a.split(None, 1)[1])
    assert params == {
        "alpha": 5.0, "delta": 0.0, "motion": "moving", "p": 1, "r": 0.0,
        "steps": 2000, "tau_max": 8.0 * math.pi, "theta": 0.0,
    }
    fig4a = [ln for ln in lines if ln.startswith("fig4a")]
    assert len(fig4a) == 2
    assert all(json.loads(ln.split(None, 2)[2])["motion"] == "neglected" for ln in fig4a)
    assert {json.loads(ln.split(None, 2)[2])["r"] for ln in fig4a} == {0.0, 1.0}


class TestRun:
    def test_numeric_run_schema(self, tmp_path: Path, capsys):
        out = tmp_path / "run.csv"
        cp = run_main(capsys, "run", *QUICK, "--engine", "numeric", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 41
        first = lines[1].split(",")
        assert len(first) == 11
        assert float(first[0]) == 0.0
        # 17 significant digits survive round-tripping
        assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["parameters"]["alpha"] == 1.5
        assert meta["truncation"]["n_max"] >= 2
        assert meta["integrator"]["substeps_total"] > 0
        assert meta["integrator"]["batch_size"] == 1
        assert meta["integrator"]["scheme"] == "cf4"
        drift = meta["integrator"]["max_norm_drift"]
        assert 0.0 <= drift < 1e-9
        norm_column = [float(line.split(",")[10]) for line in lines[1:]]
        assert drift == max(norm_column)
        assert float(lines[1 + norm_column.index(drift)].split(",")[0]) == (
            meta["integrator"]["max_norm_drift_tau"]
        )
        assert 0.0 <= meta["integrator"]["max_v_drift"] < 1e-9  # QUICK is resonant
        for stage in ("evolve_s", "truncation_s", "series_s", "csv_s"):
            assert meta["integrator"][stage] > 0.0
        assert 0.0 <= meta["truncation"]["max_top_rung_population"] < 1e-12
        assert "wall_time_s" in meta
        assert meta["environment"] == environment_fingerprint()
        assert set(meta["environment"]) == {"python", "numpy", "machine", "libc", "simd"}

    def test_sidecar_step_is_the_step_taken(self, tmp_path: Path, capsys):
        # rounding leaves 24 of the 1000 interval widths over ten steps of
        # 0.0005; every interval still takes ten
        out = tmp_path / "d.csv"
        assert main(["run", "--delta", "20", "--tau-max", "5", "--steps", "1001",
                     "--dt", "0.0005", "--out", str(out)]) == 0
        capsys.readouterr()
        integrator = json.loads((tmp_path / "d.csv.meta.json").read_text())["integrator"]
        assert (integrator["substeps_total"], integrator["dt_internal"]) == (10000, 0.0005)

    def test_seventeen_digit_roundtrip(self, tmp_path: Path, capsys):
        out = tmp_path / "run.csv"
        run_main(capsys, "run", *QUICK, "--engine", "numeric", "--out", str(out))
        row = out.read_text().splitlines()[7].split(",")
        assert row[1] == "%.16e" % float(row[1])

    def test_analytic_run_empty_population_fields(self, tmp_path: Path, capsys):
        out = tmp_path / "ana.csv"
        cp = run_main(capsys, "run", *QUICK, "--engine", "analytic", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        row = out.read_text().splitlines()[3].split(",")
        assert row[7] == "" and row[8] == "" and row[9] == "" and row[10] == ""
        assert row[1] != ""
        meta = json.loads((tmp_path / "ana.csv.meta.json").read_text())
        assert meta["integrator"]["dt_internal"] is None  # no numeric route
        assert "scheme" not in meta["integrator"]  # nothing was stepped
        assert meta["integrator"]["substeps_total"] == 0
        # the bound comes from the distribution, with or without a numeric route
        assert 0.0 < meta["truncation"]["max_top_rung_population"] < 1e-12

    def test_truncation_record_same_for_either_engine(self, tmp_path: Path, capsys):
        records = []
        for engine in ("analytic", "numeric"):
            out = tmp_path / f"{engine}.csv"
            assert main(["run", *QUICK, "--engine", engine, "--out", str(out)]) == 0
            records.append(json.loads((tmp_path / f"{engine}.csv.meta.json").read_text()))
        capsys.readouterr()
        assert records[0]["truncation"] == records[1]["truncation"]

    def test_both_engine_writes_three_files(self, tmp_path: Path, capsys):
        out = tmp_path / "b.csv"
        cp = run_main(capsys, "run", *QUICK, "--engine", "both", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        # a sidecar per series CSV, none for the deviation table
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "b.analytic.csv", "b.analytic.csv.meta.json", "b.compare.csv",
            "b.numeric.csv", "b.numeric.csv.meta.json"]
        cmp_lines = (tmp_path / "b.compare.csv").read_text().splitlines()
        assert cmp_lines[0] == "tau,dev_x,dev_y"
        # at alpha = 1.5 the closed form visibly omits the middle-level
        # vacuum rung: dev_x is bounded by sin^2(theta) c_0^2.  The rung adds
        # nothing to y, so dev_y is the engines' own disagreement, measured
        # at 1.7e-13 at dt = 0.005
        dev_x = max(abs(float(r.split(",")[1])) for r in cmp_lines[1:])
        dev_y = max(abs(float(r.split(",")[2])) for r in cmp_lines[1:])
        edge_bound = math.sin(0.6) ** 2 * math.exp(-1.5**2)
        assert 1e-4 < dev_x <= edge_bound * 1.01
        assert dev_y < 1e-10

    # the sidecar follows the files written, not their names
    def test_compare_named_out_gets_sidecar(self, tmp_path: Path, capsys):
        out = tmp_path / "run.compare.csv"
        assert main(["run", "--steps", "5", "--tau-max", "0.1", "--out", str(out)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "run.compare.csv.meta.json").read_text())
        assert meta["files"] == [str(out)]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.compare.csv", "run.compare.csv.meta.json"]

    def test_norm_drift_exits_3(self, tmp_path: Path, monkeypatch, capsys):
        def drift(*args, **kwargs):
            raise NormDriftError("norm drift 0.1 at tau = 1.5")

        monkeypatch.setattr(cli, "evolve", drift)
        assert main(["run", *QUICK, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: norm drift 0.1 at tau = 1.5\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, tau", [
        (("--alpha", "1", "--delta", "1e200", "--dt", "1", "--tau-max", "1", "--steps", "3"),
         "0.5"),
        (("--motion", "neglected", "--delta", "1e10", "--tau-max", "1e300", "--dt", "1e300",
          "--steps", "2"), "1e+300"),
    ])
    def test_overflowing_step_exits_3(self, tmp_path: Path, capsys, argv, tau):
        # the step's phase overflows to nan; the norm check reports it, with
        # no warning (the suite turns warnings into errors) and no file
        assert main(["run", *argv, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: norm drifted by nan at tau = {tau} (curve 0,")
        assert list(tmp_path.iterdir()) == []

    def test_emit_unwrapped_appends_columns(self, tmp_path: Path, capsys):
        out = tmp_path / "u.csv"
        cp = run_main(capsys, "run", *QUICK, "--engine", "numeric", "--out", str(out),
                      "--emit-unwrapped")
        assert cp.returncode == 0, cp.stderr
        header = out.read_text().splitlines()[0]
        assert header == (
            EXPECTED_HEADER + ",phi_pancharatnam_unwrapped,phi_geometric_unwrapped"
        )

    def test_missing_out_is_config_error(self, capsys):
        cp = run_main(capsys, "run", *QUICK, "--engine", "numeric")
        assert cp.returncode == 2
        assert "out" in cp.stderr

    @pytest.mark.parametrize("engine, delta", [("analytic", "20"), ("both", "5")])
    def test_closed_form_with_detuning_is_config_error(self, tmp_path: Path, engine, delta):
        cp = run_cli(
            "run", *QUICK, "--engine", engine, "--delta", delta,
            "--out", str(tmp_path / "x.csv"),
        )
        assert cp.returncode == 2
        assert cp.stderr.startswith(f"error: engine={engine} requires delta=0")
        assert "Traceback" not in cp.stderr
        assert list(tmp_path.iterdir()) == []

    # a range fault is reported first: alpha = -200 is also over the photon
    # ceiling's alpha^2, and a non-finite theta is caught as the scenario is built
    @pytest.mark.parametrize("args, message", [
        (("--alpha", "-3"), "alpha must be finite and >= 0, got -3.0"),
        (("--alpha", "-200"), "alpha must be finite and >= 0, got -200.0"),
        (("--theta", "nan"), "theta must be finite, got nan"),
        (("--theta", "inf"), "theta must be finite, got inf"),
    ], ids=["alpha-3", "alpha-200", "theta-nan", "theta-inf"])
    def test_out_of_range_value_is_config_error(self, tmp_path: Path, capsys, args, message):
        cp = run_main(capsys, "run", *args, "--out", str(tmp_path / "x.csv"))
        assert cp.returncode == 2
        assert cp.stderr == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_r_is_config_error(self, tmp_path: Path):
        # (1 + r)^2 in the normalizer overflows a double
        cp = run_cli("run", "--r", "1e200", "--steps", "3", "--tau-max", "0.1",
                     "--out", str(tmp_path / "x.csv"))
        assert cp.returncode == 2
        assert cp.stderr.startswith("error: r=1e+200 is too large")
        assert "Traceback" not in cp.stderr
        assert list(tmp_path.iterdir()) == []

    # p * tau_max overflows a double: 10^400 is too large for a float at
    # all, and 10^308 * 25 is inf, which made every row after the first blank
    @pytest.mark.parametrize("args", [
        ("--p", "1" + "0" * 400, "--tau-max", "0.1"),
        ("--p", "1" + "0" * 400, "--tau-max", "0.1", "--engine", "analytic"),
        ("--p", "1" + "0" * 308, "--tau-max", "25", "--steps", "5", "--engine", "analytic"),
    ], ids=["p-1e400-numeric", "p-1e400-analytic", "p-1e308-analytic"])
    def test_huge_moving_atom_p_is_config_error(self, tmp_path: Path, args):
        cp = run_cli("run", *args, "--out", str(tmp_path / "x.csv"))
        assert cp.returncode == 2
        assert cp.stderr.startswith("error: p * tau_max must be a finite double")
        assert len(cp.stderr.splitlines()) == 1
        assert "Traceback" not in cp.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kwargs, message", [
        (dict(alpha="5"), "alpha must be a number, got '5'"),
        (dict(steps=True), "steps must be an integer, got True"),
        (dict(motion="walking"), "motion must be one of ('moving', 'neglected')"),
        (dict(engine="both", delta=5.0), "engine=both requires delta=0"),
        (dict(tau_max=10**400), "tau_max is too large for a double"),
        (dict(out="."), "out must name a file, got '.'"),
    ])
    def test_scenario_checked_when_built(self, kwargs, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig(**kwargs)

    def test_real_fields_stored_as_floats(self):
        scenario = ScenarioConfig(alpha=2, delta=0, dt=1)
        assert (scenario.alpha, scenario.delta, scenario.dt) == (2.0, 0.0, 1.0)
        assert all(type(v) is float for v in (scenario.alpha, scenario.delta, scenario.dt))

    # an out of "." or "/" names no file to derive the per-curve and
    # per-engine names from; refused before anything is computed
    @pytest.mark.parametrize("argv", [
        ("preset", "fig4b", "--out", "."), ("preset", "fig4b", "--out", "/"),
        ("run", "--engine", "both", "--out", ".", "--tau-max", "0.1", "--steps", "3"),
        ("preset", "fig1a", "--out", ""),
    ], ids=["preset-dot", "preset-root", "run-both-dot", "preset-empty"])
    def test_out_naming_no_file_is_config_error(self, tmp_path: Path, monkeypatch, capsys,
                                                argv):
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err == f"error: out must name a file, got {argv[argv.index('--out') + 1]!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_r_parses(self, tmp_path: Path, capsys):
        out = tmp_path / "odd.csv"
        cp = run_main(capsys, "run", *QUICK, "--r", "-1", "--engine", "numeric",
                      "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        meta = json.loads((tmp_path / "odd.csv.meta.json").read_text())
        assert meta["parameters"]["r"] == -1.0

    # an existing directory as the CSV, or a file as its parent directory
    @pytest.mark.parametrize("command, out", [
        (("run", *QUICK), "taken"), (("preset", "fig1a"), "taken"),
        (("run", *QUICK), "plain/x.csv"),
    ], ids=["run-directory", "preset-directory", "run-under-file"])
    def test_unwritable_out_rejected(self, tmp_path: Path, command, out):
        (tmp_path / "taken").mkdir()
        (tmp_path / "plain").write_text("")
        cp = run_cli(*command, "--out", str(tmp_path / out))
        assert cp.returncode == 2
        assert cp.stderr.startswith("error: cannot write output: ")
        assert "Traceback" not in cp.stderr


class TestCeilings:
    """Runs over a ceiling exit 2 before anything evolves or is written."""

    @staticmethod
    def refuse_to_evolve(*args, **kwargs):
        raise AssertionError("evolve ran on a run over a ceiling")

    # a substep count that overflows any integer: 1e300 for a tiny --dt; inf
    # for an automatic step that underflows to 0 (p = 10^300) or whose count
    # per interval is finite but not its total (delta = 1e308)
    @pytest.mark.parametrize("args, count", [
        (("--delta", "20", "--steps", "10", "--tau-max", "1", "--dt", "1e-300"), "1e+300"),
        (("--p", str(10**300), "--steps", "3", "--tau-max", "1e-300"), "inf"),
        (("--delta", "1e308", "--steps", "3", "--tau-max", "1"), "inf"),
    ], ids=["dt-1e-300", "p-1e300", "delta-1e308"])
    def test_tiny_step_is_config_error(self, tmp_path: Path, capsys, args, count):
        cp = run_main(capsys, "run", "--alpha", "5", *args, "--out", str(tmp_path / "x.csv"))
        assert cp.returncode == 2
        assert cp.stderr == (
            f"error: run too large: {count} substeps exceed the ceiling of 1e+07; "
            "raise dt or lower tau_max\n"
        )
        assert list(tmp_path.iterdir()) == []

    # the photon scan's first window, max(32, int(2 alpha^2) + 16), is over
    # its ceiling of 10^6 states; refused before the scan allocates
    @pytest.mark.parametrize("args", [("--alpha", "1e6"), ("--alpha", "1000", "--delta", "5")],
                             ids=["alpha-1e6", "alpha-1000-detuned"])
    def test_unscannable_alpha_refused(self, tmp_path: Path, args):
        cp = run_cli("run", *args, "--steps", "3", "--tau-max", "0.1",
                     "--out", str(tmp_path / "o.csv"))
        assert cp.returncode == 2
        assert cp.stderr.startswith("error: alpha=")
        assert len(cp.stderr.splitlines()) == 1
        assert "Traceback" not in cp.stderr
        assert list(tmp_path.iterdir()) == []

    # A numerically evolved curve with alpha^2 over the photon ceiling is
    # refused before its truncation scan.  The largest accepted alpha and the
    # next float up: both cutoffs lie above the ceiling for every r, since
    # about half the photon mass sits above alpha^2, so the check refuses
    # nothing the cutoff ceiling accepted.
    ALPHA_EDGE = max(a for a in (math.sqrt(2e4), math.nextafter(math.sqrt(2e4), 0.0))
                     if a * a <= 2e4)

    @pytest.mark.parametrize("r", [0.0, 1.0, -1.0, 0.4])
    @pytest.mark.parametrize("above", [False, True], ids=["at-edge", "over-edge"])
    def test_numeric_alpha_over_photon_ceiling_refused_before_the_scan(
        self, tmp_path: Path, monkeypatch, capsys, r, above
    ):
        assert scenario._MAX_PHOTONS == 2e4
        alpha = math.nextafter(self.ALPHA_EDGE, math.inf) if above else self.ALPHA_EDGE
        n_max = superposed_distribution(cascade_qed.FieldSpec(alpha, r)).n_max
        assert n_max > scenario._MAX_PHOTONS
        scanned = []

        def scan(spec):
            scanned.append(spec)
            return superposed_distribution(spec)

        monkeypatch.setattr(cli, "superposed_distribution", scan)
        monkeypatch.setattr(cli, "evolve", self.refuse_to_evolve)
        argv = ["run", "--alpha", repr(alpha), "--r", repr(r), "--steps", "3",
                "--tau-max", "0.1", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        if above:
            assert err.startswith(f"error: alpha={alpha!r} puts the photon cutoff")
            assert scanned == []
        else:
            assert err.startswith(f"error: run too large: a photon cutoff of {n_max} ")
            assert len(scanned) == 1
        assert list(tmp_path.iterdir()) == []

    # A neglected motion's pulse area is tau itself: at tau_max = 1e308 the
    # closed form's ladder phases A sqrt(2 n + 3) overflow, which wrote blank
    # x and y and an infinite phi_dynamical; at 1e307 they stay finite.
    @pytest.mark.parametrize("tau_max", ["1e308", "1e307"])
    def test_overflowing_closed_form_phases_refused(self, tmp_path: Path, capsys, tau_max):
        out = tmp_path / "x.csv"
        code = main(["run", "--engine", "analytic", "--motion", "neglected",
                     "--tau-max", tau_max, "--steps", "3", "--out", str(out)])
        err = capsys.readouterr().err
        if tau_max == "1e308":
            assert code == 2
            assert err.startswith(
                "error: the closed-form phases overflow: a pulse area of 1e+308 ")
            assert len(err.splitlines()) == 1
            assert list(tmp_path.iterdir()) == []
        else:
            assert (code, err) == (0, "")
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert float(rows[-1][0]) == 1e307
            for row in rows:
                assert all(math.isfinite(float(v)) for v in row[:5])

    # far along a neglected motion phi_dynamical is huge and wrapping the
    # geometric phase rounded past the cut: at tau_max = 1e14, 4 of 2000
    # values lay outside (-pi, pi], up to 3.1875; at 1e300 one read -2.3e282.
    # Where the rounding of phi_dynamical alone spans half a turn the
    # geometric phase is a gap: none of 2000 rows at 1e14, 1279 at 1e16 and
    # all but row 0 at 1e300
    @pytest.mark.parametrize("tau_max", ["1e14", "1e16", "1e300"])
    def test_geometric_phase_stays_in_its_interval(self, tmp_path: Path, capsys, tau_max):
        out = tmp_path / "g.csv"
        assert main(["run", "--motion", "neglected", "--engine", "analytic",
                     "--tau-max", tau_max, "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2000
        unresolved = [i for i, row in enumerate(rows)
                      if np.spacing(abs(float(row[4]))) >= math.pi]
        assert len(unresolved) == {"1e14": 0, "1e16": 1279, "1e300": 1999}[tau_max]
        assert [i for i, row in enumerate(rows) if not row[5]] == unresolved
        assert all(-math.pi < float(row[5]) <= math.pi for row in rows if row[5])

    def test_analytic_alpha_over_photon_ceiling_accepted(self, tmp_path: Path, capsys):
        alpha = math.nextafter(self.ALPHA_EDGE, math.inf)
        argv = ["run", "--alpha", repr(alpha), "--engine", "analytic", "--steps", "3",
                "--tau-max", "0.1", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 0
        capsys.readouterr()
        assert len((tmp_path / "o.csv").read_text().splitlines()) == 4

    # QUICK takes 40 output points and 624 substeps (16 per interval)
    @pytest.mark.parametrize("ceiling, value, message", [
        ("_MAX_OUTPUT_POINTS", 39, "40 output points exceed the ceiling of 39"),
        ("_MAX_SUBSTEPS", 623, "624 substeps exceed the ceiling of 623"),
        ("_MAX_PHOTONS", QUICK_N_MAX - 1,
         f"a photon cutoff of {QUICK_N_MAX} exceeds the ceiling of {QUICK_N_MAX - 1}"),
    ])
    def test_run_over_ceiling_refused(self, tmp_path: Path, monkeypatch, capsys,
                                      ceiling, value, message):
        monkeypatch.setattr(scenario, ceiling, value)
        monkeypatch.setattr(cli, "evolve", self.refuse_to_evolve)
        out = tmp_path / "x.csv"
        assert main(["run", *QUICK, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: run too large: {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ceiling, value", [
        ("_MAX_OUTPUT_POINTS", 40), ("_MAX_SUBSTEPS", 624), ("_MAX_PHOTONS", QUICK_N_MAX),
    ])
    def test_run_at_ceiling_accepted(self, tmp_path: Path, monkeypatch, capsys,
                                     ceiling, value):
        monkeypatch.setattr(scenario, ceiling, value)
        assert main(["run", *QUICK, "--out", str(tmp_path / "x.csv")]) == 0
        capsys.readouterr()


class TestConfigFile:
    def test_config_file_loaded(self, tmp_path: Path, capsys):
        cfg = dict(alpha=1.5, theta=0.6, tau_max=3.0, steps=25, dt=0.005,
                   engine="numeric", out=str(tmp_path / "cfg.csv"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        cp = run_main(capsys, "run", "--config", str(cfg_path))
        assert cp.returncode == 0, cp.stderr
        assert len((tmp_path / "cfg.csv").read_text().splitlines()) == 26

    def test_flags_override_config_file(self, tmp_path: Path, capsys):
        cfg = dict(alpha=1.5, theta=0.6, tau_max=3.0, steps=25, dt=0.005,
                   engine="numeric", out=str(tmp_path / "a.csv"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        override = tmp_path / "b.csv"
        cp = run_main(capsys, "run", "--config", str(cfg_path), "--steps", "12",
                      "--out", str(override))
        assert cp.returncode == 0, cp.stderr
        assert len(override.read_text().splitlines()) == 13
        meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
        assert meta["parameters"]["steps"] == 12
        assert meta["parameters"]["alpha"] == 1.5

    # a config file holds exactly its subcommand's flag keys
    @pytest.mark.parametrize("command, key, value", [
        ("run", "bogus", 1), ("run", "preset", "fig1a"), ("compare", "out", "x.csv"),
        ("compare", "engine", "both"), ("compare", "emit_unwrapped", True),
    ])
    def test_unknown_config_key_rejected(self, tmp_path: Path, monkeypatch, capsys, command,
                                         key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha": 1.5, key: value}))
        monkeypatch.chdir(tmp_path)
        cp = run_main(capsys, command, *QUICK, "--config", str(cfg_path))
        assert cp.returncode == 2
        assert cp.stderr == f"error: unknown config keys for {command}: [{key!r}]\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("key, value", [
        ("steps", 20.0), ("alpha", "5"), ("p", 1.5), ("emit_unwrapped", "no"),
    ])
    def test_mistyped_config_value_rejected(self, tmp_path: Path, key, value):
        cfg = dict(alpha=1.5, theta=0.6, tau_max=3.0, steps=25, dt=0.005,
                   engine="numeric", out=str(tmp_path / "t.csv"))
        cfg[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        cp = run_cli("run", "--config", str(cfg_path))
        assert cp.returncode == 2, cp.stderr
        assert cp.stderr.startswith(f"error: {key} must be ")
        assert "Traceback" not in cp.stderr
        assert not (tmp_path / "t.csv").exists()

    # a JSON integer too large for a double, and one too long for Python to
    # read at all (over 4300 digits)
    @pytest.mark.parametrize("key, digits", [
        *((key, 400) for key in ("alpha", "delta", "theta", "r", "tau_max", "dt")),
        ("alpha", 5000),
    ])
    def test_huge_config_integer_rejected(self, tmp_path: Path, capsys, key, digits):
        cfg_path = tmp_path / "cfg.json"
        out = json.dumps(str(tmp_path / "x.csv"))
        cfg_path.write_text(f'{{"{key}": 1{"0" * digits}, "out": {out}}}')
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        if digits < 4300:
            assert err == f"error: {key} is too large for a double\n"
        else:
            assert err.startswith("error: cannot parse config file: ")
            assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    # a file that cannot be read, and JSON that holds no object of keys
    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable", "array",
                                      "number"])
    def test_unreadable_config_file_rejected(self, tmp_path: Path, capsys, kind):
        cfg_path = tmp_path / "cfg.json"
        message = f"error: cannot read config file {cfg_path}: "
        if kind == "directory":
            cfg_path.mkdir()
        elif kind == "undecodable":
            cfg_path.write_bytes(b"\xff{}")  # not UTF-8
        elif kind != "missing":
            cfg_path.write_text('[{"alpha": 2}]' if kind == "array" else "2.5")
            message = "error: config file must hold a JSON object of flat keys\n"
        cp = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert cp.returncode == 2
        assert cp.stderr.startswith(message)
        assert len(cp.stderr.splitlines()) == 1
        assert not (tmp_path / "x.csv").exists()


class TestCompare:
    def test_within_tolerance(self, capsys):
        # large alpha: the omitted vacuum rung is ~e^-25 and both engines
        # agree to integrator accuracy
        cp = run_main(
            capsys, "compare", "--alpha", "5.0", "--theta", "0.785398163",
            "--tau-max", "6.283185307", "--steps", "200", "--tolerance", "1e-6",
        )
        assert cp.returncode == 0, cp.stderr
        report = json.loads(cp.stdout)
        assert report["within_tolerance"] is True
        assert report["max_abs_dev"] < 1e-6

    def test_tolerance_breach_exits_3(self, capsys):
        cp = run_main(
            capsys, "compare", "--alpha", "2.0", "--theta", "0.785398163",
            "--tau-max", "6.283185307", "--steps", "100", "--tolerance", "1e-6",
        )
        assert cp.returncode == 3
        assert "tolerance" in cp.stderr

    def test_detuned_compare_is_config_error(self):
        cp = run_cli("compare", "--delta", "5", "--steps", "50")
        assert cp.returncode == 2
        assert "delta" in cp.stderr and "Traceback" not in cp.stderr

    @pytest.mark.parametrize("flag", [["--out", "x.csv"], ["--engine", "numeric"],
                                      ["--emit-unwrapped"]])
    def test_write_flags_rejected(self, tmp_path: Path, monkeypatch, capsys, flag):
        # compare writes nothing and always runs both engines
        monkeypatch.chdir(tmp_path)
        cp = run_main(capsys, "compare", *QUICK, *flag)
        assert cp.returncode == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}" in cp.stderr
        assert cp.stdout == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_config_error(self, capsys, tolerance):
        cp = run_main(capsys, "compare", *QUICK, "--tolerance", tolerance)
        assert cp.returncode == 2
        assert cp.stderr.startswith("error: tolerance must be finite and >= 0")
        assert cp.stdout == ""

    def test_compare_writes_no_files(self, tmp_path: Path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cp = run_main(capsys, "compare", *QUICK, "--tolerance", "1")
        assert cp.returncode == 0, cp.stderr
        assert json.loads(cp.stdout)["grid_points"] == 40
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["list-presets"], ["preset", "fig1a", "--out", "f.csv"]])
def test_closed_stdout_exits_0(tmp_path: Path, argv):
    # the read end closes before the child writes, as under `| head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    cp = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cascade_qed", *argv], stdout=write_end,
        stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
    )
    os.close(write_end)
    assert (cp.returncode, cp.stderr) == (0, "")


class TestBatchedCurves:
    def test_preset_curves_match_single_runs(self, tmp_path: Path, capsys):
        assert main(["preset", "fig4b", "--out", str(tmp_path / "fig4b.csv")]) == 0
        for label, params in list_presets()["fig4b"]:
            argv = ["run", "--engine", "numeric", "--out", str(tmp_path / f"{label}.csv")]
            for key, value in params.items():
                argv += [f"--{key.replace('_', '-')}", str(value)]
            assert main(argv) == 0
            batched = tmp_path / f"fig4b_{label}.csv"
            assert batched.read_bytes() == (tmp_path / f"{label}.csv").read_bytes()
            meta = json.loads((tmp_path / f"fig4b_{label}.csv.meta.json").read_text())
            assert meta["integrator"]["batch_size"] == 2
            assert meta["truncation"]["n_max"] == 70
            assert meta["integrator"]["substeps_total"] == 1999  # one per interval
            # the step taken, not the largest one allowed
            taken = meta["integrator"]["dt_internal"] * meta["integrator"]["substeps_total"]
            assert abs(taken - params["tau_max"]) <= 1e-12
            assert "max_v_drift" not in meta["integrator"]  # <V> moves off resonance
        capsys.readouterr()

    # fig4b's two curves' states alone would take 14 MB, and one alpha = 40
    # curve's plane maps for 128 steps about 80 MB; evolved a chunk of a fixed
    # number of lane entries at a time, each run's tracemalloc peak is about
    # 2.5 MB (in one process, in this order: 2.67 MB for fig4b, 2.48 MB at
    # alpha = 40, numpy 2.4).  Over 8,192 lanes a chunk is one step and grows
    # with the basis: alpha = 137, inside the photon-cutoff ceiling, peaks at
    # 10.47 MB
    @pytest.mark.parametrize("argv,bound", [
        (["preset", "fig4b"], 6e6),
        (["run", "--alpha", "40", "--delta", "-5", "--tau-max", "1", "--steps", "11"], 6e6),
        (["run", "--alpha", "137", "--delta", "-5", "--tau-max", "0.1", "--steps", "3"], 2e7),
    ], ids=["fig4b", "alpha-40", "alpha-137"])
    def test_fig4b_peak_memory(self, tmp_path: Path, capsys, argv, bound):
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "run.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < bound

    def test_top_rung_population_recorded(self, tmp_path: Path):
        # the recorded value is the initial weight of the lanes that reach the
        # top photon column, cos^2(theta) c_{n_max}^2, about 2.6e-14 here;
        # lanes never couple, so the column stays below it over the run
        scenario = ScenarioConfig(alpha=1.5, delta=4.0, tau_max=3.0, steps=31,
                                  out=str(tmp_path / "t.csv"))
        recorded = run_scenario(scenario).metadata["truncation"]["max_top_rung_population"]
        config = scenario.system_config()
        dist = superposed_distribution(config.field)
        state = initial_state(config, dist)
        assert recorded == edge_weight(state.amplitudes) == system._edge_weight(config, dist)
        edge = math.cos(config.theta) ** 2 * dist.weights[-1] ** 2
        assert recorded == pytest.approx(edge, rel=1e-15, abs=0.0)
        kept = evolve(state, config, keep_states=True)
        assert recorded >= float(np.max(observables_from_states(kept.states)[2])) > 0.0

    def test_bases_of_different_size_evolve_apart(self, tmp_path: Path):
        # at alpha = 2 the even cat (r = 1) keeps one photon fewer than the
        # coherent state and the odd cat
        base = dict(alpha=2.0, delta=5.0, p=2, tau_max=2.0, steps=21, dt=0.005,
                    engine="numeric")
        curves = [("coherent", 0.0, 0.3), ("even", 1.0, 0.9), ("odd", -1.0, 1.2)]
        batch = [ScenarioConfig(**base, r=r, theta=theta, curve=label,
                                out=str(tmp_path / f"b_{label}.csv"))
                 for label, r, theta in curves]
        result = run_scenario(batch)
        sizes, substeps = {}, 0
        for label, r, theta in curves:
            alone = run_scenario(ScenarioConfig(**base, r=r, theta=theta,
                                                out=str(tmp_path / f"s_{label}.csv")))
            assert (tmp_path / f"b_{label}.csv").read_bytes() == (
                tmp_path / f"s_{label}.csv").read_bytes()
            meta = json.loads((tmp_path / f"b_{label}.csv.meta.json").read_text())
            sizes[label] = (meta["truncation"]["n_max"], meta["integrator"]["batch_size"])
            substeps += alone.metadata["integrator"]["substeps_total"]
        assert sizes["coherent"][0] == sizes["odd"][0] != sizes["even"][0]
        assert [size for _, size in sizes.values()] == [2, 1, 2]
        assert result.metadata["integrator"]["substeps_total"] == substeps
        assert [p.name for p in result.paths] == ["b_coherent.csv", "b_even.csv", "b_odd.csv"]


# scipy's modules, and importlib.metadata unless the interpreter had loaded
# it before the package was imported
LOADED = ("sorted(m for m in sys.modules if m.startswith('scipy') "
          "or (m == 'importlib.metadata' and not before))")


@pytest.mark.parametrize("argv", [
    None,
    ["compare", *QUICK, "--tolerance", "1"],
    ["run", *QUICK, "--engine", "both", "--out", "b.csv"],
])
def test_import_loads_numpy_only(tmp_path: Path, argv):
    # importing the package, a comparison and a both-engine run load no
    # scipy and read no package metadata
    code = "import sys; before = 'importlib.metadata' in sys.modules; "
    if argv is None:
        code += f"import cascade_qed; print({LOADED})"
    else:
        code += ("from cascade_qed.cli import main; "
                 f"code = main({argv!r}); print({LOADED}); sys.exit(code)")
    cp = run_python("-c", code, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip().splitlines()[-1] == "[]"


def test_package_exports_each_module_interface():
    from cascade_qed import evolver, field_states, phases, resonant, system

    modules = (field_states, system, resonant, evolver, phases)
    assert cascade_qed.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    assert len(set(cascade_qed.__all__)) == len(cascade_qed.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(cascade_qed, name) is getattr(module, name)
    assert isinstance(cascade_qed.__version__, str)
    assert not hasattr(cascade_qed, "default_dt_internal")
    assert not hasattr(system, "default_dt_internal")

    # the CLI's three modules: each name is published once, by its own
    # module, and none by the package
    front = (cli, output, scenario)
    assert [m.__all__ for m in front] == [
        ["RunResult", "run_scenario", "main"],
        ["CSV_COLUMNS", "write_series_csv", "environment_fingerprint"],
        ["ConfigError", "ScenarioConfig", "list_presets"],
    ]
    for module in front:
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value):
                assert value.__module__ == module.__name__, name
            assert not hasattr(cascade_qed, name), name

    # the writer and the scenario import nothing of the CLI, and the
    # scenario nothing of the writer
    def imported(module) -> set[str]:
        found = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                dotted = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ("cascade_qed" if node.level else "", node.module)))
                dotted = [base, *(f"{base}.{a.name}" for a in node.names)]
            else:
                continue
            found |= {d.split(".")[1] for d in dotted if d.startswith("cascade_qed.")}
        return found

    assert "phases" in imported(output) and "system" in imported(scenario)
    assert "cli" not in imported(output)
    assert not {"cli", "output"} & imported(scenario)


class TestDeterminism:
    def test_small_run_matches_golden_file(self, tmp_path: Path, capsys):
        out = tmp_path / "small.csv"
        cp = run_main(capsys, *RUN_SMALL_ARGV, "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        ok, report = compare_values(read_csv(out), read_csv(RUN_SMALL_PATH), RUN_SMALL_TOLERANCE)
        assert ok, report
        # bytes depend on numpy's SIMD dispatch: exact only where the pins hold
        if environment_fingerprint() == json.loads(HASHES_PATH.read_text())["fingerprint"]:
            assert out.read_bytes() == RUN_SMALL_PATH.read_bytes()

    def test_fingerprint_follows_the_simd_level(self):
        # the byte pins above and CI's baseline pass both rely on this.  A
        # child at the full level names NPY_DISABLE_CPU_FEATURES as the
        # workflow does (every target this CPU offers above numpy's
        # baseline); with those disabled, the fingerprint reports none.
        script = """if True:
            import json
            from numpy._core import _multiarray_umath as u
            from cascade_qed.output import environment_fingerprint
            above = [t for t in u.__cpu_dispatch__
                     if u.__cpu_features__.get(t) and t not in u.__cpu_baseline__]
            print(json.dumps([above, environment_fingerprint()["simd"]]))
        """

        def child(disable: str) -> list:
            cp = run_python("-c", script, env_extra={"NPY_DISABLE_CPU_FEATURES": disable})
            assert cp.returncode == 0, cp.stderr
            return json.loads(cp.stdout)

        disabled, full = child("")
        if not disabled:
            pytest.skip("this CPU offers no SIMD target above numpy's baseline")
        assert set(disabled) <= set(full)
        assert not set(disabled) & set(child(" ".join(disabled))[1])

    # analytic at alpha = 40 (~600 kept rungs, 400 rows over several row
    # blocks) is the largest sum the sweeps run
    @pytest.mark.parametrize("engine,extra", [
        ("analytic", ["--alpha", "40", "--steps", "400"]), ("both", []),
    ])
    def test_closed_form_bytes_identical_across_thread_counts(
        self, tmp_path: Path, engine, extra
    ):
        written = []
        for threads in ("1", "4"):
            out = tmp_path / threads / "run.csv"
            cp = run_cli(
                "run", *QUICK, *extra, "--engine", engine, "--out", str(out),
                env_extra={"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads},
            )
            assert cp.returncode == 0, cp.stderr
            written.append({p.name: p.read_bytes() for p in sorted(out.parent.glob("*.csv"))})
        assert len(written[0]) == (1 if engine == "analytic" else 3)
        assert written[0] == written[1]

    def test_column_formatter_matches_per_value_format(self):
        col = np.array([math.nan, -0.0, 5e-324, -1e-300, 1e300, 0.1, -2.5, math.pi])
        expected = ["" if math.isnan(v) else "0" if v == 0 else "%.16e" % v for v in col.tolist()]
        assert _format_block([col]) == "".join(f + "\n" for f in expected).encode()
        assert expected[:2] == ["", "0"]

    def test_byte_identical_across_thread_counts(self, tmp_path: Path):
        outs = []
        for tag, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / f"{tag}.csv"
            cp = run_cli(
                "run", *QUICK, "--engine", "numeric", "--out", str(out),
                env_extra={"OMP_NUM_THREADS": threads,
                           "OPENBLAS_NUM_THREADS": threads},
            )
            assert cp.returncode == 0, cp.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# the block CSV formatter against the per-value one (csv_oracle)

def _ties() -> tuple[list[float], list[float]]:
    """Doubles of the candidate range whose exact scaled mantissa
    |v| 10**(16 - e) is a 17-digit tie, and others within 1e-3 of one.

    a / 2**(17 - e) with a odd scales to a 5**(16 - e) / 2, a half-integer;
    it is an exact double while a < 2**53 (e <= 15), and lies in decade e
    only while 5**(16 - e) < 2e17 (e >= -8).  The first three such a per
    exponent are taken.  The near ties, up to 12 per exponent, are found
    among consecutive doubles in exact integer arithmetic, so the set is
    the same on every platform."""
    exact, near = [], []
    for e in range(-29, 17):
        scale = 2 ** (17 - e)
        first = math.ceil(Fraction(10) ** e * scale) | 1
        for a in range(first, first + 6, 2):
            if a < 2**53 and Fraction(a, scale) < Fraction(10) ** (e + 1):
                exact.append(a / scale)
        start = 1.5 * 10.0**e
        within = []
        for v in (start + np.spacing(start) * np.arange(4000)).tolist():
            num, den = v.as_integer_ratio()
            # |t mod 1 - 1/2| < 1e-3, with t = v 10**(16 - e)
            if 500 * abs(2 * (num * 10 ** (16 - e) % den) - den) < den:
                within.append(v)
        near += within[:12]
    return exact, near


TIES, NEAR_TIES = _ties()


def _band_near_ties() -> list[float]:
    """Doubles below 1e-6, where 10**(16 - e) is two doubles, whose exact
    t = |v| 10**(16 - e) lies d 2**s from a half-integer, 0 < |d| <= 8, with
    2**s the last bit of t.  For v = m 2**E, t = m 5**k 2**s with k = 16 - e
    and s = k + E, so m is solved by the inverse of 5**k mod 2**-s.  The
    formatter's TwoSum can round such a remainder onto the half or past it,
    so some of them must reach ``%``."""
    out = []
    for k in range(23, 46):
        ten = Fraction(10) ** (16 - k)
        for E in range(math.frexp(float(ten))[1] - 53, math.frexp(float(10 * ten))[1] - 52):
            mod = 2 ** -(k + E)
            inv = pow(5**k, -1, mod)
            for d in range(-8, 9):
                first = ((mod // 2 + d) * inv) % mod
                # every 53-bit m congruent to first
                for m in range(first + -(-(2**52 - first) // mod) * mod, 2**53, mod):
                    if d and ten <= Fraction(m) * Fraction(2) ** E < 10 * ten:
                        out.append(math.ldexp(m, E))
    return out


BAND_NEAR_TIES = _band_near_ties()
# with their neighbours, these hold both edges of the formatter's candidate
# range, 1e-29 <= |v| < 1e17
POWERS = np.array([float("1e%d" % k) for k in range(-31, 19)])
OUT_OF_RANGE = [1e-30, math.nextafter(1e-29, 0.0), 1e-31, 1e17, 1.5e17, 1e18, 5e-324,
                2.2250738585072014e-308, 1e308, math.inf]
EDGES = np.concatenate([
    POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, math.inf),
    [0.0, 1.0, 2.0, 7.0, 10.0, 99.0, 101.0, 12345.0, 2.0**31, 2.0**53 - 1, 2.0**53,
     2.0**53 + 2, 1e15 + 1, 1e16 + 2, 12345678901234567.0],
    OUT_OF_RANGE, TIES, NEAR_TIES, [math.nan],
])
EDGES = np.concatenate([EDGES, -EDGES])


class _SpyFormat(str):
    """The format string ``output._FORMAT`` with a record of what ``%`` formatted."""

    def __new__(cls):
        spy = super().__new__(cls, "%.16e")
        spy.formatted = []
        return spy

    def __mod__(self, value):
        self.formatted.append(value)
        return str.__mod__(self, value)


def _blocks(values: np.ndarray, width: int) -> list[list[np.ndarray]]:
    """``values`` row by row in ``width`` columns (NaN-padded), as blocks of
    7 rows, the last one short."""
    rows = -(-len(values) // width)
    table = np.full(rows * width, math.nan)
    table[: len(values)] = values
    table = table.reshape(rows, width)
    return [[table[lo : lo + 7, j] for j in range(width)] for lo in range(0, rows, 7)]


def _exact_fallback(values: np.ndarray) -> list[float]:
    """The values ``%`` must format, by exact arithmetic: those outside
    10**-29 <= |v| < 1e17, and those whose scaled mantissa |v| 10**(16 - e),
    e the exact decimal exponent, rounds to 1e17."""
    expected = []
    for v in values[~np.isnan(values) & (values != 0.0)].tolist():
        if math.isinf(v) or not Fraction(1, 10**29) <= Fraction(abs(v)) < 10**17:
            expected.append(v)
            continue
        x = Fraction(abs(v))
        e = math.floor(math.log10(abs(v)))
        while Fraction(10) ** e > x:
            e -= 1
        while Fraction(10) ** (e + 1) <= x:
            e += 1
        if round(x * Fraction(10) ** (16 - e)) >= 10**17:
            expected.append(v)
    return expected


def _canonical_nan(x: float) -> float:
    # a signalling NaN raises on arithmetic, which the program never produces
    return math.nan if math.isnan(x) else x


class TestBlockFormatter:
    def test_edges_match_the_per_value_format_and_reach_the_fallback(self, monkeypatch):
        assert len(TIES) >= 45 and len(NEAR_TIES) >= 200
        # ties where 10**(16 - e) is two doubles: 1.79e-7 = 3 / 2**24 and 2**-25
        assert any(v < 1e-6 for v in TIES) and 2.0**-25 in TIES
        spy = _SpyFormat()
        monkeypatch.setattr(output, "_FORMAT", spy)
        values = np.concatenate([EDGES, BAND_NEAR_TIES, np.negative(BAND_NEAR_TIES)])
        for width in (1, 3, 11):
            for cols in _blocks(values, width):
                assert _format_block(cols) == csv_oracle.format_block(cols)
        fallback = set(spy.formatted)
        assert fallback >= set(OUT_OF_RANGE) | {-v for v in OUT_OF_RANGE}
        # the exact product settles every tie: none is left to %
        assert not fallback & {s * v for v in TIES + NEAR_TIES for s in (1.0, -1.0)}
        # a remainder within the TwoSum's error of a half is
        assert fallback & set(BAND_NEAR_TIES)

    def test_each_power_of_ten_is_two_exact_doubles(self):
        hi, lo = output._POW10_HI[0].tolist(), output._POW10_LO[0].tolist()
        assert [Fraction(h) + Fraction(x) for h, x in zip(hi, lo)] == [10**k for k in range(46)]
        assert not any(lo[:23]) and all(lo[23:])

    def test_each_decade_starts_at_the_least_double_at_or_above_its_power(self):
        tens = output._TENS.tolist()
        assert len(tens) == 47
        for i, x in enumerate(tens):
            assert Fraction(x) >= Fraction(10) ** (i - 29)
            assert Fraction(math.nextafter(x, 0.0)) < Fraction(10) ** (i - 29)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats().map(_canonical_nan),
                st.floats(1e-5, 1e18) | st.floats(-1e18, -1e-5),
                st.floats(1e-31, 1e-4) | st.floats(-1e-4, -1e-31),
                st.integers(-10**17, 10**17).map(float),
            ),
            min_size=1, max_size=80,
        ),
        st.integers(1, 11),
    )
    def test_any_block_matches_the_per_value_format(self, values, width):
        for cols in _blocks(np.array(values), width):
            assert _format_block(cols) == csv_oracle.format_block(cols)

    def test_only_out_of_range_values_and_carries_reach_the_fallback(self, monkeypatch):
        rng = np.random.default_rng(2011)
        values = np.concatenate([EDGES, 10.0 ** rng.uniform(-31.0, 18.0, 1000),
                                 -(10.0 ** rng.uniform(-31.0, 18.0, 1000))])
        spy = _SpyFormat()
        monkeypatch.setattr(output, "_FORMAT", spy)
        for cols in _blocks(values, 11):
            assert _format_block(cols) == csv_oracle.format_block(cols)
        expected = _exact_fallback(values)
        assert {1e-14, -1e-14, 1e-29, -1e-29} <= set(expected)
        assert sorted(spy.formatted) == sorted(expected)

    def test_random_mantissas_and_power_neighbours_follow_the_exact_rule(self, monkeypatch):
        # random 52-bit mantissas at every binary exponent from 2**-100 to
        # 2**60, and the nearest double to each 10**k, k in [-31, 18], with
        # the 20 either side: the two edges of the candidate range and every
        # decade boundary
        rng = np.random.default_rng(2012)
        mantissas = rng.integers(0, 2**52, 2000, dtype=np.uint64)
        exponents = rng.integers(1023 - 100, 1023 + 61, 2000, dtype=np.uint64)
        random = (exponents << np.uint64(52) | mantissas).view(np.float64)
        near = POWERS.tolist()
        for power in POWERS.tolist():
            for toward in (0.0, math.inf):
                x = power
                for _ in range(20):
                    x = math.nextafter(x, toward)
                    near.append(x)
        values = np.concatenate([random, near])
        values = np.concatenate([values, -values])
        spy = _SpyFormat()
        monkeypatch.setattr(output, "_FORMAT", spy)
        for cols in _blocks(values, 11):
            assert _format_block(cols) == csv_oracle.format_block(cols)
        assert sorted(spy.formatted) == sorted(_exact_fallback(values))

    def test_values_just_below_a_power_of_ten_are_settled(self, monkeypatch):
        # a double just below 10**k lies in the decade below it, however near
        # it lies.  Of the doubles within 30 ulps of each 10**k of the
        # candidate range, two are left to %: 1e-29, which lies below
        # 10**-29, so that its text's exponent, -30, is below the formatter's
        # table; and 1e-14, which is 9.99999999999999998819e-15, whose 17
        # digits carry to 1.0e-14
        near = []
        for k in range(-29, 17):
            power = float("1e%d" % k)
            for toward in (0.0, math.inf):
                x = power
                for _ in range(30):
                    x = math.nextafter(x, toward)
                    near.append(x)
            near.append(power)
        values = np.array([v for v in near if 1e-29 <= v < 1e17])
        values = np.concatenate([values, -values])
        spy = _SpyFormat()
        monkeypatch.setattr(output, "_FORMAT", spy)
        for cols in _blocks(values, 11):
            assert _format_block(cols) == csv_oracle.format_block(cols)
        assert sorted(spy.formatted) == [-1e-14, -1e-29, 1e-29, 1e-14]
        # each of these lies just below a power of ten
        below = np.array([1e-20, 1e-7, math.nextafter(1e15, 0.0)])
        assert output._scientific(below)[0].tolist() == [0, 1, 2]

    def test_fig4b_writes_no_value_through_the_fallback(self, tmp_path, capsys, monkeypatch):
        # 5,613 of its values reached % while the exact path stopped at 1e-4:
        # most of the norm_error column, and y and the phases near their zeros
        spy = _SpyFormat()
        monkeypatch.setattr(output, "_FORMAT", spy)
        cp = run_main(capsys, "preset", "fig4b", "--out", str(tmp_path / "fig4b.csv"))
        assert cp.returncode == 0, cp.stderr
        assert spy.formatted == []
        pins = json.loads(HASHES_PATH.read_text())
        if environment_fingerprint() == pins["fingerprint"]:  # the bytes follow the SIMD level
            for name in ("fig4b_r0.csv", "fig4b_r1.csv"):
                assert sha256(tmp_path / name) == pins["sha256"][name]

    def test_non_finite_and_extreme_values_raise_no_warning(self):
        col = np.array([math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308, math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = _format_block([col, col[::-1]])
        assert text == csv_oracle.format_block([col, col[::-1]])
        assert text.startswith(b",\ninf,-1.0000000000000000e+308\n-inf,1.0000000000000000e+308\n"
                               b"4.9406564584124654e-324,")

    # where the preset sha256 pins do not reach: scientific-notation
    # deviations and empty fields, and the largest closed-form curve
    @pytest.mark.parametrize("argv", [
        ("--engine", "both", "--motion", "neglected", "--emit-unwrapped"),
        ("--engine", "analytic", "--alpha", "40", "--steps", "400"),
    ], ids=["both-neglected-unwrapped", "analytic-alpha40"])
    def test_written_files_match_the_per_value_writer(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        written = {}
        for tag in ("block", "per_value"):
            if tag == "per_value":
                monkeypatch.setattr(output, "_format_block", csv_oracle.format_block)
            out = tmp_path / tag / "run.csv"
            cp = run_main(capsys, "run", *QUICK, *argv, "--out", str(out))
            assert cp.returncode == 0, cp.stderr
            written[tag] = {p.name: p.read_bytes() for p in sorted(out.parent.glob("*.csv"))}
        assert written["block"] == written["per_value"]
        if "both" in argv:
            assert b"e-1" in written["block"]["run.compare.csv"]
            assert b",,,," in written["block"]["run.analytic.csv"]
