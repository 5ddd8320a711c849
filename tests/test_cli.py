"""Command-line interface: subcommands, CSV schema, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cascade_qed
from cascade_qed import cli, evolve, initial_state, superposed_distribution
from cascade_qed.cli import (
    ConfigError, ScenarioConfig, _format_column, environment_fingerprint, list_presets,
    main, run_scenario,
)
from propagators import observables_from_states

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
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, **(env_extra or {}))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)


def run_cli(*args, env_extra=None, cwd=None):
    return run_python("-m", "cascade_qed", *args, env_extra=env_extra, cwd=cwd)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    for sub in ("run", "preset", "compare", "list-presets"):
        assert sub in cp.stdout


def test_list_presets_frozen_parameters():
    cp = run_cli("list-presets")
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
    def test_numeric_run_schema(self, tmp_path: Path):
        out = tmp_path / "run.csv"
        cp = run_cli("run", *QUICK, "--engine", "numeric", "--out", str(out))
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
        assert set(meta["environment"]) == {"python", "numpy", "scipy", "machine", "libc", "simd"}

    def test_seventeen_digit_roundtrip(self, tmp_path: Path):
        out = tmp_path / "run.csv"
        run_cli("run", *QUICK, "--engine", "numeric", "--out", str(out))
        row = out.read_text().splitlines()[7].split(",")
        x = float(row[1])
        assert format(x, ".17g") == row[1]

    def test_analytic_run_empty_population_fields(self, tmp_path: Path):
        out = tmp_path / "ana.csv"
        cp = run_cli("run", *QUICK, "--engine", "analytic", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        row = out.read_text().splitlines()[3].split(",")
        assert row[7] == "" and row[8] == "" and row[9] == "" and row[10] == ""
        assert row[1] != ""
        meta = json.loads((tmp_path / "ana.csv.meta.json").read_text())
        assert meta["integrator"]["dt_internal"] is None  # no numeric route
        assert meta["truncation"]["max_top_rung_population"] is None

    def test_both_engine_writes_three_files(self, tmp_path: Path):
        out = tmp_path / "b.csv"
        cp = run_cli("run", *QUICK, "--engine", "both", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert (tmp_path / "b.numeric.csv").exists()
        assert (tmp_path / "b.analytic.csv").exists()
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

    def test_emit_unwrapped_appends_columns(self, tmp_path: Path):
        out = tmp_path / "u.csv"
        cp = run_cli("run", *QUICK, "--engine", "numeric", "--out", str(out),
                     "--emit-unwrapped")
        assert cp.returncode == 0, cp.stderr
        header = out.read_text().splitlines()[0]
        assert header == (
            EXPECTED_HEADER + ",phi_pancharatnam_unwrapped,phi_geometric_unwrapped"
        )

    def test_missing_out_is_config_error(self):
        cp = run_cli("run", *QUICK, "--engine", "numeric")
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

    def test_invalid_alpha_is_config_error(self, tmp_path: Path):
        cp = run_cli("run", "--alpha", "-3", "--out", str(tmp_path / "x.csv"))
        assert cp.returncode == 2

    def test_overflowing_r_is_config_error(self, tmp_path: Path):
        # (1 + r)^2 in the normalizer overflows a double
        cp = run_cli("run", "--r", "1e200", "--steps", "3", "--tau-max", "0.1",
                     "--out", str(tmp_path / "x.csv"))
        assert cp.returncode == 2
        assert cp.stderr.startswith("error: r=1e+200 is too large")
        assert "Traceback" not in cp.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kwargs, message", [
        (dict(alpha="5"), "alpha must be a number, got '5'"),
        (dict(steps=True), "steps must be an integer, got True"),
        (dict(motion="walking"), "motion must be one of ('moving', 'neglected')"),
        (dict(engine="both", delta=5.0), "engine=both requires delta=0"),
    ])
    def test_scenario_checked_when_built(self, kwargs, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig(**kwargs)

    def test_negative_r_parses(self, tmp_path: Path):
        out = tmp_path / "odd.csv"
        cp = run_cli("run", *QUICK, "--r", "-1", "--engine", "numeric",
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

    def test_tiny_step_is_config_error(self, tmp_path: Path):
        # the substep count, 1e300, overflows any integer
        cp = run_cli("run", "--alpha", "5", "--delta", "20", "--steps", "10",
                     "--tau-max", "1", "--dt", "1e-300", "--out", str(tmp_path / "x.csv"))
        assert cp.returncode == 2
        assert cp.stderr == (
            "error: run too large: 1e+300 substeps exceed the ceiling of 1e+07; "
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

    # QUICK takes 40 output points and 624 substeps (16 per interval)
    @pytest.mark.parametrize("ceiling, value, message", [
        ("_MAX_OUTPUT_POINTS", 39, "40 output points exceed the ceiling of 39"),
        ("_MAX_SUBSTEPS", 623, "624 substeps exceed the ceiling of 623"),
        ("_MAX_PHOTONS", QUICK_N_MAX - 1,
         f"a photon cutoff of {QUICK_N_MAX} exceeds the ceiling of {QUICK_N_MAX - 1}"),
    ])
    def test_run_over_ceiling_refused(self, tmp_path: Path, monkeypatch, capsys,
                                      ceiling, value, message):
        monkeypatch.setattr(cli, ceiling, value)
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
        monkeypatch.setattr(cli, ceiling, value)
        assert main(["run", *QUICK, "--out", str(tmp_path / "x.csv")]) == 0
        capsys.readouterr()


class TestConfigFile:
    def test_config_file_loaded(self, tmp_path: Path):
        cfg = dict(alpha=1.5, theta=0.6, tau_max=3.0, steps=25, dt=0.005,
                   engine="numeric", out=str(tmp_path / "cfg.csv"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        cp = run_cli("run", "--config", str(cfg_path))
        assert cp.returncode == 0, cp.stderr
        assert len((tmp_path / "cfg.csv").read_text().splitlines()) == 26

    def test_flags_override_config_file(self, tmp_path: Path):
        cfg = dict(alpha=1.5, theta=0.6, tau_max=3.0, steps=25, dt=0.005,
                   engine="numeric", out=str(tmp_path / "a.csv"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        override = tmp_path / "b.csv"
        cp = run_cli("run", "--config", str(cfg_path), "--steps", "12",
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
    def test_unknown_config_key_rejected(self, tmp_path: Path, command, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha": 1.5, key: value}))
        cp = run_cli(command, *QUICK, "--config", str(cfg_path), cwd=tmp_path)
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

    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
    def test_unreadable_config_file_rejected(self, tmp_path: Path, kind):
        cfg_path = tmp_path / "cfg.json"
        if kind == "directory":
            cfg_path.mkdir()
        elif kind == "undecodable":
            cfg_path.write_bytes(b"\xff{}")  # not UTF-8
        cp = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert cp.returncode == 2
        assert cp.stderr.startswith(f"error: cannot read config file {cfg_path}: ")
        assert "Traceback" not in cp.stderr
        assert not (tmp_path / "x.csv").exists()


class TestCompare:
    def test_within_tolerance(self):
        # large alpha: the omitted vacuum rung is ~e^-25 and both engines
        # agree to integrator accuracy
        cp = run_cli(
            "compare", "--alpha", "5.0", "--theta", "0.785398163",
            "--tau-max", "6.283185307", "--steps", "200", "--tolerance", "1e-6",
        )
        assert cp.returncode == 0, cp.stderr
        report = json.loads(cp.stdout)
        assert report["within_tolerance"] is True
        assert report["max_abs_dev"] < 1e-6

    def test_tolerance_breach_exits_3(self):
        cp = run_cli(
            "compare", "--alpha", "2.0", "--theta", "0.785398163",
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
    def test_write_flags_rejected(self, tmp_path: Path, flag):
        # compare writes nothing and always runs both engines
        cp = run_cli("compare", *QUICK, *flag, cwd=tmp_path)
        assert cp.returncode == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}" in cp.stderr
        assert cp.stdout == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_config_error(self, tolerance):
        cp = run_cli("compare", *QUICK, "--tolerance", tolerance)
        assert cp.returncode == 2
        assert cp.stderr.startswith("error: tolerance must be finite and >= 0")
        assert cp.stdout == ""

    def test_compare_writes_no_files(self, tmp_path: Path):
        cp = run_cli("compare", *QUICK, "--tolerance", "1", cwd=tmp_path)
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
        [sys.executable, "-m", "cascade_qed", *argv], stdout=write_end,
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
    # number of lane entries at a time, each run peaks near 4.5 MB
    @pytest.mark.parametrize("argv", [
        ["preset", "fig4b"],
        ["run", "--alpha", "40", "--delta", "-5", "--tau-max", "1", "--steps", "11"],
    ], ids=["fig4b", "alpha-40"])
    def test_fig4b_peak_memory(self, tmp_path: Path, capsys, argv):
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "run.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 10e6

    def test_top_rung_population_recorded(self, tmp_path: Path):
        # the top photon column starts empty, two rungs above the field's
        # n_max, and the coupling feeds it about 2e-14 here
        scenario = ScenarioConfig(alpha=1.5, delta=4.0, tau_max=3.0, steps=31,
                                  out=str(tmp_path / "t.csv"))
        recorded = run_scenario(scenario).metadata["truncation"]["max_top_rung_population"]
        config = scenario.system_config()
        state = initial_state(config, superposed_distribution(config.field))
        kept = evolve(state, config, keep_states=True)
        assert recorded == float(np.max(observables_from_states(kept.states)[2]))
        assert recorded > 0.0

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
        assert sorted(result.series) == ["coherent/numeric", "even/numeric", "odd/numeric"]


SCIPY_MODULES = "sorted(m for m in sys.modules if m.startswith('scipy'))"


@pytest.mark.parametrize("argv", [
    None,
    ["compare", *QUICK, "--tolerance", "1"],
    ["run", *QUICK, "--engine", "both", "--out", "b.csv"],
])
def test_import_loads_numpy_only(tmp_path: Path, argv):
    # importing the package, a comparison and a both-engine run load no scipy
    code = f"import sys, cascade_qed; print({SCIPY_MODULES})"
    if argv is not None:
        code = ("import sys; from cascade_qed.cli import main; "
                f"code = main({argv!r}); print({SCIPY_MODULES}); sys.exit(code)")
    cp = run_python("-c", code, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip().splitlines()[-1] == "[]"


class TestDeterminism:
    def test_small_run_matches_golden_file(self, tmp_path: Path):
        out = tmp_path / "small.csv"
        cp = run_cli(
            "run", "--alpha", "2", "--theta", "0.6", "--r", "1", "--p", "2",
            "--tau-max", "3.0", "--steps", "12", "--dt", "0.01",
            "--engine", "numeric", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        golden = Path(__file__).parent / "golden" / "run_small.csv"
        assert out.read_bytes() == golden.read_bytes()

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
        expected = ["" if math.isnan(v) else format(v + 0.0, ".17g") for v in col.tolist()]
        assert _format_column(col) == expected
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
