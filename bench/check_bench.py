"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q bench/check_bench.py

They run every workload at the tiny size (about half a minute on 2 cores),
check metric names and units against BENCHMARK.json, and feed the output
checks perturbed files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import evaluator  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def write_csv(path: Path, cols: dict[str, np.ndarray]) -> None:
    names = list(cols)
    lines = [",".join(names)]
    for i in range(len(cols[names[0]])):
        lines.append(",".join("" if math.isnan(cols[n][i]) else repr(float(cols[n][i]))
                              for n in names))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def tiny_results():
    """Every workload, untraced and traced, at the tiny size."""
    return {(w, t): run.run_workload(w, seed=7, seconds=0.1, trace=t, size="tiny")
            for w in workloads.WORKLOADS for t in (False, True)}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["detuned_fig4b", "analytic_sweep"]
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]


def test_every_run_reports_every_metric_with_its_unit(tiny_results):
    for (workload, trace), result in tiny_results.items():
        assert result["correct"], (workload, trace, result["curves"])
        assert result["failed"] == 0 and result["attempted"] >= 2
        expected = run.PER_LAYER if trace else run.END_TO_END
        assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(expected)
        line = json.loads(run.contract_line([result]))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_maps_work_to_the_layers_that_do_it(tiny_results):
    fig4b = tiny_results[("detuned_fig4b", True)]["metrics"]
    sweep = tiny_results[("analytic_sweep", True)]["metrics"]
    assert fig4b["evolver.substeps"]["value"] == 2 * 199 * 13  # 13 substeps per interval
    assert fig4b["evolver.evolve_s"]["value"] > 0 and fig4b["resonant.ladder_terms"]["value"] == 0
    assert sweep["evolver.evolve_s"]["value"] == 0 and sweep["resonant.ladder_terms"]["value"] > 0
    compare = tiny_results[("resonant_compare", True)]["metrics"]
    assert compare["resonant.overlap_series_s"]["value"] > 0
    assert compare["evolver.evolve_s"]["value"] > 0


def test_same_seed_repetitions_write_identical_bytes(tiny_results):
    for result in tiny_results.values():
        by_key: dict[str, list] = {}
        for rep in result["hashes"]:
            by_key.setdefault(rep["key"], []).append(rep["hashes"])
        assert any(len(v) > 1 for v in by_key.values())
        for reps in by_key.values():
            assert all(h == reps[0] for h in reps)


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.plan(w, 3) == workloads.plan(w, 3)
    assert workloads.plan("analytic_sweep", 3) != workloads.plan("analytic_sweep", 4)
    alphas = [c["params"]["alpha"] for c in workloads.plan("analytic_sweep", 3)["reps"][0]["calls"]]
    assert min(alphas) >= 1.0 and max(alphas) <= 40.0 and max(alphas) > 38.0


def write_fig4b_reference_csvs(out_dir: Path) -> None:
    meta = json.loads((checks.REFERENCE_DIR / "fig4b_reference.json").read_text(encoding="utf-8"))
    ref = np.load(checks.REFERENCE_DIR / "fig4b_reference.npz")
    for label in ("r0", "r1"):
        cols = {"tau": np.linspace(0.0, 25.0, 2000)}
        cols.update({c: ref[f"{label}_{c}"].copy() for c in meta["columns"]})
        cols["norm_error"] = np.full(2000, 1e-15)
        write_csv(out_dir / f"fig4b_{label}.csv", cols)


FIG4B_CALL = {"kind": "preset", "name": "fig4b", "tau_max": 25.0, "steps": 2000}


def test_fig4b_check_passes_the_reference_and_fails_a_perturbed_copy(tmp_path):
    write_fig4b_reference_csvs(tmp_path)
    records = checks.check_fig4b(FIG4B_CALL, tmp_path)
    assert all(r["ok"] and r["max_abs_dev"] == 0.0 for r in records)

    cols = checks.read_csv(tmp_path / "fig4b_r1.csv")
    cols["rho22"][1500] += 2e-6
    write_csv(tmp_path / "fig4b_r1.csv", cols)
    verdict = {r["curve"]: r["ok"] for r in checks.check_fig4b(FIG4B_CALL, tmp_path)}
    assert verdict == {"fig4b_r0": True, "fig4b_r1": False}


def test_fig4b_check_fails_a_truncated_file_or_a_moved_grid(tmp_path):
    write_fig4b_reference_csvs(tmp_path)
    cols = checks.read_csv(tmp_path / "fig4b_r0.csv")
    write_csv(tmp_path / "fig4b_r0.csv", {n: c[:1000] for n, c in cols.items()})
    cols = checks.read_csv(tmp_path / "fig4b_r1.csv")
    cols["tau"] = np.linspace(0.0, 25.0 * 1.001, 2000)
    write_csv(tmp_path / "fig4b_r1.csv", cols)
    records = {r["curve"]: r for r in checks.check_fig4b(FIG4B_CALL, tmp_path)}
    assert not records["fig4b_r0"]["ok"] and "1000 rows" in records["fig4b_r0"]["error"]
    assert not records["fig4b_r1"]["ok"] and "tau" in records["fig4b_r1"]["error"]


def test_gate_multiple_is_the_one_the_reference_was_made_with():
    meta = json.loads((checks.REFERENCE_DIR / "fig4b_reference.json").read_text(encoding="utf-8"))
    assert meta["gate_multiple"] == workloads.GATE_MULTIPLE


def test_compare_check_fails_beyond_the_gate_and_on_an_inconsistent_compare_file(tmp_path):
    n = 50
    tau = np.linspace(0.0, 1.0, n)
    numeric = {"tau": tau, "x": np.cos(tau), "y": np.sin(tau), "norm_error": np.zeros(n)}
    analytic = {"tau": tau, "x": np.cos(tau) + 1e-7, "y": np.sin(tau), "norm_error": np.full(n, math.nan)}
    call = {"name": "rc", "gate": 1e-6, "params": {"tau_max": 1.0, "steps": n}}

    def write(compare_dx):
        write_csv(tmp_path / "rc.numeric.csv", numeric)
        write_csv(tmp_path / "rc.analytic.csv", analytic)
        write_csv(tmp_path / "rc.compare.csv", {"tau": tau, "dev_x": compare_dx,
                                                "dev_y": numeric["y"] - analytic["y"]})
        return checks.check_closed_form_compare(call, tmp_path)[0]

    assert write(numeric["x"] - analytic["x"])["ok"]
    assert not write(np.zeros(n))["ok"]
    numeric["x"] = numeric["x"] + 2e-6
    assert not write(numeric["x"] - analytic["x"])["ok"]


def test_evaluator_reproduces_the_library_closed_form_without_the_vacuum_rung(tmp_path):
    from cascade_qed.cli import ScenarioConfig, run_scenario

    # alpha = 1 makes the omitted term sin^2(theta) c_0^2 cos(A) about 0.37
    params = dict(alpha=1.0, delta=0.0, theta=1.2, r=0.0, p=1, motion="moving",
                  tau_max=6.0, steps=200, engine="analytic")
    run_scenario(ScenarioConfig(**params, out=str(tmp_path / "c.csv")))
    call = {"name": "c", "params": params, "rows": [5, 50, 120, 199], "gate": workloads.SWEEP_GATE}
    record = checks.check_evaluator(call, tmp_path)[0]
    assert record["ok"] and record["max_abs_dev"] < workloads.SWEEP_SEED_DEV

    cols = checks.read_csv(tmp_path / "c.csv")
    c0 = evaluator.photon_weights(1.0, 0.0)[0]
    area = evaluator.pulse_area(float(cols["tau"][50]), 1, True)
    assert abs(math.sin(1.2) ** 2 * c0 * c0 * math.cos(area)) > 0.05
    cols["y"][120] += 10 * workloads.SWEEP_GATE
    write_csv(tmp_path / "c.csv", cols)
    assert not checks.check_evaluator(call, tmp_path)[0]["ok"]

    cols["y"][120] -= 10 * workloads.SWEEP_GATE
    write_csv(tmp_path / "c.csv", {n: c[:150] for n, c in cols.items()})
    record = checks.check_evaluator(call, tmp_path)[0]
    assert not record["ok"] and "150 rows" in record["error"]


def test_a_curve_that_raises_counts_as_failed_without_stopping_the_run(monkeypatch):
    bad = dict(alpha=-1.0, delta=0.0, theta=0.5, r=0.0, p=1, motion="moving",
               tau_max=1.0, steps=20, engine="analytic")
    good = dict(bad, alpha=2.0)
    calls = [{"kind": "scenario", "name": n, "params": p, "check": "evaluator",
              "rows": [3], "gate": workloads.SWEEP_GATE} for n, p in (("bad", bad), ("good", good))]
    plan = {"reps": [{"key": "k", "calls": calls, "probe": good}], "min_reps": 2}
    monkeypatch.setattr(workloads, "plan", lambda *args: plan)
    result = run.run_workload("analytic_sweep", 1, 0.1, False, "tiny")
    verdict = [(c["curve"], c["ok"]) for c in result["curves"]]
    assert verdict == [("bad", False), ("good", True)] * 2
    assert not result["correct"] and result["failed"] == 2 and result["attempted"] == 4


def test_changed_bytes_between_same_seed_repetitions_count_as_failed():
    spec = {"key": "k", "calls": [{"kind": "scenario", "name": "a"}]}
    curve = {"curve": "a", "ok": True, "max_abs_dev": 1e-9}

    def rep(digest, curves):
        return {"hashes": {"a": {"a.csv": digest}}, "curves": curves, "errors": {}}

    same = run.score_reps([(spec, rep("0f", [curve])), (spec, rep("0f", []))])
    changed = run.score_reps([(spec, rep("0f", [curve])), (spec, rep("1e", []))])
    assert [c["ok"] for c in same] == [True, True]
    assert [c["ok"] for c in changed] == [True, False]


def test_a_missing_wrapped_name_stops_the_trace():
    cli = types.SimpleNamespace(__name__="cascade_qed.cli", **{
        n: (lambda: None) for n in spans.WRAPPED["cli"] if n != "evolve"})
    phases = types.SimpleNamespace(__name__="cascade_qed.phases", overlap_series=lambda: None)
    with pytest.raises(spans.TraceError, match="evolve"):
        spans.install({"cli": cli, "phases": phases})


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans[:] = [["run_scenario", 0.0, 10.0, -1], ["evolve", 1.0, 7.0, 0],
                       ["write_series_csv", 8.0, 9.0, 0]]
    times = tracer.times()
    assert times["run_scenario"] == (10.0, 3.0)
    assert times["evolve"] == (6.0, 6.0)


def test_without_the_library_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "detuned_fig4b",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
