"""One benchmark repetition in a fresh interpreter.

Takes its repetition spec as a JSON argument, imports ``cascade_qed`` from the
checkout's ``src/``, builds the inputs and prints ``ready``: the runner's
set-up time ends there.  It then times the repetition's calls, checks the
CSV files they wrote and prints one JSON result line.  A call that raises
marks its curves failed; the repetition goes on.  Library output that goes
to stdout is sent to stderr so that stdout carries only the protocol.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_library():
    """Import the package from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import cascade_qed
    from cascade_qed import cli, phases

    if Path(cascade_qed.__file__).resolve().parent != SRC / "cascade_qed":
        raise ImportError(f"cascade_qed resolved to {cascade_qed.__file__}, not {SRC}")
    return cascade_qed, cli, phases


def build_call(call: dict, cli, out_dir: Path):
    """A no-argument callable running ``call``; names are looked up when it runs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if call["kind"] == "preset" and call["via_cli"]:
        argv = ["preset", call["name"], "--out", str(out_dir / f"{call['name']}.csv")]

        def run_preset():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cascade-qed {' '.join(argv)} exited with {code}")

        return run_preset
    if call["kind"] == "preset":
        # the tiny size: the preset's curves on the first nodes of its grid
        scenarios = [
            cli.ScenarioConfig(**dict(params, tau_max=call["tau_max"], steps=call["steps"]),
                               engine="numeric", preset=call["name"], curve=label,
                               out=str(out_dir / f"{call['name']}_{label}.csv"))
            for label, params in cli.list_presets()[call["name"]]
        ]
        return lambda: [cli.run_scenario(s) for s in scenarios]
    scenario = cli.ScenarioConfig(**call["params"], out=str(out_dir / f"{call['name']}.csv"))
    return lambda: cli.run_scenario(scenario)


def file_hashes(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def coupling_expectation_us(lib, cli, probe: dict, batches: int = 7, calls: int = 500) -> float:
    """Median microseconds per ``coupling_expectation`` on the workload's state."""
    if "preset" in probe:
        probe = dict(cli.list_presets()[probe["preset"]][0][1], engine="numeric")
    config = cli.ScenarioConfig(**probe).system_config()
    state = lib.initial_state(config, lib.superposed_distribution(config.field))
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            lib.coupling_expectation(state)
        per_call.append((time.perf_counter() - t0) / calls)
    return statistics.median(per_call) * 1e6


def layer_metrics(tracer, lib, cli, probe: dict) -> dict[str, float]:
    times = tracer.times()
    total = {name: t[0] for name, t in times.items()}
    own = {name: t[1] for name, t in times.items()}
    counts = tracer.counts
    evolve_s = total.get("evolve", 0.0)
    return {
        "evolver.evolve_s": evolve_s,
        "evolver.us_per_substep": evolve_s / counts["substeps"] * 1e6 if counts["substeps"] else 0.0,
        "evolver.substeps": counts["substeps"],
        "evolver.states_bytes": counts["states_bytes"],
        "resonant.overlap_series_s": total.get("overlap_series", 0.0),
        "resonant.ladder_terms": counts["ladder_terms"],
        "cli.write_series_csv_s": total.get("write_series_csv", 0.0),
        "cli.csv_bytes": counts["csv_bytes"],
        "field_states.superposed_distribution_s": total.get("superposed_distribution", 0.0),
        "field_states.n_max": counts["n_max"],
        "system.initial_state_s": total.get("initial_state", 0.0),
        "system.coupling_expectation_us": coupling_expectation_us(lib, cli, probe),
        "phases.series_from_trajectory_s": own.get("series_from_trajectory", 0.0),
        "phases.series_from_closed_form_s": own.get("series_from_closed_form", 0.0),
        "cli.run_scenario_self_s": own.get("run_scenario", 0.0),
        "trace.overhead_s": len(tracer.spans) * spans.overhead_per_span(),
    }


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
        "simd_active": [f for f, on in umath.__cpu_features__.items() if on],
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in workloads.THREAD_VARS},
    }


def main() -> int:
    payload = json.loads(sys.argv[1])
    protocol = sys.stdout
    sys.stdout = sys.stderr
    lib, cli, phases = import_library()
    tracer = spans.install({"cli": cli, "phases": phases}) if payload["trace"] else None
    rep = payload["rep"]
    out_root = Path(payload["out_dir"])
    calls = [(call, out_root / call["name"], build_call(call, cli, out_root / call["name"]))
             for call in rep["calls"]]
    protocol.write("ready\n")
    protocol.flush()
    if payload["setup_only"]:
        return 0

    errors: dict[str, str] = {}
    t0 = time.perf_counter()
    for call, _out, run in calls:
        try:
            run()
        except Exception:  # a failing curve is a result, not a crash
            errors[call["name"]] = traceback.format_exc(limit=3)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    curves, hashes = [], {}
    for call, out, _run in calls:
        hashes[call["name"]] = file_hashes(out)
        if call["name"] in errors:
            curves += [checks.curve(name, float("inf"), 0.0, error=errors[call["name"]])
                       for name in workloads.curve_names(call)]
        elif payload["check"]:
            try:
                curves += checks.CHECKS[call["check"]](call, out)
            except Exception:  # unreadable or missing output
                curves += [checks.curve(name, float("inf"), 0.0, error=traceback.format_exc(limit=3))
                           for name in workloads.curve_names(call)]
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "curves": curves,
              "hashes": hashes, "errors": errors, "fingerprint": fingerprint()}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, lib, cli, rep["probe"])
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
