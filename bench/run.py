"""cascade-qed benchmark: wall time, set-up, memory and accuracy per workload.

    python3 bench/run.py --workload detuned_fig4b --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --size tiny     # every workload, both modes

A single runner process starts one repetition at a time, each in a fresh
interpreter (``child.py``) with the BLAS/OpenMP thread variables pinned to
1, until ``--seconds`` are spent.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the children wrap the library's layer
boundaries in spans and it prints the per-layer metrics.  Each run writes a
detailed result (curves, gates, CSV sha256 per repetition, environment) to
``.bench_work/results/`` and prints a table; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 2 means the benchmark could not run (no ``src/cascade_qed``, or a
child failed before its inputs were built); no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("evolver.evolve_s", "s"),
    ("evolver.us_per_substep", "us"),
    ("evolver.substeps", "count"),
    ("evolver.states_bytes", "bytes"),
    ("resonant.overlap_series_s", "s"),
    ("resonant.ladder_terms", "count"),
    ("cli.write_series_csv_s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("field_states.superposed_distribution_s", "s"),
    ("field_states.n_max", "count"),
    ("system.initial_state_s", "s"),
    ("system.coupling_expectation_us", "us"),
    ("phases.series_from_trajectory_s", "s"),
    ("phases.series_from_closed_form_s", "s"),
    ("cli.run_scenario_self_s", "s"),
    ("trace.overhead_s", "s"),
)
SETUP_SAMPLES = {"full": 11, "tiny": 3}  # per untraced run; setup_s is their median
MAX_REPS = 64
RUN_DEADLINE_S = 165.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot produce a result at all."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in workloads.THREAD_VARS})
    return env


def run_child(payload: dict, rep_dir: Path, timeout: float) -> tuple[float, float, dict | None]:
    """Start one child; return (set-up seconds, total seconds, result or None).

    Set-up is the time from process start until the child reports that the
    library is imported and its inputs are built.  A child that fails before
    that point raises BenchError; one that fails later returns no result.
    """
    rep_dir.mkdir(parents=True, exist_ok=True)
    payload = dict(payload, out_dir=str(rep_dir / "out"))
    timeout = max(timeout, 1.0)
    with open(rep_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(payload)],
                                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=child_env())
        try:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            line = proc.stdout.readline() if ready else b""
            setup_s = time.perf_counter() - t0
            if line.strip() != b"ready":
                proc.kill()
                proc.wait()
                tail = (rep_dir / "stderr.txt").read_text(errors="replace")[-2000:]
                raise BenchError(f"benchmark child failed during set-up:\n{tail}")
            try:
                out, _ = proc.communicate(timeout=max(1.0, timeout - setup_s))
            except subprocess.TimeoutExpired:
                return setup_s, time.perf_counter() - t0, None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    total_s = time.perf_counter() - t0
    if payload["setup_only"]:
        return setup_s, total_s, None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return setup_s, total_s, None
    return setup_s, total_s, json.loads(lines[-1])


def score_reps(reps: list[tuple[dict, dict | None]]) -> list[dict]:
    """Curve records of every repetition, with the determinism check applied.

    Only the first repetition of each input key runs the output checks; a
    later one inherits its verdicts when its CSV bytes are identical, and its
    curves fail when they are not (or when it raised or died).
    """
    first: dict[str, dict] = {}
    records = []
    for spec, result in reps:
        key = spec["key"]
        for call in spec["calls"]:
            names = workloads.curve_names(call)
            if result is None:
                records += [{"curve": n, "ok": False, "error": "child died or timed out"}
                            for n in names]
                continue
            own = {c["curve"]: c for c in result["curves"] if c["curve"] in names}
            if key not in first or call["name"] in result["errors"]:
                records += [own[n] for n in names]
                continue
            base = first[key]
            same = result["hashes"][call["name"]] == base["hashes"][call["name"]]
            for n in names:
                rec = dict(next(c for c in base["curves"] if c["curve"] == n))
                if not same:
                    rec.update(ok=False, error="CSV bytes differ from an earlier same-seed run")
                records.append(rec)
        if result is not None and key not in first:
            first[key] = result
    return records


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    plan = workloads.plan(workload, seed, size)
    specs = plan["reps"]
    work = WORK_DIR / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setup_target = 0 if trace else SETUP_SAMPLES[size]
    reps, setups, totals = [], [], []
    checked: set[str] = set()  # keys whose outputs have been checked
    start = time.perf_counter()

    def sample_setup(spec: dict) -> None:
        payload = {"rep": spec, "trace": False, "setup_only": True, "check": False}
        setups.append(run_child(payload, work / "setup", deadline - time.perf_counter())[0])

    try:
        while True:
            i = len(reps)
            spec = specs[i % len(specs)]
            payload = {"rep": spec, "trace": trace, "setup_only": False,
                       "check": spec["key"] not in checked}
            setup_s, total_s, result = run_child(payload, work / f"rep{i}",
                                                 deadline - time.perf_counter())
            shutil.rmtree(work / f"rep{i}", ignore_errors=True)
            reps.append((spec, result))
            if result is not None:
                checked.add(spec["key"])
            setups.append(setup_s)
            totals.append(total_s)
            # set-up-only children between repetitions spread the set-up
            # samples over the whole run, as the load of the host varies
            elapsed = time.perf_counter() - start
            while len(setups) < setup_target * min(1.0, elapsed / seconds):
                sample_setup(spec)
                elapsed = time.perf_counter() - start
            reserve = max(0, setup_target - len(setups)) * statistics.median(setups)
            if (result is None or len(reps) >= MAX_REPS
                    or (len(reps) >= plan["min_reps"]
                        and elapsed + statistics.median(totals) + reserve > seconds)):
                break
        while len(setups) < setup_target and time.perf_counter() < deadline:
            sample_setup(specs[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = score_reps(reps)
    done = [r for _, r in reps if r is not None]
    devs = [c["max_abs_dev"] for c in records if c.get("max_abs_dev", float("inf")) < float("inf")]
    norms = [c["max_norm_error"] for c in records if c.get("max_norm_error") is not None
             and c["max_norm_error"] < float("inf")]
    failed = sum(not c["ok"] for c in records)
    summary = {
        "setup_s": statistics.median(setups),
        # the mean over the run averages the host's varying load (README.md)
        "wall_s": statistics.fmean(r["wall_s"] for r in done) if done else 0.0,
        # identical repetitions peak up to 24 MB apart, by where the allocator
        # places large arrays; the smallest peak is the one the inputs need
        "peak_rss_mb": min(r["peak_rss_mb"] for r in done) if done else 0.0,
        "max_abs_dev": max(devs, default=0.0),
        "max_norm_error": max(norms) if norms else None,
        "failed_ratio": failed / len(records),
    }
    metrics = {}
    if trace:
        for name, unit in PER_LAYER:
            values = [r["layers"][name] for r in done]
            metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "seconds": seconds, "repetitions": len(reps),
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": metrics, "summary": summary, "setup_samples": setups,
        "wall_samples": [r["wall_s"] for r in done],
        "peak_rss_samples": [r["peak_rss_mb"] for r in done],
        "curves": records,
        "hashes": [{"key": spec["key"], "hashes": r["hashes"] if r else None}
                   for spec, r in reps],
        "layers": [r.get("layers") for r in done] if trace else None,
        "fingerprint": done[0]["fingerprint"] if done else None,
    }


def print_table(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"{result['workload']} seed={result['seed']} size={result['size']} {mode}: "
          f"{result['repetitions']} repetitions, {result['attempted']} curves, "
          f"{result['failed']} failed")
    s = result["summary"]
    if not result["trace"]:
        extra = {"max_abs_dev": (s["max_abs_dev"], "1"),
                 "max_norm_error": (s["max_norm_error"], "1"),
                 "failed_ratio": (s["failed_ratio"], "1")}
        for name, (value, unit) in extra.items():
            text = "n/a (no numeric curve)" if value is None else f"{value:.6g} {unit}"
            print(f"  {name:42s} {text}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for c in result["curves"]:
        if not c["ok"]:
            print(f"  FAILED {c['curve']}: {c['error']}")


def save(result: dict) -> Path:
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{result['workload']}-seed{result['seed']}-{result['size']}"
                      f"-trace{int(result['trace'])}.json")
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def contract_line(results: list[dict]) -> str:
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in results for name, m in r["metrics"].items()}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }, allow_nan=False)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measuring time per run (at least the minimum repetitions run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: 200-point grids and fewer curves, for a quick check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cascade_qed" / "__init__.py").is_file():
        print(f"error: no src/cascade_qed under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = []
    try:
        for workload, trace in runs:
            result = run_workload(workload, args.seed, args.seconds, trace, args.size)
            print_table(result)
            print(f"  result: {save(result).relative_to(ROOT)}")
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(contract_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
