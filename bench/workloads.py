"""Workload inputs, made from the seed alone.

Each workload run is a sequence of repetitions; each repetition runs in a
fresh interpreter (``child.py``) and is a list of calls into the library.
Repetitions with the same ``key`` have identical inputs, so their CSV bytes
must agree.  This module imports nothing from the library: the runner plans
the inputs and the child only builds them.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("detuned_fig4b", "resonant_compare", "analytic_sweep")
SIZES = ("full", "tiny")
# pinned to 1 in every child, so a repetition uses one core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

FULL_STEPS = 2000
TINY_STEPS = 200
FIG4B_TAU_MAX = 25.0
RESONANT_TAU_MAX = 8.0 * math.pi

# resonant_compare: the seed draws one (theta, r) per theta stratum; a run
# cycles through them so that its largest deviation comes from the top
# stratum on every seed, and repeats the first draw to check determinism
COMPARE_DRAWS = {"full": 4, "tiny": 2}
# analytic_sweep: one curve per alpha stratum of [1, 40], so the run's cost
# varies little between seeds while every seed reaches n_max ~ 1,800
SWEEP_CURVES = {"full": 48, "tiny": 3}
SWEEP_ALPHA = (1.0, 40.0)
SWEEP_TAU_CHECKS = 5

# deviation gates: a curve fails beyond GATE_MULTIPLE times the deviation
# the seed code measured on it (README.md); fig4b's is in its reference
GATE_MULTIPLE = 2.0
RESONANT_BOUND = 1e-6  # criterion 1 of the acceptance suite
RESONANT_SEED_DEV = 2.40e-7  # numeric vs closed form, worst theta (pi/2)
RESONANT_GATE = min(RESONANT_BOUND, GATE_MULTIPLE * RESONANT_SEED_DEV)
# the worst closed-form vs evaluator deviation over every curve of seeds 1-60
SWEEP_SEED_DEV = 1.22e-12
SWEEP_GATE = GATE_MULTIPLE * SWEEP_SEED_DEV


def grid(tau_max: float, size: str) -> tuple[float, int]:
    """Output grid; the tiny grid keeps the first TINY_STEPS full-grid nodes."""
    if size == "full":
        return tau_max, FULL_STEPS
    return tau_max * (TINY_STEPS - 1) / (FULL_STEPS - 1), TINY_STEPS


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    width = (hi - lo) / count
    return [lo + (k + rng.random()) * width for k in range(count)]


def plan(workload: str, seed: int, size: str = "full") -> dict:
    """Repetition specs of one workload run.

    Returns ``{"reps": [...], "min_reps": n}``; a run executes reps in order,
    cycling, until its time is spent and at least ``min_reps`` have run.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "detuned_fig4b":
        # the full size runs the preset through the CLI, exactly as users do
        tau_max, steps = grid(FIG4B_TAU_MAX, size)
        call = {"kind": "preset", "name": "fig4b", "check": "fig4b_reference",
                "via_cli": size == "full", "tau_max": tau_max, "steps": steps}
        rep = {"key": "fig4b", "calls": [call], "probe": {"preset": "fig4b"}}
        return {"reps": [rep], "min_reps": 2}

    if workload == "resonant_compare":
        tau_max, steps = grid(RESONANT_TAU_MAX, size)
        draws = COMPARE_DRAWS[size]
        thetas = _strata(rng, 0.0, math.pi / 2.0, draws)
        rs = [(0.0, 1.0, -1.0)[k % 3] for k in range(draws)]
        rng.shuffle(rs)
        reps = []
        for k, (theta, r) in enumerate(zip(thetas, rs)):
            params = dict(alpha=5.0, delta=0.0, theta=theta, r=r, p=1,
                          motion="moving", tau_max=tau_max, steps=steps,
                          engine="both")
            call = {"kind": "scenario", "name": f"rc{k}", "params": params,
                    "check": "closed_form_compare",
                    "gate": RESONANT_GATE}
            reps.append({"key": f"draw{k}", "calls": [call], "probe": params})
        return {"reps": reps, "min_reps": draws + 1}

    tau_max, steps = grid(RESONANT_TAU_MAX, size)
    alphas = _strata(rng, *SWEEP_ALPHA, SWEEP_CURVES[size])
    # r and p cycle from seeded offsets: a cat state keeps half the ladder
    # terms, so an even mix keeps the run's cost and memory steady
    r_offset, p_offset = rng.randrange(3), rng.randrange(2)
    calls = []
    for k, alpha in enumerate(alphas):
        params = dict(alpha=alpha, delta=0.0, theta=rng.uniform(0.0, math.pi / 2.0),
                      r=(0.0, 1.0, -1.0)[(k + r_offset) % 3], p=(1, 2)[(k + p_offset) % 2],
                      motion="moving", tau_max=tau_max, steps=steps,
                      engine="analytic")
        rows = sorted(rng.sample(range(steps), SWEEP_TAU_CHECKS))
        calls.append({"kind": "scenario", "name": f"sweep{k:02d}", "params": params,
                      "check": "evaluator", "rows": rows, "gate": SWEEP_GATE})
    probe = max((c["params"] for c in calls), key=lambda p: p["alpha"])
    return {"reps": [{"key": "sweep", "calls": calls, "probe": probe}], "min_reps": 2}


def curve_names(call: dict) -> list[str]:
    """Curves a call produces, known before it runs (for calls that raise)."""
    if call["kind"] == "preset":
        return [f"{call['name']}_r0", f"{call['name']}_r1"]
    return [call["name"]]
