"""The library surface the benchmark under ``bench/`` calls into.

``bench/spans.py`` wraps library names by attribute and counts work from
the arguments and results of the calls it wraps, ``bench/child.py`` times
``coupling_expectation`` on an initial state, and
``bench/reference/make_reference.py`` evolves one curve at a time.  These
tests run that benchmark code, read as it is, on the real calls, so that a
renamed function or a changed result shape fails here and not in a
benchmark run.
"""

import math
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cascade_qed
from cascade_qed import (
    FieldSpec,
    SystemConfig,
    cli,
    evolve,
    initial_state,
    phases,
    superposed_distribution,
)
from cascade_qed.cli import ScenarioConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
_saved_path = list(sys.path)
sys.path.append(str(BENCH))
sys.path.append(str(BENCH / "reference"))
import child  # noqa: E402
import make_reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path[:] = _saved_path  # make_reference puts bench/ and src/ first on import

SMALL = dict(alpha=1.5, theta=0.6, tau_max=2.0, steps=21, dt=0.01, engine="numeric")


def count(name, args, result):
    """The counts ``spans`` records for one call of ``name``."""
    counts = defaultdict(float)
    spans.COUNTERS[name](counts, args, {}, result)
    return counts


def test_wrapped_names_exist():
    modules = {"cli": cli, "phases": phases}
    for key, names in spans.WRAPPED.items():
        for name in names:
            assert callable(getattr(modules[key], name, None)), f"{key}.{name}"
    # the tracer installs on copies of the two module namespaces
    copies = {key: SimpleNamespace(**vars(module)) for key, module in modules.items()}
    spans.install(copies)
    assert set(spans.COUNTERS) <= {n for names in spans.WRAPPED.values() for n in names}


# child.py builds every call's scenarios before it reports ready, and a
# ScenarioConfig refuses, as it is built, a run over a ceiling it can decide
@pytest.mark.parametrize("size", workloads.SIZES)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_planned_call_builds(tmp_path: Path, workload, size):
    for seed in range(1, 11):
        for rep in workloads.plan(workload, seed, size)["reps"]:
            for call in rep["calls"]:
                assert callable(child.build_call(call, cli, tmp_path / call["name"]))


def test_run_scenario_counter_single(tmp_path: Path):
    scenario = ScenarioConfig(**SMALL, out=str(tmp_path / "one.csv"))
    result = cli.run_scenario(scenario)
    substeps = result.metadata["integrator"]["substeps_total"]
    assert substeps == 200
    assert count("run_scenario", (scenario,), result)["substeps"] == substeps


def test_run_scenario_counter_batch(tmp_path: Path):
    scenarios = [
        ScenarioConfig(**SMALL, r=r, curve=f"r{r:g}", out=str(tmp_path / f"r{r:g}.csv"))
        for r in (0.0, 1.0)
    ]
    result = cli.run_scenario(scenarios)
    per_curve = [c["integrator"]["substeps_total"] for c in result.metadata["curves"]]
    assert per_curve == [200, 200]
    assert count("run_scenario", (scenarios,), result)["substeps"] == 400


@pytest.mark.parametrize("keep_states", [False, True])
def test_evolve_counter_on_a_list(keep_states):
    config = ScenarioConfig(**SMALL).system_config()
    dist = superposed_distribution(config.field)
    states = [initial_state(config, dist), initial_state(config, dist)]
    result = evolve(states, config, keep_states=keep_states)
    width = states[0].n_ph + 1
    n_out = config.n_steps if keep_states else 0
    assert result.states.shape == (2, n_out, 3, width)
    assert count("evolve", (states, config), result)["states_bytes"] == 2 * n_out * 3 * width * 16


def test_overlap_series_counter():
    config = SystemConfig(field=FieldSpec(alpha=2.0), theta=0.6)
    dist = superposed_distribution(config.field)
    taus = config.taus()
    result = phases.overlap_series(taus, config, dist)
    counts = count("overlap_series", (taus, config, dist), result)
    assert counts["ladder_terms"] == (dist.n_max + 1) * config.n_steps


def test_write_series_csv_counter(tmp_path: Path):
    config = SystemConfig(field=FieldSpec(alpha=2.0), theta=0.6, n_steps=11)
    series = cascade_qed.series_from_closed_form(config, superposed_distribution(config.field))
    path = tmp_path / "s.csv"
    result = cli.write_series_csv(path, series)
    assert count("write_series_csv", (path, series), result)["csv_bytes"] == path.stat().st_size > 0


def test_superposed_distribution_counter():
    spec = FieldSpec(alpha=5.0, r=1.0)
    result = cli.superposed_distribution(spec)
    assert count("superposed_distribution", (spec,), result)["n_max"] == result.n_max > 0


def test_coupling_expectation_probe():
    # child.py times coupling_expectation on the fig4b preset's first state
    assert child.coupling_expectation_us(cascade_qed, cli, {"preset": "fig4b"}, 1, 2) > 0.0
    config = ScenarioConfig(alpha=5.0, theta=math.pi / 4).system_config()
    value = cascade_qed.coupling_expectation(
        initial_state(config, superposed_distribution(config.field))
    )
    assert type(value) is float
    assert value == pytest.approx(-5.0, abs=1e-9)


def test_make_reference_columns_at_detuned_config():
    config = SystemConfig(field=FieldSpec(alpha=2.0), delta=5.0, theta=math.pi / 4,
                          tau_max=2.0, n_steps=21)
    columns = make_reference.columns_at(config, None)
    assert tuple(columns) == make_reference.COLUMNS
    for name, column in columns.items():
        assert column.shape == (21,), name
        assert np.all(np.isfinite(column)), name
    assert columns["x"][0] == pytest.approx(1.0, abs=1e-12)
    finer = make_reference.columns_at(config, 1e-3)
    assert make_reference.max_dev(columns, finer)["x"] < 1e-6
