"""Timing spans around the library names that ``cascade_qed.cli`` and
``cascade_qed.phases`` look up at call time.

Only the traced child installs them.  Each span records its name, start,
end and parent; a layer's self time is its spans' time minus the time of
their direct children.  Counts are taken at the same boundaries, from the
arguments and return values.  ``coupling_expectation`` is deliberately not
wrapped: it runs once per substep inside ``evolve``, and a wrapper would
distort the time it measures.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

WRAPPED = {
    "cli": ("run_scenario", "superposed_distribution", "initial_state", "evolve",
            "series_from_trajectory", "series_from_closed_form", "write_series_csv"),
    "phases": ("overlap_series",),
}


class TraceError(RuntimeError):
    """A name the tracer must wrap is missing from the library."""


def _count_run_scenario(counts, args, kwargs, result):
    counts["substeps"] += result.metadata["integrator"]["substeps_total"]


def _count_evolve(counts, args, kwargs, result):
    counts["states_bytes"] += result.states.nbytes


def _count_overlap_series(counts, args, kwargs, result):
    taus, _config, dist = args[:3]
    counts["ladder_terms"] += (dist.n_max + 1) * np.atleast_1d(taus).size


def _count_write_series_csv(counts, args, kwargs, result):
    counts["csv_bytes"] += os.path.getsize(args[0])


def _count_distribution(counts, args, kwargs, result):
    counts["n_max"] = max(counts["n_max"], result.n_max)


COUNTERS = {
    "run_scenario": _count_run_scenario,
    "evolve": _count_evolve,
    "overlap_series": _count_overlap_series,
    "write_series_csv": _count_write_series_csv,
    "superposed_distribution": _count_distribution,
}


class Tracer:
    """In-memory span recorder; spans are read once the repetition ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, module, name: str) -> None:
        """Replace ``module.name`` by a span-recording wrapper."""
        fn = getattr(module, name, None)
        if fn is None:
            raise TraceError(f"{module.__name__}.{name} is missing; the trace mapping "
                             "in bench/spans.py must follow the library")
        setattr(module, name, self.traced(name, fn, COUNTERS.get(name)))

    def traced(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def times(self) -> dict[str, tuple[float, float]]:
        """Per name: (total span time, self time)."""
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        return {name: (total[name], total[name] - child[name]) for name in total}


def install(modules: dict) -> Tracer:
    """Wrap every name in WRAPPED; ``modules`` maps "cli"/"phases" to modules."""
    tracer = Tracer()
    for key, names in WRAPPED.items():
        for name in names:
            tracer.wrap(modules[key], name)
    return tracer


def overhead_per_span(repeats: int = 20000) -> float:
    """Seconds one span adds to a call, from wrapped vs bare no-op calls."""
    def noop():
        return None

    wrapped = Tracer().traced("noop", noop)
    elapsed = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        elapsed.append(time.perf_counter() - t0)
    return max(0.0, (elapsed[1] - elapsed[0]) / repeats)
