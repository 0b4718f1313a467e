"""Span tracing for traced benchmark runs (``--trace 1``).

Untraced runs import nothing from here: the workloads call the package's
public functions directly.  A traced run replaces chosen layer entry points,
in every ``star_spectra`` module namespace that binds them, by wrappers that
record a span (name, start, end, parent, process, phase) around each call.
Pool workers are forked from the tracing process, so they inherit the
wrappers; their spans travel back over a queue that a thread drains while
the run goes on.  All spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans from this process and from the pool workers it forks."""

    def __init__(self):
        self.pid = os.getpid()
        self.phase = "setup"
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._queue = multiprocessing.SimpleQueue()
        self._drain = threading.Thread(target=self._collect, daemon=True)
        self._drain.start()

    def _collect(self):
        while True:
            record = self._queue.get()
            if record is None:
                return
            self.spans.append(record)

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict takes extra tags such as counts."""
        span_id = f"{os.getpid()}:{self._next_id}"
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        tags = {}
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield tags
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "parent": parent,
                "pid": os.getpid(),
                "phase": self.phase,
                "start": start,
                "end": end,
                **tags,
            }
            if os.getpid() == self.pid:
                self.spans.append(record)
            else:
                self._queue.put(record)

    def close(self):
        """Stop the drain thread once every worker has delivered its spans."""
        self._queue.put(None)
        self._drain.join()
        self._queue.close()

    def instrument(self, module, attr: str, counter=None):
        """Wrap `module.attr` wherever a star_spectra module binds that object.

        The span is named ``<module>.<attr>`` after the module's last name
        component; `counter` maps the call's result to a ``count`` tag.
        """
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as tags:
                result = original(*args, **kwargs)
                if counter is not None:
                    tags["count"] = counter(result)
                return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "star_spectra" or mod_name.startswith("star_spectra."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def duration(span) -> float:
    return span["end"] - span["start"]


# Per-layer metrics in BENCHMARK.json order: (name, unit).  Times and counts
# are per round (rounds repeat the same work); det_count_s covers the check
# phase, which runs once.  A layer a workload does not touch reads 0.
LAYER_METRICS = (
    ("trace.orbit_sum_s", "s"),
    ("orbits.words", "count"),
    ("analytic.k_poly_s", "s"),
    ("analytic.r2_eval_s", "s"),
    ("analytic.f3_blocks_s", "s"),
    ("analytic.f4_blocks_s", "s"),
    ("analytic.kernel_tables_s", "s"),
    ("analytic.r3_eval_s", "s"),
    ("spectrum.solve_s", "s"),
    ("spectrum.roots", "count"),
    ("spectrum.roots_per_s", "1/s"),
    ("spectrum.det_count_s", "s"),
    ("empirical.levels_s", "s"),
    ("empirical.kde_s", "s"),
    ("empirical.kde_terms", "count"),
)


def layer_metrics(spans, rounds: int, counts: dict) -> dict:
    """Per-layer metrics from a traced run's spans and the workload's counts."""
    timed = [s for s in spans if s["phase"] == "timed"]
    round_ids = {s["id"] for s in timed if s["name"] == "round"}
    top = [s for s in timed if s["parent"] in round_ids]

    def total(names, pool=timed) -> float:
        return sum(duration(s) for s in pool if s["name"] in names) / rounds

    def first_per_round(name) -> float:
        firsts = {}
        for s in top:
            if s["name"] == name and s["parent"] not in firsts:
                firsts[s["parent"]] = duration(s)
        return sum(firsts.values()) / rounds

    kde_names = {"empirical.r2_from_levels", "empirical.r3_from_levels"}

    def levels_stage(estimate) -> float:
        """The estimate's span minus the estimation it runs in this process."""
        kde = [
            s for s in spans
            if s["parent"] == estimate["id"] and s["pid"] == estimate["pid"] and s["name"] in kde_names
        ]
        return duration(estimate) - sum(duration(s) for s in kde)

    solve_s = total({"spectrum.solve_spectrum"})
    roots = sum(s.get("count", 0) for s in timed if s["name"] == "spectrum.solve_spectrum") / rounds
    estimates = [s for s in timed if s["name"] in ("empirical.estimate_r2", "empirical.estimate_r3")]
    values = {
        "trace.orbit_sum_s": total({"trace.density_from_orbits"}),
        "orbits.words": counts.get("orbits.words", 0),
        "analytic.k_poly_s": first_per_round("analytic.k_formfactor"),
        "analytic.r2_eval_s": total({"analytic.r2_analytic"}, top),
        "analytic.f3_blocks_s": first_per_round("analytic.f3"),
        "analytic.f4_blocks_s": first_per_round("analytic.f4"),
        "analytic.kernel_tables_s": first_per_round("analytic.r3_connected"),
        "analytic.r3_eval_s": total({"analytic.r3_full"}, top),
        "spectrum.solve_s": solve_s,
        "spectrum.roots": roots,
        "spectrum.roots_per_s": roots / solve_s if solve_s > 0 else 0.0,
        "spectrum.det_count_s": sum(
            duration(s) for s in spans
            if s["phase"] == "check" and s["name"] == "spectrum.det_root_count"
        ),
        "empirical.levels_s": sum(levels_stage(s) for s in estimates) / rounds,
        "empirical.kde_s": total(kde_names),
        "empirical.kde_terms": counts.get("empirical.kde_terms", 0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
