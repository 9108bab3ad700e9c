"""Per-layer tracing of sboxtraj from outside the package.

`Tracer.install` wraps the public functions of each module, and the
constructors of `SBox` and `RngStream`, in spans.  A wrapper replaces the
original in every sboxtraj module that holds it, because `trajectory`,
`search`, `cli` and the package `__init__` bind names with
`from .metrics import ...`.  `uninstall` puts every original back, so
untraced passes in the same process run the program's own code.

Spans (id, parent id, name, start ns, end ns) are kept in memory; a layer's
self time is its span time minus the time of its child spans.
With `install(alloc=True)`, `tracemalloc` runs inside `ls_hwf` spans, for
their peak allocation; its allocation hooks slow the code they trace, so
timed passes are traced without it.
"""

import functools
import itertools
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

# Spans around module functions, as (module, function).
FUNCTIONS = (
    ("metrics", "cross_correlation_fast"),
    ("metrics", "mto_beta"),
    ("metrics", "rto_beta"),
    ("metrics", "mto_beta_zero"),
    ("metrics", "rto_beta_zero"),
    ("metrics", "mto"),
    ("metrics", "rto"),
    ("metrics", "transparency_order"),
    ("metrics", "kappa_profile"),
    ("metrics", "ccv_key_from_profile"),
    ("sbox", "hw_class_shuffle"),
    ("sbox", "parse_sbox"),
    ("sbox", "serialize_sbox"),
    ("search", "ls_hwf"),
    ("trajectory", "run_experiment"),
    ("trajectory", "sample_equal_ccv"),
    ("trajectory", "metric_value"),
    ("trajectory", "pearson"),
    ("cli", "main"),
)
# Spans around methods, as (module, class, method, span name).
METHODS = (
    ("sbox", "SBox", "__post_init__", "sbox.SBox"),
    ("rng", "RngStream", "__init__", "rng.RngStream"),
)
# Methods only counted, not timed.
COUNTED = (("rng", "RngStream", "shuffle", "rng.shuffle"),)

# Per-layer metrics as (name, unit), as BENCHMARK.json lists them;
# `layer_metrics` computes each per pass.
PER_LAYER = tuple(
    (m["name"], m["unit"])
    for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )["per_layer"]
)


def _search_counts(counts: Counter, result) -> None:
    counts["search.climbs"] += len(result.events)
    counts["search.evaluations"] += result.evaluations
    counts["search.passes"] += result.passes


def _experiment_counts(counts: Counter, summary) -> None:
    counts["trajectory.points"] += sum(len(t.points) for t in summary.trajectories)


# Counters read off a layer's return value.
RESULT_COUNTS = {"search.ls_hwf": _search_counts, "trajectory.run_experiment": _experiment_counts}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.peak_alloc = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, fn, alloc):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        on_result = RESULT_COUNTS.get(name)
        track_alloc = alloc and name == "search.ls_hwf"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if track_alloc:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
                if track_alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, alloc: bool = False) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "sboxtraj" or name.startswith("sboxtraj.")
        }
        for mod_name, attr in FUNCTIONS:
            original = getattr(modules[f"sboxtraj.{mod_name}"], attr)
            wrapper = self._span(f"{mod_name}.{attr}", original, alloc)
            for mod in modules.values():
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(modules[f"sboxtraj.{mod_name}"], cls_name)
            self._patch(cls, attr, self._span(name, vars(cls)[attr], alloc))
        for mod_name, cls_name, attr, name in COUNTED:
            cls = getattr(modules[f"sboxtraj.{mod_name}"], cls_name)
            self._patch(cls, attr, self._counted(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self):
        """Spans, counts and peak allocation since the last call; resets them."""
        taken = (self.spans[:], self.counts.copy(), self.peak_alloc)
        self.spans.clear()
        self.counts.clear()
        self.peak_alloc = 0
        return taken


def layer_metrics(spans, counts: Counter, peak_alloc: int, output_bytes: int) -> dict:
    """Per-layer values of one traced pass (the `trace.*` timings excepted)."""
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    child_ns: Counter = Counter()
    for _sid, parent, name, start, end in spans:
        calls[name] += 1
        total_ns[name] += end - start
        child_ns[parent] += end - start
    self_ns: Counter = Counter()
    for sid, _parent, name, start, end in spans:
        self_ns[name] += end - start - child_ns[sid]
    calls.update(counts)  # layers that are counted, not timed

    values = {}
    for metric, _unit in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat in ("calls", "constructions"):
            values[metric] = calls[layer]
        elif stat == "self_s":
            values[metric] = self_ns[layer] / 1e9
    for name in ("search.climbs", "search.evaluations", "search.passes", "trajectory.points"):
        values[name] = counts[name]
    search_s = total_ns["search.ls_hwf"] / 1e9
    evaluations = counts["search.evaluations"]
    values["search.ls_hwf.peak_alloc_mb"] = peak_alloc / 2**20
    values["search.evals_per_s"] = evaluations / search_s if search_s else 0.0
    values["search.accept_ratio"] = counts["search.climbs"] / evaluations if evaluations else 0.0
    values["cli.output_bytes"] = output_bytes
    values["trace.spans"] = len(spans)
    return values
