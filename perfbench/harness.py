"""Shared machinery of the benchmark: clocks, traced windows, layer analysis.

Every workload module returns a :class:`Outcome`; :func:`emit` turns it
into the JSON result line (``--trace 0``: end-to-end
metrics, ``--trace 1``: per-layer metrics).

Tracing works from the outside.  A traced op runs inside a
:class:`TraceSession` window: ``repro.obs`` is enabled for the window
only, the benchmark opens its own spans (``workloads.materialize``,
``hetero.build``, ...) around its calls into each layer's public
functions, and the program's existing spans (``estimate/``, ``oracle/``,
``pool/map``, ``serve/tune``, ...) land in the same buffer.  Buffers stay
in memory and are written once, at the end.  Untraced ops run with
``repro.obs`` disabled, which is the no-op path the program ships with.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro import obs

now = time.perf_counter

#: Where traces and scratch state go: inside the checkout, git-ignored.
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench-out")

#: Setup is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: End-to-end metrics: (name, unit).  Emitted on every workload.
END_TO_END = (
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "ops/s"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("slowdown_pct", "%"),
    ("overhead_pct", "%"),
    ("threshold_diff_pts", "pts"),
)

#: Per-layer metrics: (name, unit).  Emitted by every traced run; a layer
#: a workload does not exercise reads 0.
PER_LAYER = (
    ("workloads.materialize.calls", "count"),
    ("workloads.materialize.self_ms", "ms"),
    ("workloads.materialize.ns_per_nnz", "ns/nnz"),
    ("graphs.as_graph.self_ms", "ms"),
    ("graphs.as_graph.ns_per_edge", "ns/edge"),
    ("hetero.build.calls", "count"),
    ("hetero.build.self_ms", "ms"),
    ("hetero.build.ns_per_nnz", "ns/nnz"),
    ("hetero.run.calls", "count"),
    ("hetero.run.self_ms", "ms"),
    ("hetero.run.ns_per_multiply", "ns/multiply"),
    ("hetero.run.ns_per_edge", "ns/edge"),
    ("hetero.run.product_nnz", "count"),
    ("core.estimate.self_ms", "ms"),
    ("core.sample.self_ms", "ms"),
    ("core.identify.self_ms", "ms"),
    ("core.identify.evaluations", "count"),
    ("core.extrapolate.self_ms", "ms"),
    ("core.phase2.self_ms", "ms"),
    ("core.oracle.self_ms", "ms"),
    ("core.oracle.evaluations", "count"),
    ("core.oracle.us_per_eval", "us/eval"),
    ("core.oracle.beaten_rows", "count"),
    ("platform.timeline.self_ms", "ms"),
    ("platform.timeline.spans", "count"),
    ("engine.pool.tasks", "count"),
    ("engine.pool.chunk_ms_sum", "ms"),
    ("engine.pool.map_ms", "ms"),
    ("engine.pool.wait_ms", "ms"),
    ("engine.pool.retries", "count"),
    ("engine.pool.fallbacks", "count"),
    ("engine.batched_share", "ratio"),
    ("engine.shm.leaked_segments", "count"),
    ("serve.requests", "count"),
    ("serve.computed", "count"),
    ("serve.coalesced", "count"),
    ("serve.batched", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.tune.self_ms", "ms"),
    ("serve.hit.ms_p50", "ms"),
    ("serve.computed.ms_p50", "ms"),
    ("bench.verify_ms", "ms"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.repeat_instance_share", "ratio"),
    ("bench.loadgen.late_ms_p90", "ms"),
)

#: Span-name prefix -> layer.  The benchmark's own spans already carry
#: their layer name; the rest are the program's ``repro.obs`` spans.
_OBS_LAYERS = {
    "estimate": "core.estimate",
    "tune-cluster": "core.estimate",
    "sample": "core.sample",
    "search": "core.identify",
    "extrapolate": "core.extrapolate",
    "phase2": "core.phase2",
    "oracle": "core.oracle",
    "timeline": "platform.timeline",
    "pool": "engine.pool",
    "serve": "serve.tune",
}

#: The span around one op (a study call on paper-study, the traced half
#: of the stream on serve-zipf); time under it not covered by a layer
#: span is ``bench.unattributed_pct``.
OP_SPAN = "bench.op"


def layer_of(name: str) -> str | None:
    """The layer a span belongs to (``None`` for the op span and wrappers)."""
    if name == OP_SPAN:
        return None
    if "/" not in name:
        return name if "." in name else None
    return _OBS_LAYERS.get(name.split("/", 1)[0])


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile *q* in [0, 1] (0.0 for no samples)."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def shm_entries() -> set[str]:
    """Names of the POSIX shared-memory segments that exist right now."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def median_setup(setup, repeats: int = SETUP_REPEATS):
    """Run *setup* ``repeats`` times; returns (last result, median seconds).

    Each repetition starts from nothing (the setup function clears what
    an earlier repetition left), so the median is a cold set-up time.
    """
    times = []
    result = None
    for _ in range(repeats):
        started = now()
        result = setup()
        times.append(now() - started)
    return result, statistics.median(times)


def span(name: str, **attrs):
    """A benchmark-side span (a no-op unless the current op is traced)."""
    return obs.span(name, cat="bench", **attrs)


@dataclass
class Window:
    """One traced window: the op it covers and what was recorded."""

    op: int
    records: list
    self_us: list[float]
    snapshot: dict
    first_pass: bool


class TraceSession:
    """Traced/untraced op windows; buffers stay in memory until the end."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.windows: list[Window] = []

    @contextmanager
    def window(self, op: int, traced: bool, first_pass: bool = False):
        if not (self.enabled and traced):
            yield
            return
        tracer, metrics = obs.enable()
        try:
            yield
        finally:
            obs.disable()
            records = tracer.records()
            self.windows.append(
                Window(op, records, _self_times(records), metrics.snapshot(), first_pass)
            )

    def write(self, path: str) -> None:
        """Write every recorded span, tagged with its op id and self time."""
        rows = []
        for window in self.windows:
            for record, self_us in zip(window.records, window.self_us):
                rows.append(
                    {
                        "op": window.op,
                        "name": record.name,
                        "layer": layer_of(record.name),
                        "pid": record.pid,
                        "ts_us": round(record.ts_us, 1),
                        "dur_us": round(record.dur_us, 1),
                        "self_us": round(self_us, 1),
                        "args": {k: _jsonable(v) for k, v in record.args.items()},
                    }
                )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def _jsonable(value):
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _group_key(record, main_pid: int):
    """Records sharing one clock: the parent's, or one pool task's.

    A pool worker enables a fresh tracer per task, so its timestamps
    restart at every task; within one window (one study call) each task
    prices one dataset, which the span names or ``problem`` arg carry.
    """
    if record.pid == main_pid:
        return (record.pid, None)
    problem = record.args.get("problem")
    if problem is None and "/" in record.name:
        problem = record.name.split("/")[1]
    return (record.pid, str(problem).split("/")[0])


def _self_times(records) -> list[float]:
    """Per-record self time (µs): duration minus direct children's."""
    if not records:
        return []
    main_pid = os.getpid()
    groups: dict = {}
    for i, record in enumerate(records):
        groups.setdefault(_group_key(record, main_pid), []).append(i)
    self_us = [r.dur_us for r in records]
    for indices in groups.values():
        order = sorted(indices, key=lambda i: (records[i].ts_us, -records[i].dur_us))
        stack: list[int] = []
        for i in order:  # parents sort before their children
            end = records[i].ts_us + records[i].dur_us
            while stack and records[stack[-1]].ts_us + records[stack[-1]].dur_us < end - 1e-3:
                stack.pop()
            if stack:
                self_us[stack[-1]] -= records[i].dur_us
            stack.append(i)
    return [max(0.0, s) for s in self_us]


@dataclass
class Layers:
    """Per-layer sums over the traced windows."""

    calls: dict = field(default_factory=dict)
    self_ms: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    first_pass_units: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    first_pass_counters: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    op_ms: float = 0.0
    op_self_ms: float = 0.0

    def unit(self, layer: str, key: str) -> float:
        return self.units.get((layer, key), 0.0)

    def per_unit_ns(self, layer: str, key: str) -> float:
        """Self ns per work unit, over the spans that report that unit."""
        work = self.unit(layer, key)
        return self.unit(layer, f"ms_{key}") * 1e6 / work if work else 0.0


def analyze(windows: list[Window]) -> Layers:
    """Fold every window's spans and counters into per-layer sums."""
    layers = Layers()
    for window in windows:
        for record, self_us in zip(window.records, window.self_us):
            if record.name == OP_SPAN:
                layers.op_ms += record.dur_us / 1e3
                layers.op_self_ms += self_us / 1e3
                continue
            layer = layer_of(record.name)
            if layer is None:
                continue
            layers.calls[layer] = layers.calls.get(layer, 0) + 1
            layers.self_ms[layer] = layers.self_ms.get(layer, 0.0) + self_us / 1e3
            for key, value in record.args.items():
                if not (key.startswith("n_") and isinstance(value, (int, float))):
                    continue
                for slot, amount in (
                    ((layer, key[2:]), float(value)),
                    ((layer, f"ms_{key[2:]}"), self_us / 1e3),
                ):
                    layers.units[slot] = layers.units.get(slot, 0.0) + amount
                    if window.first_pass:
                        layers.first_pass_units[slot] = (
                            layers.first_pass_units.get(slot, 0.0) + amount
                        )
        for name, value in window.snapshot.get("counters", {}).items():
            layers.counters[name] = layers.counters.get(name, 0.0) + value
            if window.first_pass:
                layers.first_pass_counters[name] = (
                    layers.first_pass_counters.get(name, 0.0) + value
                )
        for name, summary in window.snapshot.get("histograms", {}).items():
            total = layers.histograms.setdefault(name, 0.0)
            layers.histograms[name] = total + float(summary.get("sum") or 0.0)
    return layers


def layer_metrics(layers: Layers, extra: dict) -> dict:
    """Every per-layer metric, from the span sums plus workload extras."""
    oracle_evals = layers.first_pass_counters.get("oracle.evaluations", 0.0)
    all_oracle_evals = layers.counters.get("oracle.evaluations", 0.0)
    map_ms = layers.self_ms.get("engine.pool", 0.0)
    chunk_ms = layers.histograms.get("pool.chunk_ms", 0.0)
    workers = max(1.0, float(extra.pop("pool_workers", 1)))
    values = {
        "workloads.materialize.calls": layers.calls.get("workloads.materialize", 0),
        "workloads.materialize.self_ms": layers.self_ms.get("workloads.materialize", 0.0),
        "workloads.materialize.ns_per_nnz": layers.per_unit_ns("workloads.materialize", "nnz"),
        "graphs.as_graph.self_ms": layers.self_ms.get("graphs.as_graph", 0.0),
        "graphs.as_graph.ns_per_edge": layers.per_unit_ns("graphs.as_graph", "edges"),
        "hetero.build.calls": layers.calls.get("hetero.build", 0),
        "hetero.build.self_ms": layers.self_ms.get("hetero.build", 0.0),
        "hetero.build.ns_per_nnz": layers.per_unit_ns("hetero.build", "nnz"),
        "hetero.run.calls": layers.calls.get("hetero.run", 0),
        "hetero.run.self_ms": layers.self_ms.get("hetero.run", 0.0),
        "hetero.run.ns_per_multiply": layers.per_unit_ns("hetero.run", "multiplies"),
        "hetero.run.ns_per_edge": layers.per_unit_ns("hetero.run", "edges"),
        "hetero.run.product_nnz": layers.first_pass_units.get(
            ("hetero.run", "product_nnz"), 0.0
        ),
        "core.estimate.self_ms": layers.self_ms.get("core.estimate", 0.0),
        "core.sample.self_ms": layers.self_ms.get("core.sample", 0.0),
        "core.identify.self_ms": layers.self_ms.get("core.identify", 0.0),
        "core.identify.evaluations": layers.first_pass_counters.get("search.evaluations", 0.0),
        "core.extrapolate.self_ms": layers.self_ms.get("core.extrapolate", 0.0),
        "core.phase2.self_ms": layers.self_ms.get("core.phase2", 0.0),
        "core.oracle.self_ms": layers.self_ms.get("core.oracle", 0.0),
        "core.oracle.evaluations": oracle_evals,
        "core.oracle.us_per_eval": (
            layers.self_ms.get("core.oracle", 0.0) * 1e3 / all_oracle_evals
            if all_oracle_evals
            else 0.0
        ),
        "platform.timeline.self_ms": layers.self_ms.get("platform.timeline", 0.0),
        "platform.timeline.spans": layers.unit("platform.timeline", "spans"),
        "engine.pool.tasks": layers.counters.get("pool.tasks", 0.0),
        "engine.pool.chunk_ms_sum": chunk_ms,
        "engine.pool.map_ms": map_ms,
        "engine.pool.wait_ms": max(0.0, map_ms - chunk_ms / workers),
        "engine.pool.retries": layers.counters.get("pool.retries", 0.0),
        "engine.pool.fallbacks": layers.counters.get("pool.fallbacks", 0.0),
        "serve.tune.self_ms": layers.self_ms.get("serve.tune", 0.0),
        "bench.unattributed_pct": (
            100.0 * layers.op_self_ms / layers.op_ms if layers.op_ms else 0.0
        ),
    }
    values.update(extra)
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def trace_overhead_pct(op_ms: list[float], traced: list[bool]) -> float:
    """Traced vs untraced median op latency, in percent."""
    on = [ms for ms, t in zip(op_ms, traced) if t]
    off = [ms for ms, t in zip(op_ms, traced) if not t]
    if not on or not off:
        return 0.0
    return 100.0 * (quantile(on, 0.5) / quantile(off, 0.5) - 1.0)


#: Kinds whose thresholds are percent shares, so their differences are
#: percentage points.  The HH-CPU threshold is a row-density cutoff.
SHARE_KINDS = ("cc", "spmm", "cluster-cc", "cluster-spmm")


def quality(rows) -> tuple[float, float, float]:
    """(slowdown %, overhead %, threshold diff pts) over checked results.

    *rows* are ``(kind, slowdown_pct, overhead_pct, diff_pts)``; slowdown
    or diff is ``None`` where no exhaustive optimum was computed.
    Slowdown is the median over results: a few results carry most of the
    mean, which then swings by a third of itself from seed to seed.
    """
    slowdowns = [r[1] for r in rows if r[1] is not None]
    diffs = [r[3] for r in rows if r[3] is not None and r[0] in SHARE_KINDS]
    overheads = [r[2] for r in rows]
    return (
        quantile(slowdowns, 0.5),
        float(np.mean(overheads)) if overheads else 0.0,
        float(np.mean(diffs)) if diffs else 0.0,
    )


@dataclass
class Outcome:
    """What one workload run measured, checked and traced."""

    op_ms: list[float]
    busy_s: float
    attempted: int
    failed: int
    setup_s: float
    slowdown_pct: float
    overhead_pct: float
    threshold_diff_pts: float
    traced: list[bool] = field(default_factory=list)
    layer_extra: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: Window index of every op, when latency percentiles are taken per
    #: window and the median window reported; empty for one window.
    windows: list[int] = field(default_factory=list)


def windowed_quantile(values, windows, q: float) -> float:
    """Median over windows of the per-window quantile *q* (one window if none)."""
    if not windows:
        return quantile(values, q)
    groups: dict[int, list[float]] = {}
    for value, window in zip(values, windows):
        groups.setdefault(window, []).append(value)
    return float(statistics.median(quantile(v, q) for v in groups.values()))


def end_to_end(outcome: Outcome) -> dict:
    done = len(outcome.op_ms)
    return {
        "op_ms_p50": windowed_quantile(outcome.op_ms, outcome.windows, 0.5),
        "op_ms_p90": windowed_quantile(outcome.op_ms, outcome.windows, 0.9),
        "ops_per_s": done / outcome.busy_s if outcome.busy_s > 0 else 0.0,
        "ok_ratio": 1.0 - outcome.failed / max(1, outcome.attempted),
        "setup_s": outcome.setup_s,
        "peak_rss_mb": outcome.peak_rss_mb or peak_rss_mb(),
        "slowdown_pct": outcome.slowdown_pct,
        "overhead_pct": outcome.overhead_pct,
        "threshold_diff_pts": outcome.threshold_diff_pts,
    }


def print_layer_table(metrics: dict, layers: Layers) -> None:
    """Calls, self ms, share of op wall time and work units, per layer."""
    total = layers.op_ms or 1.0
    print(f"{'layer':<24}{'calls':>8}{'self ms':>12}{'% of op':>9}  work")
    for layer in sorted(layers.self_ms):
        work = ", ".join(
            f"{key}={value:.0f}"
            for (name, key), value in sorted(layers.units.items())
            if name == layer and not key.startswith("ms_")
        )
        print(
            f"{layer:<24}{layers.calls.get(layer, 0):>8}"
            f"{layers.self_ms[layer]:>12.1f}"
            f"{100.0 * layers.self_ms[layer] / total:>8.1f}%  {work}"
        )
    for name in ("bench.unattributed_pct", "bench.trace_overhead_pct"):
        print(f"{name:<24}{metrics[name]:>29.2f}%")


def emit(outcome: Outcome, trace: bool, layer_values: dict | None = None) -> None:
    """Print the result line (the last line of stdout)."""
    if trace:
        values = layer_values or {}
        units = dict(PER_LAYER)
    else:
        values = end_to_end(outcome)
        units = dict(END_TO_END)
    bad = [n for n, v in values.items() if not math.isfinite(float(v))]
    correct = outcome.failed == 0 and outcome.attempted > 0 and not bad
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": {
                    name: {"value": float(values[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
