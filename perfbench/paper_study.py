"""paper-study: the paper-reproduction batch user.

The Figure 3/5/8 protocol -- CC and row-split spmm over all of Table II,
HH-CPU over its 9 scale-free datasets, 39 rows per pass -- at scale 1/16
with ``ExperimentConfig(workers=2, cache_dir=None, seed=<seed>)``.  Set-up
materializes every dataset (graph views included) and starts the worker
pool, so a pass prices only: problem construction, exhaustive oracles,
sampled estimates and baselines, fanned out over the pool.

One op is one study row.  A study call returns its rows together, so a
row's latency is the wall time of the call that returned it.  Every pass
runs the same computation; the run measures whole passes.
"""

from __future__ import annotations

import sys
from itertools import count
from multiprocessing import resource_tracker

from repro.engine import aggregate_stats, shutdown_engines
from repro.experiments import config as config_module
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.workloads.suite import cc_subset_names, scalefree_subset_names, spmm_subset_names

import harness
from harness import now, span

SCALE = 1.0 / 16.0
TOY_SCALE = 1.0 / 512.0
TOY_DATASETS = ("cant", "webbase-1M", "netherlands_osm")
WORKERS = 2

#: (kind, Table II selection, problem factory, partitioner factory)
STUDIES = (
    ("cc", cc_subset_names, runner.cc_problem, runner.cc_partitioner),
    ("spmm", spmm_subset_names, runner.spmm_problem, runner.spmm_partitioner),
    ("hh", scalefree_subset_names, runner.hh_problem, runner.hh_partitioner),
)


def make_config(seed: int, toy: bool) -> ExperimentConfig:
    return ExperimentConfig(
        scale=TOY_SCALE if toy else SCALE,
        workers=WORKERS,
        cache_dir=None,
        seed=seed,
        datasets=TOY_DATASETS if toy else None,
    )


def plan_digest(seed: int, toy: bool) -> str:
    """A fingerprint of the generated inputs (the config's seed streams)."""
    config = make_config(seed, toy)
    return repr(
        [
            part(config, name).rng.integers(0, 2**31, size=4).tolist()
            for _, names, _, part in STUDIES
            for name in config.select(names())
        ]
    )


def timed(factory, kind: str):
    """*factory*, with the problem construction spanned as ``hetero.build``."""

    def build(config, name):
        nnz = config.dataset(name).nnz
        with span("hetero.build", kind=kind, dataset=name, n_nnz=nnz):
            return factory(config, name)

    return build


def setup(config: ExperimentConfig):
    """Materialize every dataset (and CC graph view) and start the pool."""
    shutdown_engines()
    clear = getattr(getattr(config_module, "_cached_dataset", None), "cache_clear", None)
    if clear is not None:
        clear()  # each repetition materializes from scratch
    graph_names = set(config.select(cc_subset_names()))
    for _, names, _, _ in STUDIES:
        for name in config.select(names()):
            dataset = config.dataset(name)
            if name in graph_names:
                dataset.as_graph()
    # Start the shared-memory resource tracker before the pool forks, so
    # workers share it.  Otherwise each worker that attaches a segment
    # starts its own tracker, which outlives the worker as an orphan the
    # benchmark cannot reap.
    resource_tracker.ensure_running()
    config.engine().parallel_map.map(abs, list(range(-WORKERS, 0)))


def check(rows, names) -> tuple[int, int]:
    """(failed rows, rows an off-grid estimate priced below the oracle).

    The oracle is exhaustive over the problem's threshold grid, so its
    best time must not exceed the Phase II time at an estimate that lies
    on that grid.  HH-CPU thins its grid to at most 101 density cutoffs;
    an estimate between two of them can beat the grid optimum.  Those
    rows are counted apart (``core.oracle.beaten_rows``), not failed.
    """
    failed = beaten = 0
    if [c.name for c in rows] != list(names):
        return len(names), 0
    for c in rows:
        grid = {t for t, _ in c.oracle.evaluations}
        if c.oracle.best_time_ms <= c.estimated_time_ms * (1.0 + 1e-12):
            continue
        if c.estimate.threshold in grid:
            print(f"paper-study: oracle above estimate on {c.name}", file=sys.stderr)
            failed += 1
        else:
            beaten += 1
    return failed, beaten


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared memory started, if any.

    Run after the leak count: on stopping, the tracker unlinks whatever
    segments are still registered.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def run(seed: int, seconds: float, trace: bool, toy: bool):
    config = make_config(seed, toy)
    session = harness.TraceSession(trace)
    shm_before = harness.shm_entries()
    _, setup_s = harness.median_setup(lambda: setup(config))
    op_ms: list[float] = []
    traced: list[bool] = []
    quality_rows = []
    busy_s = verify_s = 0.0
    attempted = failed = beaten = 0
    min_passes = 2 if trace else 1
    for pass_no in count():
        if pass_no >= min_passes and busy_s >= seconds:
            break
        traced_pass = trace and pass_no % 2 == 1
        for kind, names_fn, factory, partitioner in STUDIES:
            names = config.select(names_fn())
            attempted += len(names)
            with session.window(pass_no, traced_pass, first_pass=pass_no == 1):
                started = now()
                with span(harness.OP_SPAN, study=kind):
                    rows = runner.run_study(config, names, timed(factory, kind), partitioner)
                elapsed = now() - started
            busy_s += elapsed
            op_ms.extend([elapsed * 1e3] * len(rows))
            traced.extend([traced_pass] * len(rows))
            started = now()
            bad, off_grid = check(rows, names)
            failed += bad
            if pass_no == 0:
                beaten += off_grid
                quality_rows += [
                    (
                        kind,
                        c.time_difference_percent,
                        c.overhead_percent,
                        c.threshold_difference,
                    )
                    for c in rows
                ]
            verify_s += now() - started
    stats = aggregate_stats()
    shutdown_engines()
    leaked = len(harness.shm_entries() - shm_before)
    stop_resource_tracker()
    slowdown, overhead, diff = harness.quality(quality_rows)
    computed = stats["computed_evaluations"]
    outcome = harness.Outcome(
        op_ms=op_ms,
        busy_s=busy_s,
        attempted=attempted,
        failed=failed,
        setup_s=setup_s,
        slowdown_pct=slowdown,
        overhead_pct=overhead,
        threshold_diff_pts=diff,
        traced=traced,
        peak_rss_mb=harness.peak_rss_mb(),
        layer_extra={
            "bench.verify_ms": verify_s * 1e3,
            "core.oracle.beaten_rows": beaten,
            "engine.batched_share": stats["batched_evaluations"] / computed if computed else 0.0,
            "engine.shm.leaked_segments": leaked,
            "pool_workers": WORKERS,
        },
    )
    return outcome, session
