"""tune-cold: what a user pays to tune a new input.

Closed loop, one client, serial, scale 1/16.  One op materializes a
Table II analog from a fresh instance seed, builds its graph view (CC
only) and its problem, and answers ``repro.serve.api.tune`` on that
problem with a fresh sampling seed.  Nothing is reused between ops.

Ops come in passes: every pass visits each (kind, dataset) cell once --
CC and row-split spmm over all of Table II, HH-CPU over its 9 scale-free
datasets -- in a seeded order, with seeded instance and sampling seeds.
Every pass therefore has the same mix of small and large inputs, and the
run measures whole passes.
"""

from __future__ import annotations

import math
import sys
import traceback
from itertools import count

import numpy as np

from repro.core.oracle import exhaustive_oracle
from repro.experiments.config import ExperimentConfig
from repro.hetero.cc import CcProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.spmm import SpmmProblem
from repro.serve.api import TuneRequest, tune
from repro.util.rng import stable_seed
from repro.util.stats import absolute_percent_gap, relative_slowdown
from repro.workloads.suite import dataset_names, load_dataset, scalefree_subset_names

import harness
from harness import now, span

SCALE = 1.0 / 16.0
TOY_SCALE = 1.0 / 512.0
TOY_DATASETS = ("cant", "webbase-1M", "netherlands_osm")
WARMUP_SCALE = 1.0 / 128.0
#: The quality metrics are taken on the first passes of the plan, run
#: untimed after the measured ones if the run ended sooner.  On the first
#: pass alone, the mean threshold difference moved by a fifth of itself
#: from seed to seed.
QUALITY_PASSES = 3


def cells(toy: bool) -> list[tuple[str, str]]:
    """The (kind, dataset) cells one pass visits."""
    everything = dataset_names()
    scalefree = scalefree_subset_names()
    if toy:
        everything = [n for n in everything if n in TOY_DATASETS]
        scalefree = [n for n in scalefree if n in TOY_DATASETS]
    return (
        [("cc", n) for n in everything]
        + [("spmm", n) for n in everything]
        + [("hh", n) for n in scalefree]
    )


def passes(seed: int, toy: bool):
    """Endless seeded passes of ``(kind, dataset, instance_seed, sampling_seed)``."""
    gen = np.random.default_rng(stable_seed("perfbench", "tune-cold", seed))
    grid = cells(toy)
    while True:
        order = gen.permutation(len(grid))
        seeds = gen.integers(0, 2**31 - 1, size=(len(grid), 2))
        yield [
            (grid[j][0], grid[j][1], int(a), int(b)) for j, (a, b) in zip(order, seeds)
        ]


def plan_digest(seed: int, toy: bool) -> str:
    """A fingerprint of the generated inputs (the first pass)."""
    return repr(next(passes(seed, toy)))


def build(kind: str, dataset: str, instance_seed: int, scale: float, machine):
    """Materialize, view and construct one problem (the op's cold part)."""
    with span("workloads.materialize", dataset=dataset) as sp:
        ds = load_dataset(dataset, scale, rng=instance_seed)
        sp.set(n_nnz=ds.nnz)
    if kind == "cc":
        with span("graphs.as_graph", dataset=dataset) as sp:
            graph = ds.as_graph()
            sp.set(n_edges=graph.m)
        with span("hetero.build", kind=kind, n_nnz=ds.nnz):
            return CcProblem(graph, machine, name=dataset)
    factory = SpmmProblem if kind == "spmm" else HhCpuProblem
    with span("hetero.build", kind=kind, n_nnz=ds.nnz):
        return factory(ds.matrix, machine, name=dataset)


def one_op(kind, dataset, instance_seed, sampling_seed, scale, machine):
    problem = build(kind, dataset, instance_seed, scale, machine)
    request = TuneRequest(problem=kind, dataset=dataset, scale=scale, seed=sampling_seed)
    return problem, tune(request, problem=problem)


def quality_row(kind, problem, response):
    """``(kind, slowdown %, overhead %, diff pts)`` against the exhaustive optimum."""
    oracle = exhaustive_oracle(problem)
    return (
        kind,
        relative_slowdown(response.phase2_ms, oracle.best_time_ms),
        response.overhead_percent,
        absolute_percent_gap(response.threshold, oracle.threshold),
    )


def run(seed: int, seconds: float, trace: bool, toy: bool):
    scale = TOY_SCALE if toy else SCALE
    session = harness.TraceSession(trace)

    def setup():
        # A cold client: testbed plus one small tune per kind, so first-use
        # costs (lazy imports, first kernel calls) land here, not in op 1.
        machine = ExperimentConfig(scale=scale).machine()
        warm = ExperimentConfig(scale=WARMUP_SCALE).machine()
        for kind in ("cc", "spmm", "hh"):
            one_op(kind, "cant", 1, 1, WARMUP_SCALE, warm)
        return machine

    # Set-up is short, so it repeats more often for a steady median.
    machine, setup_s = harness.median_setup(setup, repeats=5)
    op_ms: list[float] = []
    traced: list[bool] = []
    rows = []
    busy_s = verify_s = 0.0
    attempted = failed = 0
    plan = passes(seed, toy)
    for pass_no, ops in zip(count(), plan):
        if pass_no > 0 and busy_s >= seconds:
            break
        for kind, dataset, instance_seed, sampling_seed in ops:
            attempted += 1
            is_traced = trace and attempted % 2 == 0
            try:
                with session.window(attempted, is_traced, first_pass=pass_no == 0):
                    started = now()
                    with span(harness.OP_SPAN, kind=kind, dataset=dataset):
                        problem, response = one_op(
                            kind, dataset, instance_seed, sampling_seed, scale, machine
                        )
                    elapsed = now() - started
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            busy_s += elapsed
            op_ms.append(elapsed * 1e3)
            traced.append(is_traced)
            started = now()
            grid = problem.threshold_grid()
            ok = (
                grid[0] <= response.threshold <= grid[-1]
                and math.isfinite(response.phase2_ms)
                and response.phase2_ms > 0
            )
            if pass_no < QUALITY_PASSES:
                rows.append(quality_row(kind, problem, response))
            verify_s += now() - started
            if not ok:
                print(f"tune-cold: bad answer {response!r}", file=sys.stderr)
                failed += 1
            del problem
    started = now()
    for extra_no in range(pass_no, QUALITY_PASSES):
        if extra_no > pass_no:
            ops = next(plan)
        for kind, dataset, instance_seed, sampling_seed in ops:
            problem, response = one_op(
                kind, dataset, instance_seed, sampling_seed, scale, machine
            )
            rows.append(quality_row(kind, problem, response))
    verify_s += now() - started
    slowdown, overhead, diff = harness.quality(rows)
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
        layer_extra={"bench.verify_ms": verify_s * 1e3},
    )
    return outcome, session
