"""solve-verify: time to a solution.

Closed loop, one client, scale 1/128.  Set-up materializes five Table II
analogs (FEM small and large, mesh, power-law web, road) and builds every
problem instance: CC, row-split spmm, HH-CPU (on
the three datasets it suits) and 4-device cluster spmm over a shared
interconnect.  One op draws an instance and a sampling seed, tunes it
(the sampled estimate, or ``tune_cluster``) and runs the real kernels at
the tuned cut with ``problem.run``.

Ops come in passes over all instances in a seeded order, each op with a
seeded sampling seed, so instances repeat across ops -- the reuse a
per-instance product cache would exploit; ``bench.repeat_instance_share``
reports it.  The instances are the fixed Table II analogs, as in the
paper studies, so every run prices the same work.  Outputs are checked
outside the op timing against references built once after set-up.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from repro.core.cut_vector import tune_cluster
from repro.core.oracle import exhaustive_oracle
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.graphs.components import components_union_find
from repro.hetero.cc import CcProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import ClusterSpec
from repro.sparse.spgemm import load_vector, spgemm
from repro.util.rng import stable_seed
from repro.util.stats import absolute_percent_gap, relative_slowdown
from repro.workloads.suite import load_dataset

import harness
from harness import now, span

SCALE = 1.0 / 128.0
TOY_SCALE = 1.0 / 1024.0
DATASETS = ("cant", "pwtk", "delaunay_n22", "webbase-1M", "germany_osm")
HH_DATASETS = ("cant", "pwtk", "webbase-1M")
CLUSTER_DEVICES = 4
HH_RTOL = 1e-9

PARTITIONERS = {
    "cc": runner.cc_partitioner,
    "spmm": runner.spmm_partitioner,
    "hh": runner.hh_partitioner,
}


@dataclass
class Instance:
    kind: str
    dataset: str
    problem: object
    work: dict  # benchmark-side work units of one run: n_multiplies / n_edges


#: Quality metrics are taken over the plan's first this-many passes.
QUALITY_PASSES = 16


def plan_digest(seed: int, toy: bool) -> str:
    """A fingerprint of the generated inputs (the first pass's ops)."""
    return repr(next(passes(seed, 3 * len(DATASETS) + len(HH_DATASETS))))


def passes(seed: int, n_instances: int):
    """Endless seeded passes of ``(instance index, sampling seed)``."""
    gen = np.random.default_rng(stable_seed("perfbench", "solve-verify-ops", seed))
    while True:
        yield [(int(i), int(gen.integers(0, 2**31 - 1))) for i in gen.permutation(n_instances)]


def build_instances(scale: float) -> tuple[list[Instance], dict]:
    """Materialize the datasets and construct every problem instance."""
    machine = ExperimentConfig(scale=scale).machine()
    cluster = ClusterSpec.from_machine(
        machine, n_gpus=CLUSTER_DEVICES - 1, topology="shared", name="bench-p4"
    )
    instances: list[Instance] = []
    datasets = {}
    for name in DATASETS:
        ds = load_dataset(name, scale)
        graph = ds.as_graph()
        datasets[name] = (ds.matrix, graph)
        instances.append(Instance("cc", name, CcProblem(graph, machine, name=name), {}))
        instances.append(Instance("spmm", name, SpmmProblem(ds.matrix, machine, name=name), {}))
        if name in HH_DATASETS:
            instances.append(Instance("hh", name, HhCpuProblem(ds.matrix, machine, name=name), {}))
        instances.append(
            Instance("cluster-spmm", name, MultiwaySpmmProblem(ds.matrix, cluster, name=name), {})
        )
    return instances, datasets


def references(instances: list[Instance], datasets: dict) -> tuple[dict, dict]:
    """Reference outputs per dataset and exhaustive optima per instance."""
    refs = {}
    for name, (matrix, graph) in datasets.items():
        refs[name] = (components_union_find(graph), spgemm(matrix, matrix))
        multiplies = float(load_vector(matrix, matrix).sum())
        for inst in instances:
            if inst.dataset == name:
                inst.work = (
                    {"n_edges": graph.m} if inst.kind == "cc" else {"n_multiplies": multiplies}
                )
    oracles = {
        i: exhaustive_oracle(inst.problem)
        for i, inst in enumerate(instances)
        if inst.kind in PARTITIONERS
    }
    return refs, oracles


def same_matrix(a, b) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def close_matrix(a, b, rtol: float) -> bool:
    if not (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
    ):
        return False
    scale = float(np.max(np.abs(b.data))) if b.data.size else 0.0
    return bool(np.all(np.abs(a.data - b.data) <= rtol * max(scale, 1e-300)))


def verify(inst: Instance, out, ref) -> bool:
    labels, product = ref
    if inst.kind == "cc":
        return bool(np.array_equal(out.labels, labels))
    if inst.kind == "hh":
        return close_matrix(out.product, product, HH_RTOL)
    return same_matrix(out.product, product)


def tune_instance(inst: Instance, sampling_seed: int, scale: float):
    """The tuned cut and the tuner's result (an estimate or a cluster tune)."""
    problem = inst.problem
    if inst.kind == "cluster-spmm":
        tuned = tune_cluster(problem, rng=sampling_seed)
        return list(tuned.thresholds), tuned
    config = ExperimentConfig(scale=scale, seed=sampling_seed)
    estimate = PARTITIONERS[inst.kind](config, inst.dataset).estimate(problem)
    grid = problem.threshold_grid()
    return float(min(max(estimate.threshold, grid[0]), grid[-1])), estimate


def quality_row(inst: Instance, cut, tuned, oracle):
    """``(kind, slowdown %, overhead %, diff pts)`` of one tuned cut."""
    if inst.kind == "cluster-spmm":
        total = tuned.tuning_cost_ms + tuned.value_ms
        return (inst.kind, None, 100.0 * tuned.tuning_cost_ms / total, None)
    phase2 = inst.problem.evaluate_ms(cut)
    return (
        inst.kind,
        relative_slowdown(phase2, oracle.best_time_ms),
        tuned.overhead_percent(phase2),
        absolute_percent_gap(cut, oracle.threshold),
    )


def solve(inst: Instance, sampling_seed: int, scale: float):
    """Tune *inst* with a fresh sampling seed, then run it at the cut."""
    cut, _ = tune_instance(inst, sampling_seed, scale)
    with span("hetero.run", kind=inst.kind, dataset=inst.dataset, **inst.work) as sp:
        out = inst.problem.run(cut)
        sp.set(n_product_nnz=0 if inst.kind == "cc" else out.product.nnz)
    return cut, out


def run(seed: int, seconds: float, trace: bool, toy: bool):
    scale = TOY_SCALE if toy else SCALE
    session = harness.TraceSession(trace)
    (instances, datasets), setup_s = harness.median_setup(lambda: build_instances(scale))
    started = now()
    refs, oracles = references(instances, datasets)
    verify_s = now() - started
    op_ms: list[float] = []
    traced: list[bool] = []
    used: set[int] = set()
    busy_s = 0.0
    attempted = failed = 0
    for pass_no, ops in zip(count(), passes(seed, len(instances))):
        if pass_no > 0 and busy_s >= seconds:
            break
        for index, sampling_seed in ops:
            inst = instances[index]
            attempted += 1
            is_traced = trace and attempted % 2 == 0
            try:
                with session.window(attempted, is_traced, first_pass=pass_no == 0):
                    t0 = now()
                    with span(harness.OP_SPAN, kind=inst.kind, dataset=inst.dataset):
                        cut, out = solve(inst, sampling_seed, scale)
                    elapsed = now() - t0
                    if is_traced:
                        with span("platform.timeline", kind=inst.kind) as sp:
                            sp.set(n_spans=len(inst.problem.timeline(cut).spans))
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            busy_s += elapsed
            op_ms.append(elapsed * 1e3)
            traced.append(is_traced)
            used.add(index)
            t0 = now()
            if not verify(inst, out, refs[inst.dataset]):
                print(f"solve-verify: wrong output for {inst.kind}/{inst.dataset}", file=sys.stderr)
                failed += 1
            verify_s += now() - t0
            del out
    # Quality is taken on a fixed, larger set than the timed ops: the
    # first QUALITY_PASSES passes of the plan.  Per-op slowdowns on these
    # small instances are heavy-tailed; over one pass their median moves
    # by 80% of itself from seed to seed, over 16 passes by about 6%.
    t0 = now()
    rows = [
        quality_row(instances[index], *tune_instance(instances[index], s, scale), oracles.get(index))
        for ops in islice(passes(seed, len(instances)), QUALITY_PASSES)
        for index, s in ops
    ]
    verify_s += now() - t0
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
        layer_extra={
            "bench.verify_ms": verify_s * 1e3,
            "bench.repeat_instance_share": 1.0 - len(used) / max(1, len(op_ms)),
        },
    )
    return outcome, session
