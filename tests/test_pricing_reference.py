"""The one Phase-II pricer of each hetero problem against the scalar pricers
it replaced.

Every hetero problem used to price a threshold twice: a scalar pipeline
that recorded a :class:`Timeline` span by span, and a vectorized
``evaluate_many`` that mirrored its float64 arithmetic.  The problems now
price through one per-phase schedule (``PricedSchedule``): ``evaluate_many``
folds its columns, ``evaluate_ms`` is a one-row batch and ``timeline``
records one row.  The deleted scalar pricers live on below, arithmetic
unchanged, as the reference those paths must reproduce:

* makespans bit for bit on full instances and on sampled CC, spmm and
  multiway instances; within ``rtol=1e-12`` on sampled HH instances, whose
  Hansen-Hurwitz bucketing sums represented work in another order;
* timelines span by span — resource, label, start and duration, including
  zero-length spans — with ``timeline(t).total_ms == evaluate_ms(t)``
  exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.shiloach_vishkin import modeled_sv_iterations
from repro.hetero.cc import (
    _BYTES_PER_VERTEX,
    MERGE_EFFECTIVE_PASSES,
    SV_EFFECTIVE_PASSES,
    CcProblem,
    modeled_merge_iterations,
)
from repro.hetero.dense_mm import _BYTES_PER_ELEMENT, DenseMmProblem
from repro.hetero.hh_cpu import (
    _BYTES_PER_NNZ,
    COMBINE_FACTOR,
    PROFILE_COMBINE,
    PROFILE_ROW_GATHER,
    HhCpuProblem,
)
from repro.hetero.multiway_cc import MultiwayCcProblem
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import ClusterSpec
from repro.platform.costmodel import (
    PROFILE_CC,
    PROFILE_DENSE_MM,
    PROFILE_MERGE,
    dense_mm_time,
    effective_rate_per_ms,
    gpu_iterative_time,
)
from repro.platform.machine import paper_testbed
from repro.platform.timeline import Timeline
from repro.serve.api import build_problem
from repro.util.errors import ValidationError
from repro.workloads import dataset_names
from repro.workloads.band import banded_matrix
from repro.workloads.scalefree import scalefree_matrix
from tests.conftest import random_graph, random_sparse
from tests.test_hetero_multiway import local_graph

#: Sampled HH instances sum represented work in another order.
HH_SAMPLED_RTOL = 1e-12

#: The suite instances are checked at the benchmark scale.
SUITE_SCALE = 1 / 64


# ---------------------------------------------------------------------------
# Reference: the scalar pricers, arithmetic unchanged.
# ---------------------------------------------------------------------------


def ref_merge_iterations(n_cross_edges: int) -> int:
    if n_cross_edges <= 1:
        return 1
    return int(math.ceil(math.log2(n_cross_edges))) + 1


def ref_cc(p: CcProblem, threshold: float) -> Timeline:
    k = p._cut_index(threshold)  # CPU owns [0, k)
    n = p.graph.n
    n_gpu = n - k
    tl = Timeline()
    if n == 0:
        return tl
    cpu = p.machine.cpu
    gpu = p.machine.devices[1]
    tasks = []
    if k > 0:
        if p._rep_prefix is not None:
            work = float(p._rep_prefix[k])
            atom = float(p._atom_prefix_max[k])
        else:
            work = p.work_scale * float(k + p._cut.cpu_degree_sum(k))
            atom = 1.0 + p._cut.max_degree_below(k)
        rate = effective_rate_per_ms(cpu, p.profile)
        heaviest = max(work / cpu.threads, atom)
        cpu_ms = heaviest / (rate / cpu.threads) + cpu.kernel_launch_us * 1e-3
        tasks.append(("cpu", "phase2/cc-cpu-dfs", cpu_ms))
    if n_gpu > 0:
        if p._rep_prefix is not None:
            gpu_work = float(p._rep_prefix[n] - p._rep_prefix[k])
        else:
            gpu_work = p.work_scale * float((n - k) + 2 * p._cut.m_gpu(k))
        sweep = SV_EFFECTIVE_PASSES * gpu_work / effective_rate_per_ms(gpu, p.profile)
        launches = modeled_sv_iterations(n_gpu) * gpu.kernel_launch_us * 1e-3
        tasks.append(("gpu", "phase2/cc-gpu-sv", sweep + launches))
    tl.overlap(tasks)
    if k > 0 and n_gpu > 0:
        tl.run(
            "pcie",
            "phase2/h2d-cpu-labels",
            p.machine.link_for(1).transfer_ms(k * _BYTES_PER_VERTEX),
        )
        m_cross = p._cut.m_cross(k)
        merge_ms = (
            MERGE_EFFECTIVE_PASSES
            * (2.0 * m_cross + 1.0)
            / effective_rate_per_ms(gpu, PROFILE_MERGE)
            + ref_merge_iterations(m_cross) * gpu.kernel_launch_us * 1e-3
        )
        tl.run("gpu", "phase2/merge-cross-edges", merge_ms)
    return tl


def ref_spmm_split(p: SpmmProblem, share: float) -> int:
    arr = p._rep_mults
    if arr.size == 0:
        return 0
    if p._rep_mults_total == 0.0:
        return int(round(share * arr.size))
    target = share * p._rep_mults_total
    idx = int(np.searchsorted(p._rep_mults_prefix, target, side="left"))
    if idx < arr.size and share > 0.0:
        idx += 1
    return min(idx, arr.size) if share > 0.0 else 0


def ref_spmm_cpu(p: SpmmProblem, split: int) -> float:
    if split <= 0:
        return 0.0
    cpu = p.machine.cpu
    rate = effective_rate_per_ms(cpu, p.profile)
    work = float(p._rep_flop_prefix[split])
    atom = p.row_scale * float(p._flop_prefix_max[split])
    heaviest = max(work / cpu.threads, atom)
    return heaviest / (rate / cpu.threads) + cpu.kernel_launch_us * 1e-3


def ref_spmm_gpu_range(p: SpmmProblem, gpu, lo: int, hi: int) -> float:
    if hi <= lo:
        return 0.0
    padded = float(p._rep_padded_prefix[hi] - p._rep_padded_prefix[lo])
    rate = effective_rate_per_ms(gpu, p.profile)
    warp_rate = rate * gpu.warp_size / gpu.cores
    straggler = p.row_scale * float(p._flop_suffix_max[lo]) / warp_rate
    return max(padded / rate, straggler) + gpu.kernel_launch_us * 1e-3


def ref_spmm(p: SpmmProblem, threshold: float) -> Timeline:
    split = ref_spmm_split(p, threshold / 100.0)
    n = p.a.n_rows
    tl = Timeline()
    if n == 0:
        return tl
    tasks = [
        ("cpu", "phase2/spgemm-cpu", ref_spmm_cpu(p, split)),
        ("gpu", "phase2/spgemm-gpu", ref_spmm_gpu_range(p, p.machine.devices[1], split, n)),
    ]
    tl.overlap([t for t in tasks if t[2] > 0.0])
    if split < n:
        gpu_mults = (p._rep_flop_prefix[n] - p._rep_flop_prefix[split]) / 2.0
        c2_bytes = gpu_mults * p._compression * _BYTES_PER_NNZ
        tl.run("pcie", "phase2/d2h-result", p.machine.link_for(1).transfer_ms(c2_bytes))
    return tl


def ref_race_probe(p: SpmmProblem) -> tuple[float, float]:
    cpu_ms = ref_spmm_cpu(p, p.a.n_rows)
    gpu_ms = ref_spmm_gpu_range(p, p.machine.devices[1], 0, p.a.n_rows)
    if cpu_ms <= 0 and gpu_ms <= 0:
        return 50.0, 0.0
    if cpu_ms <= 0:
        return 100.0, gpu_ms
    if gpu_ms <= 0:
        return 0.0, cpu_ms
    ratio = gpu_ms / cpu_ms
    mean_rep = (
        p._rep_flop_prefix[-1] / p._flop_prefix[-1] if p._flop_prefix[-1] else 1.0
    )
    return 100.0 * ratio / (1.0 + ratio), min(cpu_ms, gpu_ms) / mean_rep


def ref_hh_split(p: HhCpuProblem, threshold: float) -> dict:
    high_rows = p._d_rows > threshold
    high_cols = p._contrib * (p._contrib > threshold)
    w_high = np.zeros(p._d_rows.size, dtype=np.float64)
    np.add.at(w_high, p._rows_expanded, high_cols)
    w_low = p._row_mults - w_high
    return {
        "cpu2": 2.0 * w_high[high_rows],
        "gpu2": 2.0 * w_low[~high_rows],
        "cpu3": 2.0 * w_low[high_rows],
        "gpu3": 2.0 * w_high[~high_rows],
        "rep_high": p._rep[high_rows],
        "rep_low": p._rep[~high_rows],
    }


def ref_hh_cpu_chunked(p: HhCpuProblem, work: np.ndarray, rep: np.ndarray) -> float:
    if work.size == 0 or float(work.sum()) == 0.0:
        return 0.0
    cpu = p.machine.cpu
    rate = effective_rate_per_ms(cpu, p.profile)
    total = float((work * rep).sum())
    heaviest = max(total / cpu.threads, float(work.max()))
    return heaviest / (rate / cpu.threads) + cpu.kernel_launch_us * 1e-3


def ref_hh_gpu_warp(p: HhCpuProblem, work: np.ndarray, rep: np.ndarray) -> float:
    if work.size == 0 or float(work.sum()) == 0.0:
        return 0.0
    gpu = p.machine.devices[1]
    quantum = gpu.warp_size * gpu.flops_per_cycle
    padded = np.ceil(work / quantum) * quantum
    rate = effective_rate_per_ms(gpu, p.profile)
    throughput = float((padded * rep).sum()) / rate
    straggler = float(work.max()) / (rate * gpu.warp_size / gpu.cores)
    return max(throughput, straggler) + gpu.kernel_launch_us * 1e-3


def ref_hh(p: HhCpuProblem, threshold: float) -> Timeline:
    s = ref_hh_split(p, threshold)
    tl = Timeline()
    n = p.a.n_rows
    if n == 0:
        return tl
    cpu = p.machine.cpu
    tl.run(
        "cpu",
        "phase1/classify-rows",
        p.work_scale * float(n) / effective_rate_per_ms(cpu, PROFILE_ROW_GATHER)
        + cpu.kernel_launch_us * 1e-3,
    )
    tl.overlap_many(
        [
            [
                ("cpu", "phase2/AH-x-BH", ref_hh_cpu_chunked(p, s["cpu2"], s["rep_high"])),
                ("gpu", "phase2/AL-x-BL", ref_hh_gpu_warp(p, s["gpu2"], s["rep_low"])),
            ],
            [
                ("cpu", "phase3/AH-x-BL", ref_hh_cpu_chunked(p, s["cpu3"], s["rep_high"])),
                ("gpu", "phase3/AL-x-BH", ref_hh_gpu_warp(p, s["gpu3"], s["rep_low"])),
            ],
        ]
    )
    gpu_mults = (
        float((s["gpu2"] * s["rep_low"]).sum() + (s["gpu3"] * s["rep_low"]).sum()) / 2.0
    )
    tl.run(
        "pcie",
        "phase4/d2h-partials",
        p.machine.link_for(1).transfer_ms(gpu_mults * p._compression * _BYTES_PER_NNZ),
    )
    cpu_mults = (
        float((s["cpu2"] * s["rep_high"]).sum() + (s["cpu3"] * s["rep_high"]).sum())
        / 2.0
    )
    combine_cpu = COMBINE_FACTOR * cpu_mults / effective_rate_per_ms(cpu, PROFILE_COMBINE)
    combine_gpu = gpu_iterative_time(
        COMBINE_FACTOR * gpu_mults, 1, p.machine.devices[1], PROFILE_COMBINE
    )
    tl.overlap(
        [
            ("cpu", "phase4/combine-cpu", combine_cpu),
            ("gpu", "phase4/combine-gpu", combine_gpu),
        ]
    )
    return tl


def ref_dense(p: DenseMmProblem, threshold: float) -> Timeline:
    split = p._split_row(threshold)
    n, rows = p.n, p.rows
    tl = Timeline()
    if rows == 0:
        return tl
    flops_per_row = 2.0 * n * n
    cpu_ms = (
        dense_mm_time(split * flops_per_row, p.machine.cpu, PROFILE_DENSE_MM)
        if split > 0
        else 0.0
    )
    gpu_ms = (
        dense_mm_time((rows - split) * flops_per_row, p.machine.devices[1], PROFILE_DENSE_MM)
        if split < rows
        else 0.0
    )
    tl.overlap([("cpu", "gemm-cpu", cpu_ms), ("gpu", "gemm-gpu", gpu_ms)])
    if split < rows:
        d2h = (rows - split) * n * _BYTES_PER_ELEMENT
        tl.run("pcie", "d2h-result", p.machine.link_for(1).transfer_ms(d2h))
    return tl


def ref_multiway_cc(p: MultiwayCcProblem, thresholds: Sequence[float]) -> Timeline:
    ranges = p._ranges(thresholds)
    prof = p._profile
    tl = Timeline()
    if p.graph.n == 0:
        return tl

    def vertices(a: int, b: int) -> int:
        return prof.cut_index(b) - prof.cut_index(a)

    def work_of(a: int, b: int) -> float:
        if p._rep_prefix is not None:
            return float(p._rep_prefix[prof.cut_index(b)] - p._rep_prefix[prof.cut_index(a)])
        return p.work_scale * float(vertices(a, b) + prof.degree_sum(a, b))

    tasks = []
    a, b = ranges[0]
    if vertices(a, b) > 0:
        cpu = p.cluster.devices[0]
        rate = effective_rate_per_ms(cpu, PROFILE_CC)
        if p._atom_prefix_max is not None:
            atom = float(p._atom_prefix_max[prof.cut_index(b)])
        else:
            atom = 1.0 + prof.max_degree_below(b)
        heaviest = max(work_of(a, b) / cpu.threads, atom)
        cpu_ms = heaviest / (rate / cpu.threads) + cpu.kernel_launch_us * 1e-3
        tasks.append(("cpu", "phase2/cc-cpu-dfs", cpu_ms))
    for i, (a, b) in enumerate(ranges[1:]):
        if vertices(a, b) > 0:
            gpu = p.cluster.devices[i + 1]
            sweep = SV_EFFECTIVE_PASSES * work_of(a, b) / effective_rate_per_ms(gpu, PROFILE_CC)
            launches = (
                modeled_sv_iterations(max(vertices(a, b), 2)) * gpu.kernel_launch_us * 1e-3
            )
            tasks.append((f"gpu{i}", f"phase2/cc-gpu{i}-sv", sweep + launches))
    tl.overlap(tasks)
    cross = prof.m - sum(prof.within(a, b) for a, b in ranges)
    if sum(1 for r in ranges if vertices(*r) > 0) > 1:
        mi = p.cluster.merge_device_index()
        merge_dev = p.cluster.devices[mi]
        foreign = p.graph.n - vertices(*ranges[mi])
        tl.run(
            p.cluster.interconnect.resource_for(mi),
            "phase2/h2d-labels",
            p.cluster.link_for(mi).transfer_ms(foreign * _BYTES_PER_VERTEX),
        )
        merge_ms = (
            MERGE_EFFECTIVE_PASSES
            * (2.0 * cross + 1.0)
            / effective_rate_per_ms(merge_dev, PROFILE_MERGE)
            + ref_merge_iterations(cross) * merge_dev.kernel_launch_us * 1e-3
        )
        tl.run(f"gpu{mi - 1}", "phase2/merge-cross-edges", merge_ms)
    return tl


def ref_multiway_spmm(p: MultiwaySpmmProblem, thresholds: Sequence[float]) -> Timeline:
    base = p._base
    cuts = p._check_vector(thresholds)
    n = p.a.n_rows
    bounds = [0, *(ref_spmm_split(base, c / 100.0) for c in cuts), n]
    tl = Timeline()
    if n == 0:
        return tl
    tasks = []
    if bounds[1] > 0:
        tasks.append(("cpu", "phase2/spgemm-cpu", ref_spmm_cpu(base, bounds[1])))
    for i in range(p.n_gpus):
        ms = ref_spmm_gpu_range(base, p.cluster.devices[i + 1], bounds[i + 1], bounds[i + 2])
        if ms > 0:
            tasks.append((f"gpu{i}", f"phase2/spgemm-gpu{i}", ms))
    tl.overlap(tasks)
    ic = p.cluster.interconnect
    transfers = []
    for i in range(p.n_gpus):
        lo, hi = bounds[i + 1], bounds[i + 2]
        if hi <= lo:
            continue
        mults = (base._rep_flop_prefix[hi] - base._rep_flop_prefix[lo]) / 2.0
        nbytes = mults * base._compression * _BYTES_PER_NNZ
        d2h = p.cluster.link_for(i + 1).transfer_ms(nbytes)
        transfers.append((ic.resource_for(i + 1), f"phase2/d2h-gpu{i}", d2h))
    if ic.topology == "shared":
        tl.run_many(transfers)
    elif transfers:
        tl.overlap(transfers)
    return tl


REFERENCE = {
    CcProblem: ref_cc,
    SpmmProblem: ref_spmm,
    HhCpuProblem: ref_hh,
    DenseMmProblem: ref_dense,
    MultiwayCcProblem: ref_multiway_cc,
    MultiwaySpmmProblem: ref_multiway_spmm,
}


def reference(problem, threshold) -> Timeline:
    return REFERENCE[type(problem)](problem, threshold)


# ---------------------------------------------------------------------------
# Instances (built once; hypothesis draws thresholds against them).
# ---------------------------------------------------------------------------


def _machine() -> ClusterSpec:
    return paper_testbed(time_scale=1 / 16)


@lru_cache(maxsize=None)
def suite_problem(kind: str, dataset: str):
    return build_problem(kind, dataset, SUITE_SCALE)


@lru_cache(maxsize=None)
def synthetic(name: str):
    """Small full and sampled instances of every problem family."""
    m = _machine()
    if name == "cc":
        return CcProblem(random_graph(400, 900, seed=3), m)
    if name == "cc/uniform":
        return synthetic("cc").sample(150, rng=np.random.default_rng(3))
    if name == "cc/importance":
        return synthetic("cc").sample(150, rng=np.random.default_rng(4), method="importance")
    if name == "spmm":
        return SpmmProblem(random_sparse(150, 150, 0.08, seed=5), m)
    if name in ("spmm/principal", "spmm/rows", "spmm/importance"):
        method = name.split("/")[1]
        return synthetic("spmm").sample(60, rng=np.random.default_rng(5), method=method)
    if name == "spmm/empty-rows":
        dense = np.zeros((40, 40))
        dense[5:9, :] = np.random.default_rng(2).random((4, 40))
        from repro.sparse.construct import from_dense

        return SpmmProblem(from_dense(dense), m)
    if name == "hh":
        return HhCpuProblem(scalefree_matrix(500, 10.0, alpha=2.2, rng=1), m)
    if name in ("hh/rows", "hh/importance", "hh/fold", "hh/thin"):
        method = name.split("/")[1]
        full = HhCpuProblem(
            scalefree_matrix(600, 11.0, alpha=2.3, rng=4), m, sampling_method=method
        )
        return full.sample(150, rng=np.random.default_rng(42))
    if name == "dense":
        return DenseMmProblem(256, m)
    if name == "dense/block":
        return DenseMmProblem(256, m).round_block(10, 90)
    kind, _, rest = name.partition(":")
    gpus, topology = rest.split("/")[:2]
    cluster = ClusterSpec.from_machine(m, n_gpus=int(gpus), topology=topology)
    if kind == "mcc":
        problem = MultiwayCcProblem(local_graph(1500, 1), cluster)
    else:
        problem = MultiwaySpmmProblem(banded_matrix(900, 12.0, rng=3), cluster)
    if name.endswith("/sampled"):
        return problem.sample(300, rng=np.random.default_rng(7))
    return problem


FULL_SCALAR = ["cc", "spmm", "spmm/empty-rows", "hh", "dense", "dense/block"]
SAMPLED_EXACT = ["cc/uniform", "cc/importance", "spmm/principal", "spmm/rows", "spmm/importance"]
SAMPLED_HH = ["hh/rows", "hh/importance", "hh/fold", "hh/thin"]
MULTIWAY = [
    f"{kind}:{gpus}/{topology}{suffix}"
    for kind in ("mcc", "mspmm")
    for gpus in (1, 2, 3)
    for topology in ("shared", "dedicated")
    for suffix in ("", "/sampled")
]
SUITE = [(kind, name) for kind in ("cc", "spmm", "hh") for name in dataset_names()]


def rtol_for(name: str) -> float:
    return HH_SAMPLED_RTOL if name in SAMPLED_HH else 0.0


def assert_same_timeline(got: Timeline, want: Timeline, rtol: float = 0.0) -> None:
    got_spans, want_spans = got.spans, want.spans
    assert [(s.resource, s.label) for s in got_spans] == [
        (s.resource, s.label) for s in want_spans
    ]
    starts = np.array([s.start_ms for s in got_spans])
    durations = np.array([s.duration_ms for s in got_spans])
    want_starts = np.array([s.start_ms for s in want_spans])
    want_durations = np.array([s.duration_ms for s in want_spans])
    if rtol:
        np.testing.assert_allclose(starts, want_starts, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(durations, want_durations, rtol=rtol, atol=0.0)
        assert got.total_ms == pytest.approx(want.total_ms, rel=rtol, abs=0.0)
    else:
        np.testing.assert_array_equal(starts, want_starts)
        np.testing.assert_array_equal(durations, want_durations)
        assert got.total_ms == want.total_ms


def check_threshold(problem, threshold, rtol: float = 0.0) -> None:
    """One threshold: timeline vs reference, and timeline total vs evaluate_ms."""
    tl = problem.timeline(threshold)
    assert_same_timeline(tl, reference(problem, threshold), rtol)
    assert tl.total_ms == problem.evaluate_ms(threshold)


def scalar_grid(problem) -> np.ndarray:
    return np.asarray(problem.threshold_grid(), dtype=np.float64)


def vector_batch(problem, count: int, seed: int) -> np.ndarray:
    """All-CPU and all-last-device vectors, then on-grid and off-grid ones."""
    gen = np.random.default_rng(seed)
    vectors = np.sort(gen.uniform(0.0, 100.0, size=(count, problem.n_cuts)), axis=1)
    vectors[: count // 2] = np.round(vectors[: count // 2])
    edges = [np.zeros(problem.n_cuts), np.full(problem.n_cuts, 100.0)]
    return np.vstack([*edges, vectors])


# ---------------------------------------------------------------------------
# Grids: evaluate_many against the reference makespans.
# ---------------------------------------------------------------------------


class TestGridMakespans:
    @pytest.mark.parametrize("kind,dataset", SUITE)
    def test_suite_full_instances_bit_exact(self, kind, dataset):
        problem = suite_problem(kind, dataset)
        grid = scalar_grid(problem)
        want = np.array([reference(problem, float(t)).total_ms for t in grid])
        np.testing.assert_array_equal(problem.evaluate_many(grid), want)

    @pytest.mark.parametrize("kind", ["cc", "spmm", "hh"])
    def test_suite_sampled_instances(self, kind):
        for i, dataset in enumerate(dataset_names()):
            full = suite_problem(kind, dataset)
            sub = full.sample(full.default_sample_size(), rng=np.random.default_rng(i))
            grid = scalar_grid(sub)
            want = np.array([reference(sub, float(t)).total_ms for t in grid])
            got = sub.evaluate_many(grid)
            if kind == "hh":
                np.testing.assert_allclose(got, want, rtol=HH_SAMPLED_RTOL, atol=0.0)
            else:
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", FULL_SCALAR + SAMPLED_EXACT + SAMPLED_HH)
    def test_synthetic_grid(self, name):
        problem = synthetic(name)
        grid = scalar_grid(problem)
        off_grid = np.array([0.0, 100.0, 12.5, 12.5, 99.9, 0.1, 73.25])
        if isinstance(problem, HhCpuProblem):
            top = float(problem._d_rows.max())
            off_grid = np.array([0.0, 0.5, top - 0.5, top, top + 1.0, 1e9])
        ts = np.concatenate([grid, off_grid])
        want = np.array([reference(problem, float(t)).total_ms for t in ts])
        np.testing.assert_allclose(
            problem.evaluate_many(ts), want, rtol=rtol_for(name), atol=0.0
        )
        if not rtol_for(name):
            np.testing.assert_array_equal(problem.evaluate_many(ts), want)

    def test_multidimensional_batch_keeps_its_shape(self):
        problem = synthetic("cc")
        ts = scalar_grid(problem)[:20].reshape(4, 5)
        got = problem.evaluate_many(ts)
        assert got.shape == (4, 5)
        want = [reference(problem, float(t)).total_ms for t in ts.ravel()]
        np.testing.assert_array_equal(got.ravel(), want)

    @pytest.mark.parametrize("name", MULTIWAY)
    def test_multiway_vectors_bit_exact(self, name):
        problem = synthetic(name)
        vectors = vector_batch(problem, 40, seed=len(name))
        want = np.array([reference(problem, list(v)).total_ms for v in vectors])
        np.testing.assert_array_equal(problem.evaluate_many(vectors), want)

    @pytest.mark.parametrize("kind", ["cluster-cc", "cluster-spmm"])
    @pytest.mark.parametrize("n_devices,topology", [(3, "shared"), (4, "dedicated")])
    def test_suite_cluster_instances_bit_exact(self, kind, n_devices, topology):
        for dataset in ("netherlands_osm", "cant", "webbase-1M"):
            problem = build_problem(
                kind, dataset, SUITE_SCALE, n_devices=n_devices, interconnect=topology
            )
            vectors = vector_batch(problem, 30, seed=n_devices)
            want = np.array([reference(problem, list(v)).total_ms for v in vectors])
            np.testing.assert_array_equal(problem.evaluate_many(vectors), want)

    def test_race_probe_matches_reference(self):
        for name in ("spmm", "spmm/principal", "spmm/rows", "spmm/importance", "spmm/empty-rows"):
            problem = synthetic(name)
            assert problem.race_probe() == ref_race_probe(problem)


# ---------------------------------------------------------------------------
# Timelines: span by span, at hypothesis-drawn thresholds.
# ---------------------------------------------------------------------------

_HYPOTHESIS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

percent = st.one_of(
    st.sampled_from([0.0, 100.0, 50.0, 0.5, 99.5]),
    st.integers(0, 100).map(float),
    st.floats(0.0, 100.0, allow_nan=False),
)


class TestTimelines:
    @_HYPOTHESIS
    @given(name=st.sampled_from([n for n in FULL_SCALAR if n != "hh"] + SAMPLED_EXACT), t=percent)
    def test_percent_problems(self, name, t):
        check_threshold(synthetic(name), t)

    @_HYPOTHESIS
    @given(
        name=st.sampled_from(["hh", *SAMPLED_HH]),
        where=st.one_of(
            st.sampled_from(["zero", "top", "above", "grid"]),
            st.floats(0.0, 1.5),
        ),
        pick=st.integers(0, 10_000),
    )
    def test_hh_cutoffs(self, name, where, pick):
        problem = synthetic(name)
        top = float(problem._d_rows.max())
        grid = scalar_grid(problem)
        if isinstance(where, float):
            t = where * top
        else:
            t = {
                "zero": 0.0,
                "top": top,
                "above": top + 1.0 + pick,
                "grid": float(grid[pick % grid.size]),
            }[where]
        check_threshold(problem, t, rtol_for(name))

    @_HYPOTHESIS
    @given(name=st.sampled_from(MULTIWAY), data=st.data())
    def test_multiway_vectors(self, name, data):
        problem = synthetic(name)
        cuts = data.draw(st.lists(percent, min_size=problem.n_cuts, max_size=problem.n_cuts))
        check_threshold(problem, sorted(cuts))

    @pytest.mark.parametrize("kind", ["cc", "spmm", "hh"])
    def test_suite_timelines(self, kind):
        for dataset in dataset_names():
            problem = suite_problem(kind, dataset)
            grid = scalar_grid(problem)
            for t in (grid[0], grid[grid.size // 3], grid[-1], 12.5):
                check_threshold(problem, float(t))

    def test_zero_length_spans_are_recorded(self):
        # Dense GEMM at a 0% CPU share still records its idle CPU span,
        # and HH above the densest row still records its empty CPU phases.
        dense = synthetic("dense")
        spans = dense.timeline(0.0).spans
        assert [s.label for s in spans] == ["gemm-cpu", "gemm-gpu", "d2h-result"]
        assert spans[0].duration_ms == 0.0
        hh = synthetic("hh")
        spans = {s.label: s for s in hh.timeline(float(hh._d_rows.max())).spans}
        assert spans["phase2/AH-x-BH"].duration_ms == 0.0
        assert spans["phase3/AH-x-BL"].duration_ms == 0.0

    def test_run_records_the_priced_timeline(self):
        for name, t in (("cc", 37.0), ("spmm", 61.0), ("hh", 3.0), ("dense", 12.0)):
            problem = synthetic(name)
            assert_same_timeline(problem.run(t).timeline, reference(problem, t))
        for name in ("mcc:2/shared", "mspmm:3/dedicated"):
            problem = synthetic(name)
            vector = list(np.linspace(20.0, 80.0, problem.n_cuts))
            assert_same_timeline(problem.run(vector).timeline, reference(problem, vector))


def test_merge_iterations_match_log2_model():
    powers = 2 ** np.arange(1, 45, dtype=np.int64)
    counts = np.concatenate([np.arange(0, 1 << 16), powers - 1, powers, powers + 1])
    want = np.array([ref_merge_iterations(int(c)) for c in counts])
    np.testing.assert_array_equal(modeled_merge_iterations(counts), want)
    assert modeled_merge_iterations(1024) == 11 and modeled_merge_iterations(1025) == 12


def test_scalar_threshold_errors_name_the_value():
    problem = synthetic("cc")
    for bad in (-1.0, 100.5, math.nan):
        with pytest.raises(ValidationError, match="threshold must be in"):
            problem.evaluate_ms(bad)
    with pytest.raises(ValidationError, match="density threshold must be >= 0"):
        synthetic("hh").evaluate_ms(-2.0)
