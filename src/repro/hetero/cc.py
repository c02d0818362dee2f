"""Algorithm 1 — hybrid connected components (paper Section III).

Phase I cuts the vertex set: the CPU owns a prefix of the vertices, the GPU
the suffix, sized by the threshold.  Phase II finds components of the CPU
subgraph with chunked sequential DFS (one chunk per thread), of the GPU
subgraph with Shiloach-Vishkin, overlapped; a GPU pass over the cross edges
then merges the two labelings.

The reported **threshold is the GPU's vertex share in percent** — the axis
the paper plots (NaiveStatic lands at 88, NaiveAverage near 90).
Algorithm 1's ``n_cpu`` is simply ``n - n_gpu``.

Pricing model (see DESIGN.md §5 and the methodology notes in
EXPERIMENTS.md):

* The graph is dual-resident (host + device copies made at load time), so
  only split-dependent traffic — the CPU labels shipped for the merge —
  crosses PCIe during a run.
* CPU: Algorithm 1 line 6 chunking is *work balanced* (equal adjacency
  volume per thread); the heaviest chunk is bounded below by the heaviest
  single vertex (a traversal of one vertex's neighborhood is atomic).
* GPU: Shiloach-Vishkin is charged a constant number of effective full
  passes over the subgraph plus one launch per modeled O(log n) round.
* Sampled (identify) instances carry the *original degrees* of the sampled
  vertices as weights and price the full instance they represent
  (represented work with true per-vertex atomicity floors) on an
  overhead-free machine: an induced √n subgraph keeps almost no edges, so
  without the weights the identify step would be blind to the input's
  degree profile, and with fixed launch constants it would degenerate to a
  boundary threshold.  Uniform, importance (PPS-by-work), and literal
  (ablation) samplers are available.

:class:`CcProblem` prices any threshold in O(1)-ish using a
:class:`~repro.graphs.partition.CutProfile` and can :meth:`run` the real
algorithm to produce verified component labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.partition import CutProfile, split_by_vertex
from repro.graphs.shiloach_vishkin import (
    SvResult,
    modeled_sv_iterations,
    shiloach_vishkin,
    sv_on_edges,
)
from repro.platform.costmodel import (
    PROFILE_CC,
    PROFILE_MERGE,
    KernelProfile,
    PricingTables,
    effective_rate_per_ms,
)
from repro.platform.cluster import ClusterSpec, require_two_devices
from repro.platform.timeline import Timeline
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator

_INDEX = np.int64

#: Bytes per vertex shipped over PCIe (a component label).
_BYTES_PER_VERTEX = 8

#: Effective full passes over the GPU subgraph's edges+labels across all
#: Shiloach-Vishkin rounds.  The active set shrinks geometrically after the
#: first hooking round, so total traversal is a small constant multiple of
#: one pass; the *per-round launch latency* still scales with the modeled
#: O(log n) round count.
SV_EFFECTIVE_PASSES = 3.0

#: Same notion for the cross-edge merge (its contracted graph is shallow).
MERGE_EFFECTIVE_PASSES = 2.0

#: Streaming row-gather + membership filter during sample construction.
PROFILE_EDGE_SCAN = KernelProfile(
    name="edge-scan",
    cpu_efficiency=0.25,
    gpu_efficiency=0.25,
    bound="memory",
    bytes_per_unit=16.0,
)


@dataclass(frozen=True)
class CcRunResult:
    """Outcome of actually executing Algorithm 1.

    ``labels`` are canonical (minimum vertex id per component) over the
    full graph; ``n_components`` counts them.  ``gpu_sv``/``merge_sv`` carry
    the observed Shiloach-Vishkin round counts.
    """

    threshold: float
    labels: np.ndarray
    n_components: int
    gpu_sv: SvResult | None
    merge_sv: SvResult | None
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


def modeled_merge_iterations(n_cross_edges: int) -> int:
    """Hooking rounds modeled for the cross-edge merge: ``ceil(log2(c)) + 1``."""
    if n_cross_edges < 0:
        raise ValidationError("cross edge count must be non-negative")
    if n_cross_edges <= 1:
        return 1
    return int(math.ceil(math.log2(n_cross_edges))) + 1


class CcProblem:
    """Connected components of one graph on one machine.

    Parameters
    ----------
    graph:
        The input graph; vertex order is part of the instance.
    machine:
        Simulated platform.
    name:
        Dataset label for reports.
    vertex_weights:
        Original-graph degrees of this (sampled) instance's vertices; set
        by :meth:`sample`, ``None`` for full instances.
    """

    #: The PCIe traffic ships the *CPU's* labels up for the GPU merge, so
    #: the dynamic-rebalance observer charges it to the CPU side.
    rebalance_pcie_device = "cpu"

    def __init__(
        self,
        graph: Graph,
        machine: ClusterSpec,
        name: str = "cc",
        vertex_weights: np.ndarray | None = None,
        work_scale: float = 1.0,
        rep_work: np.ndarray | None = None,
        sampling_method: str = "uniform",
        profile: KernelProfile | None = None,
    ) -> None:
        if work_scale <= 0:
            raise ValidationError("work_scale must be positive")
        if sampling_method not in ("uniform", "importance", "literal"):
            raise ValidationError(
                f"unknown sampling_method {sampling_method!r}"
            )
        self.graph = graph
        self.machine = require_two_devices(machine)
        self.name = name
        self.work_scale = float(work_scale)
        self.sampling_method = sampling_method
        # The traversal kernel profile; injectable so a calibrated machine
        # drives the pricing (see repro.platform.calibration).
        self.profile = profile if profile is not None else PROFILE_CC
        self._cut = CutProfile(graph)
        if vertex_weights is not None:
            vertex_weights = np.asarray(vertex_weights, dtype=np.float64)
            if vertex_weights.shape != (graph.n,):
                raise ValidationError(
                    f"vertex_weights must have shape ({graph.n},)"
                )
            # Per-vertex atomicity floor: the true traversal work of one
            # vertex (a vertex's own DFS visit cannot be split).
            atom = 1.0 + vertex_weights
            # Represented work: what this sampled vertex stands for in the
            # full instance.  Uniform sampling: each of the s draws stands
            # for n/s vertices of its own weight.  Importance (PPS) draws
            # pass an explicit Hansen-Hurwitz rep_work instead.
            if rep_work is None:
                rep_work = self.work_scale * atom
            else:
                rep_work = np.asarray(rep_work, dtype=np.float64)
                if rep_work.shape != (graph.n,):
                    raise ValidationError(
                        f"rep_work must have shape ({graph.n},)"
                    )
            tables = PricingTables.build(rep_work, atom=atom)
            self._rep_prefix = tables.rep_prefix
            self._atom_prefix_max = tables.prefix_max
        else:
            if rep_work is not None:
                raise ValidationError("rep_work requires vertex_weights")
            self._rep_prefix = None
            self._atom_prefix_max = None
        self.vertex_weights = vertex_weights

    @property
    def is_sample(self) -> bool:
        return self.vertex_weights is not None

    # -- threshold geometry ---------------------------------------------------

    def _cut_index(self, gpu_share_percent: float) -> int:
        """CPU-prefix length (Algorithm 1's n_cpu) for a GPU share threshold."""
        if not 0.0 <= gpu_share_percent <= 100.0:
            raise ValidationError(
                f"threshold must be in [0, 100], got {gpu_share_percent}"
            )
        n_gpu = int(round(self.graph.n * gpu_share_percent / 100.0))
        return self.graph.n - n_gpu

    # -- PartitionProblem protocol ----------------------------------------------

    def evaluate_ms(self, threshold: float) -> float:
        """Phase-II makespan at *threshold* (GPU vertex share, percent)."""
        return self._phase2(threshold).total_ms

    def timeline(self, threshold: float) -> Timeline:
        """Full span-level trace of Phase II at *threshold*."""
        return self._phase2(threshold)

    def evaluate_many(self, thresholds: np.ndarray) -> np.ndarray:
        """Batched :meth:`evaluate_ms` over a threshold array.

        One vectorized pass over the O(1)-per-cut tables (the
        :class:`~repro.graphs.partition.CutProfile` for full instances,
        the sampled-instance :class:`PricingTables`), mirroring the scalar
        evaluator's float64 arithmetic operation for operation so both
        paths price a threshold bit-identically (docs/PERFORMANCE.md).
        """
        ts = np.asarray(thresholds, dtype=np.float64)
        if ts.size == 0:
            return np.zeros(0, dtype=np.float64)
        if float(ts.min()) < 0.0 or float(ts.max()) > 100.0:
            raise ValidationError("thresholds must be in [0, 100]")
        n = self.graph.n
        if n == 0:
            return np.zeros(ts.shape, dtype=np.float64)
        n_gpu = np.round(n * ts / 100.0).astype(_INDEX)
        k = n - n_gpu

        cpu = self.machine.cpu
        gpu = self.machine.devices[1]
        rate_cpu = effective_rate_per_ms(cpu, self.profile)
        rate_gpu = effective_rate_per_ms(gpu, self.profile)
        threads = cpu.threads

        # CPU chunked DFS over the prefix [0, k).
        if self._rep_prefix is not None:
            cpu_work = self._rep_prefix[k]
            atom = self._atom_prefix_max[k]
        else:
            cpu_work = self.work_scale * (
                k + self._cut.cpu_degree_sum_many(k)
            ).astype(np.float64)
            atom = 1.0 + self._cut.max_degree_below_many(k).astype(np.float64)
        heaviest = np.maximum(cpu_work / threads, atom)
        cpu_ms = heaviest / (rate_cpu / threads) + cpu.kernel_launch_us * 1e-3

        # GPU Shiloach-Vishkin over the suffix [k, n).
        if self._rep_prefix is not None:
            gpu_work = self._rep_prefix[n] - self._rep_prefix[k]
        else:
            gpu_work = self.work_scale * (
                (n - k) + 2 * self._cut.m_gpu_many(k)
            ).astype(np.float64)
        sweep = SV_EFFECTIVE_PASSES * gpu_work / rate_gpu
        sv_iters = np.where(
            n_gpu <= 1,
            1,
            np.ceil(np.log2(np.maximum(n_gpu, 2))).astype(_INDEX) + 1,
        )
        gpu_ms = sweep + sv_iters * gpu.kernel_launch_us * 1e-3

        longest = np.maximum(
            np.where(k > 0, cpu_ms, 0.0), np.where(n_gpu > 0, gpu_ms, 0.0)
        )

        # Merge across the cut (runs only when both sides are populated).
        merge_mask = (k > 0) & (n_gpu > 0)
        transfer = self.machine.link_for(1).transfer_ms_many(k * _BYTES_PER_VERTEX)
        m_cross = self._cut.m_cross_many(k)
        # modeled_merge_iterations uses math.log2; evaluate it once per
        # distinct cross-edge count so batch and scalar agree bit-exactly.
        uniq, inverse = np.unique(m_cross, return_inverse=True)
        merge_iters = np.array(
            [modeled_merge_iterations(int(c)) for c in uniq], dtype=_INDEX
        )[inverse].reshape(m_cross.shape)
        merge_rate = effective_rate_per_ms(gpu, PROFILE_MERGE)
        merge_ms = (
            MERGE_EFFECTIVE_PASSES
            * (2.0 * m_cross.astype(np.float64) + 1.0)
            / merge_rate
            + merge_iters * gpu.kernel_launch_us * 1e-3
        )
        total = longest + np.where(merge_mask, transfer, 0.0)
        return total + np.where(merge_mask, merge_ms, 0.0)

    def threshold_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def sample(
        self, size: int, rng: RngLike = None, method: str | None = None
    ) -> "CcProblem":
        """Section III-A.1: the subgraph induced by *size* random vertices.

        Methods (*method* defaults to this problem's ``sampling_method``):

        * ``"uniform"`` — the paper's sampler.  The sampled vertices keep
          their original degrees as weights (the extraction pass reads them
          for free) and price the full instance they represent.
        * ``"importance"`` — probability-proportional-to-size sampling by
          per-vertex work (1 + degree), the importance-sampling extension
          the paper leaves as future work.  Each draw then represents an
          equal share of the *work* (the Hansen-Hurwitz estimator), which
          lowers the variance of the prefix-work estimate on skewed degree
          sequences.
        * ``"literal"`` — the ablation: the bare induced subgraph on the
          real machine, no weights, no scaling.  This is the paper's
          procedure taken at face value; the identify step degenerates on
          it (see EXPERIMENTS.md, methodology note 3).
        """
        size = min(size, self.graph.n)
        gen = as_generator(rng)
        method = method or self.sampling_method
        degrees = self.graph.degrees().astype(np.float64)
        if method == "importance":
            work = 1.0 + degrees
            # Efraimidis-Spirakis weighted sampling without replacement.
            keys = gen.random(self.graph.n) ** (1.0 / work)
            vs = np.sort(np.argpartition(keys, -size)[-size:])
            p = work / work.sum()
            rep = work[vs] / (size * p[vs])  # == work.sum()/size, constant
        elif method in ("uniform", "literal"):
            vs = np.sort(gen.choice(self.graph.n, size=size, replace=False))
            rep = None
        else:
            raise ValidationError(f"unknown sampling method {method!r}")
        sub = self.graph.subgraph(vs)
        if method == "literal":
            return CcProblem(sub, self.machine, name=f"{self.name}/literal{size}")
        return CcProblem(
            sub,
            self.machine.without_fixed_overheads(),
            name=f"{self.name}/sample{size}",
            vertex_weights=degrees[vs],
            work_scale=self.graph.n / max(size, 1),
            rep_work=rep,
            profile=self.profile,
        )

    def sampling_cost_ms(self, size: int) -> float:
        """Cost of building ``G[S]`` via CSR slicing.

        A membership bitmap over the vertex set (one pass over ``n`` bits)
        plus a gather of the sampled vertices' adjacency lists (expected
        ``size * average_degree`` entries, each tested against the bitmap).
        """
        avg_deg = 2.0 * self.graph.m / max(self.graph.n, 1)
        work = float(size) * (1.0 + avg_deg) + self.graph.n / 8.0
        return work / effective_rate_per_ms(self.machine.cpu, PROFILE_EDGE_SCAN)

    def default_sample_size(self) -> int:
        """The paper's choice: √n vertices."""
        return max(2, math.isqrt(self.graph.n))

    def naive_static_threshold(self) -> float:
        """GPU share from the peak-FLOPS ratio (88 on the paper testbed)."""
        return 100.0 * self.machine.peak_shares()[1]

    def gpu_only_threshold(self) -> float:
        return 100.0

    def run_overhead_ms(self, sample_size: int) -> float:
        """Fixed (work-independent) cost of one identify run on the sample.

        The identify search itself minimizes work-only time; the *wall
        clock* each run costs on the real machine still pays the launch
        constants — one CPU parallel-region launch, the Shiloach-Vishkin
        round launches, the merge launches, and one label transfer.
        """
        sv_launches = modeled_sv_iterations(max(sample_size, 2))
        merge_launches = 3
        gpu = self.machine.devices[1]
        return (
            self.machine.cpu.kernel_launch_us * 1e-3
            + (sv_launches + merge_launches) * gpu.kernel_launch_us * 1e-3
            + self.machine.link_for(1).latency_us * 1e-3
        )

    def probe_cost_ms(self) -> float:
        """Actual execution cost of one identify run on this sampled instance.

        Decision values (``evaluate_ms``) are degree-weighted so the search
        can read the full input's balance, but the probe run itself only
        executes the miniature ``G[S]``: its real cost is the unweighted
        work at full-machine throughput.  Fixed launch constants are
        accounted separately via :meth:`run_overhead_ms`.
        """
        if not self.is_sample:
            raise ValidationError("probe_cost_ms is defined for sampled instances")
        work = float(self.graph.n + 2 * self.graph.m)
        cpu_rate = effective_rate_per_ms(self.machine.cpu, self.profile)
        gpu_rate = effective_rate_per_ms(self.machine.devices[1], self.profile)
        combined = cpu_rate + gpu_rate / SV_EFFECTIVE_PASSES
        return work / combined

    # -- rounds (repro.hetero.dynamic_rebalance) -----------------------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (the vertex order)."""
        return self.graph.n

    def round_block(self, lo: int, hi: int) -> "CcProblem":
        """The induced subgraph on the contiguous vertex range ``[lo, hi)``.

        Cross-block edges fold into the final merge exactly as cross-cut
        edges do within a block, so pricing rounds on induced blocks keeps
        the Phase-II model's shape.  Full instances only (a sampled
        instance represents the whole input).
        """
        if self.is_sample:
            raise ValidationError("round_block is defined for full instances")
        if not 0 <= lo < hi <= self.graph.n:
            raise ValidationError(f"bad vertex block [{lo}, {hi})")
        sub = self.graph.subgraph(np.arange(lo, hi, dtype=_INDEX))
        return CcProblem(
            sub,
            self.machine,
            name=f"{self.name}/verts[{lo}:{hi})",
            sampling_method=self.sampling_method,
            profile=self.profile,
        )

    def cpu_share_at(self, threshold: float) -> float:
        """CPU share of the axis at *threshold* (the threshold is GPU share)."""
        return 1.0 - threshold / 100.0

    def threshold_for_cpu_share(self, share: float) -> float:
        """Threshold (GPU vertex share, percent) giving the CPU *share*."""
        return 100.0 * (1.0 - min(max(share, 0.0), 1.0))

    # -- analytic Phase II pricing ------------------------------------------------

    def _cpu_work(self, k: int) -> float:
        """Represented CPU-side work units for the prefix ``[0, k)``."""
        if self._rep_prefix is not None:
            return float(self._rep_prefix[k])
        return self.work_scale * float(k + self._cut.cpu_degree_sum(k))

    def _gpu_work(self, k: int) -> float:
        """Represented GPU-side sweep units for the suffix ``[k, n)``."""
        n = self.graph.n
        if self._rep_prefix is not None:
            return float(self._rep_prefix[n] - self._rep_prefix[k])
        return self.work_scale * float((n - k) + 2 * self._cut.m_gpu(k))

    def _cpu_ms(self, k: int) -> float:
        """Work-balanced chunking with per-vertex atomicity.

        Sampled instances price the full instance they represent: totals
        are represented work (each sampled vertex stands for its
        Hansen-Hurwitz share) while the atomicity floor — the heaviest
        single vertex's own traversal — stays at its true, unscaled
        magnitude (its weight is an original degree).
        """
        rate = effective_rate_per_ms(self.machine.cpu, self.profile)
        work = self._cpu_work(k)
        threads = self.machine.cpu.threads
        if self._atom_prefix_max is not None:
            atom = float(self._atom_prefix_max[k])
        else:
            atom = 1.0 + self._cut.max_degree_below(k)
        heaviest = max(work / threads, atom)
        per_thread = rate / threads
        return heaviest / per_thread + self.machine.cpu.kernel_launch_us * 1e-3

    def _gpu_ms(self, k: int) -> float:
        n_gpu = self.graph.n - k
        gpu = self.machine.devices[1]
        rate = effective_rate_per_ms(gpu, self.profile)
        sweep = SV_EFFECTIVE_PASSES * self._gpu_work(k) / rate
        launches = modeled_sv_iterations(n_gpu) * gpu.kernel_launch_us * 1e-3
        return sweep + launches

    def _phase2(self, threshold: float) -> Timeline:
        k = self._cut_index(threshold)  # CPU owns [0, k)
        n = self.graph.n
        n_gpu = n - k
        tl = Timeline()
        if n == 0:
            return tl

        tasks: list[tuple[str, str, float]] = []
        if k > 0:
            tasks.append(("cpu", "phase2/cc-cpu-dfs", self._cpu_ms(k)))
        if n_gpu > 0:
            tasks.append(("gpu", "phase2/cc-gpu-sv", self._gpu_ms(k)))
        tl.overlap(tasks)

        # Merge across the cut on the GPU (Algorithm 1 line 9).
        if k > 0 and n_gpu > 0:
            tl.run(
                "pcie",
                "phase2/h2d-cpu-labels",
                self.machine.link_for(1).transfer_ms(k * _BYTES_PER_VERTEX),
            )
            m_cross = self._cut.m_cross(k)
            merge_iters = modeled_merge_iterations(m_cross)
            merge_rate = effective_rate_per_ms(self.machine.devices[1], PROFILE_MERGE)
            merge_ms = (
                MERGE_EFFECTIVE_PASSES * (2.0 * m_cross + 1.0) / merge_rate
                + merge_iters * self.machine.devices[1].kernel_launch_us * 1e-3
            )
            tl.run("gpu", "phase2/merge-cross-edges", merge_ms)
        return tl

    # -- real execution ------------------------------------------------------------

    def run(self, threshold: float) -> CcRunResult:
        """Execute Algorithm 1 at *threshold* and verify-ready labels.

        Components of both subgraphs are computed with the vectorized
        Shiloach-Vishkin kernel (on the CPU side it stands in for the
        chunked DFS — identical output, the clock is modeled anyway), then
        merged over the cross edges.
        """
        k = self._cut_index(threshold)
        part = split_by_vertex(self.graph, k)
        n = self.graph.n
        labels = np.empty(n, dtype=_INDEX)
        gpu_sv: SvResult | None = None
        if k > 0:
            cpu_res = shiloach_vishkin(part.cpu_graph)
            labels[:k] = cpu_res.labels  # local ids == global ids on the prefix
        if n - k > 0:
            gpu_sv = shiloach_vishkin(part.gpu_graph)
            labels[k:] = gpu_sv.labels + k
        merge_sv: SvResult | None = None
        if part.n_cross > 0:
            merge_sv = sv_on_edges(n, labels[part.cross_u], labels[part.cross_v])
            labels = merge_sv.labels[labels]
        n_components = int(np.unique(labels).size) if n else 0
        return CcRunResult(
            threshold=float(threshold),
            labels=labels,
            n_components=n_components,
            gpu_sv=gpu_sv,
            merge_sv=merge_sv,
            timeline=self._phase2(threshold),
        )
