"""Multi-device extension: hybrid CC on one CPU plus ``p - 1`` accelerators.

The paper claims its technique "can be extended easily to other
heterogeneous computing platforms ... the values of the threshold(s) now
can be treated as a vector, unlike a scalar in the simple CPU+GPU case"
(Section II) but never builds that case.  This module does: Algorithm 1
generalized to a :class:`~repro.platform.cluster.ClusterSpec` of ``p``
heterogeneous devices, with the vertex axis cut into ``p`` contiguous
ranges by a *threshold vector* of cumulative percentages.

* Threshold vector ``(c_1, …, c_{p-1})`` with ``0 <= c_1 <= … <= 100``:
  the CPU owns vertices below ``c_1`` percent, accelerator ``i`` owns the
  range ``[c_i, c_{i+1})`` (the last one up to 100).  Each range prices on
  its *own* device spec, so unequal accelerators pull the optimum away
  from equal shares.
* Phase II runs all devices overlapped; a merge pass on the fastest
  accelerator joins the per-range labelings over every cross-range edge,
  after the foreign labels ship over that device's interconnect link.
* Identify uses cyclic coordinate descent
  (:func:`repro.core.cut_vector.coordinate_descent`): each coordinate is a
  1-D search with the others held fixed, repeated until no coordinate
  moves — the natural vector generalization of the paper's 1-D searches.

Pricing needs "edges within [a, b)" for arbitrary percent ranges; a
:class:`RangeCutProfile` precomputes a 2-D dominance count over the
101-point percent grid so every range query is O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.shiloach_vishkin import SvResult, shiloach_vishkin, sv_on_edges
from repro.hetero.cc import (
    MERGE_EFFECTIVE_PASSES,
    SV_EFFECTIVE_PASSES,
    PROFILE_EDGE_SCAN,
    modeled_merge_iterations,
)
from repro.platform.cluster import ClusterSpec
from repro.platform.costmodel import (
    PROFILE_CC,
    PROFILE_MERGE,
    effective_rate_per_ms,
)
from repro.platform.timeline import PricedSchedule, Timeline
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator

def _require_gpu_cluster(cluster: ClusterSpec, class_name: str) -> ClusterSpec:
    """Check *cluster* is a :class:`ClusterSpec` whose accelerators are GPUs."""
    if not isinstance(cluster, ClusterSpec):
        raise ValidationError(
            f"{class_name} expects a ClusterSpec, got {type(cluster).__name__}"
        )
    for d in cluster.accelerators:
        if d.kind != "gpu":
            raise ValidationError(
                f"{class_name} accelerators must be GPUs, got {d.kind!r}"
            )
    return cluster


_INDEX = np.int64
_BYTES_PER_VERTEX = 8

#: Number of percent grid points (0..100 inclusive).
_GRID = 101


def _as_scalar(out: np.ndarray):
    """A 0-d result as a Python int; arrays pass through."""
    return int(out) if np.ndim(out) == 0 else out


class RangeCutProfile:
    """O(1) edge counts for arbitrary percent ranges of the vertex axis.

    ``within(a, b)`` = edges with both endpoints in percent range
    ``[a, b)``; built from a 2-D cumulative histogram of each edge's
    (min-endpoint bucket, max-endpoint bucket).
    """

    def __init__(self, graph: Graph) -> None:
        self._n = graph.n
        self._m = graph.m
        # cut_positions[c] = first vertex at or above c percent.
        self._cuts = np.array(
            [int(round(graph.n * c / 100.0)) for c in range(_GRID)], dtype=_INDEX
        )
        if graph.m:
            lo_bucket = np.searchsorted(self._cuts, graph.edge_u, side="right") - 1
            hi_bucket = np.searchsorted(self._cuts, graph.edge_v, side="right") - 1
            hist = np.zeros((_GRID, _GRID), dtype=np.int64)
            np.add.at(hist, (lo_bucket, hi_bucket), 1)
            self._cum = hist.cumsum(axis=0).cumsum(axis=1)
        else:
            self._cum = np.zeros((_GRID, _GRID), dtype=np.int64)
        degrees = graph.degrees()
        self._degree_prefix = np.concatenate(([0], np.cumsum(degrees))).astype(_INDEX)
        self._degree_prefix_max = np.concatenate(
            ([0], np.maximum.accumulate(degrees) if graph.n else [])
        ).astype(_INDEX)

    def cut_index(self, percent):
        """First vertex at or above *percent* (an int or an int array)."""
        return _as_scalar(self._cuts[np.asarray(percent, dtype=_INDEX)])

    def within(self, a, b):
        """Edges with both endpoints in percent range ``[a, b)``.

        Takes two ints or two aligned int arrays; empty ranges yield 0.
        """
        a = np.asarray(a, dtype=_INDEX)
        b = np.asarray(b, dtype=_INDEX)
        if a.size and not (np.all(0 <= a) and np.all(a <= b) and np.all(b <= 100)):
            raise ValidationError(f"bad percent range [{a}, {b})")
        # Buckets a..b-1 inclusive on both axes.  Negative indices from
        # empty/leftmost ranges wrap harmlessly: the masks discard them.
        lo = a
        hi = b - 1
        total = self._cum[hi, hi]
        left = np.where(lo > 0, self._cum[lo - 1, hi], 0)
        top = np.where(lo > 0, self._cum[hi, lo - 1], 0)
        corner = np.where(lo > 0, self._cum[lo - 1, lo - 1], 0)
        return _as_scalar(np.where(a == b, 0, total - left - top + corner))

    def degree_sum(self, a, b):
        """Adjacency volume of percent range ``[a, b)`` (ints or int arrays)."""
        return _as_scalar(
            self._degree_prefix[self.cut_index(b)]
            - self._degree_prefix[self.cut_index(a)]
        )

    def max_degree_below(self, percent):
        """Largest degree below *percent* (an int or an int array)."""
        return _as_scalar(self._degree_prefix_max[self.cut_index(percent)])

    @property
    def m(self) -> int:
        return self._m


@dataclass(frozen=True)
class MultiwayCcRunResult:
    """Outcome of executing the generalized Algorithm 1."""

    thresholds: tuple[float, ...]
    labels: np.ndarray
    n_components: int
    merge_sv: SvResult | None
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


class MultiwayCcProblem:
    """Connected components across the devices of a :class:`ClusterSpec`.

    Device 0 (the host CPU) runs the DFS-style range; every accelerator
    runs Shiloach-Vishkin on its own range, priced on its *own* spec.
    """

    def __init__(
        self,
        graph: Graph,
        cluster: ClusterSpec,
        name: str = "multiway-cc",
        vertex_weights: np.ndarray | None = None,
        work_scale: float = 1.0,
    ) -> None:
        cluster = _require_gpu_cluster(cluster, "MultiwayCcProblem")
        if work_scale <= 0:
            raise ValidationError("work_scale must be positive")
        self.graph = graph
        self.cluster = cluster
        self.n_gpus = cluster.n_devices - 1
        self.name = name
        self.work_scale = float(work_scale)
        self._profile = RangeCutProfile(graph)
        if vertex_weights is not None:
            vertex_weights = np.asarray(vertex_weights, dtype=np.float64)
            if vertex_weights.shape != (graph.n,):
                raise ValidationError(f"vertex_weights must have shape ({graph.n},)")
            atom = 1.0 + vertex_weights
            rep = self.work_scale * atom
            self._rep_prefix = np.concatenate(([0.0], np.cumsum(rep)))
            self._atom_prefix_max = np.concatenate(
                ([0.0], np.maximum.accumulate(atom))
            )
        else:
            self._rep_prefix = None
            self._atom_prefix_max = None
        self.vertex_weights = vertex_weights

    @property
    def n_cuts(self) -> int:
        """Vector length — the device-neutral alias for ``n_gpus``."""
        return self.n_gpus

    # -- threshold geometry ------------------------------------------------------

    def _check_vector(self, thresholds: Sequence[float]) -> list[int]:
        if len(thresholds) != self.n_gpus:
            raise ValidationError(
                f"expected {self.n_gpus} thresholds, got {len(thresholds)}"
            )
        cuts = [int(round(t)) for t in thresholds]
        prev = 0
        for c in cuts:
            if not 0 <= c <= 100:
                raise ValidationError(f"threshold {c} out of [0, 100]")
            if c < prev:
                raise ValidationError(
                    f"thresholds must be non-decreasing, got {thresholds}"
                )
            prev = c
        return cuts

    def _ranges(self, thresholds: Sequence[float]) -> list[tuple[int, int]]:
        """Percent ranges per device: CPU first, then each GPU."""
        cuts = self._check_vector(thresholds)
        bounds = [0, *cuts, 100]
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    # -- vector-threshold problem interface --------------------------------------------

    def evaluate_ms(self, thresholds: Sequence[float]) -> float:
        return float(self.evaluate_many(np.array([thresholds], dtype=np.float64))[0])

    def evaluate_many(self, threshold_vectors: np.ndarray) -> np.ndarray:
        """Makespans over rows of threshold vectors.

        *threshold_vectors* has shape ``(batch, n_gpus)``; each row is one
        non-decreasing percent vector.
        """
        return self._schedule(threshold_vectors).makespans()

    def timeline(self, thresholds: Sequence[float]) -> Timeline:
        return self._schedule(np.array([thresholds], dtype=np.float64)).timeline()

    def _schedule(self, threshold_vectors: np.ndarray) -> PricedSchedule:
        """Phase II at every threshold vector: the one pricer.

        Every range quantity is a :class:`RangeCutProfile` gather, so the
        whole batch prices in a handful of array operations.  All devices
        with vertices run overlapped; when more than one did, the labels
        not resident on the fastest accelerator ship over its link and it
        merges over every cross-range edge.
        """
        vs = np.asarray(threshold_vectors, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[1] != self.n_gpus:
            raise ValidationError(
                f"expected threshold vectors of shape (batch, {self.n_gpus}), "
                f"got {vs.shape}"
            )
        batch = vs.shape[0]
        cuts = np.round(vs).astype(_INDEX)
        if batch and (int(cuts.min()) < 0 or int(cuts.max()) > 100):
            raise ValidationError(f"thresholds must be in [0, 100], got {vs}")
        if bool(np.any(np.diff(cuts, axis=1) < 0)):
            raise ValidationError(f"thresholds must be non-decreasing, got {vs}")
        prof = self._profile
        bounds = np.concatenate(
            (
                np.zeros((batch, 1), dtype=_INDEX),
                cuts,
                np.full((batch, 1), 100, dtype=_INDEX),
            ),
            axis=1,
        )
        idx = prof.cut_index(bounds)  # vertex cut indices, (batch, n_gpus + 2)
        nv = idx[:, 1:] - idx[:, :-1]  # vertices per range
        if self._rep_prefix is not None:
            work = self._rep_prefix[idx[:, 1:]] - self._rep_prefix[idx[:, :-1]]
        else:
            deg = prof.degree_sum(bounds[:, :-1], bounds[:, 1:])
            work = self.work_scale * (nv + deg).astype(np.float64)
        cpu = self.cluster.devices[0]
        rate_c = effective_rate_per_ms(cpu, PROFILE_CC)
        threads = cpu.threads
        if self._atom_prefix_max is not None:
            atom = self._atom_prefix_max[idx[:, 1]]
        else:
            atom = 1.0 + prof.max_degree_below(bounds[:, 1]).astype(np.float64)
        cpu_ms = (
            np.maximum(work[:, 0] / threads, atom) / (rate_c / threads)
            + cpu.kernel_launch_us * 1e-3
        )
        # Ranges with vertices always carry work (work_scale > 0), so a
        # device runs exactly when its range has vertices.
        devices = [("cpu", "phase2/cc-cpu-dfs", cpu_ms, nv[:, 0] > 0)]
        sv_iters = np.ceil(np.log2(np.maximum(nv[:, 1:], 2))).astype(_INDEX) + 1
        for i in range(self.n_gpus):
            gpu = self.cluster.devices[i + 1]
            rate_g = effective_rate_per_ms(gpu, PROFILE_CC)
            gpu_ms = (
                SV_EFFECTIVE_PASSES * work[:, i + 1] / rate_g
                + sv_iters[:, i] * gpu.kernel_launch_us * 1e-3
            )
            devices.append((f"gpu{i}", f"phase2/cc-gpu{i}-sv", gpu_ms, nv[:, i + 1] > 0))
        within = prof.within(bounds[:, :-1], bounds[:, 1:]).sum(axis=1)
        cross = prof.m - within
        merge = (nv > 0).sum(axis=1) > 1
        mi = self.cluster.merge_device_index()
        merge_dev = self.cluster.devices[mi]
        foreign = self.graph.n - nv[:, mi]
        transfer = self.cluster.link_for(mi).transfer_ms_many(
            foreign * _BYTES_PER_VERTEX
        )
        merge_rate = effective_rate_per_ms(merge_dev, PROFILE_MERGE)
        merge_ms = (
            MERGE_EFFECTIVE_PASSES * (2.0 * cross + 1.0) / merge_rate
            + modeled_merge_iterations(cross) * merge_dev.kernel_launch_us * 1e-3
        )
        return PricedSchedule(
            (batch,),
            [
                devices,
                [
                    (
                        self.cluster.interconnect.resource_for(mi),
                        "phase2/h2d-labels",
                        transfer,
                        merge,
                    )
                ],
                [(f"gpu{mi - 1}", "phase2/merge-cross-edges", merge_ms, merge)],
            ],
        )

    def coordinate_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def sample(self, size: int, rng: RngLike = None) -> "MultiwayCcProblem":
        """Degree-weighted induced sample, as in the scalar CC problem."""
        size = min(size, self.graph.n)
        gen = as_generator(rng)
        vs = np.sort(gen.choice(self.graph.n, size=size, replace=False))
        sub = self.graph.subgraph(vs)
        return MultiwayCcProblem(
            sub,
            self.cluster.without_fixed_overheads(),
            name=f"{self.name}/sample{size}",
            vertex_weights=self.graph.degrees()[vs].astype(np.float64),
            work_scale=self.graph.n / max(size, 1),
        )

    def sampling_cost_ms(self, size: int) -> float:
        avg_deg = 2.0 * self.graph.m / max(self.graph.n, 1)
        work = float(size) * (1.0 + avg_deg) + self.graph.n / 8.0
        return work / effective_rate_per_ms(
            self.cluster.devices[0], PROFILE_EDGE_SCAN
        )

    def default_sample_size(self) -> int:
        return max(2, math.isqrt(self.graph.n))

    def naive_static_thresholds(self) -> tuple[float, ...]:
        """Cumulative peak-FLOPS cuts (:meth:`ClusterSpec.naive_static_cuts`)."""
        return self.cluster.naive_static_cuts()

    # -- rounds (repro.hetero.dynamic_rebalance) ------------------------------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (vertices)."""
        return self.graph.n

    def round_block(self, lo: int, hi: int) -> "MultiwayCcProblem":
        """The induced subgraph on vertices ``[lo, hi)``, same cluster."""
        if self.vertex_weights is not None or self.work_scale != 1.0:
            raise ValidationError("round_block is defined for full instances")
        if not 0 <= lo < hi <= self.graph.n:
            raise ValidationError(f"bad vertex block [{lo}, {hi})")
        sub = self.graph.subgraph(np.arange(lo, hi, dtype=_INDEX))
        return MultiwayCcProblem(
            sub, self.cluster, name=f"{self.name}/verts[{lo}:{hi})"
        )

    def device_shares_at(self, thresholds: Sequence[float]) -> tuple[float, ...]:
        """Per-device vertex shares implied by a cumulative cut vector."""
        cuts = self._check_vector(thresholds)
        bounds = [0.0, *(float(c) for c in cuts), 100.0]
        return tuple(
            (bounds[i + 1] - bounds[i]) / 100.0 for i in range(len(bounds) - 1)
        )

    def thresholds_for_device_shares(
        self, shares: Sequence[float]
    ) -> tuple[float, ...]:
        """Cumulative cut vector giving each device its requested share.

        *shares* has one entry per device (CPU first); it is clipped
        non-negative and renormalized, so any positive vector is a valid
        target.
        """
        if len(shares) != self.n_gpus + 1:
            raise ValidationError(
                f"expected {self.n_gpus + 1} shares, got {len(shares)}"
            )
        vals = np.clip(np.asarray(shares, dtype=np.float64), 0.0, None)
        total = float(vals.sum())
        if total <= 0.0:
            vals = np.full(vals.shape, 1.0)
            total = float(vals.sum())
        cum = np.cumsum(vals / total)[:-1] * 100.0
        return tuple(float(min(max(c, 0.0), 100.0)) for c in cum)

    # -- real execution -------------------------------------------------------------------

    def run(self, thresholds: Sequence[float]) -> MultiwayCcRunResult:
        """Execute the generalized algorithm and merge all ranges."""
        ranges = self._ranges(thresholds)
        n = self.graph.n
        labels = np.empty(n, dtype=_INDEX)
        bounds = [self._profile.cut_index(p) for p in [0, *[b for _, b in ranges]]]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                sub = self.graph.subgraph(np.arange(lo, hi, dtype=_INDEX))
                labels[lo:hi] = shiloach_vishkin(sub).labels + lo
        # Merge over all edges whose endpoints fall in different ranges.
        range_of = np.searchsorted(np.array(bounds[1:]), np.arange(n), side="right")
        crossing = range_of[self.graph.edge_u] != range_of[self.graph.edge_v]
        merge_sv = None
        if np.any(crossing):
            merge_sv = sv_on_edges(
                n,
                labels[self.graph.edge_u[crossing]],
                labels[self.graph.edge_v[crossing]],
            )
            labels = merge_sv.labels[labels]
        return MultiwayCcRunResult(
            thresholds=tuple(float(t) for t in thresholds),
            labels=labels,
            n_components=int(np.unique(labels).size) if n else 0,
            merge_sv=merge_sv,
            timeline=self.timeline(thresholds),
        )


# The identify search moved to the framework layer so any cut-vector
# problem (not just CC) can use it; re-exported here because this module
# introduced it and the historical import path is public API.
from repro.core.cut_vector import coordinate_descent  # noqa: E402  (re-export)

__all__ = [
    "RangeCutProfile",
    "MultiwayCcProblem",
    "MultiwayCcRunResult",
    "coordinate_descent",
]
