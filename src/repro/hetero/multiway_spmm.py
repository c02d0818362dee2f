"""Multi-device extension of Algorithm 2: spmm across a cluster's devices.

The work-share axis generalizes directly: a threshold vector
``(c_1, …, c_{p-1})`` of cumulative work-share percentages gives the CPU
the rows carrying work ``[0, c_1)`` percent and accelerator ``i`` the rows
carrying ``[c_i, c_{i+1})`` percent (the last one up to 100).  Pricing
reuses the scalar problem's prefix machinery with each range priced on its
own :class:`~repro.platform.device.DeviceSpec`; identify reuses the same
cyclic coordinate descent as :mod:`repro.hetero.multiway_cc`.

Result slabs ship back over the cluster's interconnect: under the
``"shared"`` topology every transfer serializes on one link (one more
reason adding GPUs has diminishing returns for output-heavy products);
under ``"dedicated"`` each accelerator streams on its own link and the
transfers overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hetero.multiway_cc import _require_gpu_cluster
from repro.hetero.spmm import _BYTES_PER_NNZ, SpmmProblem
from repro.platform.cluster import ClusterSpec, Interconnect
from repro.platform.costmodel import effective_rate_per_ms
from repro.platform.timeline import Timeline
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import vstack
from repro.sparse.spgemm import spgemm
from repro.util.errors import ValidationError
from repro.util.rng import RngLike

_INDEX = np.int64


@dataclass(frozen=True)
class MultiwaySpmmRunResult:
    """Outcome of executing the generalized Algorithm 2."""

    thresholds: tuple[float, ...]
    split_rows: tuple[int, ...]
    product: CsrMatrix
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


class MultiwaySpmmProblem:
    """``A x A`` across the devices of a :class:`ClusterSpec`.

    Wraps a scalar :class:`SpmmProblem` for all per-row precomputation; the
    vector threshold only changes how its prefix arrays are cut, and each
    range prices on its own device spec.
    """

    def __init__(
        self,
        a: CsrMatrix,
        cluster: ClusterSpec,
        name: str = "multiway-spmm",
        base: SpmmProblem | None = None,
    ) -> None:
        cluster = _require_gpu_cluster(cluster, "MultiwaySpmmProblem")
        warp_sizes = {d.warp_size for d in cluster.accelerators}
        if len(warp_sizes) != 1:
            raise ValidationError(
                "MultiwaySpmmProblem accelerators must share one warp size "
                f"(the row-padding tables assume it), got {sorted(warp_sizes)}"
            )
        self.cluster = cluster
        self.n_gpus = cluster.n_devices - 1
        self.name = name
        if base is not None:
            self._base = base
        else:
            # The base problem only needs the host spec, one accelerator
            # spec (for the warp-padded row tables), and a link: the
            # cluster's first two devices.
            head = ClusterSpec(
                devices=cluster.devices[:2],
                interconnect=Interconnect(links=cluster.links[:1]),
                name=cluster.name,
            )
            self._base = SpmmProblem(a, head, name=name)
        self.machine = self._base.machine

    @property
    def a(self) -> CsrMatrix:
        return self._base.a

    @property
    def n_cuts(self) -> int:
        """Vector length — the device-neutral alias for ``n_gpus``."""
        return self.n_gpus

    # -- threshold geometry -----------------------------------------------------

    def _check_vector(self, thresholds: Sequence[float]) -> list[float]:
        if len(thresholds) != self.n_gpus:
            raise ValidationError(
                f"expected {self.n_gpus} thresholds, got {len(thresholds)}"
            )
        prev = 0.0
        out = []
        for t in thresholds:
            t = float(t)
            if not 0.0 <= t <= 100.0:
                raise ValidationError(f"threshold {t} out of [0, 100]")
            if t < prev:
                raise ValidationError(
                    f"thresholds must be non-decreasing, got {thresholds}"
                )
            prev = t
            out.append(t)
        return out

    def split_rows(self, thresholds: Sequence[float]) -> list[int]:
        """Row cut indices for the vector: CPU gets ``[0, i_1)``, GPU ``k``
        gets ``[i_k, i_{k+1})`` with ``i_{g+1} = n``."""
        cuts = self._check_vector(thresholds)
        # The base problem's cached prefix tables make each cut O(log n)
        # instead of the O(n) rescan split_index_for_share would repeat.
        return [self._base._split_index(c / 100.0) for c in cuts]

    # -- pricing -------------------------------------------------------------------

    def _gpu_range_ms(self, device: int, lo: int, hi: int) -> float:
        """Accelerator *device* time for rows [lo, hi) (row-per-warp model)."""
        if hi <= lo:
            return 0.0
        base = self._base
        gpu = self.cluster.devices[device + 1]
        padded = float(
            base._rep_padded_prefix[hi] - base._rep_padded_prefix[lo]
        )
        rate = effective_rate_per_ms(gpu, base.profile)
        throughput = padded / rate
        warp_rate = rate * gpu.warp_size / gpu.cores
        straggler = base.row_scale * float(base._flop_suffix_max[lo]) / warp_rate
        return max(throughput, straggler) + gpu.kernel_launch_us * 1e-3

    def _pipeline(self, thresholds: Sequence[float]) -> Timeline:
        splits = self.split_rows(thresholds)
        n = self.a.n_rows
        bounds = [0, *splits, n]
        tl = Timeline()
        if n == 0:
            return tl
        tasks = []
        cpu_rows = bounds[1]
        if cpu_rows > 0:
            tasks.append(("cpu", "phase2/spgemm-cpu", self._base._cpu_ms(cpu_rows)))
        for i in range(self.n_gpus):
            lo, hi = bounds[i + 1], bounds[i + 2]
            ms = self._gpu_range_ms(i, lo, hi)
            if ms > 0:
                tasks.append((f"gpu{i}", f"phase2/spgemm-gpu{i}", ms))
        tl.overlap(tasks)
        # Result slabs ship back: serialized on one "pcie" resource under
        # the shared topology, overlapped on per-device links otherwise.
        base = self._base
        ic = self.cluster.interconnect
        transfers = []
        for i in range(self.n_gpus):
            lo, hi = bounds[i + 1], bounds[i + 2]
            if hi <= lo:
                continue
            mults = (base._rep_flop_prefix[hi] - base._rep_flop_prefix[lo]) / 2.0
            nbytes = mults * base._compression * _BYTES_PER_NNZ
            transfers.append(
                (
                    ic.resource_for(i + 1),
                    f"phase2/d2h-gpu{i}",
                    self.cluster.link_for(i + 1).transfer_ms(nbytes),
                )
            )
        if ic.topology == "shared":
            # Serialized on the one shared link: one batched sequential append.
            tl.run_many(transfers)
        elif transfers:
            tl.overlap(transfers)
        return tl

    def evaluate_ms(self, thresholds: Sequence[float]) -> float:
        return self._pipeline(thresholds).total_ms

    def evaluate_many(self, threshold_vectors: np.ndarray) -> np.ndarray:
        """Batched :meth:`evaluate_ms` over rows of threshold vectors.

        Shape ``(batch, n_gpus)`` in, per-row makespans out.  All device
        times and transfer sizes are gathers into the base problem's
        pricing tables, so the batch prices without any per-row Python.
        """
        vs = np.asarray(threshold_vectors, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[1] != self.n_gpus:
            raise ValidationError(
                f"expected threshold vectors of shape (batch, {self.n_gpus}), "
                f"got {vs.shape}"
            )
        batch = vs.shape[0]
        if batch == 0:
            return np.zeros(0, dtype=np.float64)
        if vs.size and (float(vs.min()) < 0.0 or float(vs.max()) > 100.0):
            raise ValidationError("thresholds must be in [0, 100]")
        if bool(np.any(np.diff(vs, axis=1) < 0)):
            raise ValidationError("thresholds must be non-decreasing")
        n = self.a.n_rows
        if n == 0:
            return np.zeros(batch, dtype=np.float64)
        base = self._base
        splits = base._split_many(vs / 100.0)
        bounds = np.concatenate(
            (
                np.zeros((batch, 1), dtype=_INDEX),
                splits,
                np.full((batch, 1), n, dtype=_INDEX),
            ),
            axis=1,
        )
        cpu = self.cluster.devices[0]
        rate_c = effective_rate_per_ms(cpu, base.profile)
        threads = cpu.threads
        cpu_rows = bounds[:, 1]
        cpu_work = base._rep_flop_prefix[cpu_rows]
        cpu_atom = base.row_scale * base._flop_prefix_max[cpu_rows]
        cpu_ms = (
            np.maximum(cpu_work / threads, cpu_atom) / (rate_c / threads)
            + cpu.kernel_launch_us * 1e-3
        )
        longest = np.where(cpu_rows > 0, cpu_ms, 0.0)
        for i in range(self.n_gpus):
            gpu = self.cluster.devices[i + 1]
            rate_g = effective_rate_per_ms(gpu, base.profile)
            warp_rate = rate_g * gpu.warp_size / gpu.cores
            lo, hi = bounds[:, i + 1], bounds[:, i + 2]
            padded = base._rep_padded_prefix[hi] - base._rep_padded_prefix[lo]
            straggler = base.row_scale * base._flop_suffix_max[lo] / warp_rate
            gpu_ms = (
                np.maximum(padded / rate_g, straggler)
                + gpu.kernel_launch_us * 1e-3
            )
            longest = np.maximum(longest, np.where(hi > lo, gpu_ms, 0.0))
        # Result slabs: the shared topology serializes transfers on one
        # link (cursor adds); dedicated links overlap (max).
        shared = self.cluster.interconnect.topology == "shared"
        total = longest
        slowest = np.zeros_like(longest)
        for i in range(self.n_gpus):
            lo, hi = bounds[:, i + 1], bounds[:, i + 2]
            mults = (base._rep_flop_prefix[hi] - base._rep_flop_prefix[lo]) / 2.0
            nbytes = mults * base._compression * _BYTES_PER_NNZ
            d2h = self.cluster.link_for(i + 1).transfer_ms_many(nbytes)
            masked = np.where(hi > lo, d2h, 0.0)
            if shared:
                total = total + masked
            else:
                slowest = np.maximum(slowest, masked)
        if not shared:
            total = total + slowest
        return total

    def timeline(self, thresholds: Sequence[float]) -> Timeline:
        return self._pipeline(thresholds)

    def coordinate_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def naive_static_thresholds(self) -> tuple[float, ...]:
        """Cumulative peak-FLOPS cuts (:meth:`ClusterSpec.naive_static_cuts`)."""
        return self.cluster.naive_static_cuts()

    def sample(self, size: int, rng: RngLike = None) -> "MultiwaySpmmProblem":
        """A sampled miniature with the same cluster shape."""
        sub = self._base.sample(size, rng=rng)
        return MultiwaySpmmProblem(
            sub.a,
            self.cluster.without_fixed_overheads(),
            name=f"{self.name}/sample{size}",
            base=sub,
        )

    def sampling_cost_ms(self, size: int) -> float:
        return self._base.sampling_cost_ms(size)

    def default_sample_size(self) -> int:
        return self._base.default_sample_size()

    # -- rounds (repro.hetero.dynamic_rebalance) ----------------------------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (rows of ``A``)."""
        return self.a.n_rows

    def round_block(self, lo: int, hi: int) -> "MultiwaySpmmProblem":
        """The contiguous row block ``[lo, hi)`` on the same cluster."""
        if not 0 <= lo < hi <= self.a.n_rows:
            raise ValidationError(f"bad row block [{lo}, {hi})")
        sub = self.a.row_slice(lo, hi)
        base = SpmmProblem(
            sub,
            self.machine,
            b=self._base.b,
            name=f"{self.name}/rows[{lo}:{hi})",
            compression=self._base._compression,
            sampling_method=self._base.sampling_method,
            profile=self._base.profile,
        )
        return MultiwaySpmmProblem(
            sub,
            self.cluster,
            name=f"{self.name}/rows[{lo}:{hi})",
            base=base,
        )

    def device_shares_at(self, thresholds: Sequence[float]) -> tuple[float, ...]:
        """Per-device work shares implied by a cumulative cut vector."""
        cuts = self._check_vector(thresholds)
        bounds = [0.0, *cuts, 100.0]
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

    # -- real execution -----------------------------------------------------------------

    def run(self, thresholds: Sequence[float]) -> MultiwaySpmmRunResult:
        """Execute the partitioned product and concatenate the slabs."""
        splits = self.split_rows(thresholds)
        n = self.a.n_rows
        bounds = [0, *splits, n]
        parts = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            lo, hi = min(lo, n), min(hi, n)
            if hi > lo:
                parts.append(spgemm(self.a.row_slice(lo, hi), self._base.b))
        product = parts[0] if parts else spgemm(self.a, self._base.b)
        for p in parts[1:]:
            product = vstack(product, p)
        return MultiwaySpmmRunResult(
            thresholds=tuple(float(t) for t in thresholds),
            split_rows=tuple(splits),
            product=product,
            timeline=self._pipeline(thresholds),
        )
