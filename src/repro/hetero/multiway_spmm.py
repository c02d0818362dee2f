"""Multi-device extension of Algorithm 2: spmm across a cluster's devices.

The work-share axis generalizes directly: a threshold vector
``(c_1, …, c_{p-1})`` of cumulative work-share percentages gives the CPU
the rows carrying work ``[0, c_1)`` percent and accelerator ``i`` the rows
carrying ``[c_i, c_{i+1})`` percent (the last one up to 100).  Pricing
reuses the two-device problem's row-range pricers with each range priced
on its own :class:`~repro.platform.device.DeviceSpec`; identify reuses the same
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
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import ClusterSpec, Interconnect
from repro.platform.timeline import PricedSchedule, Timeline
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
        return [int(i) for i in self._base._split_index(np.array(cuts) / 100.0)]

    # -- pricing -------------------------------------------------------------------

    def evaluate_ms(self, thresholds: Sequence[float]) -> float:
        return float(self.evaluate_many(np.array([thresholds], dtype=np.float64))[0])

    def evaluate_many(self, threshold_vectors: np.ndarray) -> np.ndarray:
        """Makespans over rows of threshold vectors.

        Shape ``(batch, n_gpus)`` in, per-row makespans out.
        """
        return self._schedule(threshold_vectors).makespans()

    def timeline(self, thresholds: Sequence[float]) -> Timeline:
        return self._schedule(np.array([thresholds], dtype=np.float64)).timeline()

    def _schedule(self, threshold_vectors: np.ndarray) -> PricedSchedule:
        """Phase II at every threshold vector: the one pricer.

        Every device time and transfer size comes from the base problem's
        row-range pricers, so the batch prices without any per-row Python.
        The devices overlap (an accelerator with no work records no span);
        result slabs then ship back, serialized on the one ``"pcie"``
        resource under the shared topology and overlapped on per-device
        links otherwise.
        """
        vs = np.asarray(threshold_vectors, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[1] != self.n_gpus:
            raise ValidationError(
                f"expected threshold vectors of shape (batch, {self.n_gpus}), "
                f"got {vs.shape}"
            )
        batch = vs.shape[0]
        if not np.all((vs >= 0.0) & (vs <= 100.0)):
            raise ValidationError(f"thresholds must be in [0, 100], got {vs}")
        if bool(np.any(np.diff(vs, axis=1) < 0)):
            raise ValidationError(f"thresholds must be non-decreasing, got {vs}")
        n = self.a.n_rows
        base = self._base
        bounds = np.concatenate(
            (
                np.zeros((batch, 1), dtype=_INDEX),
                base._split_index(vs / 100.0),
                np.full((batch, 1), n, dtype=_INDEX),
            ),
            axis=1,
        )
        cpu_ms = base._cpu_rows_ms(bounds[:, 1])
        devices = [("cpu", "phase2/spgemm-cpu", cpu_ms, bounds[:, 1] > 0)]
        transfers = []
        ic = self.cluster.interconnect
        for i in range(self.n_gpus):
            lo, hi = bounds[:, i + 1], bounds[:, i + 2]
            gpu_ms = base._gpu_rows_ms(lo, hi, self.cluster.devices[i + 1])
            devices.append((f"gpu{i}", f"phase2/spgemm-gpu{i}", gpu_ms, gpu_ms > 0.0))
            d2h = base._d2h_rows_ms(lo, hi, self.cluster.link_for(i + 1))
            transfers.append((ic.resource_for(i + 1), f"phase2/d2h-gpu{i}", d2h, hi > lo))
        if ic.topology == "shared":
            groups = [devices, *([t] for t in transfers)]
        else:
            groups = [devices, transfers]
        return PricedSchedule((batch,), groups)

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
            timeline=self.timeline(thresholds),
        )
