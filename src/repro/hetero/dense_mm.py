"""Heterogeneous dense matrix multiplication — the Figure-1 contrast case.

The paper opens with this experiment: for a *regular* workload (dense GEMM
with uniformly random entries, MKL on the CPU and cuBLAS on the GPU), the
split derived from the raw FLOPS ratio lands close to the exhaustive-search
optimum, so naive static partitioning suffices.  The rest of the paper is
about why that stops being true for irregular workloads.

**The threshold is the CPU's row share in percent.**  Work per row is
uniform (``2 n k`` FLOPs), so row share equals work share; the cost model
has no variance terms, which is precisely what makes the FLOPS split right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.costmodel import (
    PROFILE_DENSE_MM,
    cpu_sequential_time,
    dense_mm_time,
    effective_rate_per_ms,
)
from repro.platform.cluster import ClusterSpec, require_two_devices
from repro.platform.timeline import Timeline
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator

_BYTES_PER_ELEMENT = 8


@dataclass(frozen=True)
class DenseMmRunResult:
    """Outcome of actually executing the partitioned GEMM."""

    threshold: float
    split_row: int
    product: np.ndarray
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


class DenseMmProblem:
    """``C = A x B`` for dense square ``n x n`` operands.

    The instance is fully characterized by its dimension (entry values do
    not affect the regular cost model), so construction takes ``n`` rather
    than materialized arrays; :meth:`run` generates operands on demand for
    numeric verification.
    """

    def __init__(
        self,
        n: int,
        machine: ClusterSpec,
        name: str | None = None,
        rows: int | None = None,
    ) -> None:
        if n < 0:
            raise ValidationError("n must be non-negative")
        if rows is not None and not 0 <= rows <= n:
            raise ValidationError(f"rows must be in [0, {n}], got {rows}")
        self.n = n
        # Row blocks (dynamic-rebalance rounds) multiply ``rows x n`` of A
        # against the full B; the default square instance has rows == n.
        self.rows = n if rows is None else rows
        self.machine = require_two_devices(machine)
        self.name = name or f"mat.{n}"

    # -- PartitionProblem protocol --------------------------------------------------

    def evaluate_ms(self, threshold: float) -> float:
        return self._pipeline(threshold).total_ms

    def evaluate_many(self, thresholds: np.ndarray) -> np.ndarray:
        """Batched :meth:`evaluate_ms` (the regular model vectorizes directly)."""
        ts = np.asarray(thresholds, dtype=np.float64)
        if ts.size == 0:
            return np.zeros(0, dtype=np.float64)
        if float(ts.min()) < 0.0 or float(ts.max()) > 100.0:
            raise ValidationError("thresholds must be in [0, 100]")
        n = self.n
        rows = self.rows
        if rows == 0:
            return np.zeros(ts.shape, dtype=np.float64)
        split = np.round(rows * ts / 100.0).astype(np.int64)
        flops_per_row = 2.0 * n * n
        cpu = self.machine.cpu
        gpu = self.machine.devices[1]
        cpu_ms = (
            split * flops_per_row / effective_rate_per_ms(cpu, PROFILE_DENSE_MM)
            + cpu.kernel_launch_us * 1e-3
        )
        gpu_ms = (
            (rows - split) * flops_per_row
            / effective_rate_per_ms(gpu, PROFILE_DENSE_MM)
            + gpu.kernel_launch_us * 1e-3
        )
        longest = np.maximum(
            np.where(split > 0, cpu_ms, 0.0), np.where(split < rows, gpu_ms, 0.0)
        )
        d2h = self.machine.link_for(1).transfer_ms_many(
            (rows - split) * n * _BYTES_PER_ELEMENT
        )
        return longest + np.where(split < rows, d2h, 0.0)

    def timeline(self, threshold: float) -> Timeline:
        return self._pipeline(threshold)

    def threshold_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def sample(self, size: int, rng: RngLike = None) -> "DenseMmProblem":
        """A random principal submatrix is just a smaller dense instance."""
        as_generator(rng)  # randomness is immaterial for a regular instance
        return DenseMmProblem(
            min(size, self.n),
            self.machine.without_fixed_overheads(),
            name=f"{self.name}/sample{size}",
        )

    def sampling_cost_ms(self, size: int) -> float:
        """Gathering an s x s dense block touches s*s elements."""
        size = min(size, self.n)
        work = float(size) * float(size)
        return cpu_sequential_time(work, self.machine.cpu, PROFILE_DENSE_MM)

    def default_sample_size(self) -> int:
        return max(2, self.n // 4)

    def naive_static_threshold(self) -> float:
        """The FLOPS-ratio split — the star of Figure 1."""
        return 100.0 * (1.0 - self.machine.peak_shares()[1])

    def gpu_only_threshold(self) -> float:
        return 0.0

    # -- analytic pricing ---------------------------------------------------------------

    def _split_row(self, threshold: float) -> int:
        if not 0.0 <= threshold <= 100.0:
            raise ValidationError(f"threshold must be in [0, 100], got {threshold}")
        return int(round(self.rows * threshold / 100.0))

    def _pipeline(self, threshold: float) -> Timeline:
        split = self._split_row(threshold)
        n = self.n
        rows = self.rows
        tl = Timeline()
        if rows == 0:
            return tl
        # Operands are dual-resident (see the spmm module); only the GPU's
        # slab of C returns over PCIe.
        flops_per_row = 2.0 * n * n
        cpu_ms = (
            dense_mm_time(split * flops_per_row, self.machine.cpu, PROFILE_DENSE_MM)
            if split > 0
            else 0.0
        )
        gpu_ms = (
            dense_mm_time(
                (rows - split) * flops_per_row, self.machine.devices[1], PROFILE_DENSE_MM
            )
            if split < rows
            else 0.0
        )
        tl.overlap([("cpu", "gemm-cpu", cpu_ms), ("gpu", "gemm-gpu", gpu_ms)])
        if split < rows:
            d2h = (rows - split) * n * _BYTES_PER_ELEMENT  # C2 back
            tl.run("pcie", "d2h-result", self.machine.link_for(1).transfer_ms(d2h))
        return tl

    # -- rounds (repro.hetero.dynamic_rebalance) ---------------------------------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (rows of ``A``)."""
        return self.rows

    def round_block(self, lo: int, hi: int) -> "DenseMmProblem":
        """The contiguous row block ``[lo, hi)`` against the full ``B``."""
        if not 0 <= lo < hi <= self.rows:
            raise ValidationError(f"bad row block [{lo}, {hi})")
        return DenseMmProblem(
            self.n,
            self.machine,
            name=f"{self.name}/rows[{lo}:{hi})",
            rows=hi - lo,
        )

    # -- real execution --------------------------------------------------------------------

    def run(self, threshold: float, rng: RngLike = None) -> DenseMmRunResult:
        """Numerically execute the partitioned GEMM on random operands."""
        gen = as_generator(rng)
        a = gen.uniform(0.0, 1.0, size=(self.rows, self.n))
        b = gen.uniform(0.0, 1.0, size=(self.n, self.n))
        split = self._split_row(threshold)
        c_top = a[:split] @ b
        c_bottom = a[split:] @ b
        product = np.vstack([c_top, c_bottom]) if self.rows else np.zeros((0, 0))
        return DenseMmRunResult(
            threshold=float(threshold),
            split_row=split,
            product=product,
            timeline=self._pipeline(threshold),
        )
