"""Algorithm 2 — row-split sparse matrix-matrix multiplication (Section IV).

``C = A x B`` with the rows of ``A`` cut into a CPU prefix and a GPU suffix
so that the prefix carries ``r``% of the *work volume* — the paper's split
percentage.  Work volume is exact here: the load vector ``L_AB = |A| x V_B``
gives each row's multiply count, and the split row is the prefix-sum
crossing (Algorithm 2, lines 1-4).

**The threshold is the CPU work share ``r`` in percent** (0 = everything on
the GPU).  NaiveStatic puts ``r`` at the CPU's peak-FLOPS fraction (~12 on
the paper's testbed); on irregular inputs the true optimum sits far from
it, because effective sparse throughput has little to do with peak FLOPS —
the gap this case study demonstrates.

:class:`SpmmProblem` prices any split in O(threads) from prefix/suffix
precomputations (the GPU side uses the row-per-warp quantization model of
:func:`repro.platform.costmodel.gpu_row_per_warp_time`) and implements the
Section IV identify probe (:meth:`race_probe`).  Sampled instances price
the full instance they represent (represented-work arrays with true
per-row atomicity floors); three samplers are available — the paper's
principal submatrix plus row and importance-row variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.costmodel import (
    PROFILE_SPGEMM,
    KernelProfile,
    PricingTables,
    cpu_chunked_time_many,
    effective_rate_per_ms,
    gpu_iterative_time,
    gpu_row_per_warp_time_many,
)
from repro.platform.cluster import ClusterSpec, require_two_devices
from repro.platform.device import DeviceSpec
from repro.platform.pcie import PcieLink
from repro.platform.timeline import PricedSchedule, SpanQueue, Timeline
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import vstack
from repro.sparse.sampling import deterministic_block
from repro.sparse.spgemm import estimate_compression, load_vector, spgemm
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator

_INDEX = np.int64

#: Bytes per CSR nonzero on the wire (int64 index + float64 value).
_BYTES_PER_NNZ = 16
#: Bytes per row pointer / row of the output dense accumulator metadata.
_BYTES_PER_ROW = 8

#: Streaming gather of sampled rows plus column filtering during sample
#: construction (same rationale as the CC edge scan).
PROFILE_NNZ_SCAN = KernelProfile(
    name="nnz-scan",
    cpu_efficiency=0.25,
    gpu_efficiency=0.25,
    bound="memory",
    bytes_per_unit=16.0,
)


@dataclass(frozen=True)
class SpmmRunResult:
    """Outcome of actually executing Algorithm 2."""

    threshold: float
    split_row: int
    product: CsrMatrix
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


class SpmmProblem:
    """One ``A x B`` instance on one machine.

    ``B`` defaults to ``A`` (the paper multiplies each matrix by itself for
    compatibility).  When ``B is A``, sampling draws a *principal*
    submatrix — the same random index set for rows and columns — so the
    sampled product ``A' x A'`` is well defined and structure-preserving.
    """

    def __init__(
        self,
        a: CsrMatrix,
        machine: ClusterSpec,
        b: CsrMatrix | None = None,
        name: str = "spmm",
        work_scale: float = 1.0,
        row_scale: float = 1.0,
        rep: np.ndarray | None = None,
        compression: float | None = None,
        sampling_method: str = "principal",
        profile: KernelProfile | None = None,
    ) -> None:
        if b is not None and b is not a and a.n_cols != b.n_rows:
            raise ValidationError(f"incompatible operands {a.shape} x {b.shape}")
        if work_scale <= 0 or row_scale <= 0:
            raise ValidationError("work_scale and row_scale must be positive")
        if sampling_method not in ("principal", "rows", "importance"):
            raise ValidationError(f"unknown sampling_method {sampling_method!r}")
        self.a = a
        self.b = b if b is not None else a
        self.machine = require_two_devices(machine)
        self.name = name
        self.sampling_method = sampling_method
        # Scaled identify pricing (see CcProblem): a sampled instance prices
        # the full instance it represents.  work_scale multiplies work
        # totals ((n/s)^3 for a principal submatrix — rows, row lengths, and
        # B-row lengths all thin; n/s for a row sample); row_scale restores
        # a single row's work for the atomicity and straggler floors
        # ((n/s)^2 for a principal submatrix, 1 for row samples, whose rows
        # keep all their elements).  `rep` overrides the uniform work_scale
        # with per-row representation multipliers (importance sampling).
        self.work_scale = float(work_scale)
        self.row_scale = float(row_scale)
        if rep is not None:
            rep = np.asarray(rep, dtype=np.float64)
            if rep.shape != (a.n_rows,):
                raise ValidationError(f"rep must have shape ({a.n_rows},)")
        self._rep = rep
        self._compression_override = compression
        # The SpGEMM kernel profile; injectable so a machine calibrated with
        # repro.platform.calibration drives the pricing (see the
        # calibrate_machine example).
        self.profile = profile if profile is not None else PROFILE_SPGEMM
        self._precompute()

    def _precompute(self) -> None:
        a, b = self.a, self.b
        self._row_mults = load_vector(a, b)  # multiplies per row of A
        flops = 2.0 * self._row_mults
        rep = self._rep if self._rep is not None else np.full(a.n_rows, self.work_scale)
        self._flop_prefix = np.concatenate(([0.0], np.cumsum(flops)))
        # One PricingTables per instance: represented flop prefix sums,
        # per-row atomicity prefix/suffix maxima, and warp-quantized
        # (row-per-warp) represented prefix sums — every aggregate the
        # analytic evaluators gather per threshold (docs/PERFORMANCE.md).
        gpu = self.machine.devices[1]
        quantum = gpu.warp_size * gpu.flops_per_cycle
        self._pricing = PricingTables.build(flops, rep=rep, quantum=quantum)
        self._flop_prefix_max = self._pricing.prefix_max
        # Represented (full-instance-equivalent) work for pricing.
        self._rep_flop_prefix = self._pricing.rep_prefix
        self._rep_mults = self._row_mults * rep
        # Cached prefix sum + total of the represented multiplies so every
        # split-row lookup reuses one table instead of re-reducing the
        # work vector (split_index_for_share semantics, see _split_index).
        self._rep_mults_prefix = np.cumsum(self._rep_mults)
        self._rep_mults_total = float(self._rep_mults.sum())
        self._nnz_prefix = np.concatenate(([0], np.cumsum(a.row_nnz()))).astype(_INDEX)
        padded = np.ceil(flops / quantum) * quantum
        self._padded_prefix = np.concatenate(([0.0], np.cumsum(padded)))
        self._rep_padded_prefix = self._pricing.padded_prefix
        # Suffix max of per-row flops for the straggler bound.
        self._flop_suffix_max = self._pricing.suffix_max
        self._total_flops = float(self._flop_prefix[-1])
        # Output-size ratio for the result-transfer term, measured on a
        # deterministic row sample (exact symbolic SpGEMM would cost as much
        # as the product); samples inherit their parent's value.
        if self._compression_override is not None:
            self._compression = float(self._compression_override)
        else:
            self._compression = estimate_compression(a, b)

    # -- threshold geometry --------------------------------------------------------

    def split_row(self, threshold: float) -> int:
        """First GPU row index for CPU work share *threshold* (percent)."""
        if not 0.0 <= threshold <= 100.0:
            raise ValidationError(f"threshold must be in [0, 100], got {threshold}")
        # Shares are computed on *represented* work so a sampled instance's
        # split corresponds to the full instance's (identical for full
        # problems, where the representation is a constant).
        return int(self._split_index(threshold / 100.0))

    def _split_index(self, shares) -> np.ndarray:
        """First GPU row for each CPU work share (a fraction or an array).

        :func:`split_index_for_share` over the cached represented-work
        prefix table, without re-reducing the work vector on every probe.
        """
        shares = np.asarray(shares, dtype=np.float64)
        arr = self._rep_mults
        if arr.size == 0:
            return np.zeros(shares.shape, dtype=_INDEX)
        if self._rep_mults_total == 0.0:
            return np.round(shares * arr.size).astype(_INDEX)
        idx = np.searchsorted(
            self._rep_mults_prefix, shares * self._rep_mults_total, side="left"
        ).astype(_INDEX)
        idx = np.where((idx < arr.size) & (shares > 0.0), idx + 1, idx)
        return np.where(shares > 0.0, np.minimum(idx, arr.size), 0)

    # -- PartitionProblem protocol ----------------------------------------------------

    def evaluate_ms(self, threshold: float) -> float:
        return float(self.evaluate_many(np.array([threshold]))[0])

    def evaluate_many(self, thresholds: np.ndarray) -> np.ndarray:
        """Phase-II makespans over a threshold array (any shape)."""
        return self._schedule(thresholds).makespans()

    def timeline(self, threshold: float) -> Timeline:
        return self._schedule(np.array([threshold])).timeline()

    def threshold_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def sample(
        self, size: int, rng: RngLike = None, method: str | None = None
    ) -> "SpmmProblem":
        """Step 1 samplers (*method* defaults to ``sampling_method``):

        * ``"principal"`` — Section IV-A.a: a random principal
          ``size x size`` submatrix (the paper's sampler; requires square
          operands).  Work thins cubically, one row's work quadratically.
        * ``"rows"`` — *size* uniformly random rows of ``A`` against the
          full ``B``: rows keep their true work, so atomicity floors are
          exact and the quantization profile is undistorted (the
          principal sampler's weakness on ultra-sparse inputs).
        * ``"importance"`` — rows drawn proportional to their load-vector
          work, each representing an equal work share (Hansen-Hurwitz);
          the future-work extension, strongest on skewed inputs.
        """
        gen = as_generator(rng)
        method = method or self.sampling_method
        if method == "principal":
            if self.a.n_rows != self.a.n_cols or self.b is not self.a:
                raise ValidationError(
                    "principal sampling requires a square A multiplied by itself"
                )
            size = min(size, self.a.n_rows, self.a.n_cols)
            sel = np.sort(gen.choice(self.a.n_rows, size=size, replace=False))
            sub = _principal_submatrix(self.a, sel)
            ratio = self.a.n_rows / max(size, 1)
            return SpmmProblem(
                sub,
                self.machine.without_fixed_overheads(),
                name=f"{self.name}/sample{size}",
                work_scale=ratio**3,
                row_scale=ratio**2,
                compression=self._compression,
                profile=self.profile,
            )
        size = min(size, self.a.n_rows)
        ratio = self.a.n_rows / max(size, 1)
        if method == "rows":
            rows = np.sort(gen.choice(self.a.n_rows, size=size, replace=False))
            rep = None
            work_scale = ratio
        elif method == "importance":
            work = np.maximum(self._row_mults, 1.0)
            keys = gen.random(self.a.n_rows) ** (1.0 / work)
            rows = np.sort(np.argpartition(keys, -size)[-size:])
            p = work / work.sum()
            rep = 1.0 / (size * p[rows])
            work_scale = ratio
        else:
            raise ValidationError(f"unknown sampling method {method!r}")
        sub_rows = self.a.select_rows(rows)
        return SpmmProblem(
            sub_rows,
            self.machine.without_fixed_overheads(),
            b=self.b,
            name=f"{self.name}/{method}{size}",
            work_scale=work_scale,
            row_scale=1.0,
            rep=rep,
            compression=self._compression,
            profile=self.profile,
        )

    def sampling_cost_ms(self, size: int) -> float:
        """Cost of extracting the principal submatrix.

        Gathers the sampled rows (their nonzeros, ~``nnz * size/n``) and
        filters their columns against a membership bitmap; charged as a
        streaming scan.
        """
        frac = size / max(self.a.n_rows, 1)
        work = float(self.a.nnz) * frac + float(size) + self.a.n_cols / 8.0
        return work / effective_rate_per_ms(self.machine.cpu, PROFILE_NNZ_SCAN)

    def run_overhead_ms(self, sample_size: int) -> float:
        """Fixed cost of one identify run: Phase-I launch, two device
        launches, one result transfer."""
        return (
            3 * self.machine.devices[1].kernel_launch_us * 1e-3
            + self.machine.cpu.kernel_launch_us * 1e-3
            + self.machine.link_for(1).latency_us * 1e-3
        )

    def probe_cost_ms(self) -> float:
        """Actual cost of one identify probe on a sampled instance.

        A probe run multiplies the *sample* operands; its real cost is the
        sample's own (unscaled) work at combined machine throughput, not
        the scaled decision value ``evaluate_ms`` reports.
        """
        if self.work_scale == 1.0 and self._rep is None:
            raise ValidationError("probe_cost_ms is defined for sampled instances")
        work = float(self._flop_prefix[-1])
        cpu_rate = effective_rate_per_ms(self.machine.cpu, self.profile)
        gpu_rate = effective_rate_per_ms(self.machine.devices[1], self.profile)
        return work / (cpu_rate + gpu_rate)

    def default_sample_size(self) -> int:
        """The paper's choice: an ``n/4 x n/4`` principal submatrix (K=4)."""
        return max(2, self.a.n_rows // 4)

    def naive_static_threshold(self) -> float:
        """CPU work share from the peak-FLOPS ratio (~12 on the testbed)."""
        return 100.0 * (1.0 - self.machine.peak_shares()[1])

    def gpu_only_threshold(self) -> float:
        return 0.0

    def phase1_setup_ms(self) -> float:
        """One-time Phase-I cost: computing ``L_AB`` on the GPU and scanning it.

        Threshold independent, so charged once per instance rather than per
        probe run (any implementation caches the load vector between runs).
        """
        work = 2.0 * self.a.nnz + self.a.n_rows
        return gpu_iterative_time(work, 1, self.machine.devices[1], PROFILE_NNZ_SCAN)

    # -- identify probe (Section IV-A.b) ---------------------------------------------

    def race_probe(self) -> tuple[float, float]:
        """Race the whole instance on both devices; derive the coarse split.

        Both devices multiply the full ``A' x B'`` independently; when the
        first finishes, the work fraction the slower device has completed
        fixes the effective rate ratio, and the balanced split follows as
        ``r = rate_cpu / (rate_cpu + rate_gpu)``.  Cost is the winner's
        runtime (the race stops there).
        """
        n = self.a.n_rows
        cpu_ms = float(self._cpu_rows_ms(np.array(n)))
        gpu_ms = float(self._gpu_rows_ms(np.array(0), n, self.machine.devices[1]))
        if cpu_ms <= 0 and gpu_ms <= 0:
            return 50.0, 0.0
        if cpu_ms <= 0:
            return 100.0, gpu_ms
        if gpu_ms <= 0:
            return 0.0, cpu_ms
        ratio = gpu_ms / cpu_ms  # rate_cpu / rate_gpu
        threshold = 100.0 * ratio / (1.0 + ratio)
        # The race executes the real (unscaled) sample product; scaled
        # decision values are divided back down for the wall-clock cost by
        # the mean representation factor.
        mean_rep = (
            self._rep_flop_prefix[-1] / self._flop_prefix[-1]
            if self._flop_prefix[-1]
            else 1.0
        )
        return threshold, min(cpu_ms, gpu_ms) / mean_rep

    # -- analytic pricing ---------------------------------------------------------------

    def _schedule(self, thresholds: np.ndarray) -> PricedSchedule:
        """Phase II at every threshold: the one pricer.

        Operands are dual-resident (host and device copies made at load
        time, as the hybrid implementation in [22] keeps them); only the
        GPU's result rows cross PCIe during the run.  Phase I (the load
        vector, Algorithm 2 lines 1-3) is threshold-independent and
        computed once per instance, so it is instance setup rather than
        per-run cost — see :meth:`phase1_setup_ms`.  The multiplications
        overlap (a device with no work records no span); the GPU's result
        rows then ship back to be appended on the CPU (line 7).
        """
        ts = np.asarray(thresholds, dtype=np.float64)
        bad = ts[~((ts >= 0.0) & (ts <= 100.0))]
        if bad.size:
            raise ValidationError(f"threshold must be in [0, 100], got {bad[0]}")
        n = self.a.n_rows
        split = self._split_index(ts / 100.0)
        cpu_ms = self._cpu_rows_ms(split)
        gpu_ms = self._gpu_rows_ms(split, n, self.machine.devices[1])
        d2h = self._d2h_rows_ms(split, n, self.machine.link_for(1))
        return PricedSchedule(
            ts.shape,
            [
                [
                    ("cpu", "phase2/spgemm-cpu", cpu_ms, cpu_ms > 0.0),
                    ("gpu", "phase2/spgemm-gpu", gpu_ms, gpu_ms > 0.0),
                ],
                [("pcie", "phase2/d2h-result", d2h, split < n)],
            ],
        )

    def _cpu_rows_ms(self, split: np.ndarray) -> np.ndarray:
        """CPU time for rows ``[0, split)``: work-balanced chunks, row atomicity.

        Sampled instances price the represented full instance: totals scale
        by ``work_scale``, a single row's atomicity floor by ``row_scale``.
        An empty prefix costs nothing.
        """
        cpu_ms = cpu_chunked_time_many(
            self._rep_flop_prefix[split],
            self.row_scale * self._flop_prefix_max[split],
            self.machine.cpu,
            self.profile,
        )
        return np.where(split > 0, cpu_ms, 0.0)

    def _gpu_rows_ms(
        self, lo: np.ndarray, hi: np.ndarray | int, gpu: DeviceSpec
    ) -> np.ndarray:
        """Time of accelerator *gpu* for rows ``[lo, hi)`` (row-per-warp model).

        Throughput is represented warp-padded work; the straggler bound is
        the heaviest single row at or above *lo*.  An empty range costs
        nothing.
        """
        gpu_ms = gpu_row_per_warp_time_many(
            self._rep_padded_prefix[hi] - self._rep_padded_prefix[lo],
            self.row_scale * self._flop_suffix_max[lo],
            gpu,
            self.profile,
        )
        return np.where(hi > lo, gpu_ms, 0.0)

    def _d2h_rows_ms(
        self, lo: np.ndarray, hi: np.ndarray | int, link: PcieLink
    ) -> np.ndarray:
        """Shipping the result rows of ``[lo, hi)`` back over *link*."""
        mults = (self._rep_flop_prefix[hi] - self._rep_flop_prefix[lo]) / 2.0
        return link.transfer_ms_many(mults * self._compression * _BYTES_PER_NNZ)

    # -- rounds / work stealing (repro.hetero.dynamic_rebalance) -----------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (rows of ``A``)."""
        return self.a.n_rows

    def round_block(self, lo: int, hi: int) -> "SpmmProblem":
        """The contiguous row block ``[lo, hi)`` as its own instance.

        The block inherits the parent's operands (``B`` is shared), kernel
        profile, and measured compression ratio — re-estimating compression
        per block would both cost time and make round pricing depend on the
        block cut.  Defined for full instances only: a sampled instance
        prices the whole input it represents, so slicing it has no
        full-instance meaning.
        """
        if self.work_scale != 1.0 or self._rep is not None:
            raise ValidationError("round_block is defined for full instances")
        if not 0 <= lo < hi <= self.a.n_rows:
            raise ValidationError(f"bad row block [{lo}, {hi})")
        return SpmmProblem(
            self.a.row_slice(lo, hi),
            self.machine,
            b=self.b,
            name=f"{self.name}/rows[{lo}:{hi})",
            compression=self._compression,
            sampling_method=self.sampling_method,
            profile=self.profile,
        )

    def round_queues(self, threshold: float, chunks: int = 8) -> list[SpanQueue]:
        """Per-device stealable queues for one round at *threshold*.

        Each side of the split is cut into up to *chunks* work-balanced
        contiguous row chunks, priced like the dynamic baseline's chunks
        (:mod:`repro.hetero.dynamic`): a launch per chunk, and a GPU chunk
        carries its own result transfer (a stolen schedule cannot batch the
        D2H copy).  Every chunk is priced for **both** devices so
        :meth:`Timeline.steal_remaining` can migrate it.
        """
        if self.work_scale != 1.0 or self._rep is not None:
            raise ValidationError("round_queues is defined for full instances")
        if chunks < 1:
            raise ValidationError("chunks must be >= 1")
        split = self.split_row(threshold)
        n = self.a.n_rows
        cpu_rate = effective_rate_per_ms(self.machine.cpu, self.profile)
        gpu_rate = effective_rate_per_ms(self.machine.devices[1], self.profile)
        cpu_launch = self.machine.cpu.kernel_launch_us * 1e-3
        gpu_launch = self.machine.devices[1].kernel_launch_us * 1e-3

        def bounds_for(lo: int, hi: int) -> np.ndarray:
            if hi <= lo:
                return np.array([lo], dtype=_INDEX)
            work_lo = self._flop_prefix[lo]
            targets = work_lo + (self._flop_prefix[hi] - work_lo) * np.linspace(
                0.0, 1.0, chunks + 1
            )
            cut = np.searchsorted(self._flop_prefix, targets, side="left")
            cut = np.clip(cut, lo, hi)
            cut[0], cut[-1] = lo, hi
            return np.unique(cut).astype(_INDEX)

        def build(resource: str, lo: int, hi: int) -> SpanQueue:
            queue = SpanQueue(resource)
            cut = bounds_for(lo, hi)
            if cut.size < 2:
                return queue
            flops = np.diff(self._flop_prefix[cut])
            padded = np.diff(self._padded_prefix[cut])
            d2h = self.machine.link_for(1).transfer_ms_many(
                (flops / 2.0) * self._compression * _BYTES_PER_NNZ
            )
            labels = [
                f"rows[{int(a)}:{int(b)})" for a, b in zip(cut[:-1], cut[1:])
            ]
            queue.push_many(
                labels,
                {
                    "cpu": flops / cpu_rate + cpu_launch,
                    "gpu": padded / gpu_rate + gpu_launch + d2h,
                },
            )
            return queue

        return [build("cpu", 0, split), build("gpu", split, n)]

    # -- real execution ----------------------------------------------------------------

    def run(self, threshold: float) -> SpmmRunResult:
        """Execute Algorithm 2: two partial products, concatenated."""
        split = self.split_row(threshold)
        a1 = self.a.row_slice(0, split)
        a2 = self.a.row_slice(split, self.a.n_rows)
        c1 = spgemm(a1, self.b)
        c2 = spgemm(a2, self.b)
        product = vstack(c1, c2)
        return SpmmRunResult(
            threshold=float(threshold),
            split_row=split,
            product=product,
            timeline=self.timeline(threshold),
        )

    # -- Figure-7 ablation hook -----------------------------------------------------------

    def deterministic_sample(self, size: int, position: int, grid: int = 2) -> "SpmmProblem":
        """A *predetermined* block sample (no randomness) for the ablation.

        Priced identically to the random sample — the comparison isolates
        the sampler's randomness, not the pricing.
        """
        size = min(size, self.a.n_rows, self.a.n_cols)
        sub = deterministic_block(self.a, size, position, grid)
        ratio = self.a.n_rows / max(size, 1)
        return SpmmProblem(
            sub,
            self.machine.without_fixed_overheads(),
            name=f"{self.name}/block{position}",
            work_scale=ratio**3,
            row_scale=ratio**2,
            compression=self._compression,
            profile=self.profile,
        )


def _principal_submatrix(a: CsrMatrix, sel: np.ndarray) -> CsrMatrix:
    """Rows and columns of *a* restricted to the same sorted index set."""
    sub_rows = a.select_rows(sel)
    from repro.sparse.sampling import _restrict_columns

    return _restrict_columns(sub_rows, sel)
