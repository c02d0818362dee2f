"""Algorithm 3 ("HH-CPU") — scale-free sparse spmm (paper Section V).

Scale-free matrices concentrate their nonzeros in a few *high-density*
rows.  HH-CPU exploits that: a row-nnz threshold ``t`` splits ``A`` (and
``B = A``) into high (``> t`` nonzeros) and low parts, then

* **Phase II** — ``A_H x B_H`` on the CPU overlapped with ``A_L x B_L`` on
  the GPU;
* **Phase III** — ``A_H x B_L`` on the CPU overlapped with ``A_L x B_H`` on
  the GPU;
* **Phase IV** — combine the partial results on both devices.

**The threshold here is a row-density cutoff in nonzeros**, not a share:
the paper's point is that sampling also works "when the work partitions are
based on indirect parameters rather than the work volume directly".  Heavy
rows belong on the CPU because a warp-per-row GPU kernel serializes on
them, and one monster row bounds a CPU thread too (the atomicity floor in
the chunked cost model) — the optimum balances both effects.

Sampling (Section V): √n rows drawn uniformly at random, *keeping all of
their elements against the full column space*.  The sampled rows' densities
therefore live on the original density axis (extrapolation is the
identity), and the work split at any candidate threshold is computable from
the load-vector identity without multiplying — which is why this case
study's estimation overhead is the smallest of the three (paper: ~1%).
The sampler variants that shrink the column space too (element thinning,
column folding; :func:`repro.sparse.sampling.sample_rows_remap`) are kept
for the sampler-comparison studies; thinning collapses the density axis and
folding saturates it (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.platform.costmodel import (
    PROFILE_SPGEMM,
    KernelProfile,
    effective_rate_per_ms,
)
from repro.platform.cluster import ClusterSpec, require_two_devices
from repro.platform.timeline import PricedSchedule, Timeline
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import add, mask_rows
from repro.sparse.sampling import sample_rows_remap
from repro.sparse.spgemm import estimate_compression, spgemm
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator

_INDEX = np.int64
_BYTES_PER_NNZ = 16

#: Fraction of the multiply volume charged for Phase IV's combine pass
#: (merging the Phase II/III partials is a memory-bound sweep over the
#: intermediate nonzeros).
COMBINE_FACTOR = 0.20

#: Phase IV runs as a bandwidth-bound merge on both devices.
PROFILE_COMBINE = KernelProfile(
    name="combine",
    cpu_efficiency=0.20,
    gpu_efficiency=0.20,
    bound="memory",
    bytes_per_unit=16.0,
)

#: Row gather during Section V sampling — touches only the sampled rows.
PROFILE_ROW_GATHER = KernelProfile(
    name="row-gather",
    cpu_efficiency=0.25,
    gpu_efficiency=0.25,
    bound="memory",
    bytes_per_unit=16.0,
)


@dataclass(frozen=True)
class HhCpuRunResult:
    """Outcome of actually executing Algorithm 3 (all four phases)."""

    threshold: float
    n_high_rows: int
    product: CsrMatrix
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


class HhCpuProblem:
    """One scale-free ``A x A`` instance on one machine.

    Parameters
    ----------
    a:
        The operand.  Square for full instances; a row sample (``s x n``)
        for identify instances, in which case *b_density* supplies the
        column-space densities of the full ``B``.
    b_density:
        Row-nnz vector of ``B`` (length ``a.n_cols``; the counts ``A``'s
        nonzeros reference must be integers in ``[0, a.n_cols]``).
        ``None`` means ``B = A`` (requires square ``a``).
    compression:
        Output-size ratio override; samples inherit their parent's.
    """

    def __init__(
        self,
        a: CsrMatrix,
        machine: ClusterSpec,
        name: str = "hh-cpu",
        work_scale: float = 1.0,
        b_density: np.ndarray | None = None,
        compression: float | None = None,
        rep: np.ndarray | None = None,
        sampling_method: str = "rows",
        profile: KernelProfile | None = None,
    ) -> None:
        if b_density is None and a.n_rows != a.n_cols:
            raise ValidationError(
                f"HH-CPU multiplies A by itself; A must be square, got {a.shape}"
            )
        if work_scale <= 0:
            raise ValidationError("work_scale must be positive")
        if sampling_method not in ("rows", "importance", "fold", "thin"):
            raise ValidationError(f"unknown sampling_method {sampling_method!r}")
        self.a = a
        self.machine = require_two_devices(machine)
        self.name = name
        self.sampling_method = sampling_method
        # The SpGEMM kernel profile; injectable for calibrated machines.
        self.profile = profile if profile is not None else PROFILE_SPGEMM
        # Scaled identify pricing (see CcProblem): a row sample prices the
        # full instance it represents.  `rep` holds each row's
        # representation multiplier (how much full-instance work it stands
        # for, per unit of its own work): work_scale uniformly for uniform
        # sampling, a Hansen-Hurwitz factor per row under importance
        # sampling.  Per-row atomicity floors stay exact — sampled rows
        # keep all their elements, so their work is true row work.
        self.work_scale = float(work_scale)
        if rep is not None:
            rep = np.asarray(rep, dtype=np.float64)
            if rep.shape != (a.n_rows,):
                raise ValidationError(f"rep must have shape ({a.n_rows},)")
            self._rep = rep
        else:
            self._rep = np.full(a.n_rows, self.work_scale)
        self._d_rows = a.row_nnz().astype(np.float64)
        if b_density is not None:
            b_density = np.asarray(b_density, dtype=np.float64)
            if b_density.shape != (a.n_cols,):
                raise ValidationError(
                    f"b_density must have shape ({a.n_cols},)"
                )
            self._d_cols = b_density
            self._is_row_sample = True
        else:
            self._d_cols = self._d_rows
            self._is_row_sample = False
        self._contrib = self._d_cols[a.indices]  # per-nonzero multiply volume
        if b_density is not None and not np.all(
            (self._contrib >= 0.0)
            & (self._contrib <= a.n_cols)
            & (self._contrib == np.floor(self._contrib))
        ):
            raise ValidationError(
                f"b_density must hold row nonzero counts in [0, {a.n_cols}]"
            )
        self._rows_expanded = np.repeat(
            np.arange(a.n_rows, dtype=_INDEX), a.row_nnz()
        )
        self._row_mults = np.bincount(
            self._rows_expanded, weights=self._contrib, minlength=a.n_rows
        )
        self._total_mults = float(self._row_mults.sum())
        if compression is not None:
            self._compression = float(compression)
        else:
            self._compression = estimate_compression(a, a)
        # Integer contributions (bucket lookup keys), built on the first
        # pricing call (an instance that is only run or sampled never pays).
        self._levels: np.ndarray | None = None
        self._level_values: np.ndarray | None = None

    # -- PartitionProblem protocol -----------------------------------------------------

    def evaluate_ms(self, threshold: float) -> float:
        return float(self.evaluate_many(np.array([threshold]))[0])

    def evaluate_many(self, thresholds: np.ndarray) -> np.ndarray:
        """Makespans over an array of density cutoffs (any shape)."""
        return self._schedule(thresholds).makespans()

    def timeline(self, threshold: float) -> Timeline:
        return self._schedule(np.array([threshold])).timeline()

    def _schedule(self, thresholds: np.ndarray) -> PricedSchedule:
        """All four phases at every density cutoff: the one pricer.

        Phase I classifies rows (one density scan) on the CPU.  Operands
        are dual-resident, as in the other case studies; only the GPU's
        partial results cross PCIe.  Phases II and III each overlap CPU
        and GPU; the GPU partials then ship back and both devices combine.
        Cutoffs are priced in ascending chunks (:meth:`_phase_columns`)
        and the columns scattered back to the input order.
        """
        ts = np.asarray(thresholds, dtype=np.float64)
        bad = ts[ts < 0.0]
        if bad.size:
            raise ValidationError(f"density threshold must be >= 0, got {bad[0]}")
        n = self.a.n_rows
        cpu = self.machine.cpu
        cols = np.zeros((7, ts.size), dtype=np.float64)
        if n and ts.size:
            flat = ts.ravel()
            ts_order = np.argsort(flat, kind="stable")
            sorted_ts = flat[ts_order]
            chunk = max(1, int(1_500_000 // (n + 1)))
            for lo in range(0, sorted_ts.size, chunk):
                cols[:, ts_order[lo : lo + chunk]] = self._phase_columns(
                    sorted_ts[lo : lo + chunk]
                )
        cpu2, gpu2, cpu3, gpu3, d2h, combine_cpu, combine_gpu = cols.reshape(
            (7, *ts.shape)
        )
        phase1 = (
            self.work_scale * float(n) / effective_rate_per_ms(cpu, PROFILE_ROW_GATHER)
            + cpu.kernel_launch_us * 1e-3
        )
        ran = n > 0
        return PricedSchedule(
            ts.shape,
            [
                [("cpu", "phase1/classify-rows", phase1, ran)],
                [
                    ("cpu", "phase2/AH-x-BH", cpu2, ran),
                    ("gpu", "phase2/AL-x-BL", gpu2, ran),
                ],
                [
                    ("cpu", "phase3/AH-x-BL", cpu3, ran),
                    ("gpu", "phase3/AL-x-BH", gpu3, ran),
                ],
                [("pcie", "phase4/d2h-partials", d2h, ran)],
                [
                    ("cpu", "phase4/combine-cpu", combine_cpu, ran),
                    ("gpu", "phase4/combine-gpu", combine_gpu, ran),
                ],
            ],
        )

    def _phase_columns(self, tc: np.ndarray) -> np.ndarray:
        """Per-phase durations for one ascending-sorted chunk of cutoffs.

        Rows: Phase II CPU and GPU, Phase III CPU and GPU, the partials'
        transfer, and the CPU and GPU combines.

        One bincount over the nonzeros buckets each per-nonzero multiply
        volume by the cutoffs it exceeds (a lookup by its integer
        contribution); a suffix sum over the buckets yields every row's
        high-density work ``w_high(j, r)`` for all cutoffs at once.  Rows
        denser than cutoff ``j`` are the CPU's, the rest the GPU's; each
        side's aggregates are row reductions over ``(g, n)`` tables that
        hold its own rows' work.

        CPU sides are work-balanced chunks with per-row atomicity (one
        monster row bounds the heaviest thread — the reason very heavy
        rows belong on the CPU only up to a point); GPU sides are
        row-per-warp.  Totals are represented work (each sampled row
        weighted by its representation multiplier); atomicity floors and
        stragglers stay at true row magnitude.  A side with no work costs
        nothing.
        """
        n = self.a.n_rows
        g = tc.size
        cpu = self.machine.cpu
        gpu = self.machine.devices[1]
        if self._levels is None:
            self._levels = self._contrib.astype(_INDEX)
            top = int(self._levels.max()) if self._levels.size else 0
            self._level_values = np.arange(top + 1, dtype=np.float64)
        # Bucket b of a nonzero = number of cutoffs strictly below its
        # contribution, so it counts as "high" work exactly for cutoffs
        # j < b; w_high(j, r) is the suffix bucket sum over b > j.
        bucket_of = np.searchsorted(tc, self._level_values, side="left") * n
        key = np.take(bucket_of, self._levels)
        key += self._rows_expanded
        # bincount over an empty input yields int64 zeros even with float
        # weights; all-zero-rows blocks must still price as floats.
        buckets = np.bincount(
            key, weights=self._contrib, minlength=(g + 1) * n
        ).astype(np.float64, copy=False).reshape(g + 1, n)
        del key
        # Four side tables, filled in place to bound memory: the CPU's rows
        # (denser than the cutoff) with their A_H x B_H and A_H x B_L work,
        # the GPU's rows with A_L x B_L and A_L x B_H; zeros elsewhere, so
        # every aggregate is a plain row reduction.
        sides = np.empty((4, g, n), dtype=np.float64)
        scratch = np.empty((g, n), dtype=np.float64)
        w_low, w_high = sides[2], sides[3]
        w_high[g - 1] = buckets[g]
        for j in range(g - 2, -1, -1):
            np.add(w_high[j + 1], buckets[j + 1], out=w_high[j])
        del buckets
        np.subtract(self._row_mults, w_high, out=w_low)
        sides[2:] *= 2.0  # each phase prices 2 * w_* flops
        np.greater(self._d_rows, tc[:, None], out=scratch)  # 1.0 on CPU rows
        np.multiply(w_high, scratch, out=sides[0])
        np.multiply(w_low, scratch, out=sides[1])
        sides[2] -= sides[1]
        sides[3] -= sides[0]
        # A side's heaviest row: its atomicity floor (CPU) or straggler
        # (GPU); it is > 0 exactly when the side has work.
        heaviest = sides.max(axis=2)
        quantum = gpu.warp_size * gpu.flops_per_cycle
        represented = np.empty((4, g), dtype=np.float64)
        padded = np.empty((2, g), dtype=np.float64)
        for i in range(4):
            np.multiply(sides[i], self._rep, out=scratch)
            represented[i] = scratch.sum(axis=1)
        for i in range(2):
            np.divide(sides[2 + i], quantum, out=scratch)
            np.ceil(scratch, out=scratch)
            scratch *= quantum
            scratch *= self._rep
            padded[i] = scratch.sum(axis=1)

        rate_c = effective_rate_per_ms(cpu, self.profile)
        rate_g = effective_rate_per_ms(gpu, self.profile)
        threads = cpu.threads
        warp_rate = rate_g * gpu.warp_size / gpu.cores
        # Phase II and III on each device: chunked CPU, row-per-warp GPU.
        atom, strag = heaviest[:2], heaviest[2:]
        cpu_ms = np.maximum(represented[:2] / threads, atom) / (rate_c / threads)
        cpu_ms = np.where(atom > 0.0, cpu_ms + cpu.kernel_launch_us * 1e-3, 0.0)
        gpu_ms = np.maximum(padded / rate_g, strag / warp_rate)
        gpu_ms = np.where(strag > 0.0, gpu_ms + gpu.kernel_launch_us * 1e-3, 0.0)
        # Phase IV: ship the GPU partials back, combine on both devices.
        gpu_mults = (represented[2] + represented[3]) / 2.0
        cpu_mults = (represented[0] + represented[1]) / 2.0
        d2h = self.machine.link_for(1).transfer_ms_many(
            gpu_mults * self._compression * _BYTES_PER_NNZ
        )
        combine_cpu = COMBINE_FACTOR * cpu_mults / effective_rate_per_ms(cpu, PROFILE_COMBINE)
        combine_gpu = gpu.kernel_launch_us * 1e-3 + (
            COMBINE_FACTOR * gpu_mults
        ) / effective_rate_per_ms(gpu, PROFILE_COMBINE)
        return np.array(
            [cpu_ms[0], gpu_ms[0], cpu_ms[1], gpu_ms[1], d2h, combine_cpu, combine_gpu]
        )

    def threshold_grid(self) -> np.ndarray:
        """Distinct row densities (quantile-thinned to <= 101 points).

        Only cutoffs at distinct density values change the partition;
        0 is always included (every row with a nonzero is "high") and so is
        the maximum density (no row is).
        """
        distinct = np.unique(self._d_rows)
        grid = np.unique(np.concatenate(([0.0], distinct)))
        if grid.size > 101:
            qs = np.quantile(grid, np.linspace(0.0, 1.0, 101))
            grid = np.unique(np.round(qs))
        return grid.astype(np.float64)

    def sample(
        self, size: int, rng: RngLike = None, method: str | None = None
    ) -> "HhCpuProblem":
        """Section V-A.1 samplers (*method* defaults to ``sampling_method``):

        * ``"rows"`` (default) — *size* uniformly random rows with all their
          elements against the full column space: the density axis is the
          original one and Step 3's extrapolation is the identity.
        * ``"importance"`` — rows drawn probability-proportional-to-work
          (their load-vector entries), each then representing an equal
          work share (Hansen-Hurwitz) — the importance-sampling extension
          the paper leaves as future work.  Better tail coverage on heavy
          power laws.
        * ``"fold"`` / ``"thin"`` — the literal Section V readings kept for
          the sampler-comparison study: fold keeps all elements but
          compresses the column space onto ``[0, size)`` (density axis
          saturates — invert with SaturationExtrapolator), thin keeps each
          element with probability ``size/n`` (density axis shrinks
          linearly — rescale with ScaleExtrapolator).
        """
        size = min(size, self.a.n_rows)
        gen = as_generator(rng)
        method = method or self.sampling_method
        ratio = self.a.n_rows / max(size, 1)
        if method in ("fold", "thin"):
            sub = sample_rows_remap(self.a, size, rng=gen, thin=(method == "thin"))
            return HhCpuProblem(
                sub,
                self.machine.without_fixed_overheads(),
                name=f"{self.name}/{method}{size}",
                work_scale=ratio,
                compression=self._compression,
                sampling_method=method,
                profile=self.profile,
            )
        if method == "importance":
            work = np.maximum(self._row_mults, 1.0)
            keys = gen.random(self.a.n_rows) ** (1.0 / work)
            rows = np.sort(np.argpartition(keys, -size)[-size:])
            p = work / work.sum()
            rep = 1.0 / (size * p[rows])
        elif method == "rows":
            rows = np.sort(gen.choice(self.a.n_rows, size=size, replace=False))
            rep = None
        else:
            raise ValidationError(f"unknown sampling method {method!r}")
        sub = self.a.select_rows(rows)
        return HhCpuProblem(
            sub,
            self.machine.without_fixed_overheads(),
            name=f"{self.name}/sample{size}",
            work_scale=ratio,
            b_density=self._d_cols,
            compression=self._compression,
            rep=rep,
            profile=self.profile,
        )

    def sampling_cost_ms(self, size: int) -> float:
        """Cost of the row-gather sampler.

        Unlike CC's induced-subgraph scan or spmm's submatrix filter, this
        sampler reads *only the sampled rows'* nonzeros (CSR row slicing is
        O(1) per row) — the structural reason the paper measures just ~1%
        overhead for this case study.
        """
        frac = min(size, self.a.n_rows) / max(self.a.n_rows, 1)
        work = float(self.a.nnz) * frac + float(size)
        return work / effective_rate_per_ms(self.machine.cpu, PROFILE_ROW_GATHER)

    def probe_cost_ms(self) -> float:
        """Actual cost of one identify probe on a sampled instance.

        Pricing a candidate cutoff only needs the high/low work split,
        which the load-vector identity yields from one pass over the
        sampled rows' nonzeros — no multiplication is executed.
        """
        if self.work_scale == 1.0:
            raise ValidationError("probe_cost_ms is defined for sampled instances")
        work = float(self.a.nnz + self.a.n_rows)
        return work / effective_rate_per_ms(self.machine.cpu, PROFILE_ROW_GATHER)

    def run_overhead_ms(self, sample_size: int) -> float:
        """Fixed cost of one identify probe (a handful of scans, no device
        round trips)."""
        return self.machine.cpu.kernel_launch_us * 1e-3

    def default_sample_size(self) -> int:
        """The paper's choice: √n rows."""
        return max(2, math.isqrt(self.a.n_rows))

    def naive_static_threshold(self) -> float:
        """Density cutoff assigning the CPU its peak-FLOPS work share.

        NaiveStatic thinks in FLOPS ratios; on the density axis that means
        the smallest cutoff whose high-row work share does not exceed the
        CPU's peak fraction (~12%).
        """
        target = 1.0 - self.machine.peak_shares()[1]
        order = np.argsort(self._d_rows)[::-1]  # heaviest rows first
        work_sorted = self._row_mults[order]
        total = self._total_mults
        if total == 0:
            return 0.0
        shares = np.cumsum(work_sorted) / total
        # Number of heaviest rows whose cumulative work stays within target.
        k = int(np.searchsorted(shares, target, side="right"))
        if k == 0:
            return float(self._d_rows.max())
        if k >= self._d_rows.size:
            return 0.0
        return max(0.0, float(self._d_rows[order[k - 1]]) - 1.0)

    def gpu_only_threshold(self) -> float:
        """Cutoff above every density: no high rows, everything on the GPU."""
        return float(self._d_rows.max()) if self._d_rows.size else 0.0

    # -- rounds (repro.hetero.dynamic_rebalance) -------------------------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (rows of ``A``)."""
        return self.a.n_rows

    def round_block(self, lo: int, hi: int) -> "HhCpuProblem":
        """The contiguous row block ``[lo, hi)`` against the full column space.

        A block is exactly a "row sample" with no representation scaling:
        it keeps all its elements, and *b_density* pins the density axis to
        the full instance's, so density cutoffs transfer between rounds
        unchanged.  Full instances only.
        """
        if self._is_row_sample or self.work_scale != 1.0:
            raise ValidationError("round_block is defined for full instances")
        if not 0 <= lo < hi <= self.a.n_rows:
            raise ValidationError(f"bad row block [{lo}, {hi})")
        sub = self.a.select_rows(np.arange(lo, hi, dtype=_INDEX))
        return HhCpuProblem(
            sub,
            self.machine,
            name=f"{self.name}/rows[{lo}:{hi})",
            b_density=self._d_cols,
            compression=self._compression,
            sampling_method=self.sampling_method,
            profile=self.profile,
        )

    def cpu_share_at(self, threshold: float) -> float:
        """Fraction of the multiply volume the cutoff sends to the CPU."""
        if self._total_mults == 0.0:
            return 0.0
        high = float(self._row_mults[self._d_rows > threshold].sum())
        return high / self._total_mults

    def threshold_for_cpu_share(self, share: float) -> float:
        """Smallest density cutoff whose high-row work share is <= *share*.

        The same heaviest-rows-first scan as :meth:`naive_static_threshold`,
        with the target share free — the rebalance loop moves the cutoff
        through this mapping.
        """
        share = min(max(share, 0.0), 1.0)
        total = self._total_mults
        if total == 0 or self._d_rows.size == 0:
            return 0.0
        order = np.argsort(self._d_rows)[::-1]
        shares = np.cumsum(self._row_mults[order]) / total
        k = int(np.searchsorted(shares, share, side="right"))
        if k == 0:
            return float(self._d_rows.max())
        if k >= self._d_rows.size:
            return 0.0
        return max(0.0, float(self._d_rows[order[k - 1]]) - 1.0)

    def extrapolation_context(self, sample_size: int) -> dict:
        """Scale information for extrapolation laws (Section V-A.3).

        The default row sampler keeps the original density axis, so the
        identity law applies; the folding/thinning sampler variants need
        ``sample_dimension`` (saturation inversion) or ``dimension_ratio``
        (linear rescale) respectively.
        """
        return {
            "dimension_ratio": self.a.n_cols / max(1, min(sample_size, self.a.n_rows)),
            "full_dimension": self.a.n_cols,
            "sample_dimension": min(sample_size, self.a.n_rows),
        }

    # -- real execution -----------------------------------------------------------------------

    def run(self, threshold: float) -> HhCpuRunResult:
        """Execute all four phases numerically and combine."""
        if self._is_row_sample:
            raise ValidationError("run() requires a full (square) instance")
        high = self._d_rows > threshold
        a_h = mask_rows(self.a, high)
        a_l = mask_rows(self.a, ~high)
        b_h, b_l = a_h, a_l  # B = A
        c = add(
            add(spgemm(a_h, b_h), spgemm(a_l, b_l)),
            add(spgemm(a_h, b_l), spgemm(a_l, b_h)),
        )
        return HhCpuRunResult(
            threshold=float(threshold),
            n_high_rows=int(high.sum()),
            product=c,
            timeline=self.timeline(threshold),
        )
