#!/usr/bin/env python
"""Plugging a *new* heterogeneous algorithm into the framework.

The partitioner is generic: anything implementing the
:class:`repro.core.problem.PartitionProblem` protocol can be estimated.
This example defines a toy heterogeneous stencil sweep — rows of a grid are
split between CPU and GPU, with a halo-exchange cost at the boundary — and
lets the framework find its split, demonstrating the claim that the
technique "is generic in its applicability".

Run: ``python examples/custom_problem.py``
"""

from __future__ import annotations

import math

import numpy as np

from repro import (
    ClusterSpec,
    CoarseToFineSearch,
    SamplingPartitioner,
    exhaustive_oracle,
    paper_testbed,
)
from repro.platform import require_two_devices
from repro.platform.costmodel import KernelProfile, effective_rate_per_ms
from repro.util.rng import RngLike, as_generator

STENCIL = KernelProfile(
    name="stencil", cpu_efficiency=0.35, gpu_efficiency=0.55, bound="compute"
)


class StencilSweepProblem:
    """A 2-D stencil sweep over rows with per-row cost variation.

    Each grid row carries a work weight (e.g. adaptive-mesh refinement
    level); the CPU takes a prefix of rows, the GPU the suffix, and the two
    exchange one halo row per iteration over the PCIe link.  The platform
    is a 2-device :class:`~repro.platform.ClusterSpec`: device 0 is the
    CPU, device 1 the GPU, and ``link_for(1)`` the link between them.
    """

    def __init__(
        self, row_work: np.ndarray, machine: ClusterSpec, name: str = "stencil"
    ) -> None:
        self.row_work = np.asarray(row_work, dtype=np.float64)
        self.machine = require_two_devices(machine)
        self.name = name
        self._prefix = np.concatenate(([0.0], np.cumsum(self.row_work)))

    # -- PartitionProblem protocol -------------------------------------------

    def evaluate_ms(self, threshold: float) -> float:
        n = self.row_work.size
        k = int(round(n * threshold / 100.0))  # CPU rows
        cpu = self._prefix[k] / effective_rate_per_ms(self.machine.cpu, STENCIL)
        gpu = (self._prefix[n] - self._prefix[k]) / effective_rate_per_ms(
            self.machine.devices[1], STENCIL
        )
        halo = self.machine.link_for(1).transfer_ms(8.0 * 4096) if 0 < k < n else 0.0
        return max(cpu, gpu) + halo

    def threshold_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def sample(self, size: int, rng: RngLike = None) -> "StencilSweepProblem":
        gen = as_generator(rng)
        rows = np.sort(gen.choice(self.row_work.size, size=size, replace=False))
        # Scaled identify pricing (the library's own problems do the same):
        # each sampled row represents n/size originals, so the sample prices
        # the full instance it stands for — otherwise fixed costs like the
        # halo exchange would dwarf the miniature's work and bias the search.
        scale = self.row_work.size / max(size, 1)
        return StencilSweepProblem(
            self.row_work[rows] * scale, self.machine, name=f"{self.name}/sample"
        )

    def sampling_cost_ms(self, size: int) -> float:
        return size / effective_rate_per_ms(self.machine.cpu, STENCIL)

    def default_sample_size(self) -> int:
        return max(2, math.isqrt(self.row_work.size))

    def naive_static_threshold(self) -> float:
        return 100.0 * (1.0 - self.machine.peak_shares()[1])

    def gpu_only_threshold(self) -> float:
        return 0.0


def main() -> None:
    machine = paper_testbed(time_scale=1 / 16)
    rng = np.random.default_rng(5)
    # AMR-style work: a smooth base plus a refined hot region.
    n = 50_000
    work = 1e5 + 4e4 * np.sin(np.linspace(0, 3 * np.pi, n))  # FLOPs per row
    work[int(0.6 * n) : int(0.7 * n)] *= 4.0  # refined band
    work *= rng.uniform(0.9, 1.1, size=n)

    problem = StencilSweepProblem(work, machine)
    oracle = exhaustive_oracle(problem)
    estimate = SamplingPartitioner(CoarseToFineSearch(), rng=11).estimate(problem)
    est_time = problem.evaluate_ms(estimate.threshold)

    print(f"custom problem: {n:,} stencil rows, hot region at 60-70%")
    print(f"oracle: CPU row share {oracle.threshold:.0f}% -> {oracle.best_time_ms:.3f} ms")
    print(
        f"sampling: CPU row share {estimate.threshold:.0f}% -> {est_time:.3f} ms "
        f"(+{100 * (est_time - oracle.best_time_ms) / max(oracle.best_time_ms, 1e-12):.1f}%)"
    )
    static = problem.naive_static_threshold()
    print(f"naive static: {static:.0f}% -> {problem.evaluate_ms(static):.3f} ms")


if __name__ == "__main__":
    main()
