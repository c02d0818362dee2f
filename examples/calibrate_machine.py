#!/usr/bin/env python
"""Retargeting the simulator to a different machine.

The shipped kernel profiles model the paper's 2014-era testbed.  This
example builds a modern-node spec, "measures" its SpGEMM kernels (here the
measurements are synthesized from a hidden ground-truth efficiency — on
real hardware you would time actual runs), fits a profile, validates it,
and shows how the fitted machine shifts the optimal spmm split.

Run: ``python examples/calibrate_machine.py``
"""

import numpy as np

from repro import (
    ClusterSpec,
    Interconnect,
    SpmmProblem,
    exhaustive_oracle,
    load_dataset,
    paper_testbed,
)
from repro.platform import calibrate_profile, validate_profile
from repro.platform.device import DeviceSpec
from repro.platform.pcie import PcieLink

SCALE = 1 / 32


def make_modern_node() -> tuple[DeviceSpec, DeviceSpec, PcieLink]:
    cpu = DeviceSpec(
        name="modern 64-core CPU", kind="cpu", cores=64, threads=128,
        clock_ghz=3.1, flops_per_cycle=32.0, mem_bandwidth_gbs=460.0,
        kernel_launch_us=3.0,
    )
    gpu = DeviceSpec(
        name="modern datacenter GPU", kind="gpu", cores=16896, threads=16896,
        clock_ghz=1.98, flops_per_cycle=2.0, mem_bandwidth_gbs=3350.0,
        sm_count=132, warp_size=32, kernel_launch_us=3.0,
    )
    link = PcieLink(bandwidth_gbs=55.0, latency_us=4.0)
    return cpu, gpu, link


def main() -> None:
    cpu, gpu, link = make_modern_node()
    # "Measure": synthesize (work, ms) pairs from hidden true efficiencies,
    # with 10% run-to-run noise — stand-ins for real kernel timings.
    rng = np.random.default_rng(0)
    true_cpu_eff, true_gpu_eff = 0.006, 0.0009
    cpu_meas = [
        (w, w / (cpu.peak_gflops * 1e6 * true_cpu_eff) * rng.uniform(0.9, 1.1))
        for w in (1e9, 4e9, 1.6e10)
    ]
    gpu_meas = [
        (w, w / (gpu.peak_gflops * 1e6 * true_gpu_eff) * rng.uniform(0.9, 1.1))
        for w in (1e9, 4e9, 1.6e10)
    ]
    profile = calibrate_profile("spgemm", cpu, gpu, cpu_meas, gpu_meas)
    print(
        f"fitted efficiencies: cpu={profile.cpu_efficiency:.4f} "
        f"(true {true_cpu_eff}), gpu={profile.gpu_efficiency:.5f} "
        f"(true {true_gpu_eff})"
    )
    report = validate_profile(gpu, profile, gpu_meas)
    print(f"validation: mean error {report.mean_error:.1%}, max {report.max_error:.1%}")

    # How the machine change moves the optimal split: the fitted profile is
    # injected straight into the problem.
    dataset = load_dataset("cant", scale=SCALE)
    paper_machine = paper_testbed(time_scale=SCALE)
    paper_oracle = exhaustive_oracle(SpmmProblem(dataset.matrix, paper_machine))

    modern = ClusterSpec(
        devices=(cpu, gpu), interconnect=Interconnect(links=(link,)), name="modern"
    )
    modern_oracle = exhaustive_oracle(
        SpmmProblem(dataset.matrix, modern, profile=profile)
    )
    print(
        f"\noptimal CPU share on cant: paper testbed r={paper_oracle.threshold:.0f}%, "
        f"modern node r={modern_oracle.threshold:.0f}% — the split is a property of"
        " the (machine, input) pair, which is why it must be searched, not assumed."
    )


if __name__ == "__main__":
    main()
