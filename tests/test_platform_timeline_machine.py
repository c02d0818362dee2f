"""Tests for repro.platform.timeline, pcie and machine."""

import numpy as np
import pytest

from repro.platform import costmodel
from repro.platform.costmodel import PROFILE_SPGEMM
from repro.platform.device import cpu_xeon_e5_2650_dual, gpu_tesla_k40c
from repro.platform.machine import HeterogeneousMachine, paper_testbed
from repro.platform.pcie import PcieLink, pcie_gen3_x16
from repro.platform.timeline import Span, Timeline, merge_parallel
from repro.util.errors import ValidationError


class TestPcie:
    def test_zero_bytes_free(self):
        assert pcie_gen3_x16().transfer_ms(0) == 0.0

    def test_affine_cost(self):
        link = PcieLink(bandwidth_gbs=10.0, latency_us=5.0)
        # 10 MB at 10 GB/s = 1 ms, plus 0.005 ms latency.
        assert link.transfer_ms(10e6) == pytest.approx(1.005)

    def test_latency_dominates_small_transfers(self):
        link = pcie_gen3_x16()
        assert link.transfer_ms(8) == pytest.approx(link.latency_us * 1e-3, rel=0.01)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValidationError):
            pcie_gen3_x16().transfer_ms(-1)

    def test_rejects_bad_link(self):
        with pytest.raises(ValidationError):
            PcieLink(bandwidth_gbs=0, latency_us=1)
        with pytest.raises(ValidationError):
            PcieLink(bandwidth_gbs=1, latency_us=-1)


class TestTimeline:
    def test_sequential_spans_advance_clock(self):
        tl = Timeline()
        tl.run("cpu", "a", 1.0)
        tl.run("gpu", "b", 2.0)
        assert tl.total_ms == pytest.approx(3.0)
        assert tl.spans[1].start_ms == pytest.approx(1.0)

    def test_overlap_takes_max(self):
        tl = Timeline()
        makespan = tl.overlap([("cpu", "a", 3.0), ("gpu", "b", 5.0)])
        assert makespan == 5.0
        assert tl.total_ms == 5.0
        assert all(s.start_ms == 0.0 for s in tl.spans)

    def test_empty_overlap_is_noop(self):
        tl = Timeline()
        assert tl.overlap([]) == 0.0
        assert tl.total_ms == 0.0

    def test_busy_ms_per_resource(self):
        tl = Timeline()
        tl.overlap([("cpu", "a", 3.0), ("gpu", "b", 5.0)])
        tl.run("cpu", "c", 1.0)
        assert tl.busy_ms("cpu") == pytest.approx(4.0)
        assert tl.busy_ms("gpu") == pytest.approx(5.0)
        assert tl.busy_ms("pcie") == 0.0

    def test_labelled_ms_phase_extent(self):
        tl = Timeline()
        tl.run("cpu", "phase1/x", 1.0)
        tl.overlap([("cpu", "phase2/a", 2.0), ("gpu", "phase2/b", 4.0)])
        assert tl.labelled_ms("phase2") == pytest.approx(4.0)
        assert tl.labelled_ms("phase9") == 0.0

    def test_extend_offsets_spans(self):
        inner = Timeline()
        inner.run("gpu", "k", 2.0)
        outer = Timeline()
        outer.run("cpu", "setup", 1.0)
        outer.extend(inner, prefix="sub/")
        assert outer.total_ms == pytest.approx(3.0)
        assert outer.spans[-1].label == "sub/k"
        assert outer.spans[-1].start_ms == pytest.approx(1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline().run("cpu", "x", -1.0)

    def test_span_end(self):
        assert Span("cpu", "x", 1.0, 2.0).end_ms == 3.0

    def test_merge_parallel(self):
        t1, t2 = Timeline(), Timeline()
        t1.run("cpu", "a", 2.0)
        t2.run("gpu", "b", 5.0)
        assert merge_parallel([t1, t2]) == 5.0
        assert merge_parallel([]) == 0.0


class TestMachine:
    def test_paper_testbed_composition(self):
        m = paper_testbed()
        assert m.n_devices == 2
        assert m.cpu.kind == "cpu" and m.devices[1].kind == "gpu"
        assert m.peak_shares()[1] == pytest.approx(0.88, abs=0.005)

    def test_slots_validated(self):
        cpu, gpu = cpu_xeon_e5_2650_dual(), gpu_tesla_k40c()
        with pytest.warns(DeprecationWarning, match="ClusterSpec"):
            m = HeterogeneousMachine(cpu=cpu, gpu=gpu, link=pcie_gen3_x16())
        assert m.devices == (cpu, gpu) and m.link_for(1) == pcie_gen3_x16()
        for bad_cpu, bad_gpu in ((gpu, gpu), (cpu, cpu)):
            with pytest.raises(ValidationError), pytest.warns(DeprecationWarning):
                HeterogeneousMachine(cpu=bad_cpu, gpu=bad_gpu, link=pcie_gen3_x16())

    def test_time_scale_shrinks_fixed_constants_only(self):
        full = paper_testbed()
        scaled = paper_testbed(time_scale=1 / 16)
        assert scaled.devices[1].kernel_launch_us == pytest.approx(
            full.devices[1].kernel_launch_us / 16
        )
        assert scaled.link_for(1).latency_us == pytest.approx(
            full.link_for(1).latency_us / 16
        )
        # Rates untouched.
        assert scaled.devices[1].peak_gflops == full.devices[1].peak_gflops
        assert scaled.link_for(1).bandwidth_gbs == full.link_for(1).bandwidth_gbs

    def test_time_scale_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            paper_testbed(time_scale=0.0)

    def test_without_fixed_overheads(self):
        m = paper_testbed().without_fixed_overheads()
        assert m.cpu.kernel_launch_us == 0.0
        assert m.devices[1].kernel_launch_us == 0.0
        assert m.link_for(1).latency_us == 0.0
        # Rates and capacities survive.
        assert m.devices[1].cores == paper_testbed().devices[1].cores

    def test_device_time_helpers_consistent_with_costmodel(self):
        m = paper_testbed()
        work = np.full(64, 100.0)
        gpu = m.devices[1]
        assert costmodel.gpu_row_per_warp_time(work, gpu, PROFILE_SPGEMM) > 0
        assert costmodel.cpu_chunked_time(work, m.cpu, PROFILE_SPGEMM) > 0
        assert costmodel.cpu_sequential_time(10.0, m.cpu, PROFILE_SPGEMM) > 0
        assert m.link_for(1).transfer_ms(1e6) > 0
