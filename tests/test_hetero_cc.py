"""Tests for repro.hetero.cc — Algorithm 1."""

import numpy as np
import pytest

from repro.core.framework import SamplingPartitioner
from repro.core.oracle import exhaustive_oracle
from repro.core.search import CoarseToFineSearch
from repro.graphs.components import components_union_find, count_components
from repro.graphs.graph import Graph
from repro.hetero.cc import CcProblem, modeled_merge_iterations
from repro.util.errors import ValidationError
from tests.conftest import random_graph


@pytest.fixture()
def problem(machine):
    return CcProblem(random_graph(500, 900, seed=3), machine, name="t")


class TestExecution:
    @pytest.mark.parametrize("threshold", [0.0, 25.0, 50.0, 88.0, 100.0])
    def test_components_correct_at_any_threshold(self, machine, threshold):
        g = random_graph(300, 420, seed=1)
        reference = count_components(components_union_find(g))
        problem = CcProblem(g, machine)
        result = problem.run(threshold)
        assert result.n_components == reference

    def test_labels_match_reference_exactly(self, machine):
        g = random_graph(250, 320, seed=2)
        result = CcProblem(g, machine).run(70.0)
        assert np.array_equal(result.labels, components_union_find(g))

    def test_run_on_disconnected_graph(self, machine):
        g = Graph(20, np.array([0, 5]), np.array([1, 6]))
        result = CcProblem(g, machine).run(50.0)
        assert result.n_components == 18

    def test_run_reports_sv_stats(self, problem):
        result = problem.run(80.0)
        assert result.gpu_sv is not None
        assert result.gpu_sv.hook_iterations >= 1
        assert result.total_ms > 0

    def test_empty_graph(self, machine):
        g = Graph(0, np.array([], dtype=int), np.array([], dtype=int))
        problem = CcProblem(g, machine)
        assert problem.evaluate_ms(50.0) == 0.0
        assert problem.run(50.0).n_components == 0


class TestPricing:
    def test_thresholds_validated(self, problem):
        with pytest.raises(ValidationError):
            problem.evaluate_ms(101.0)
        with pytest.raises(ValidationError):
            problem.evaluate_ms(-5.0)

    def test_boundary_thresholds_have_single_device(self, problem):
        tl_gpu = problem.timeline(100.0)
        assert all(s.resource != "cpu" for s in tl_gpu.spans)
        tl_cpu = problem.timeline(0.0)
        assert all(s.resource != "gpu" for s in tl_cpu.spans)

    def test_interior_threshold_overlaps_and_merges(self, problem):
        tl = problem.timeline(60.0)
        resources = {s.resource for s in tl.spans}
        assert {"cpu", "gpu", "pcie"} <= resources
        labels = tl.labels()
        assert any("merge" in l for l in labels)

    def test_interior_beats_gpu_only_on_local_graph(self, machine):
        # On a spatially ordered graph the cut crosses few edges, so
        # offloading ~11% of the vertices to the CPU must pay off.  (On a
        # random graph cross-edge merge costs can make GPU-only optimal —
        # that is modeled behavior, not a bug.)
        n = 2000
        u = np.arange(n - 1)
        g = Graph(n, u, u + 1)  # path: any cut crosses one edge
        problem = CcProblem(g, machine)
        assert problem.evaluate_ms(89.0) < problem.evaluate_ms(100.0)

    def test_evaluate_matches_timeline_total(self, problem):
        for t in (0.0, 42.0, 89.0, 100.0):
            assert problem.evaluate_ms(t) == pytest.approx(
                problem.timeline(t).total_ms
            )

    def test_naive_static_is_flops_ratio(self, problem, machine):
        assert problem.naive_static_threshold() == pytest.approx(
            100.0 * machine.peak_shares()[1]
        )

    def test_grid_covers_percent_axis(self, problem):
        grid = problem.threshold_grid()
        assert grid[0] == 0.0 and grid[-1] == 100.0 and grid.size == 101

    def test_merge_iterations_model(self):
        assert modeled_merge_iterations(0) == 1
        assert modeled_merge_iterations(1024) == 11
        with pytest.raises(ValidationError):
            modeled_merge_iterations(-1)


class TestSampling:
    def test_sample_is_weighted_overhead_free(self, problem):
        sub = problem.sample(40, rng=0)
        assert sub.is_sample and not problem.is_sample
        assert sub.graph.n == 40
        assert sub.vertex_weights.shape == (40,)
        assert sub.machine.devices[1].kernel_launch_us == 0.0
        assert sub.work_scale == pytest.approx(problem.graph.n / 40)

    def test_sample_weights_are_parent_degrees(self, problem):
        # Weight sum over many draws tracks the parent's mean degree.
        means = [
            problem.sample(60, rng=i).vertex_weights.mean() for i in range(10)
        ]
        parent_mean = problem.graph.degrees().mean()
        assert np.mean(means) == pytest.approx(parent_mean, rel=0.2)

    def test_default_sample_size_is_sqrt_n(self, problem):
        assert problem.default_sample_size() == int(np.sqrt(problem.graph.n))

    def test_sampling_cost_grows_with_size(self, problem):
        assert problem.sampling_cost_ms(100) > problem.sampling_cost_ms(10)

    def test_probe_cost_only_on_samples(self, problem):
        with pytest.raises(ValidationError):
            problem.probe_cost_ms()
        assert problem.sample(30, rng=1).probe_cost_ms() > 0.0

    def test_run_overhead_positive(self, problem):
        assert problem.run_overhead_ms(50) > 0.0


class TestEndToEnd:
    def test_estimate_lands_near_oracle(self, machine):
        # A uniform-degree, spatially local graph (path plus short chords):
        # the sample sees the same balance the full instance has, so the
        # estimate must be close.
        gen = np.random.default_rng(5)
        n = 4000
        u = np.arange(n - 1)
        chord_u = gen.integers(0, n, size=3 * n)
        chord_v = np.minimum(chord_u + gen.integers(2, 20, size=3 * n), n - 1)
        keep = chord_u != chord_v
        g = Graph(
            n,
            np.concatenate([u, chord_u[keep]]),
            np.concatenate([u + 1, chord_v[keep]]),
        )
        problem = CcProblem(g, machine)
        oracle = exhaustive_oracle(problem)
        est = SamplingPartitioner(CoarseToFineSearch(), rng=7).estimate(problem)
        assert abs(est.threshold - oracle.threshold) <= 6.0
        slowdown = problem.evaluate_ms(est.threshold) / oracle.best_time_ms
        assert slowdown < 1.3
