"""Tests for the sampler-method extensions (importance / literal / fold / thin)."""

import numpy as np
import pytest

from repro.core.framework import SamplingPartitioner
from repro.core.oracle import exhaustive_oracle
from repro.core.search import CoarseToFineSearch, GradientDescentSearch
from repro.hetero.cc import CcProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.util.errors import ValidationError
from repro.workloads.rmat import rmat_matrix
from repro.workloads.scalefree import scalefree_matrix
from repro.workloads.dataset import Dataset
from tests.conftest import random_graph


class TestCcSamplingMethods:
    def test_importance_sample_has_constant_rep_work(self, machine):
        g = random_graph(800, 1600, seed=1)
        problem = CcProblem(g, machine)
        sub = problem.sample(60, rng=0, method="importance")
        # Hansen-Hurwitz under PPS-by-work: every draw represents W/s.
        rep = np.diff(sub._rep_prefix)
        assert np.allclose(rep, rep[0])
        total_work = g.n + 2 * g.m
        assert rep.sum() == pytest.approx(total_work, rel=1e-9)

    def test_importance_prefers_heavy_vertices(self, machine):
        # Degree-ordered power-law graph: hubs at high indices.
        a = rmat_matrix(2000, 16000, rng=2)
        g = Dataset("w", "web", a, 0, 1).as_graph()
        problem = CcProblem(g, machine)
        imp = problem.sample(80, rng=3, method="importance")
        uni = problem.sample(80, rng=3, method="uniform")
        assert imp.vertex_weights.mean() > uni.vertex_weights.mean()

    def test_literal_sample_is_unweighted_real_machine(self, machine):
        g = random_graph(500, 900, seed=4)
        problem = CcProblem(g, machine)
        sub = problem.sample(40, rng=5, method="literal")
        assert not sub.is_sample
        assert sub.machine.devices[1].kernel_launch_us == machine.devices[1].kernel_launch_us

    def test_method_from_constructor(self, machine):
        g = random_graph(300, 500, seed=6)
        problem = CcProblem(g, machine, sampling_method="importance")
        sub = problem.sample(30, rng=7)
        rep = np.diff(sub._rep_prefix)
        assert np.allclose(rep, rep[0])

    def test_unknown_method_rejected(self, machine):
        g = random_graph(100, 150, seed=8)
        with pytest.raises(ValidationError):
            CcProblem(g, machine, sampling_method="quantum")
        with pytest.raises(ValidationError):
            CcProblem(g, machine).sample(10, rng=0, method="quantum")

    def test_rep_work_requires_weights(self, machine):
        g = random_graph(100, 150, seed=9)
        with pytest.raises(ValidationError):
            CcProblem(g, machine, rep_work=np.ones(100))

    def test_importance_estimate_quality_on_skewed_graph(self, machine):
        a = rmat_matrix(4000, 30000, rng=10)
        g = Dataset("w", "web", a, 0, 1).as_graph()
        problem = CcProblem(g, machine)
        oracle = exhaustive_oracle(problem)
        errs = {}
        for method in ("uniform", "importance"):
            p = CcProblem(g, machine, sampling_method=method)
            ts = [
                SamplingPartitioner(CoarseToFineSearch(), rng=s).estimate(p).threshold
                for s in range(4)
            ]
            errs[method] = np.mean([abs(t - oracle.threshold) for t in ts])
        # Importance should not be (much) worse; usually it is better.
        assert errs["importance"] <= errs["uniform"] + 5.0


class TestHhSamplingMethods:
    @pytest.fixture()
    def problem(self, machine):
        return HhCpuProblem(scalefree_matrix(1200, 14.0, alpha=2.2, rng=11), machine)

    def test_importance_rep_constant_work(self, problem):
        sub = problem.sample(40, rng=0, method="importance")
        represented = sub._row_mults * sub._rep
        # Rows with zero work never get drawn under PPS; all drawn rows
        # represent (close to) equal work shares.
        nz = represented[sub._row_mults > 0]
        assert np.allclose(nz, nz[0], rtol=1e-6)

    def test_fold_sample_is_square_miniature(self, problem):
        sub = problem.sample(40, rng=1, method="fold")
        assert sub.a.shape == (40, 40)
        assert sub.sampling_method == "fold"

    def test_thin_sample_density_shrinks(self, problem):
        sub = problem.sample(40, rng=2, method="thin")
        assert sub.a.shape == (40, 40)
        assert sub._d_rows.mean() < problem._d_rows.mean()

    def test_rows_sample_keeps_column_space(self, problem):
        sub = problem.sample(40, rng=3, method="rows")
        assert sub.a.n_cols == problem.a.n_cols

    def test_unknown_method_rejected(self, problem, machine):
        with pytest.raises(ValidationError):
            problem.sample(10, rng=0, method="magic")
        with pytest.raises(ValidationError):
            HhCpuProblem(problem.a, machine, sampling_method="magic")

    def test_rep_shape_validated(self, problem, machine):
        with pytest.raises(ValidationError):
            HhCpuProblem(problem.a, machine, rep=np.ones(3))

    def test_importance_estimate_tracks_oracle(self, problem):
        oracle = exhaustive_oracle(problem)
        p = HhCpuProblem(problem.a, problem.machine, sampling_method="importance")
        est = SamplingPartitioner(GradientDescentSearch(), rng=4).estimate(p)
        t = min(max(est.threshold, 0.0), p.gpu_only_threshold())
        assert p.evaluate_ms(t) <= 1.4 * oracle.best_time_ms


def _band_spmm_problem(machine):
    from repro.hetero.spmm import SpmmProblem
    from repro.workloads.band import banded_matrix

    return SpmmProblem(banded_matrix(900, 12.0, rng=21), machine, name="band")


class TestSpmmSamplers:
    @pytest.fixture()
    def problem(self, machine):
        return _band_spmm_problem(machine)

    def test_rows_sample_keeps_full_b(self, problem):
        sub = problem.sample(90, rng=0, method="rows")
        assert sub.a.shape == (90, 900)
        assert sub.b is problem.b
        assert sub.row_scale == 1.0
        assert sub.work_scale == pytest.approx(10.0)

    def test_importance_rows_have_constant_represented_work(self, problem):
        sub = problem.sample(90, rng=1, method="importance")
        represented = sub._row_mults * sub._rep
        nz = represented[sub._row_mults > 0]
        assert np.allclose(nz, nz[0], rtol=1e-6)

    def test_rows_sample_run_is_exact(self, problem):
        from repro.sparse.spgemm import spgemm

        sub = problem.sample(60, rng=2, method="rows")
        result = sub.run(40.0)
        assert result.product.allclose(spgemm(sub.a, problem.b))

    def test_principal_requires_square_self_product(self, problem, machine):
        sub = problem.sample(60, rng=3, method="rows")  # rectangular
        with pytest.raises(ValidationError):
            sub.sample(10, rng=4, method="principal")

    def test_compression_inherited(self, problem):
        sub = problem.sample(90, rng=5, method="rows")
        assert sub._compression == pytest.approx(problem._compression)

    def test_unknown_method_rejected(self, problem):
        with pytest.raises(ValidationError):
            problem.sample(10, rng=0, method="sideways")

    def test_full_problem_pricing_unchanged_by_rep_refactor(self, problem):
        # A full problem's represented arrays equal its raw arrays.
        assert np.allclose(problem._rep_flop_prefix, problem._flop_prefix)
        assert np.allclose(problem._rep_mults, problem._row_mults)
