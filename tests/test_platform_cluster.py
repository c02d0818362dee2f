"""Tests for repro.platform.cluster and the cut-vector tuner stack.

Covers the ClusterSpec contract (validation, records, widening a
2-device testbed), the p = 2 bit-identity guarantee between the paper
testbed and its widened copies for every case-study problem, cache-key
separation by cluster shape, and the sample -> identify -> extrapolate pipeline on
p in {2, 3, 4, 8} clusters.
"""

import warnings

import numpy as np
import pytest

from repro.core.cut_vector import (
    ClusterTuneResult,
    CutVectorResult,
    cluster_oracle,
    coordinate_descent,
    cut_vector_lattice,
    tune_cluster,
)
from repro.core.oracle import exhaustive_oracle
from repro.engine.cache import fingerprint
from repro.hetero.cc import CcProblem
from repro.hetero.dense_mm import DenseMmProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.multiway_cc import MultiwayCcProblem
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import (
    ClusterSpec,
    Interconnect,
    balanced_partition_sizes,
    cluster_testbed,
    imbalance,
    require_two_devices,
)
from repro.platform.device import gpu_tesla_k20c, gpu_tesla_k40c
from repro.platform.machine import paper_testbed
from repro.platform.pcie import pcie_gen2_x16, pcie_gen3_x16
from repro.util.errors import ValidationError
from tests.conftest import random_graph, random_sparse
from tests.test_hetero_multiway import local_graph


@pytest.fixture(scope="module")
def pair(machine):
    """The testbed widened to one accelerator (spec objects shared)."""
    return ClusterSpec.from_machine(machine, n_gpus=1)


class TestClusterSpecContract:
    def test_validation(self, machine):
        gpu = machine.devices[1]
        link = machine.link_for(1)
        with pytest.raises(ValidationError):
            ClusterSpec(
                devices=(machine.cpu,),
                interconnect=Interconnect.uniform(link, 0),
            )
        with pytest.raises(ValidationError):  # CPU must lead
            ClusterSpec(
                devices=(gpu, gpu),
                interconnect=Interconnect.uniform(link, 1),
            )
        with pytest.raises(ValidationError):  # link count mismatch
            ClusterSpec(
                devices=(machine.cpu, gpu, gpu),
                interconnect=Interconnect.uniform(link, 1),
            )
        with pytest.raises(ValidationError):
            Interconnect(links=(link,), topology="mesh")

    def test_record_round_trip(self, machine):
        cluster = cluster_testbed(n_gpus=3, mixed=True, topology="dedicated")
        clone = ClusterSpec.from_record(cluster.to_record())
        assert clone == cluster
        ic = cluster.interconnect
        assert Interconnect.from_record(ic.to_record()) == ic
        dev = gpu_tesla_k20c()
        assert type(dev).from_record(dev.to_record()) == dev
        link = pcie_gen2_x16()
        assert type(link).from_record(link.to_record()) == link

    def test_from_machine_widens_two_device_cluster(self, machine, pair):
        assert pair.n_devices == 2
        assert pair.cpu is machine.cpu
        assert pair.accelerators == (machine.devices[1],)
        assert pair.link_for(1) is machine.link_for(1)
        wide = ClusterSpec.from_machine(machine, n_gpus=3, topology="dedicated")
        assert wide.accelerators == (machine.devices[1],) * 3
        assert wide.links == (machine.link_for(1),) * 3
        with pytest.raises(ValidationError):  # only a 2-device platform widens
            ClusterSpec.from_machine(wide, n_gpus=2)

    @pytest.mark.parametrize("scale", [1.0, 1 / 16, 1 / 64, 0.02])
    @pytest.mark.parametrize("n_gpus", [1, 2, 3, 7])
    @pytest.mark.parametrize("topology", ["shared", "dedicated"])
    def test_widened_testbed_matches_cluster_testbed(self, scale, n_gpus, topology):
        widened = ClusterSpec.from_machine(
            paper_testbed(time_scale=scale), n_gpus=n_gpus, topology=topology
        )
        built = cluster_testbed(n_gpus=n_gpus, time_scale=scale, topology=topology)
        assert widened.devices == built.devices
        assert widened.interconnect == built.interconnect

    def test_naive_static_cuts_match_legacy_pair(self, machine, pair):
        # p=2: one cut at the legacy CPU peak share.
        (cut,) = pair.naive_static_cuts()
        c = machine.cpu.peak_gflops
        g = machine.devices[1].peak_gflops
        assert cut == min(100.0, round(100.0 * c / (c + g)))

    def test_naive_static_cuts_are_non_decreasing(self):
        for mixed in (False, True):
            cluster = cluster_testbed(n_gpus=5, mixed=mixed)
            cuts = cluster.naive_static_cuts()
            assert len(cuts) == cluster.n_devices - 1
            assert all(a <= b for a, b in zip(cuts, cuts[1:]))
            assert all(0.0 <= c <= 100.0 for c in cuts)

    def test_merge_device_index_prefers_fastest_then_first(self):
        mixed = cluster_testbed(n_gpus=4, mixed=True)
        mi = mixed.merge_device_index()
        peaks = [d.peak_gflops for d in mixed.devices]
        assert peaks[mi] == max(peaks[1:])
        homogeneous = cluster_testbed(n_gpus=4)
        assert homogeneous.merge_device_index() == 1

    def test_require_two_devices(self, machine, pair):
        assert require_two_devices(machine) is machine
        assert require_two_devices(pair) is pair
        with pytest.raises(ValidationError, match="MultiwayCcProblem"):
            require_two_devices(cluster_testbed(n_gpus=2))
        with pytest.raises(ValidationError, match="GPU"):
            require_two_devices(
                ClusterSpec(
                    devices=(machine.cpu, machine.cpu),
                    interconnect=Interconnect.uniform(machine.link_for(1), 1),
                )
            )
        with pytest.raises(ValidationError, match="ClusterSpec"):
            require_two_devices(machine.cpu)

    def test_cluster_testbed_shapes(self):
        mixed = cluster_testbed(n_gpus=4, mixed=True, topology="dedicated")
        assert mixed.n_devices == 5
        kinds = {d.warp_size for d in mixed.accelerators}
        assert kinds == {32}
        assert mixed.accelerators[0] == cluster_testbed(n_gpus=1).accelerators[0]
        assert mixed.accelerators[1].name == gpu_tesla_k20c().name
        assert mixed.interconnect.topology == "dedicated"
        assert mixed.interconnect.resource_for(1) == "link0"
        shared = cluster_testbed(n_gpus=2)
        assert shared.interconnect.resource_for(2) == "pcie"


class TestBalanceHelpers:
    def test_balanced_partition_sizes_sums_and_balance(self):
        sizes = balanced_partition_sizes(1000, [0.25, 0.25, 0.25, 0.25])
        assert sizes == [250, 250, 250, 250]
        sizes = balanced_partition_sizes(10, [1, 1, 1])
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        sizes = balanced_partition_sizes(7, [0.5, 0.5])
        assert sum(sizes) == 7

    def test_imbalance(self):
        assert imbalance([1.0, 1.0, 1.0]) == 0.0
        assert imbalance([2.0, 1.0, 1.0]) == pytest.approx(0.5)
        assert imbalance([]) == 0.0
        assert imbalance([0.0, 0.0]) == 0.0


class TestP2BitIdentity:
    """The testbed and its widened copy must price exactly alike."""

    def test_scalar_problems_price_identically(self, machine, pair):
        graph = random_graph(400, 900, seed=3)
        matrix = random_sparse(120, 120, 0.06, seed=4)
        cases = [
            (CcProblem, graph),
            (SpmmProblem, matrix),
            (HhCpuProblem, matrix),
            (DenseMmProblem, 96),
        ]
        for cls, arg in cases:
            legacy = cls(arg, machine)
            clustered = cls(arg, pair)
            assert clustered.machine.cache_fields() == legacy.machine.cache_fields()
            for t in legacy.threshold_grid()[:: max(1, len(legacy.threshold_grid()) // 7)]:
                assert clustered.evaluate_ms(t) == legacy.evaluate_ms(t)

    def test_scalar_problems_reject_wide_clusters(self, machine):
        wide = cluster_testbed(n_gpus=2)
        with pytest.raises(ValidationError):
            CcProblem(random_graph(50, 80, seed=5), wide)

    def test_multiway_problems_price_identically(self, machine):
        graph = local_graph(2000, 7)
        matrix = random_sparse(150, 150, 0.05, seed=8)
        pair3 = ClusterSpec.from_machine(machine, n_gpus=2)
        testbed3 = cluster_testbed(n_gpus=2, time_scale=1 / 16)
        legacy_cc = MultiwayCcProblem(graph, testbed3)
        legacy_sp = MultiwaySpmmProblem(matrix, testbed3)
        new_cc = MultiwayCcProblem(graph, pair3)
        new_sp = MultiwaySpmmProblem(matrix, pair3)
        vectors = [(20.0, 60.0), (0.0, 100.0), (33.0, 33.0), (5.0, 95.0)]
        for legacy, new in ((legacy_cc, new_cc), (legacy_sp, new_sp)):
            assert new.naive_static_thresholds() == legacy.naive_static_thresholds()
            for vec in vectors:
                assert new.evaluate_ms(list(vec)) == legacy.evaluate_ms(list(vec))
            batch = np.asarray(vectors, dtype=np.float64)
            np.testing.assert_array_equal(
                new.evaluate_many(batch), legacy.evaluate_many(batch)
            )

    def test_oracle_identical_serial_and_workers2(self, machine, pair, tmp_path):
        from repro.engine import Engine

        problem_serial = CcProblem(random_graph(300, 700, seed=9), machine)
        problem_pair = CcProblem(random_graph(300, 700, seed=9), pair)
        serial = exhaustive_oracle(problem_serial)
        engine = Engine(workers=2)
        try:
            fanned = exhaustive_oracle(
                problem_pair, parallel_map=engine.parallel_map
            )
        finally:
            engine.close()
        assert fanned.threshold == serial.threshold
        assert fanned.best_time_ms == serial.best_time_ms

    def test_run_identical_widened_and_built(self, machine):
        graph = local_graph(1500, 11)
        legacy = MultiwayCcProblem(graph, cluster_testbed(n_gpus=2, time_scale=1 / 16))
        new = MultiwayCcProblem(graph, ClusterSpec.from_machine(machine, n_gpus=2))
        a = legacy.run([25.0, 70.0])
        b = new.run([25.0, 70.0])
        assert a.total_ms == b.total_ms
        assert a.n_components == b.n_components
        assert [s.resource for s in a.timeline.spans] == [
            s.resource for s in b.timeline.spans
        ]


class TestDeprecationShim:
    def test_cluster_path_does_not_warn(self, machine, pair):
        graph = random_graph(100, 150, seed=12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            MultiwayCcProblem(graph, pair)

    def test_cluster_with_conflicting_n_gpus_rejected(self, machine, pair):
        # The legacy accelerator-count keyword is gone: the cluster says it.
        with pytest.raises(TypeError):
            MultiwayCcProblem(random_graph(50, 80, seed=14), pair, n_gpus=3)


class TestCacheKeySeparation:
    """Two clusters differing only in shape must never share a record."""

    def test_fingerprints_differ_by_count_and_interconnect(self):
        base = {"kind": "cluster-oracle", "dataset": "x", "scale": 0.1}
        prints = {
            fingerprint({**base, **spec.cache_fields()})
            for spec in (
                cluster_testbed(n_gpus=1),
                cluster_testbed(n_gpus=2),
                cluster_testbed(n_gpus=2, topology="dedicated"),
                cluster_testbed(n_gpus=2, mixed=True),
            )
        }
        assert len(prints) == 4

    def test_cache_fields_ignore_name(self):
        a = cluster_testbed(n_gpus=2)
        b = ClusterSpec(
            devices=a.devices, interconnect=a.interconnect, name="other"
        )
        assert a.cache_fields() == b.cache_fields()

    def test_result_cache_separates_cluster_shapes(self, tmp_path):
        from repro.engine.cache import ResultCache

        cache = ResultCache(tmp_path)
        key = {"kind": "t"}
        cache.put({**key, **cluster_testbed(n_gpus=1).cache_fields()}, {"p": 2})
        assert (
            cache.get({**key, **cluster_testbed(n_gpus=2).cache_fields()})
            is None
        )
        assert cache.get(
            {**key, **cluster_testbed(n_gpus=1).cache_fields()}
        ) == {"p": 2}


class TestCutVectorPipeline:
    @pytest.mark.parametrize("p", [2, 3, 4, 8])
    def test_pipeline_runs_at_every_p(self, p):
        cluster = cluster_testbed(
            n_gpus=p - 1, time_scale=1 / 16, mixed=True
        )
        graph = local_graph(2500, p)
        problem = MultiwayCcProblem(graph, cluster)
        assert problem.n_cuts == p - 1
        tuned = tune_cluster(problem, rng=p)
        assert len(tuned.thresholds) == p - 1
        assert all(a <= b for a, b in zip(tuned.thresholds, tuned.thresholds[1:]))
        assert tuned.value_ms == problem.evaluate_ms(list(tuned.thresholds))
        assert tuned.tuning_cost_ms > 0
        result = problem.run(list(tuned.thresholds))
        from repro.graphs.components import components_union_find, count_components

        assert result.n_components == count_components(
            components_union_find(graph)
        )

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_spmm_pipeline_runs_at_every_p(self, p):
        cluster = cluster_testbed(
            n_gpus=p - 1, time_scale=1 / 16, topology="dedicated"
        )
        matrix = random_sparse(160, 160, 0.06, seed=20 + p)
        problem = MultiwaySpmmProblem(matrix, cluster)
        tuned = tune_cluster(problem, rng=p)
        assert len(tuned.thresholds) == p - 1
        result = problem.run(list(tuned.thresholds))
        assert result.product.n_rows == matrix.n_rows

    def test_oracle_exhaustive_beats_every_lattice_point(self):
        cluster = cluster_testbed(n_gpus=2, time_scale=1 / 16)
        problem = MultiwayCcProblem(local_graph(1200, 31), cluster)
        oracle = cluster_oracle(problem)
        assert oracle.strategy == "exhaustive"
        lattice = cut_vector_lattice(2, step=10)
        from repro.core.problem import evaluate_grid

        vals = evaluate_grid(problem, lattice)
        assert oracle.value_ms <= float(vals.min())

    def test_oracle_falls_back_to_descent_for_large_p(self):
        cluster = cluster_testbed(n_gpus=7, time_scale=1 / 16)
        problem = MultiwayCcProblem(local_graph(800, 33), cluster)
        oracle = cluster_oracle(problem, max_candidates=1000)
        assert oracle.strategy == "multi-start-descent"
        assert len(oracle.thresholds) == 7

    def test_coordinate_descent_tuple_contract(self, machine):
        problem = MultiwayCcProblem(
            local_graph(900, 35), ClusterSpec.from_machine(machine, n_gpus=2)
        )
        thresholds, value_ms, n_evals = coordinate_descent(problem)
        assert len(thresholds) == 2
        assert value_ms == problem.evaluate_ms(list(thresholds))
        assert n_evals >= 1

    def test_results_round_trip(self):
        r = CutVectorResult(
            thresholds=(10.0, 40.0),
            value_ms=1.5,
            n_evaluations=12,
            cost_ms=9.0,
            strategy="exhaustive",
        )
        assert CutVectorResult.from_record(r.to_record()) == r
        t = ClusterTuneResult(
            thresholds=(5.0, 50.0, 95.0),
            value_ms=2.0,
            sample_size=64,
            n_evaluations=40,
            tuning_cost_ms=3.5,
        )
        assert ClusterTuneResult.from_record(t.to_record()) == t

    def test_spmm_requires_uniform_warp_size(self, machine):
        from dataclasses import replace

        k40 = gpu_tesla_k40c()
        odd = replace(k40, name="odd-gpu", warp_size=64)
        cluster = ClusterSpec(
            devices=(machine.cpu, k40, odd),
            interconnect=Interconnect.uniform(pcie_gen3_x16(), 2),
        )
        with pytest.raises(ValidationError):
            MultiwaySpmmProblem(random_sparse(40, 40, 0.1, seed=40), cluster)


class TestClusterServing:
    def test_cluster_request_round_trip_and_keys(self):
        from repro.serve.api import TuneRequest

        a = TuneRequest(
            problem="cluster-cc", dataset="delaunay_n22", n_devices=3
        )
        b = TuneRequest(
            problem="cluster-cc", dataset="delaunay_n22", n_devices=4
        )
        c = TuneRequest(
            problem="cluster-cc",
            dataset="delaunay_n22",
            n_devices=3,
            interconnect="dedicated",
        )
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
        assert len({a.problem_key(), b.problem_key(), c.problem_key()}) == 3
        assert TuneRequest.from_record(a.to_record()) == a
        legacy = a.to_record()
        del legacy["n_devices"], legacy["interconnect"]
        legacy["problem"] = "cc"
        assert TuneRequest.from_record(legacy).n_devices == 2

    def test_scalar_kind_rejects_wide_cluster(self):
        from repro.serve.api import TuneRequest

        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="cant", n_devices=3)
        with pytest.raises(ValidationError):
            TuneRequest(
                problem="cluster-cc", dataset="cant", interconnect="mesh"
            )

    def test_cluster_tune_answers_with_vector(self):
        from repro.serve.api import TuneRequest, TuneResponse, tune

        request = TuneRequest(
            problem="cluster-cc",
            dataset="delaunay_n22",
            scale=1 / 64,
            n_devices=3,
        )
        response = tune(request)
        assert len(response.thresholds) == 2
        assert response.threshold == response.thresholds[0]
        assert response.phase2_ms > 0
        import json

        clone = TuneResponse.from_record(json.loads(response.canonical_json()))
        assert clone.canonical_json() == response.canonical_json()
        # Determinism: the same request answers byte-identically.
        assert tune(request).canonical_json() == response.canonical_json()
