"""The tuning-service contracts (repro.serve).

The acceptance criteria, spelled out as tests:

* **Byte-identity**: the same request stream produces byte-identical
  ``canonical_json()`` responses whether answered serially one-at-a-time
  cold (the pure :func:`repro.serve.tune` reference), coalesced, batched,
  from a warm cache, or with caching disabled.
* **Coalescing / batching really happen**: duplicate in-flight requests
  share one computation; compatible queued requests group onto one
  problem instance — both observable in the server's counters.
* **Overload**: a full bounded queue sheds with a typed
  :class:`~repro.serve.ServerOverloadedError`, never unbounded queueing.
* **Faults**: an armed :class:`~repro.engine.FaultPlan` is retried within
  budget (answers unchanged); exhausted retries serve *stale* from the
  last good response when allowed and raise
  :class:`~repro.serve.TuneFailedError` otherwise; ``crash_synth``
  chaos-tests dataset materialization through the serving path.
* The deterministic load generator is a pure function of its spec.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import FaultPlan, FaultSpec
from repro.engine.faults import armed_synth_plan
from repro.serve import (
    ServeConfig,
    ServerOverloadedError,
    TrafficSpec,
    TuneFailedError,
    TuneRequest,
    TuneResponse,
    TuningServer,
    generate_traffic,
    percentile,
    replay,
    request_universe,
    tune,
)
from repro.serve.loadgen import TimedRequest, load_requests, save_requests
from repro.util.errors import ValidationError

#: Small-but-mixed stream: 2 problems x 1 dataset x 2 seeds = 4 unique
#: requests behind 24 arrivals — plenty of duplication for coalescing
#: and batching without slowing the suite.
SPEC = TrafficSpec(
    n_requests=24,
    seed=7,
    scale=1 / 64,
    problems=("cc", "spmm"),
    datasets=("cant",),
    seed_pool=2,
)


def _requests() -> list[TuneRequest]:
    return [timed.request for timed in generate_traffic(SPEC)]


def _reference(requests: list[TuneRequest]) -> list[str]:
    """The serial one-at-a-time cold ground truth."""
    return [tune(request).canonical_json() for request in requests]


# ---------------------------------------------------------------------------
# Request/response types


class TestApiTypes:
    def test_request_validation(self):
        with pytest.raises(ValidationError):
            TuneRequest(problem="sort", dataset="cant")
        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="nonesuch")
        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="cant", scale=0.0)
        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="cant", repeats=0)
        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="cant", sample_size=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", True),
            ("seed", 1.0),
            ("rounds", True),
            ("repeats", 2.7),
            ("n_devices", 2.0),
            ("sample_size", True),
            ("sample_size", 8.0),
            ("seed", "1"),
            ("n_devices", np.bool_(True)),
        ],
    )
    def test_request_refuses_non_integers(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TuneRequest(problem="cc", dataset="cant", **{field: value})

    def test_numpy_integers_fingerprint_like_ints(self):
        plain = TuneRequest(problem="cc", dataset="cant", seed=1, repeats=2)
        numpy = TuneRequest(
            problem="cc", dataset="cant", seed=np.int64(1), repeats=np.int32(2)
        )
        assert type(numpy.seed) is int and type(numpy.repeats) is int
        assert numpy.fingerprint() == plain.fingerprint()

    @pytest.mark.parametrize("value", [True, np.bool_(True), "0.5", None, 0.5j])
    def test_request_refuses_non_real_scale(self, value):
        with pytest.raises(ValidationError, match="scale"):
            TuneRequest(problem="cc", dataset="cant", scale=value)

    @pytest.mark.parametrize("value", [1, np.float32(0.5), np.float64(0.25), np.int64(1)])
    def test_real_scales_fingerprint_like_floats(self, value):
        plain = TuneRequest(problem="cc", dataset="cant", scale=float(value))
        other = TuneRequest(problem="cc", dataset="cant", scale=value)
        assert type(other.scale) is float
        assert other == plain
        assert other.fingerprint() == plain.fingerprint()

    def test_request_round_trip_and_fingerprint(self):
        request = TuneRequest(problem="hh", dataset="webbase-1M", seed=5)
        clone = TuneRequest.from_record(request.to_record())
        assert clone == request
        assert clone.fingerprint() == request.fingerprint()
        other = TuneRequest(problem="hh", dataset="webbase-1M", seed=6)
        assert other.fingerprint() != request.fingerprint()

    def test_response_round_trip_is_byte_exact(self):
        response = tune(TuneRequest(problem="cc", dataset="cant", scale=1 / 64))
        decoded = TuneResponse.from_record(
            json.loads(response.canonical_json())
        )
        assert decoded.canonical_json() == response.canonical_json()
        assert decoded == response

    def test_serve_config_validation(self):
        with pytest.raises(ValidationError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValidationError):
            ServeConfig(queue_limit=0)
        with pytest.raises(ValidationError):
            ServeConfig(max_retries=-1)


# ---------------------------------------------------------------------------
# The determinism contract


#: Valid request records the decoder fuzz mutates (scalar, cluster, dynamic).
_RECORDS = (
    TuneRequest(problem="cc", dataset="cant").to_record(),
    TuneRequest(
        problem="cluster-spmm", dataset="pwtk", n_devices=4, interconnect="dedicated"
    ).to_record(),
    TuneRequest(
        problem="hh", dataset="webbase-1M", seed=9, sample_size=40, rounds=3
    ).to_record(),
)
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["cc", "cluster-cc", "dedicated", "cant", "7", "0.5"]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


class TestRequestDecoding:
    """``TuneRequest.from_record`` is total: a request or a named ValidationError."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        st.sampled_from(_RECORDS),
        st.lists(
            st.tuples(
                st.sampled_from(list(_RECORDS[0])),
                st.one_of(st.just("<deleted>"), _JUNK),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda edit: edit[0],
        ),
    )
    def test_mutated_record_raises_only_named_validation_errors(self, base, edits):
        record = dict(base)
        for name, value in edits:
            if value == "<deleted>":
                del record[name]
            else:
                record[name] = value
        try:
            request = TuneRequest.from_record(record)
        except ValidationError as exc:
            assert any(name in str(exc) for name, _ in edits), str(exc)
        else:
            assert TuneRequest.from_record(request.to_record()) == request

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            ({"seed": None}, "seed must be an integer"),
            ({"seed": float("inf")}, "seed must be an integer"),
            ({"seed": 2.5}, "seed must be an integer"),
            ({"repeats": []}, "repeats must be an integer"),
            ({"n_devices": "x"}, "n_devices must be an integer"),
            ({"scale": float("inf")}, "scale must be finite"),
            ({"scale": 10**400}, "scale is out of float range"),
            ({"scale": "0.1"}, "scale must be a number"),
            ({"problem": ["cc"]}, "problem must be a string"),
        ],
    )
    def test_bad_field_is_named(self, edit, fragment):
        with pytest.raises(ValidationError, match=fragment):
            TuneRequest.from_record(dict(_RECORDS[0], **edit))

    def test_missing_field_is_named(self):
        record = dict(_RECORDS[0])
        del record["seed"]
        with pytest.raises(ValidationError, match="missing field 'seed'"):
            TuneRequest.from_record(record)

    def test_non_mapping_refused(self):
        with pytest.raises(ValidationError, match="mapping"):
            TuneRequest.from_record([("problem", "cc")])

    def test_integral_float_reads_as_int(self):
        request = TuneRequest.from_record(dict(_RECORDS[0], seed=3.0))
        assert type(request.seed) is int and request.seed == 3


class TestByteIdentity:
    def test_all_serving_modes_match_serial_cold_reference(self, tmp_path):
        requests = _requests()
        reference = _reference(requests)

        # Coalesced + batched, cold cache.
        cold = replay(
            requests, ServeConfig(cache_dir=str(tmp_path)), concurrency=16
        )
        assert cold.errors == []
        assert cold.canonical() == reference
        assert cold.counters["coalesced"] > 0
        assert cold.counters["batched"] > 0

        # Warm cache, same stream: answered from disk, same bytes.
        warm = replay(
            requests, ServeConfig(cache_dir=str(tmp_path)), concurrency=16
        )
        assert warm.errors == []
        assert warm.canonical() == reference
        assert warm.counters["cache_misses"] == 0
        assert warm.counters["hit_rate"] == 1.0

        # No cache at all.
        uncached = replay(requests, ServeConfig(), concurrency=16)
        assert uncached.errors == []
        assert uncached.canonical() == reference

        # One at a time (no coalescing, no batching possible).
        serial = replay(requests, ServeConfig(), concurrency=1)
        assert serial.errors == []
        assert serial.canonical() == reference
        assert serial.counters["coalesced"] == 0

    def test_sources_are_labelled(self, tmp_path):
        requests = _requests()
        cold = replay(
            requests, ServeConfig(cache_dir=str(tmp_path)), concurrency=16
        )
        sources = cold.source_counts()
        assert set(sources) <= {"cache", "computed", "coalesced", "stale"}
        assert sources.get("computed", 0) > 0
        assert sum(sources.values()) == len(requests)


# ---------------------------------------------------------------------------
# Overload shedding


class TestOverload:
    def test_full_queue_sheds_with_typed_error(self):
        async def run() -> None:
            config = ServeConfig(queue_limit=1, max_batch=1)
            async with TuningServer(config=config) as server:
                # Freeze the batcher so the queue cannot drain: the shed
                # path must trigger on queue pressure alone.
                server._batcher.cancel()
                first = asyncio.ensure_future(
                    server.submit(TuneRequest(problem="cc", dataset="cant"))
                )
                await asyncio.sleep(0)  # let it enqueue
                with pytest.raises(ServerOverloadedError):
                    await server.submit(TuneRequest(problem="spmm", dataset="cant"))
                assert server.counters.shed == 1
                first.cancel()

        asyncio.run(run())

    def test_unstarted_server_rejects(self):
        async def run() -> None:
            server = TuningServer()
            with pytest.raises(Exception):
                await server.submit(TuneRequest(problem="cc", dataset="cant"))

        asyncio.run(run())


# ---------------------------------------------------------------------------
# Fault tolerance through the request path


class TestServingFaults:
    def test_task_fault_retried_answers_unchanged(self):
        request = TuneRequest(problem="cc", dataset="cant", scale=1 / 64)
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt_result", index=0, times=1),)
        )
        faulted = replay(
            [request], ServeConfig(fault_plan=plan, max_retries=2), concurrency=1
        )
        assert faulted.errors == []
        assert faulted.counters["retries"] >= 1
        assert faulted.canonical() == _reference([request])

    def test_stale_if_error_serves_last_good(self):
        request = TuneRequest(problem="cc", dataset="cant", scale=1 / 64)
        # Request #0 computes clean (and is remembered); request #1 hits
        # a fault armed past the retry budget and must fall back stale.
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt_result", index=1, times=9),)
        )
        result = replay(
            [request, request],
            ServeConfig(fault_plan=plan, max_retries=1),
            concurrency=1,
        )
        assert result.errors == []
        assert [s.source for s in result.responses] == ["computed", "stale"]
        assert result.counters["stale"] == 1
        assert result.canonical() == _reference([request, request])

    def test_exhausted_retries_without_stale_raise_typed_error(self):
        request = TuneRequest(problem="cc", dataset="cant", scale=1 / 64)
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt_result", index=0, times=9),)
        )
        result = replay(
            [request],
            ServeConfig(fault_plan=plan, max_retries=1, stale_if_error=False),
            concurrency=1,
        )
        assert result.responses == [None]
        assert len(result.errors) == 1
        assert "TuneFailedError" in result.errors[0][1]
        assert result.counters["errors"] == 1

    def test_crash_synth_through_serving_path(self):
        # A scale no other test materializes, so the dataset cache cannot
        # satisfy the request before the synthesis fault can fire.
        request = TuneRequest(problem="cc", dataset="cant", scale=0.0123)
        plan = FaultPlan(specs=(FaultSpec(kind="crash_synth", index=0),))
        result = replay(
            [request], ServeConfig(fault_plan=plan, max_retries=2), concurrency=1
        )
        assert result.errors == []
        assert result.counters["retries"] >= 1
        assert result.canonical() == _reference([request])
        # The server disarmed its plan on close.
        assert armed_synth_plan() is None

    def test_tune_failed_error_type(self):
        assert issubclass(TuneFailedError, Exception)
        assert issubclass(ServerOverloadedError, Exception)


# ---------------------------------------------------------------------------
# Load generator determinism


class TestLoadgen:
    def test_traffic_is_pure_function_of_spec(self):
        a = generate_traffic(SPEC)
        b = generate_traffic(SPEC)
        assert [t.to_record() for t in a] == [t.to_record() for t in b]
        shifted = generate_traffic(
            TrafficSpec(**{**SPEC.to_record(), "seed": 8,
                           "problems": tuple(SPEC.problems),
                           "datasets": tuple(SPEC.datasets)})
        )
        assert [t.to_record() for t in shifted] != [t.to_record() for t in a]

    def test_arrivals_are_virtual_and_monotone(self):
        stream = generate_traffic(SPEC)
        arrivals = [t.arrival_ms for t in stream]
        assert arrivals == sorted(arrivals)
        assert all(a >= 0.0 for a in arrivals)

    def test_zipf_skew_prefers_first_dataset(self):
        spec = TrafficSpec(
            n_requests=300,
            seed=3,
            datasets=("cant", "pwtk", "webbase-1M", "netherlands_osm"),
            zipf_alpha=1.2,
        )
        counts: dict[str, int] = {}
        for timed in generate_traffic(spec):
            counts[timed.request.dataset] = counts.get(timed.request.dataset, 0) + 1
        assert counts["cant"] > counts["netherlands_osm"]

    def test_universe_weights_normalized(self):
        universe, probabilities = request_universe(SPEC)
        assert len(universe) == len(probabilities)
        assert abs(float(probabilities.sum()) - 1.0) < 1e-12

    def test_trace_round_trips_through_jsonl(self, tmp_path):
        stream = generate_traffic(SPEC)
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as sink:
            save_requests(stream, sink)
        with open(path, encoding="utf-8") as source:
            loaded = load_requests(source)
        assert loaded == stream
        assert all(isinstance(t, TimedRequest) for t in loaded)

    def test_percentile_nearest_rank(self):
        samples = [float(x) for x in range(1, 101)]
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0
        with pytest.raises(ValidationError):
            percentile([], 50.0)
        with pytest.raises(ValidationError):
            percentile([1.0], 101.0)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            TrafficSpec(n_requests=0)
        with pytest.raises(ValidationError):
            TrafficSpec(datasets=("nonesuch",))
        with pytest.raises(ValidationError):
            TrafficSpec(problems=("sort",))
        with pytest.raises(ValidationError):
            TrafficSpec(seed_pool=0)
