"""Request/response types and the pure tuning function behind the server.

A :class:`TuneRequest` names one tuning question — *which nearly balanced
threshold should this (problem, dataset, platform) run at?* — exactly the
way the experiment harness would ask it: problem kind, Table II dataset,
linear scale (which also scales the simulated platform's time constants,
see :func:`repro.platform.machine.paper_testbed`), and the sampling seed.
:func:`tune` answers it deterministically; everything the server adds
(coalescing, batching, caching, fault tolerance) is transport, and the
determinism contract in ``tests/test_serve.py`` pins the server's answers
byte-for-byte to this function.

Responses hold only derived numbers and echo the request identity; they
round-trip losslessly through JSON (:meth:`TuneResponse.to_record` /
:meth:`TuneResponse.from_record`), and :meth:`TuneResponse.canonical_json`
is the byte representation all equality contracts compare.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.problem import PartitionProblem
from repro.engine.cache import fingerprint
from repro.experiments.config import ExperimentConfig
from repro.util.errors import ReproError, ValidationError
from repro.workloads.suite import dataset_names

#: Problem kinds the service can tune.  The first three are the scalar
#: case studies (one CPU + one GPU); the ``cluster-*`` kinds tune a cut
#: *vector* over an N-device :class:`~repro.platform.ClusterSpec` built
#: from the paper testbed (see docs/CLUSTER.md).
PROBLEM_KINDS = ("cc", "spmm", "hh", "cluster-cc", "cluster-spmm")

#: Kinds whose answer is a single scalar threshold (legacy 2-device).
SCALAR_KINDS = ("cc", "spmm", "hh")

#: Kinds whose answer is a cut vector over ``n_devices`` devices.
CLUSTER_KINDS = ("cluster-cc", "cluster-spmm")

#: :class:`TuneRequest` fields that must hold a true integer.
_INT_FIELDS = ("seed", "repeats", "sample_size", "n_devices", "rounds")

#: Default request scale: the benchmark scale (1/64 of Table II), small
#: enough that a cold tune answers in well under a second.
DEFAULT_REQUEST_SCALE = 1.0 / 64.0


class ServeError(ReproError, RuntimeError):
    """Base class for tuning-service errors."""


class ServerOverloadedError(ServeError):
    """The server's bounded request queue is full; the request was shed."""


class TuneFailedError(ServeError):
    """A tune computation exhausted its retries with no stale fallback."""


@dataclass(frozen=True, kw_only=True)
class TuneRequest:
    """One tuning question (frozen, hashable, JSON round-trippable).

    Attributes
    ----------
    problem:
        Case-study kind: ``"cc"`` (hybrid connected components),
        ``"spmm"`` (row-split spmm), or ``"hh"`` (HH-CPU scale-free spmm).
    dataset:
        Table II dataset name; the synthetic analog is materialized at
        *scale*.
    scale:
        Linear dataset scale in (0, 1].  Scales the simulated platform's
        fixed time constants too, so one scale fully describes the
        simulated device pair — the request's "device specs" coordinate.
    seed:
        Base sampling seed (the per-request stream derives from it via
        :func:`repro.util.rng.stable_seed`, exactly as the harness does).
    repeats:
        Sampling repetitions averaged inside the estimate.
    sample_size:
        Override of the problem family's default sample size
        (``None`` = the paper's recommendation).
    n_devices:
        Total device count (CPU + accelerators).  Scalar kinds are
        defined on exactly two devices; the ``cluster-*`` kinds accept
        any ``n_devices >= 2`` and answer with a cut vector of
        ``n_devices - 1`` cumulative percentages.
    interconnect:
        Interconnect topology, ``"shared"`` (transfers serialize on one
        link, the legacy PCIe behavior) or ``"dedicated"`` (one link per
        accelerator, transfers overlap).
    rounds:
        Streaming rounds the input is cut into.  ``1`` (default) is the
        static tune; ``> 1`` answers with
        :class:`~repro.hetero.dynamic_rebalance.DynamicRebalance` — one
        cutoff per round, re-balanced between rounds — and is defined for
        the scalar kinds only.
    """

    problem: str
    dataset: str
    scale: float = DEFAULT_REQUEST_SCALE
    seed: int = 2017
    repeats: int = 1
    sample_size: int | None = None
    n_devices: int = 2
    interconnect: str = "shared"
    rounds: int = 1

    def __post_init__(self) -> None:
        from repro.platform.cluster import TOPOLOGIES

        # Every field below is a cache-key field: a bool or a float where
        # an int belongs would fingerprint differently from the int it
        # equals and fork the cache, so only true integers pass.
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if name == "sample_size" and value is None:
                continue
            if isinstance(value, (bool, np.bool_)) or not isinstance(
                value, (int, np.integer)
            ):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        # The same holds for scale: an int or a NumPy float would
        # fingerprint differently from the float it equals.
        if isinstance(self.scale, (bool, np.bool_)) or not isinstance(
            self.scale, numbers.Real
        ):
            raise ValidationError(f"scale must be a real number, got {self.scale!r}")
        object.__setattr__(self, "scale", float(self.scale))
        if self.problem not in PROBLEM_KINDS:
            raise ValidationError(
                f"unknown problem kind {self.problem!r}; expected one of "
                f"{PROBLEM_KINDS}"
            )
        if self.interconnect not in TOPOLOGIES:
            raise ValidationError(
                f"unknown interconnect {self.interconnect!r}; expected one "
                f"of {TOPOLOGIES}"
            )
        if self.n_devices < 2:
            raise ValidationError(
                f"n_devices must be >= 2, got {self.n_devices}"
            )
        if self.problem in SCALAR_KINDS and self.n_devices != 2:
            raise ValidationError(
                f"problem kind {self.problem!r} is defined on exactly two "
                f"devices; use a cluster-* kind for n_devices="
                f"{self.n_devices}"
            )
        if self.problem in CLUSTER_KINDS and self.repeats != 1:
            raise ValidationError(
                f"problem kind {self.problem!r} tunes with repeats=1, got "
                f"repeats={self.repeats}"
            )
        if self.dataset not in dataset_names():
            raise ValidationError(
                f"unknown dataset {self.dataset!r}; known: "
                f"{', '.join(dataset_names())}"
            )
        if not 0.0 < self.scale <= 1.0:
            raise ValidationError(f"scale must be in (0, 1], got {self.scale}")
        if self.repeats < 1:
            raise ValidationError(f"repeats must be >= 1, got {self.repeats}")
        if self.sample_size is not None and self.sample_size < 1:
            raise ValidationError(
                f"sample_size must be >= 1, got {self.sample_size}"
            )
        if self.rounds < 1:
            raise ValidationError(f"rounds must be >= 1, got {self.rounds}")
        if self.problem in CLUSTER_KINDS and self.rounds != 1:
            raise ValidationError(
                f"problem kind {self.problem!r} tunes statically (rounds=1), "
                f"got rounds={self.rounds}"
            )

    def key_fields(self) -> dict:
        """Cache-key / coalescing-key fields (the request's full identity).

        ``n_devices``, ``interconnect`` and ``rounds`` are always
        present: two requests differing only in cluster shape — or only
        in round count — must never share a cache entry (see
        ``tests/test_platform_cluster.py`` and ``tests/test_serve.py``).
        """
        return {
            "kind": "serve-tune",
            "problem": self.problem,
            "dataset": self.dataset,
            "scale": self.scale,
            "seed": self.seed,
            "repeats": self.repeats,
            "sample_size": self.sample_size,
            "n_devices": self.n_devices,
            "interconnect": self.interconnect,
            "rounds": self.rounds,
        }

    def fingerprint(self) -> str:
        """Stable hex id of this request (single-flight coalescing key)."""
        return fingerprint(self.key_fields())

    def problem_key(self) -> tuple[str, str, float, int, str]:
        """What two requests must share to reuse one problem instance.

        Requests agreeing on (problem kind, dataset, scale, cluster
        shape) are priced against the same materialized problem — the
        micro-batching compatibility relation.
        """
        return (
            self.problem,
            self.dataset,
            self.scale,
            self.n_devices,
            self.interconnect,
        )

    def to_record(self) -> dict:
        return {
            "problem": self.problem,
            "dataset": self.dataset,
            "scale": self.scale,
            "seed": self.seed,
            "repeats": self.repeats,
            "sample_size": self.sample_size,
            "n_devices": self.n_devices,
            "interconnect": self.interconnect,
            "rounds": self.rounds,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "TuneRequest":
        """Decode a :meth:`to_record` mapping.

        A missing required field, or a field of the wrong type (a
        non-number, a non-finite number, a non-integral value in an int
        field, a list), raises :class:`ValidationError` naming the field.
        """
        if not isinstance(record, Mapping):
            raise ValidationError(
                f"a request record must be a mapping, got {type(record).__name__}"
            )
        sample_size = record.get("sample_size")
        return cls(
            problem=_str_field(record, "problem"),
            dataset=_str_field(record, "dataset"),
            scale=_float_field(record, "scale"),
            seed=_int_field(record, "seed"),
            repeats=_int_field(record, "repeats", 1),
            sample_size=(
                None if sample_size is None else _int_field(record, "sample_size")
            ),
            n_devices=_int_field(record, "n_devices", 2),
            interconnect=_str_field(record, "interconnect", "shared"),
            rounds=_int_field(record, "rounds", 1),
        )


_REQUIRED = object()


def _field(record: Mapping, name: str, default: object) -> object:
    value = record.get(name, default)
    if value is _REQUIRED:
        raise ValidationError(f"request record is missing field {name!r}")
    return value


def _str_field(record: Mapping, name: str, default: object = _REQUIRED) -> str:
    value = _field(record, name, default)
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


def _float_field(record: Mapping, name: str, default: object = _REQUIRED) -> float:
    value = _field(record, name, default)
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(f"{name} is out of float range: {value!r}") from None
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


def _int_field(record: Mapping, name: str, default: object = _REQUIRED) -> int:
    """An int field; an integral finite float is accepted as its int."""
    value = _field(record, name, default)
    if isinstance(value, (float, np.floating)):
        if not (math.isfinite(value) and float(value).is_integer()):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        return int(value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, np.integer)
    ):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, kw_only=True)
class TuneResponse:
    """The answer to one :class:`TuneRequest` (deterministic fields only).

    Serving metadata (cache/coalesced/stale provenance, latency) lives on
    :class:`~repro.serve.server.ServedResponse`, *outside* this object —
    the same request must produce byte-identical :meth:`canonical_json`
    however it was served.
    """

    problem: str
    dataset: str
    scale: float
    seed: int
    threshold: float
    phase2_ms: float
    estimation_ms: float
    overhead_percent: float
    n_evaluations: int
    search_name: str
    #: The full cut vector.  Scalar kinds answer ``(threshold,)``;
    #: cluster kinds answer ``n_devices - 1`` cumulative percentages and
    #: ``threshold`` echoes the first cut (the CPU share boundary);
    #: dynamic tunes (``rounds > 1``) answer one cutoff per round and
    #: ``threshold`` echoes round 0's.
    thresholds: tuple[float, ...] = ()
    #: Streaming rounds the answer spans (1 = static tune).
    rounds: int = 1

    def __post_init__(self) -> None:
        if not self.thresholds:
            object.__setattr__(self, "thresholds", (self.threshold,))

    def to_record(self) -> dict:
        return {
            "problem": self.problem,
            "dataset": self.dataset,
            "scale": self.scale,
            "seed": self.seed,
            "threshold": self.threshold,
            "thresholds": list(self.thresholds),
            "rounds": self.rounds,
            "phase2_ms": self.phase2_ms,
            "estimation_ms": self.estimation_ms,
            "overhead_percent": self.overhead_percent,
            "n_evaluations": self.n_evaluations,
            "search_name": self.search_name,
        }

    @classmethod
    def from_record(cls, record: dict) -> "TuneResponse":
        thresholds = record.get("thresholds")
        return cls(
            problem=str(record["problem"]),
            dataset=str(record["dataset"]),
            scale=float(record["scale"]),
            seed=int(record["seed"]),
            threshold=float(record["threshold"]),
            thresholds=tuple(float(t) for t in thresholds or ()),
            rounds=int(record.get("rounds", 1)),
            phase2_ms=float(record["phase2_ms"]),
            estimation_ms=float(record["estimation_ms"]),
            overhead_percent=float(record["overhead_percent"]),
            n_evaluations=int(record["n_evaluations"]),
            search_name=str(record["search_name"]),
        )

    def canonical_json(self) -> str:
        """The canonical byte representation (all contracts compare this).

        ``json.dumps`` renders doubles via shortest repr, so a response
        decoded from a cache record serializes byte-identically to the
        freshly computed one.
        """
        import json

        return json.dumps(self.to_record(), sort_keys=True, separators=(",", ":"))


def build_problem(
    kind: str,
    dataset: str,
    scale: float,
    *,
    n_devices: int = 2,
    interconnect: str = "shared",
) -> PartitionProblem:
    """Materialize the problem instance a request family is priced on.

    Datasets come from the config-level materialization cache, so
    repeated builds for one (dataset, scale) reuse the synthesized
    instance; the problem object itself carries the precomputed pricing
    tables the vectorized ``evaluate_grid`` sweeps run on.  Cluster
    kinds bind the dataset to a homogeneous-accelerator
    :class:`~repro.platform.ClusterSpec` derived from the paper testbed
    at this scale.
    """
    from repro.experiments import runner

    config = ExperimentConfig(scale=scale)
    if kind in CLUSTER_KINDS:
        from repro.hetero.multiway_cc import MultiwayCcProblem
        from repro.hetero.multiway_spmm import MultiwaySpmmProblem
        from repro.platform.cluster import ClusterSpec

        ds = config.dataset(dataset)
        cluster = ClusterSpec.from_machine(
            config.machine(),
            n_gpus=n_devices - 1,
            topology=interconnect,
            name=f"serve-p{n_devices}",
        )
        if kind == "cluster-cc":
            return MultiwayCcProblem(ds.as_graph(), cluster, name=dataset)
        return MultiwaySpmmProblem(ds.matrix, cluster, name=dataset)
    factories = {
        "cc": runner.cc_problem,
        "spmm": runner.spmm_problem,
        "hh": runner.hh_problem,
    }
    return factories[kind](config, dataset)


def tune(request: TuneRequest, problem: PartitionProblem | None = None) -> TuneResponse:
    """Answer *request* — the pure function every serving mode must match.

    With *problem*, prices against the given shared instance (the
    server's micro-batching path); problems are deterministic functions
    of (kind, dataset, scale), so sharing one instance across a batch
    cannot change any answer.  The identify search and its seeding are
    exactly the harness's (:mod:`repro.experiments.runner`), so a served
    threshold equals what the corresponding study row would report.
    """
    from repro.experiments import runner

    if request.problem in CLUSTER_KINDS:
        return _tune_cluster_request(request, problem)
    partitioner_factories = {
        "cc": runner.cc_partitioner,
        "spmm": runner.spmm_partitioner,
        "hh": runner.hh_partitioner,
    }
    if problem is None:
        problem = build_problem(request.problem, request.dataset, request.scale)
    config = ExperimentConfig(
        scale=request.scale, seed=request.seed, repeats=request.repeats
    )
    partitioner = partitioner_factories[request.problem](
        config, request.dataset, sample_size=request.sample_size
    )
    if request.rounds > 1:
        return _tune_dynamic_request(request, problem, partitioner)
    estimate = partitioner.estimate(problem)
    grid = problem.threshold_grid()
    threshold = float(min(max(estimate.threshold, grid[0]), grid[-1]))
    phase2_ms = float(problem.evaluate_ms(threshold))
    return TuneResponse(
        problem=request.problem,
        dataset=request.dataset,
        scale=request.scale,
        seed=request.seed,
        threshold=threshold,
        phase2_ms=phase2_ms,
        estimation_ms=float(estimate.estimation_cost_ms),
        overhead_percent=float(estimate.overhead_percent(phase2_ms)),
        n_evaluations=int(sum(s.n_evaluations for s in estimate.searches)),
        search_name=type(partitioner.search).__name__,
    )


def _tune_dynamic_request(request, problem, partitioner) -> TuneResponse:
    """The ``rounds > 1`` half of :func:`tune` (one cutoff per round).

    Identify is the same sampled estimate the static path would use for
    round 0; :class:`~repro.hetero.dynamic_rebalance.DynamicRebalance`
    then re-balances between rounds, so ``thresholds`` is the per-round
    cutoff trajectory and ``phase2_ms`` the summed round makespans.
    """
    from repro.hetero.dynamic_rebalance import DynamicRebalance

    result = DynamicRebalance(partitioner, rounds=request.rounds).run(problem)
    estimate = result.estimate
    phase2_ms = float(result.total_ms)
    return TuneResponse(
        problem=request.problem,
        dataset=request.dataset,
        scale=request.scale,
        seed=request.seed,
        threshold=float(result.rounds[0].thresholds[0]),
        thresholds=tuple(r.thresholds[0] for r in result.rounds),
        rounds=len(result.rounds),
        phase2_ms=phase2_ms,
        estimation_ms=float(estimate.estimation_cost_ms),
        overhead_percent=float(estimate.overhead_percent(phase2_ms)),
        n_evaluations=int(sum(s.n_evaluations for s in estimate.searches)),
        search_name=type(partitioner.search).__name__,
    )


def _tune_cluster_request(
    request: TuneRequest, problem: PartitionProblem | None
) -> TuneResponse:
    """The cluster-kind half of :func:`tune` (cut vectors, not scalars).

    Identify is :func:`repro.core.cut_vector.tune_cluster` — coordinate
    descent on a sampled problem with identity extrapolation — seeded
    from the request exactly the way the harness streams are.
    """
    from repro.core.cut_vector import tune_cluster
    from repro.util.rng import stable_seed

    if problem is None:
        problem = build_problem(
            request.problem,
            request.dataset,
            request.scale,
            n_devices=request.n_devices,
            interconnect=request.interconnect,
        )
    result = tune_cluster(
        problem,
        sample_size=request.sample_size,
        rng=stable_seed(request.seed, "serve-cluster", request.dataset),
    )
    phase2_ms = float(result.value_ms)
    total = result.tuning_cost_ms + phase2_ms
    overhead = 100.0 * result.tuning_cost_ms / total if total > 0 else 0.0
    return TuneResponse(
        problem=request.problem,
        dataset=request.dataset,
        scale=request.scale,
        seed=request.seed,
        threshold=float(result.thresholds[0]),
        thresholds=tuple(float(t) for t in result.thresholds),
        phase2_ms=phase2_ms,
        estimation_ms=float(result.tuning_cost_ms),
        overhead_percent=float(overhead),
        n_evaluations=int(result.n_evaluations),
        search_name="CoordinateDescent",
    )
