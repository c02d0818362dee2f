"""repro — sampling-based nearly balanced work partitioning.

A production-quality reproduction of *"Nearly Balanced Work Partitioning
for Heterogeneous Algorithms"* (ICPP 2017): a Sample -> Identify ->
Extrapolate framework for choosing the work-partition threshold of a
heterogeneous (CPU+GPU) algorithm, together with every substrate the
paper's evaluation depends on — a calibrated heterogeneous-platform
simulator, from-scratch CSR sparse/graph kernels, the three case-study
algorithms, synthetic analogs of the Table II datasets, and an experiment
harness regenerating every table and figure.

Quick start::

    from repro import (
        paper_testbed, load_dataset, CcProblem,
        SamplingPartitioner, CoarseToFineSearch, exhaustive_oracle,
    )

    machine = paper_testbed(time_scale=1 / 16)
    graph = load_dataset("delaunay_n22").as_graph()
    problem = CcProblem(graph, machine, name="delaunay_n22")

    estimate = SamplingPartitioner(CoarseToFineSearch(), rng=0).estimate(problem)
    oracle = exhaustive_oracle(problem)
    print(estimate.threshold, oracle.threshold)

Subpackages
-----------
``repro.core``
    The paper's contribution: the sampling partitioner, identify searches,
    extrapolation laws, baselines, and the exhaustive oracle.
``repro.platform``
    The simulated CPU+GPU+PCIe testbed and its kernel cost models, plus
    :class:`ClusterSpec` for N-device clusters (see docs/CLUSTER.md).
``repro.sparse`` / ``repro.graphs``
    From-scratch CSR matrix and graph substrates.
``repro.hetero``
    The heterogeneous algorithms: hybrid CC (Algorithm 1), row-split spmm
    (Algorithm 2), HH-CPU scale-free spmm (Algorithm 3), dense MM (Fig. 1).
``repro.workloads``
    Synthetic Table II dataset analogs.
``repro.experiments``
    One module per paper table/figure; ``python -m repro.experiments all``
    regenerates everything.
``repro.analysis``
    Static analysis: the repo-invariant linter and the schedule hazard
    detector (``python -m repro.analysis``); see docs/ANALYSIS.md.
``repro.engine``
    Parallel fan-out + persistent result caching behind the harness
    (:func:`get_engine`, :class:`ResultCache`); see docs/ENGINE.md.
``repro.obs``
    Observability: span tracing, metrics, Chrome-trace export
    (``python -m repro.obs``); see docs/OBSERVABILITY.md.
``repro.serve``
    Tuning-as-a-service: the asyncio partition-tuning server, traffic
    generator, and throughput benchmark (``python -m repro.serve``); see
    docs/SERVING.md.

The names re-exported here (see ``__all__``) are the library's stable
public API; anything else may move between releases (old spellings keep
working for one deprecation cycle).
"""

from repro.core import (
    autotune,
    TunedPartition,
    SamplingPartitioner,
    PartitionEstimate,
    ExhaustiveSearch,
    CoarseToFineSearch,
    RaceCoarseSearch,
    GradientDescentSearch,
    SearchResult,
    IdentityExtrapolator,
    SquareLawExtrapolator,
    ScaleExtrapolator,
    SaturationExtrapolator,
    OfflineBestFitExtrapolator,
    exhaustive_oracle,
    OracleResult,
    naive_average_threshold,
    compare_with_baselines,
    BaselineComparison,
)
from repro.engine import Engine, ResultCache, get_engine
from repro.obs import (
    get_metrics,
    get_tracer,
    validate_timeline,
)
from repro.core.cut_vector import (
    ClusterTuneResult,
    CutVectorResult,
    cluster_oracle,
    tune_cluster,
)
from repro.hetero import (
    CcProblem,
    SpmmProblem,
    HhCpuProblem,
    DenseMmProblem,
    MultiwayCcProblem,
    MultiwaySpmmProblem,
)
from repro.platform import (
    ClusterSpec,
    Interconnect,
    DeviceSpec,
    PcieLink,
    Timeline,
    paper_testbed,
    cluster_testbed,
)
from repro.workloads import (
    Dataset,
    load_dataset,
    load_suite,
    dataset_names,
    scalefree_subset_names,
)

__version__ = "1.1.0"

#: Entry points resolved lazily in :func:`__getattr__` — importing
#: ``repro`` must stay cheap, and these pull in the experiment registry
#: and the linter respectively.
_LAZY_ATTRS = {
    "run_experiments": ("repro.experiments.cli", "main"),
    "lint_paths": ("repro.analysis", "lint_paths"),
    "analyze_project": ("repro.analysis", "analyze_project"),
    # tuning service (repro.serve) — pulls in the experiment runners.
    "TuneRequest": ("repro.serve", "TuneRequest"),
    "TuneResponse": ("repro.serve", "TuneResponse"),
    "TuningServer": ("repro.serve", "TuningServer"),
    "ServeConfig": ("repro.serve", "ServeConfig"),
    "tune": ("repro.serve", "tune"),
}


def __getattr__(name: str):
    target = _LAZY_ATTRS.get(name)
    if target is not None:
        import importlib

        module_name, attr = target
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "autotune",
    "TunedPartition",
    "SamplingPartitioner",
    "PartitionEstimate",
    "ExhaustiveSearch",
    "CoarseToFineSearch",
    "RaceCoarseSearch",
    "GradientDescentSearch",
    "SearchResult",
    "IdentityExtrapolator",
    "SquareLawExtrapolator",
    "ScaleExtrapolator",
    "SaturationExtrapolator",
    "OfflineBestFitExtrapolator",
    "exhaustive_oracle",
    "OracleResult",
    "naive_average_threshold",
    "compare_with_baselines",
    "BaselineComparison",
    "CcProblem",
    "SpmmProblem",
    "HhCpuProblem",
    "DenseMmProblem",
    "MultiwayCcProblem",
    "MultiwaySpmmProblem",
    "ClusterSpec",
    "Interconnect",
    "DeviceSpec",
    "PcieLink",
    "Timeline",
    "paper_testbed",
    "cluster_testbed",
    # cluster tuning (repro.core.cut_vector)
    "CutVectorResult",
    "ClusterTuneResult",
    "cluster_oracle",
    "tune_cluster",
    "Dataset",
    "load_dataset",
    "load_suite",
    "dataset_names",
    "scalefree_subset_names",
    # execution engine (repro.engine)
    "Engine",
    "ResultCache",
    "get_engine",
    # observability (repro.obs)
    "get_tracer",
    "get_metrics",
    "validate_timeline",
    # lazy entry points
    "run_experiments",
    "lint_paths",
    "analyze_project",
    # tuning service (repro.serve, lazy)
    "TuneRequest",
    "TuneResponse",
    "TuningServer",
    "ServeConfig",
    "tune",
    "__version__",
]
