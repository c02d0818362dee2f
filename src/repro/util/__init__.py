"""Shared utilities for the reproduction package.

This subpackage is deliberately dependency-light: everything here is either
pure Python or thin NumPy, and none of it knows about devices, matrices, or
graphs.  The rest of the package builds on these primitives.
"""

from repro.util.errors import (
    ReproError,
    ValidationError,
    SearchError,
    WorkloadError,
    ReproDeprecationWarning,
)
from repro.util.rng import RngLike, as_generator, spawn_child, stable_seed
from repro.util.stats import (
    percent_difference,
    absolute_percent_gap,
    relative_slowdown,
    geometric_mean,
    near_concave_violations,
    summarize,
    Summary,
)
from repro.util.prefix import (
    inclusive_prefix_sum,
    exclusive_prefix_sum,
    split_index_for_share,
    balanced_chunks,
)
from repro.util.fmt import (
    format_table,
    format_series,
    format_quantity,
)

__all__ = [
    "ReproError",
    "ValidationError",
    "SearchError",
    "WorkloadError",
    "ReproDeprecationWarning",
    "RngLike",
    "as_generator",
    "spawn_child",
    "stable_seed",
    "percent_difference",
    "absolute_percent_gap",
    "relative_slowdown",
    "geometric_mean",
    "near_concave_violations",
    "summarize",
    "Summary",
    "inclusive_prefix_sum",
    "exclusive_prefix_sum",
    "split_index_for_share",
    "balanced_chunks",
    "format_table",
    "format_series",
    "format_quantity",
]
