"""Exception hierarchy for the reproduction package.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  The subclasses separate
the three places things can go wrong: malformed data structures
(:class:`ValidationError`), threshold searches that cannot make progress
(:class:`SearchError`), and workload generators asked for impossible
instances (:class:`WorkloadError`).  Deprecated spellings warn with
:class:`ReproDeprecationWarning`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ValidationError(ReproError, ValueError):
    """A data structure or argument failed an invariant check.

    Also derives from :class:`ValueError` so code written against standard
    library conventions keeps working.
    """


class SearchError(ReproError, RuntimeError):
    """A threshold search could not run (empty grid, no feasible point)."""


class WorkloadError(ReproError, ValueError):
    """A workload generator was asked for an instance it cannot build."""


class ReproDeprecationWarning(DeprecationWarning):
    """A deprecated :mod:`repro` spelling was used (kept for one release).

    Its own class so a test suite can turn repro's deprecations into
    errors without touching third-party ones.
    """
