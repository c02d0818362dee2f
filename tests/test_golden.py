"""Golden outputs: reports, serving answers and cache keys pinned across commits.

``benchmarks/GOLDEN.json`` is written only by ``python tools/golden.py
--write``; this test recomputes every pin and compares.  A failure means
a change moved a number the repository publishes.  If that was the
intent, regenerate the file and say in CHANGES.md why the numbers moved.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SCRIPT = REPO_ROOT / "tools" / "golden.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("golden", GOLDEN_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    return _load_tool()


@pytest.fixture(scope="module")
def expected(golden):
    return golden.load()


def _assert_no_drift(golden, expected, actual):
    drift = golden.diff(expected, actual)
    assert not drift, (
        "pinned outputs drifted from benchmarks/GOLDEN.json; if intended, run "
        "`python tools/golden.py --write` and explain in CHANGES.md:\n"
        + "\n".join(drift[:40])
    )


class TestGolden:
    def test_scale(self, golden, expected):
        assert expected["scale"] == golden.fmt(golden.GOLDEN_SCALE)

    def test_experiment_reports(self, golden, expected):
        _assert_no_drift(golden, expected["experiments"], golden.experiment_pins())

    def test_serving_answers_and_cache_keys(self, golden, expected):
        _assert_no_drift(golden, expected["serving"], golden.serving_pins())

    def test_every_registered_experiment_is_pinned(self, expected):
        from repro.experiments import REGISTRY

        assert sorted(expected["experiments"]) == sorted(REGISTRY)

    def test_diff_reports_paths(self, golden):
        drift = golden.diff({"a": {"b": "1", "c": "2"}}, {"a": {"b": "1", "d": "2"}})
        assert drift == ["/a/c: missing", "/a/d: unexpected"]
