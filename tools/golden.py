#!/usr/bin/env python
"""Pin the repository's outputs across commits: ``benchmarks/GOLDEN.json``.

Three families of output are pinned:

* every registered experiment's report at scale 1/64 with the result
  cache disabled — the SHA-256 of ``render()`` plus every table cell and
  metric formatted ``.12g``;
* the tuning service's answers — the canonical-JSON digest of
  :func:`repro.serve.api.tune` over the default load-generator request
  universe, plus the ``cluster-cc`` / ``cluster-spmm`` kinds at 2–4
  devices on both interconnects;
* the cache-key fingerprints (:meth:`TuneRequest.fingerprint`) of that
  request set.

Floats are written ``.12g`` so the pins survive last-bit numpy
differences between platforms; everything else is exact.

Usage (from the repository root)::

    python tools/golden.py            # compare; exit 1 and list drift
    python tools/golden.py --write    # regenerate benchmarks/GOLDEN.json

This script is the file's only writer.  A regeneration moves the
repository's pinned numbers, so it needs a CHANGES.md entry saying why
they moved; ``tests/test_golden.py`` compares against the file in tier-1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "benchmarks" / "GOLDEN.json"
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Experiment scale the report pins are taken at.
GOLDEN_SCALE = 1.0 / 64.0

#: Cluster-kind requests: (kind, dataset) at every device count and topology.
CLUSTER_CELLS = (("cluster-cc", "netherlands_osm"), ("cluster-spmm", "cant"))
CLUSTER_DEVICES = (2, 3, 4)


def fmt(value: object) -> object:
    """*value* with every float rendered ``.12g`` (recursively)."""
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return {str(k): fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [fmt(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return fmt(value.item())
    return value


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def experiment_pins() -> dict:
    """Report pins for every ``REGISTRY`` experiment."""
    from repro.experiments import REGISTRY, ExperimentConfig

    config = ExperimentConfig(scale=GOLDEN_SCALE)
    pins = {}
    for exp_id, run in REGISTRY.items():
        report = run(config)
        pins[exp_id] = {
            "render_sha256": _sha256(report.render()),
            "tables": {
                table.title: [fmt(list(row)) for row in table.rows]
                for table in report.tables
            },
            "metrics": fmt(report.metrics),
        }
    return pins


def golden_requests() -> list:
    """The pinned request set: loadgen universe, then the cluster cells."""
    from repro.serve.api import TuneRequest
    from repro.serve.loadgen import TrafficSpec, request_universe

    requests, _ = request_universe(TrafficSpec())
    for kind, dataset in CLUSTER_CELLS:
        for n_devices in CLUSTER_DEVICES:
            for interconnect in ("shared", "dedicated"):
                requests.append(
                    TuneRequest(
                        problem=kind,
                        dataset=dataset,
                        n_devices=n_devices,
                        interconnect=interconnect,
                    )
                )
    return requests


def serving_pins() -> dict:
    """Answer digest and cache-key fingerprints of :func:`golden_requests`."""
    from repro.serve.api import tune

    requests = golden_requests()
    answers = [fmt(tune(r).to_record()) for r in requests]
    return {
        "n_requests": len(requests),
        "tune_sha256": _sha256(_canonical(answers)),
        "fingerprints": [r.fingerprint() for r in requests],
    }


def compute() -> dict:
    return {
        "scale": fmt(GOLDEN_SCALE),
        "experiments": experiment_pins(),
        "serving": serving_pins(),
    }


def diff(expected: dict, actual: dict, path: str = "") -> list[str]:
    """Human-readable paths where *actual* departs from *expected*."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}/{key}"
            if key not in actual:
                out.append(f"{sub}: missing")
            elif key not in expected:
                out.append(f"{sub}: unexpected")
            else:
                out.extend(diff(expected[key], actual[key], sub))
        return out
    if expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help=f"regenerate {GOLDEN_PATH.name}"
    )
    args = parser.parse_args(argv)
    actual = compute()
    if args.write:
        GOLDEN_PATH.write_text(
            json.dumps(actual, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {GOLDEN_PATH.relative_to(REPO_ROOT)}")
        return 0
    drift = diff(load(), actual)
    for line in drift:
        print(line)
    print("golden: ok" if not drift else f"golden: {len(drift)} pin(s) drifted")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
