"""Self-test of the benchmark at toy size (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks, for every workload in ``BENCHMARK.json``:

* every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) named there is emitted, with the unit named there;
* the outputs pass their checks (``correct``, no failed ops);
* values that must not depend on timing repeat exactly across two runs
  at one seed: the quality metrics, the evaluation counts,
  ``hetero.run.product_nnz`` and ``serve.computed``;
* a different seed generates different inputs.

It also checks that the benchmark fails, printing no result, when the
program's sources are missing.  Exits 0 when every check passes.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3

DETERMINISTIC = {
    0: ("slowdown_pct", "overhead_pct", "threshold_diff_pts", "ok_ratio"),
    1: (
        "core.identify.evaluations",
        "core.oracle.evaluations",
        "hetero.run.product_nnz",
        "serve.computed",
    ),
}


def run(cwd: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--toy",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(ROOT, workload, seed, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        module = importlib.import_module(workload.replace("-", "_"))
        if module.plan_digest(SEED, True) == module.plan_digest(SEED + 1, True):
            problems.append(f"{workload}: seeds {SEED} and {SEED + 1} give the same inputs")
        for trace in (0, 1):
            first, second = result(workload, SEED, trace), result(workload, SEED, trace)
            for res in (first, second):
                emitted = {k: v["unit"] for k, v in res["metrics"].items()}
                if emitted != expected[trace]:
                    problems.append(f"{workload} trace={trace}: metrics/units differ from BENCHMARK.json")
                if not res["correct"] or res["failed"]:
                    problems.append(f"{workload} trace={trace}: outputs failed their checks")
            for name in DETERMINISTIC[trace]:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload}: {name} differs at one seed ({a} vs {b})")
            print(f"{workload} trace={trace}: checked", flush=True)
    bare = os.path.join(ROOT, ".perfbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, "tune-cold", SEED, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without src/ the benchmark must fail and print no result")
    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
