"""Run one benchmark workload and print its result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with every other op traced, prints a per-layer table, writes the
trace to ``.perfbench-out/`` and prints the per-layer metrics.  The last
line of standard output is always the JSON result.  ``--toy`` shrinks
every input (used by ``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("tune-cold", "paper-study", "solve-verify", "serve-zipf")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs (self-test)")
    return parser.parse_args(argv)


def load_workload(name: str):
    """Import the workload module (needs the program's ``src/`` tree)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, src)
    return importlib.import_module(name.replace("-", "_"))


def main(argv=None) -> int:
    args = parse_args(argv)
    module = load_workload(args.workload)
    import harness

    outcome, session = module.run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), toy=args.toy
    )
    if not args.trace:
        harness.emit(outcome, trace=False)
        return 0
    layers = harness.analyze(session.windows)
    extra = dict(outcome.layer_extra)
    extra["bench.trace_overhead_pct"] = harness.trace_overhead_pct(
        outcome.op_ms, outcome.traced
    )
    values = harness.layer_metrics(layers, extra)
    path = os.path.join(harness.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    session.write(path)
    print(f"trace: {os.path.relpath(path, ROOT)}")
    harness.print_layer_table(values, layers)
    harness.emit(outcome, trace=True, layer_values=values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
