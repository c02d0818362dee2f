#!/usr/bin/env bash
# Local gate, mirroring .github/workflows/ci.yml step for step: the
# repo-invariant lint (src/repro, which includes the src/repro/engine
# package), the whole-program project analysis (determinism /
# parallel-safety / unit rules over the project graph), the API surface
# snapshot (docs/API.md vs the live surface), the engine, chaos, cluster
# and dynamic re-balancing suites with their experiments, every example
# under -W error::DeprecationWarning, the full tier-1 test suite, then the
# repository benchmark's self-test (perfbench/selftest.py).
# Run from the repository root:
#
#     tools/check.sh            # lint + analysis + API snapshot + tests
#     tools/check.sh --lint-only
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro.analysis lint (src/repro, incl. src/repro/engine) =="
test -d src/repro/engine  # the engine package must exist and be linted
python -m repro.analysis lint src/repro

echo
echo "== repro.analysis project analysis (whole-program DET/PAR/UNIT-X) =="
python -m repro.analysis --project src/repro

if [[ "${1:-}" == "--lint-only" ]]; then
    exit 0
fi

echo
echo "== API surface snapshot (docs/API.md) =="
python -m pytest -x -q tests/test_api_surface.py

echo
echo "== engine tests =="
python -m pytest -x -q \
    tests/test_engine_parallel.py \
    tests/test_engine_cache.py \
    tests/test_engine_determinism.py

echo
echo "== chaos tests (fault injection) =="
python -m pytest -x -q tests/test_engine_faults.py

echo
echo "== cluster experiments (docs/CLUSTER.md) =="
python -m pytest -x -q tests/test_platform_cluster.py
python -m repro.experiments ext-cluster --scale 0.02 --no-cache

echo
echo "== dynamic re-balancing experiments (docs/PERFORMANCE.md §6) =="
python -m pytest -x -q tests/test_hetero_dynamic_rebalance.py
python -m repro.experiments ext-dynamic --scale 0.0625 --no-cache

echo
echo "== examples (-W error::DeprecationWarning) =="
for example in examples/*.py; do
    echo "$example"
    python -W error::DeprecationWarning "$example" > /dev/null
done

echo
echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== perfbench self-test =="
python3 perfbench/selftest.py
