"""serve-zipf: the tuning service under open-loop traffic.

One in-process ``TuningServer`` with a fresh sharded cache directory.
Set-up materializes the datasets and answers the hot set once; the hot
set is the loadgen ``request_universe`` of the default traffic spec (4
default datasets x cc/spmm/hh x 16 seeds at scale 1/64); the workload
seed drives the stream.  The measured stream is open loop: Poisson
arrivals at 40 requests/s.  Four requests in five are hot-set draws by
Zipf weight, so the cache answers them; one in five is a fresh request
with 4 sampling repeats, which must compute (about 15 ms).  Hits wait
behind computes on the server's single compute thread, which the rate
keeps about a tenth busy.

``op_ms_p90`` lies among the computes.  At 200-400 requests/s with 10%
computes it sat where delayed hits meet computes and moved by a third
to a half of itself between runs of one seed.  At 50 requests/s with
one-sample computes drawn independently, the share of computes, their
mix of kinds and their seeds moved it by a fifth to a third.  So every
run computes one fixed pool of requests in a fixed mix (see
:func:`stream`), and a compute is long next to the thread hand-offs
every request pays (about 1.5 ms).

A request's latency runs from the moment it was due, so a stall in the
sender counts against every request it delays, and
``bench.loadgen.late_ms_p90`` reports how late the sender ran.  The
quality metrics are taken on the hot set's answers, a fixed set: over the
distinct requests of one stream, their median moved by a quarter of
itself from seed to seed.

This is the only workload where the serving layer (queue, coalescing,
micro-batching) and the sharded cache do work.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import sys
from contextlib import ExitStack
from dataclasses import replace

import numpy as np

from repro.core.oracle import exhaustive_oracle
from repro.experiments import config as config_module
from repro.serve.api import build_problem, tune
from repro.serve.loadgen import TrafficSpec, drive, request_universe
from repro.serve.server import ServeConfig, TuningServer
from repro.util.rng import stable_seed
from repro.util.stats import absolute_percent_gap, relative_slowdown

import harness
from harness import now, span

SCALE = 1.0 / 64.0
TOY_SCALE = 1.0 / 1024.0
SEED_POOL = 16
RATE_PER_S = 40.0
#: One request in every BLOCK is fresh (must compute): 20%.
BLOCK = 5
#: Fresh-request cells per deck: the computes of one window of a 20 s run.
DECK = 32
#: Sampling repeats a fresh request asks for.
FRESH_REPEATS = 4
CHECKED_RESPONSES = 32
#: Latency percentiles are taken per window of the stream (equal numbers
#: of requests), and the median window is reported: a few seconds of
#: interference from outside the process then move one window, not the
#: result.
WINDOWS = 5


def universe(toy: bool):
    """The hot set and its Zipf weights."""
    spec = TrafficSpec(scale=TOY_SCALE if toy else SCALE, seed_pool=SEED_POOL)
    return request_universe(spec)


def fresh_deck(hot, weights) -> list:
    """One deck of fresh-request templates: every (kind, dataset) cell,
    repeated in proportion to its Zipf weight (largest remainder)."""
    cells: dict = {}
    for request, weight in zip(hot, weights):
        key = (request.problem, request.dataset)
        template, total = cells.get(key, (request, 0.0))
        cells[key] = (template, total + float(weight))
    quotas = {key: total * DECK for key, (_, total) in cells.items()}
    counts = {key: int(quota) for key, quota in quotas.items()}
    short = DECK - sum(counts.values())
    for key in sorted(quotas, key=lambda k: counts[k] - quotas[k])[:short]:
        counts[key] += 1
    return [cells[key][0] for key in sorted(cells) for _ in range(counts[key])]


def stream(seed: int, seconds: float, toy: bool):
    """The seeded open-loop stream: ``[(due_s, request, is_hot)]``.

    The stream holds ``RATE_PER_S * seconds`` requests whose due times
    are uniform on the run, which is a Poisson process conditioned on its
    count.  Every block of ``BLOCK`` consecutive requests holds one fresh
    request, at a seeded position.  The fresh requests are a fixed pool:
    deck after deck of the Zipf-weighted cells, each with its own seed
    above the hot seeds.  The workload seed shuffles each deck, places
    the fresh requests and draws the arrivals and the hot requests.
    So every run computes the same requests, and every stretch of the
    stream the same mix of kinds and datasets.
    """
    hot, weights = universe(toy)
    deck = fresh_deck(hot, weights)
    gen = np.random.default_rng(stable_seed("perfbench", "serve-zipf", seed))
    n_requests = max(BLOCK, int(round(RATE_PER_S * seconds)))
    dues = np.sort(gen.uniform(0.0, seconds, size=n_requests))
    fresh = []
    for k in range(-(-(n_requests // BLOCK) // DECK)):
        for i in gen.permutation(len(deck)):
            # Hot seeds lie below 2**31; fresh ones above, never repeated.
            seed_k = 2**31 + k * len(deck) + int(i)
            fresh.append(replace(deck[int(i)], seed=seed_k, repeats=FRESH_REPEATS))
    out = []
    for start in range(0, n_requests - n_requests % BLOCK, BLOCK):
        fresh_slot = int(gen.integers(BLOCK))
        for slot in range(BLOCK):
            if slot == fresh_slot:
                out.append((float(dues[start + slot]), fresh[start // BLOCK], False))
            else:
                request = hot[int(gen.choice(len(hot), p=weights))]
                out.append((float(dues[start + slot]), request, True))
    for due in dues[len(out):]:
        out.append((float(due), hot[int(gen.choice(len(hot), p=weights))], True))
    return out


def plan_digest(seed: int, toy: bool) -> str:
    """A fingerprint of the generated inputs (the first requests)."""
    return repr([r.to_record() for _, r, _ in stream(seed, 0.1, toy)])


def clear_datasets() -> None:
    clear = getattr(getattr(config_module, "_cached_dataset", None), "cache_clear", None)
    if clear is not None:
        clear()  # each set-up repetition materializes from scratch


async def start_server(cache_dir: str, hot):
    """A fresh server whose cache already holds the hot set, and its answers."""
    clear_datasets()
    shutil.rmtree(cache_dir, ignore_errors=True)
    server = TuningServer(config=ServeConfig(cache_dir=cache_dir))
    await server.start()
    answers = await drive(server, hot, concurrency=32)
    for outcome in answers:
        if isinstance(outcome, BaseException):
            raise outcome
    return server, answers


async def one(server: TuningServer, request, due_abs: float):
    served = await server.submit(request)
    return served, (now() - due_abs) * 1e3


async def measure(seed, seconds, trace, toy, work_dir, session):
    hot, _ = universe(toy)
    setup_times = []
    server = None
    for rep in range(harness.SETUP_REPEATS):
        if server is not None:
            await server.close()
        started = now()
        server, answers = await start_server(os.path.join(work_dir, f"cache{rep}"), hot)
        setup_times.append(now() - started)
    before = server.stats()
    requests = stream(seed, seconds, toy)
    half = len(requests) // 2
    late_ms = []
    tasks = []
    with ExitStack() as traced_half:
        start = now()
        for i, (due, request, _) in enumerate(requests):
            if trace and i == half:
                traced_half.enter_context(session.window(1, True, first_pass=True))
                traced_half.enter_context(span(harness.OP_SPAN, requests=len(requests) - half))
            delay = start + due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            late_ms.append(max(0.0, now() - (start + due)) * 1e3)
            tasks.append(asyncio.create_task(one(server, request, start + due)))
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        window_s = now() - start
    stats = server.stats()
    await server.close()
    delta = {k: stats[k] - before[k] for k in before if isinstance(before[k], (int, float))}
    setup_s = statistics.median(setup_times)
    return setup_s, list(zip(hot, answers)), requests, outcomes, late_ms, window_s, delta


def run(seed: int, seconds: float, trace: bool, toy: bool):
    session = harness.TraceSession(trace)
    work_dir = os.path.join(harness.OUT_DIR, f"serve-{os.getpid()}")
    try:
        setup_s, hot_answers, requests, outcomes, late_ms, window_s, delta = asyncio.run(
            measure(seed, seconds, trace, toy, work_dir, session)
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    half = len(requests) // 2
    started = now()
    scale = TOY_SCALE if toy else SCALE
    oracles = {}
    op_ms, traced, by_source, rows = [], [], {}, []
    failed = evaluations = 0
    window_of = []
    for i, ((due, request, _), outcome) in enumerate(zip(requests, outcomes)):
        if isinstance(outcome, BaseException):
            print(f"serve-zipf: request {i} failed: {outcome!r}", file=sys.stderr)
            failed += 1
            continue
        served, latency_ms = outcome
        response = served.response
        if (response.problem, response.dataset, response.seed) != (
            request.problem,
            request.dataset,
            request.seed,
        ):
            failed += 1
            continue
        op_ms.append(latency_ms)
        window_of.append(i * WINDOWS // len(requests))
        traced.append(trace and i >= half)
        by_source.setdefault(served.source, []).append(latency_ms)
        if served.source == "computed":
            evaluations += response.n_evaluations
    for request, served in hot_answers:
        key = request.problem_key()
        if key not in oracles:
            oracles[key] = exhaustive_oracle(build_problem(request.problem, request.dataset, scale))
        response = served.response
        rows.append(
            (
                request.problem,
                relative_slowdown(response.phase2_ms, oracles[key].best_time_ms),
                response.overhead_percent,
                absolute_percent_gap(response.threshold, oracles[key].threshold),
            )
        )
    gen = np.random.default_rng(stable_seed("perfbench", "serve-zipf-check", seed))
    answered = [i for i, o in enumerate(outcomes) if not isinstance(o, BaseException)]
    for i in gen.choice(answered, size=min(CHECKED_RESPONSES, len(answered)), replace=False):
        served, _ = outcomes[int(i)]
        expected = tune(requests[int(i)][1]).canonical_json()
        if served.response.canonical_json() != expected:
            print(f"serve-zipf: response {int(i)} differs from tune()", file=sys.stderr)
            failed += 1
    verify_s = now() - started
    lookups = delta["cache_hits"] + delta["cache_misses"]
    slowdown, overhead, diff = harness.quality(rows)
    outcome = harness.Outcome(
        op_ms=op_ms,
        windows=window_of,
        busy_s=window_s,
        attempted=len(requests),
        failed=failed,
        setup_s=setup_s,
        slowdown_pct=slowdown,
        overhead_pct=overhead,
        threshold_diff_pts=diff,
        traced=traced,
        layer_extra={
            "bench.verify_ms": verify_s * 1e3,
            "bench.loadgen.late_ms_p90": harness.quantile(late_ms, 0.9),
            # Summed from the answers: spans of computes that straddle the
            # start of the traced half would make a span count timing-dependent.
            "core.identify.evaluations": evaluations,
            "serve.requests": delta["requests"],
            "serve.computed": delta["computed"],
            "serve.coalesced": delta["coalesced"],
            "serve.batched": delta["batched"],
            "serve.shed": delta["shed"],
            "serve.errors": delta["errors"],
            "serve.cache.hit_ratio": delta["cache_hits"] / lookups if lookups else 0.0,
            "serve.hit.ms_p50": harness.quantile(by_source.get("cache", []), 0.5),
            "serve.computed.ms_p50": harness.quantile(by_source.get("computed", []), 0.5),
        },
    )
    return outcome, session
