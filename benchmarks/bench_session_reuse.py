"""Session reuse: warm vs cold plan cache, push-mode vs pull-mode throughput.

The session redesign's scalability claim is twofold:

* **plan cache** -- scheduling a query against the DTD (parse -> normalize
  -> rewrite -> safety -> plan compilation) is the expensive, perfectly
  cacheable step.  A warm :class:`~repro.core.session.FluxSession` must
  serve repeat queries with zero compilations (verified by the cache's
  hit/miss counters) and measurably lower per-request latency than a cold
  path that recompiles every time.
* **push mode** -- ``open_run``/``feed``/``finish`` executes the same plan
  the pull path uses, batch for batch; feeding a document in chunks must
  stay within a modest constant factor of pull-mode throughput.

Both comparisons time their two sides alternately, min-of-N with GC
paused (the protocol of ``bench_obs_overhead.py``): timing one side after
the other lets a slow window of the host land on one side only.

Rows land in ``BENCH_session.json`` (cold/warm seconds per request, the
speedup, feed/pull throughput) for the perf trajectory.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro import ExecutionOptions, FluxSession
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES

from _workload import FIGURE4_SCALES, record_row, xmark_document

#: Repeat-query latency is measured on a small document so compile time is
#: a visible fraction of the request; throughput on a meaningful one.
_LATENCY_SCALE = FIGURE4_SCALES[0]
_THROUGHPUT_SCALE = FIGURE4_SCALES[-1]

#: Requests per measured round of the latency comparison.
_REQUESTS = 8

#: Push-mode feed granularity (the pull path reads 64 KiB chunks too).
_FEED_CHUNK = 64 * 1024

#: Generous ceiling on the feed-mode tax over pull mode: both run the same
#: executor over the same batches; only the chunk-driving differs.
_MAX_FEED_TAX = 1.5

#: Alternating rounds per comparison (each side keeps its best).
_ROUNDS = 5


def _alternate(first, second, rounds: int = _ROUNDS):
    """Best-of-``rounds`` seconds of two self-timing sides, interleaved."""
    best = [float("inf"), float("inf")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            for index, side in enumerate((first, second)):
                gc.collect()
                best[index] = min(best[index], side())
    finally:
        if enabled:
            gc.enable()
    return best


@pytest.mark.parametrize("query", ["Q1", "Q13", "Q20"])
def test_warm_plan_cache_beats_cold_compilation(benchmark, query):
    """Repeat execution: warm sessions skip parse/schedule entirely."""
    document = xmark_document(_LATENCY_SCALE)
    source = BENCHMARK_QUERIES[query]
    dtd = xmark_dtd()

    def cold_round() -> float:
        started = time.perf_counter()
        for _ in range(_REQUESTS):
            # A fresh session per request: every execution recompiles.
            FluxSession(dtd).prepare(source).execute(document, collect_output=False)
        return time.perf_counter() - started

    session = FluxSession(dtd)
    session.prepare(source)  # populate the cache outside the timed region

    def warm_round() -> float:
        started = time.perf_counter()
        for _ in range(_REQUESTS):
            session.prepare(source).execute(document, collect_output=False)
        return time.perf_counter() - started

    cold_seconds, warm_seconds = benchmark.pedantic(
        _alternate, args=(cold_round, warm_round), rounds=1, iterations=1
    )

    snap = session.cache.snapshot()
    # The cache must prove the skip: one miss (the populate), all the
    # timed prepares were hits, nothing was ever evicted.
    assert snap["misses"] == 1, snap
    assert snap["hits"] >= _REQUESTS, snap
    assert snap["evictions"] == 0, snap
    assert warm_seconds < cold_seconds, (
        f"warm repeat execution ({warm_seconds:.4f}s/{_REQUESTS} requests) is not "
        f"faster than cold recompilation ({cold_seconds:.4f}s)"
    )

    record_row(
        benchmark,
        table="session",
        kind="plan-cache-latency",
        query=query,
        document_bytes=len(document),
        requests=_REQUESTS,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        speedup=cold_seconds / warm_seconds,
        cache=snap,
    )


@pytest.mark.parametrize("query", ["Q1", "Q13"])
def test_feed_mode_throughput_near_pull_mode(benchmark, query):
    """Push-mode chunk feeding stays within a constant factor of pull mode."""
    document = xmark_document(_THROUGHPUT_SCALE)
    session = FluxSession(xmark_dtd())
    prepared = session.prepare(BENCHMARK_QUERIES[query])
    options = ExecutionOptions(collect_output=False)

    # Correctness outside the timed region: byte-identity at this chunking.
    expected = prepared.execute(document)
    run = prepared.open_run()
    for start in range(0, len(document), _FEED_CHUNK):
        run.feed(document[start : start + _FEED_CHUNK])
    assert run.finish().output == expected.output

    def pull_once() -> float:
        result = prepared.execute(document, options=options)
        return result.stats.elapsed_seconds

    def feed_once() -> float:
        handle = prepared.open_run(options=options)
        for start in range(0, len(document), _FEED_CHUNK):
            handle.feed(document[start : start + _FEED_CHUNK])
        return handle.finish().stats.elapsed_seconds

    pull_seconds, feed_seconds = benchmark.pedantic(
        _alternate, args=(pull_once, feed_once), rounds=1, iterations=1
    )

    tax = feed_seconds / pull_seconds if pull_seconds else 1.0
    assert tax <= _MAX_FEED_TAX, (
        f"feed mode {feed_seconds:.4f}s vs pull {pull_seconds:.4f}s "
        f"({tax:.2f}x > {_MAX_FEED_TAX}x ceiling)"
    )

    record_row(
        benchmark,
        table="session",
        kind="feed-vs-pull",
        query=query,
        document_bytes=len(document),
        chunk_bytes=_FEED_CHUNK,
        pull_seconds=pull_seconds,
        feed_seconds=feed_seconds,
        feed_tax=tax,
        megabytes_per_second_feed=len(document) / 1e6 / feed_seconds if feed_seconds else 0.0,
    )
