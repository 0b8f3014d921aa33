"""Continuous-feed throughput: documents per second and boundary latency.

A feed's cost model differs from a single run's: every document boundary
pays for a fresh inner run (executor, statistics, attribution ledger)
plus boundary detection and result framing.  This bench streams the
synthetic XMark auction ticker (:mod:`repro.xmark.ticker`) through
``open_feed`` and records

* **docs/sec** end to end over the chunked stream,
* **inter-document latency**: wall time between consecutive document
  seals, reported as p50 and p99 (the punctuation regularity a consumer
  of a live feed experiences),
* the flat-floor invariant (live buffered bytes zero at every boundary)
  as a correctness gate -- a benchmark over leaking feeds measures the
  wrong thing.

Rows land in ``BENCH_feed.json`` for the perf trajectory.
"""

from __future__ import annotations

import os
import time

from repro import FluxSession
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import DEFAULT_TICK_SCALE, iter_ticker_chunks

from _workload import record_row

#: Documents per timed feed; override for quick local runs.
_DOCUMENTS = int(os.environ.get("REPRO_FEED_BENCH_DOCS", "60"))
_CHUNK_BYTES = 64 * 1024
_QUERY = "Q1"


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def test_feed_throughput(benchmark):
    session = FluxSession(xmark_dtd())
    prepared = session.prepare(BENCHMARK_QUERIES[_QUERY])
    chunks = list(
        iter_ticker_chunks(
            documents=_DOCUMENTS, scale=DEFAULT_TICK_SCALE, chunk_size=_CHUNK_BYTES
        )
    )
    stream_bytes = sum(len(chunk) for chunk in chunks)

    def run():
        seal_times = []
        floors = []

        def on_document(document):
            seal_times.append(time.perf_counter())
            floors.append(document.result.stats.buffered_bytes_current)

        started = time.perf_counter()
        with prepared.open_feed(on_document=on_document) as feed:
            for chunk in chunks:
                feed.feed(chunk)
        return started, seal_times, floors, feed.result

    started, seal_times, floors, summary = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert summary.documents_completed == _DOCUMENTS
    assert set(floors) == {0}, "live bytes must return to the floor per document"

    elapsed = seal_times[-1] - started
    gaps = [b - a for a, b in zip(seal_times, seal_times[1:])] or [elapsed]
    record_row(
        benchmark,
        table="feed",
        query=_QUERY,
        documents=_DOCUMENTS,
        stream_mb=round(stream_bytes / 1e6, 2),
        seconds=round(elapsed, 4),
        docs_per_second=round(_DOCUMENTS / elapsed, 1),
        mb_per_second=round(stream_bytes / 1e6 / elapsed, 2),
        p50_gap_ms=round(_percentile(gaps, 0.50) * 1e3, 3),
        p99_gap_ms=round(_percentile(gaps, 0.99) * 1e3, 3),
    )
