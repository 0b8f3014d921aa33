"""Subscription-server throughput and delivery latency.

The serve tentpole's cost model: one shared scan + projection pass per
document however many subscriptions ride it, plus one
executor per active subscription per document and a bounded-queue
delivery per result.  This bench measures

* **fanout scaling**: >= 500 concurrent subscriptions over the XMark
  auction ticker on one hub, with drainer threads consuming as results
  seal; reports documents/sec, results/sec and the delivery latency
  (seal -> dequeue) distribution as p50 / p99 / p999,
* **churn oracle**: a mid-feed subscribe/unsubscribe plan, asserting
  every delivered result is byte-identical to a solo
  single-document run and that churn never re-merged the union automaton
  (``fanout.recompiles == 0``) -- a benchmark over a diverging server
  would measure the wrong thing.

Rows land in ``BENCH_service.json`` for the perf trajectory.
"""

from __future__ import annotations

import os
import threading
import time

from repro.engine.engine import FluxEngine
from repro.serve import SubscriptionHub
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import DEFAULT_TICK_SCALE, iter_ticker_chunks, ticker_document

from _workload import record_row, record_summary

#: Concurrent subscriptions for the fanout-scaling leg (the acceptance
#: floor is 500; override for quick local runs).
_SUBSCRIBERS = int(os.environ.get("REPRO_SERVE_BENCH_SUBS", "500"))
_DOCUMENTS = int(os.environ.get("REPRO_SERVE_BENCH_DOCS", "20"))
_CHUNK_BYTES = 16 * 1024
_DRAINERS = 8


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def test_serve_fanout_scaling(benchmark):
    queries = [BENCHMARK_QUERIES[name] for name in ("Q1", "Q13", "Q20")]
    chunks = list(
        iter_ticker_chunks(
            documents=_DOCUMENTS, scale=DEFAULT_TICK_SCALE, chunk_size=_CHUNK_BYTES
        )
    )
    stream_bytes = sum(len(chunk) for chunk in chunks)

    def run():
        hub = SubscriptionHub(xmark_dtd())
        subs = [
            hub.subscribe(
                queries[i % len(queries)], policy="block", max_queue=_DOCUMENTS + 1
            )
            for i in range(_SUBSCRIBERS)
        ]
        latencies = []
        lock = threading.Lock()
        stop = threading.Event()

        def drain(mine):
            local = []
            while True:
                idle = True
                for sub in mine:
                    while True:
                        item = sub.get_nowait()
                        if item is None:
                            break
                        local.append(time.perf_counter() - item.sealed_at)
                        idle = False
                if stop.is_set() and all(
                    sub.queue_depth == 0 for sub in mine
                ):
                    break
                if idle:
                    time.sleep(0.001)
            with lock:
                latencies.extend(local)

        drainers = [
            threading.Thread(target=drain, args=(subs[i::_DRAINERS],), daemon=True)
            for i in range(_DRAINERS)
        ]
        for thread in drainers:
            thread.start()
        started = time.perf_counter()
        for chunk in chunks:
            hub.feed(chunk)
        hub.finish()
        elapsed = time.perf_counter() - started
        stop.set()
        for thread in drainers:
            thread.join(timeout=60)
        return hub, subs, latencies, elapsed

    hub, subs, latencies, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    # Correctness gates: full delivery, zero drops under block, no re-merge.
    assert len(latencies) == _SUBSCRIBERS * _DOCUMENTS
    assert all(sub.dropped == 0 for sub in subs)
    assert hub.fanout.recompiles == 0
    assert hub.fanout.attaches == _SUBSCRIBERS

    results_total = len(latencies)
    record_row(
        benchmark,
        table="service",
        leg="fanout-scaling",
        subscriptions=_SUBSCRIBERS,
        documents=_DOCUMENTS,
        stream_mb=round(stream_bytes / 1e6, 2),
        seconds=round(elapsed, 4),
        docs_per_second=round(_DOCUMENTS / elapsed, 2),
        results_per_second=round(results_total / elapsed, 1),
        p50_latency_ms=round(_percentile(latencies, 0.50) * 1e3, 3),
        p99_latency_ms=round(_percentile(latencies, 0.99) * 1e3, 3),
        p999_latency_ms=round(_percentile(latencies, 0.999) * 1e3, 3),
        dropped=0,
        recompiles=0,
    )
    record_summary(
        benchmark,
        "serve-fanout-scaling",
        scale=DEFAULT_TICK_SCALE,
        wall_seconds=round(elapsed, 4),
        peak_bytes=max(sub.resident_hwm for sub in subs),
    )


def test_serve_churn_oracle(benchmark):
    """Mid-feed add/remove with live traffic must stay byte-identical."""
    documents = 12
    seed = 42
    names = ("Q1", "Q13", "Q20")
    docs = [
        ticker_document(i, seed=seed, scale=DEFAULT_TICK_SCALE) for i in range(documents)
    ]
    solo = {
        name: [
            FluxEngine(BENCHMARK_QUERIES[name], xmark_dtd(), projection=True)
            .run(doc)
            .output
            for doc in docs
        ]
        for name in names
    }

    def run():
        hub = SubscriptionHub(xmark_dtd())
        started = time.perf_counter()
        with hub:
            base = hub.subscribe(BENCHMARK_QUERIES["Q1"], name="base")
            joiner = None
            leaver = hub.subscribe(BENCHMARK_QUERIES["Q13"], name="leaver")
            for index, doc in enumerate(docs):
                if index == 4:
                    joiner = hub.subscribe(BENCHMARK_QUERIES["Q20"], name="joiner")
                if index == 8:
                    hub.unsubscribe(leaver)
                hub.feed(doc.encode("utf-8"))
            hub.finish()
            got = {
                "base": list(base.results()),
                "joiner": list(joiner.results()),
                "leaver": list(leaver.results()),
            }
        return hub, got, time.perf_counter() - started

    hub, got, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    # The oracle: every delivered result byte-identical to a solo run.
    assert [r.output for r in got["base"]] == solo["Q1"]
    assert [r.document for r in got["joiner"]] == list(range(4, documents))
    assert [r.output for r in got["joiner"]] == solo["Q20"][4:]
    assert [r.document for r in got["leaver"]] == list(range(0, 8))
    assert [r.output for r in got["leaver"]] == solo["Q13"][:8]
    assert hub.fanout.recompiles == 0
    assert (hub.fanout.attaches, hub.fanout.detaches) == (3, 1)

    record_row(
        benchmark,
        table="service",
        leg="churn-oracle",
        subscriptions=3,
        documents=documents,
        seconds=round(elapsed, 4),
        docs_per_second=round(documents / elapsed, 2),
        byte_identical=True,
        recompiles=0,
    )
