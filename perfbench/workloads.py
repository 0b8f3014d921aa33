"""The four workloads: inputs, set-up, the measured loop and the reference check.

Each workload runs the program through its public API in the default
configuration.  The protocol ``run.py`` drives:

* ``Workload(seed, workdir)`` makes the seeded inputs (not timed);
* ``setup()`` is the program's set-up before the first input byte (timed,
  repeated; the last set-up is the one measured);
* ``measure(seconds, outputs)`` runs the untraced measured loop and
  returns the end-to-end metrics except ``setup_s`` and ``peak_rss_mb``;
* ``trace(seconds, outputs, spans)`` is the separate traced run and returns
  the per-layer metrics it reaches;
* ``reference(query, document)`` is the ``NaiveDomEngine`` output that
  :class:`Outputs` compares every kept output to, after measuring.

Closed-loop workloads have no schedule: a document is due the moment the
benchmark hands it over, so their ``delivery_*`` equals ``doc_latency_*``.
The pull workloads run every query over one document in turn; their
document latency is one such round, first call to last result, and their
``capacity_docs_s`` is rounds per second.
"""

from __future__ import annotations

import gc
import queue
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import ExecutionOptions, FluxSession, NaiveDomEngine
from repro.serve import SubscriptionHub
from repro.xmark.queries import BENCHMARK_QUERIES, ZERO_BUFFER_QUERIES
from repro.xmlstream.parser import parse_tree

import inputs
import layers
from harness import HostSpeed, Spans, Tally, clock, keep_going, median, percentile

TRACED = ExecutionOptions(trace=True)


def _buffer_problem(name: str, stats) -> Optional[str]:
    """The zero-buffer invariant: Q1 and Q13 (and their variants) buffer nothing."""
    if name.split("-")[0] in ZERO_BUFFER_QUERIES and stats.peak_buffered_bytes != 0:
        return f"peak_buffered_bytes={stats.peak_buffered_bytes} on a zero-buffer query"
    return None


def _percentiles(prefix: str, windows: List[List[float]]) -> Dict[str, float]:
    """p50 over every sample; p99 as the median of each window's p99.

    The host's speed drifts over seconds, so a tail taken over the whole
    run is set by its one slowest stretch; the median over windows is not.
    """
    samples = [sample for window in windows for sample in window]
    return {
        f"{prefix}_p50_ms": percentile(samples, 0.50),
        f"{prefix}_p99_ms": median([percentile(window, 0.99) for window in windows if window] or [0.0]),
    }


def _trace_overhead(spans: Spans, run_round: Callable) -> Dict[str, float]:
    """``obs.*`` from one untraced and one traced round of the measured loop.

    ``run_round(options)`` runs one round and returns ``(wall, trace reports)``.
    """
    gc.collect()
    with spans.span("round.untraced"):
        untraced = run_round(None)[0]
    gc.collect()
    with spans.span("round.traced"):
        traced, reports = run_round(TRACED)
    metrics = layers.stage_metrics(reports)
    metrics["obs.trace_overhead_ratio"] = traced / untraced
    return metrics


class Outputs:
    """Every result checked byte for byte against the reference.

    The first output for a key ``(leg, query, document)`` is kept; every
    later result for the same key must equal it exactly, and after the
    measured loop each kept output is compared to the reference -- so each
    result meets the reference without all of them staying in memory.
    """

    def __init__(self, tally: Tally):
        self.tally = tally
        self.first: Dict[tuple, str] = {}
        self.passed: Dict[tuple, int] = {}

    def record(self, key: tuple, output: str, problem: Optional[str] = None) -> None:
        first = self.first.setdefault(key, output)
        self.tally.attempted += 1
        if problem is None and output != first:
            problem = "output differs from an earlier result for the same input"
        if problem is None:
            self.passed[key] = self.passed.get(key, 0) + 1
        else:
            self.tally.fail(f"{key}: {problem}")

    def error(self, what: str, exc: BaseException, results: int = 1) -> None:
        """``results`` expected results lost to a raised error."""
        self.tally.attempted += results
        self.tally.fail(f"{what}: {exc!r}", results)

    def verify(self, reference: Callable[[str, int], str]) -> None:
        for key, output in self.first.items():
            if output != reference(key[1], key[2]):
                self.tally.fail(f"{key}: output differs from NaiveDomEngine", self.passed.get(key, 0))


class _ReferenceCache:
    """``NaiveDomEngine`` outputs, each document parsed once via ``run_tree``."""

    def __init__(self, texts: Dict[str, str], load: Callable[[int], object]):
        self._texts = texts
        self._load = load
        self._trees: Dict[int, object] = {}
        self._outputs: Dict[Tuple[str, int], str] = {}

    def __call__(self, query: str, document: int) -> str:
        key = (query, document)
        if key not in self._outputs:
            if document not in self._trees:
                self._trees[document] = parse_tree(self._load(document))
            engine = NaiveDomEngine(self._texts[query])
            self._outputs[key] = engine.run_tree(self._trees[document]).output
        return self._outputs[key]


class Workload:
    """What ``run.py`` drives; see the module docs for the protocol.

    ``moves`` names the layers a change must touch to move this workload's
    end-to-end metrics; a change confined to a layer in ``holds`` is
    predicted to leave them unchanged.
    """

    name = ""
    moves: Tuple[str, ...] = ()
    holds: Tuple[str, ...] = ()

    def close(self) -> None:
        """Release what ``setup`` built; called between set-ups, outside timing."""


class _PullWorkload(Workload):
    """Pull-mode ``PreparedQuery.execute`` legs over one XMark document."""

    name = ""
    scale = 1.0
    queries: Tuple[str, ...] = ()
    window = 3  # rounds per window of the p99 median

    def __init__(self, seed: int, workdir: Path):
        data = inputs.xmark_document(self.scale, seed)
        self.path = workdir / f"{self.name}-{seed}.xml"
        self.path.write_bytes(data)
        self.size = len(data)
        self.texts = {name: BENCHMARK_QUERIES[name] for name in self.queries}
        self.reference = _ReferenceCache(self.texts, lambda _: self.path)
        self.storage: Dict[str, float] = {}
        self.peak = 0

    def setup(self) -> None:
        self.session = FluxSession(layers.load_schema())
        self.prepared = {name: self.session.prepare(text) for name, text in self.texts.items()}

    def _legs(self, options):
        """``(leg, call)`` pairs; each call returns ``(results by query, trace reports)``."""
        raise NotImplementedError

    def _check(self, leg: str, name: str, stats) -> Optional[str]:
        return _buffer_problem(name, stats)

    def _round(self, outputs: Outputs, options=None, speed: Optional[HostSpeed] = None):
        """Every leg once; returns the summed wall time of the calls and their traces.

        With ``speed``, a calibration mark follows every leg and each leg's
        time is scaled to the reference host speed.
        """
        wall = 0.0
        reports = []
        for leg, call in self._legs(options):
            started = clock()
            try:
                results, traces = call()
            except Exception as exc:  # a raised error counts as a failed result
                outputs.error(f"{self.name} {leg}", exc)
                continue
            elapsed = clock() - started
            if speed is not None:
                speed.mark()
                elapsed *= speed.scale(len(speed.marks) - 2)
            wall += elapsed
            reports.extend(trace for trace in traces if trace is not None)
            for name, result in results.items():
                self.peak = max(self.peak, result.stats.peak_buffered_bytes)
                outputs.record((leg, name, 0), result.output, self._check(leg, name, result.stats))
        return wall, reports

    def measure(self, seconds: float, outputs: Outputs):
        speed = HostSpeed()
        speed.mark()
        walls: List[float] = []
        elapsed: List[float] = []
        started = clock()
        while keep_going(elapsed, started, seconds):
            gc.collect()
            round_started = clock()
            walls.append(self._round(outputs, speed=speed)[0])
            elapsed.append(clock() - round_started)
        legs = len(self._legs(None))
        windows = [
            [1e3 * wall for wall in walls[start : start + self.window]]
            for start in range(0, len(walls), self.window)
        ]
        metrics = {
            "throughput_mb_s": median([legs * self.size / wall for wall in walls]) / 1e6,
            "capacity_docs_s": median([1.0 / wall for wall in walls]),
            "peak_buffer_bytes": self.peak,
            **_percentiles("doc_latency", windows),
            **_percentiles("delivery", windows),
        }
        info = {
            "input": f"{self.size} B document, {legs} legs per round",
            "samples": len(walls),
            "host speed scale": f"{speed.median_scale():.3f}",
        }
        return metrics, info

    def trace(self, seconds: float, outputs: Outputs, spans: Spans) -> Dict[str, float]:
        metrics = _trace_overhead(spans, lambda options: self._round(outputs, options))
        metrics.update(self.storage)
        metrics.update(layers.probe(spans, [self.path.read_bytes()], self.texts, 64 * 1024))
        return metrics

    def _solo(self, name: str, options, **overrides):
        def call():
            result = self.prepared[name].execute(self.path, options=options, **overrides)
            return {name: result}, (result.trace,)

        return call


class XMarkStream(_PullWorkload):
    """Streamable Q1, Q13 and Q20 solo over one ~2.5 MB document, then as one shared pass."""

    name = "xmark-stream"
    moves = ("xmlstream", "fastpath", "pipeline", "multiquery")
    holds = ("engine", "storage", "serve")
    scale = 4.0
    queries = ("Q1", "Q13", "Q20")

    def setup(self) -> None:
        super().setup()
        self.shared = self.session.prepare_many(self.texts)

    def _legs(self, options):
        def shared():
            run = self.shared.execute(self.path, options=options)
            return run.results, (run.trace,)

        return [("solo", self._solo(name, options)) for name in self.queries] + [("shared", shared)]


class XMarkJoin(_PullWorkload):
    """Value joins Q8 and Q11 unbounded, then Q8 under half its unbounded peak as budget."""

    name = "xmark-join"
    moves = ("engine", "storage")
    holds = ("xmlstream", "fastpath", "pipeline", "serve")
    scale = 1.0
    queries = ("Q8", "Q11")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.budget: Optional[int] = None

    def _legs(self, options):
        return [
            ("solo", self._solo("Q8", options)),
            ("solo", self._solo("Q11", options)),
            ("budget", self._budgeted(options)),
        ]

    def _budgeted(self, options):
        def call():
            if self.budget is None:
                raise RuntimeError("no unbounded Q8 peak to derive the memory budget from")
            return self._solo("Q8", options, memory_budget=self.budget)()

        return call

    def _check(self, leg: str, name: str, stats) -> Optional[str]:
        """Also fixes the budget from the first unbounded Q8 run and keeps the
        budgeted leg's storage counters; resident bytes must stay within it."""
        if leg == "solo" and name == "Q8" and self.budget is None:
            self.budget = max(1, stats.peak_buffered_bytes // 2)
        if leg == "budget":
            self.storage = {
                "storage.spills": stats.spill_count,
                "storage.spilled_bytes": stats.spilled_bytes_written,
                "storage.page_faults": stats.page_faults,
                "storage.peak_resident_bytes": stats.peak_resident_bytes,
            }
            if stats.peak_resident_bytes > self.budget:
                return f"peak_resident_bytes={stats.peak_resident_bytes} over the budget {self.budget}"
        return super()._check(leg, name, stats)


class FeedSmallChunk(Workload):
    """``open_feed`` over the ticker stream cut into 256 B chunks, Q13 and Q20 in lockstep.

    Every chunk goes to the Q13 feed and then to the Q20 feed, as one
    consumer serving two standing queries over one connection would.  A
    document's latency runs from the feed call that hands over its first
    byte to each of its ``DocumentResult`` s.
    """

    name = "feed-smallchunk"
    moves = ("feeds", "xmlstream", "fastpath", "pipeline")
    holds = ("storage", "multiquery", "serve")
    queries = ("Q13", "Q20")
    pool = 150
    chunk = 256
    window = 3  # rounds per window of the p99 median
    probe_documents = 20

    def __init__(self, seed: int, workdir: Path):
        self.documents = inputs.ticker_pool(self.pool, seed)
        stream = b"".join(self.documents)
        self.size = len(stream)
        self.chunks = inputs.chunked(stream, self.chunk)
        self.first_chunk = []
        offset = 0
        for document in self.documents:
            self.first_chunk.append(offset // self.chunk)
            offset += len(document)
        self.texts = {name: BENCHMARK_QUERIES[name] for name in self.queries}
        self.reference = _ReferenceCache(self.texts, lambda index: self.documents[index])
        self.peak = 0

    def setup(self) -> None:
        session = FluxSession(layers.load_schema())
        self.prepared = {name: session.prepare(text) for name, text in self.texts.items()}

    def _round(self, outputs: Outputs, options=None):
        """The whole pool once; returns (wall, trace reports, latencies in ms)."""
        fed_at = [0.0] * len(self.chunks)
        received = []
        feeds = [
            prepared.open_feed(
                options=options,
                on_document=lambda doc, name=name: received.append((name, doc.index, clock(), doc.result)),
            )
            for name, prepared in self.prepared.items()
        ]
        started = clock()
        try:
            for index, chunk in enumerate(self.chunks):
                fed_at[index] = clock()
                for feed in feeds:
                    feed.feed(chunk)
            for feed in feeds:
                feed.finish()
        except Exception as exc:  # the documents not delivered count as failed
            for feed in feeds:
                feed.close()
            outputs.error(self.name, exc, len(feeds) * self.pool - len(received))
        wall = clock() - started
        latency_ms = []
        for name, index, at, result in received:
            latency_ms.append(1e3 * (at - fed_at[self.first_chunk[index]]))
            self.peak = max(self.peak, result.stats.peak_buffered_bytes)
            outputs.record(("feed", name, index), result.output, _buffer_problem(name, result.stats))
        reports = [result.trace for *_, result in received if result.trace is not None]
        return wall, reports, latency_ms

    def measure(self, seconds: float, outputs: Outputs):
        speed = HostSpeed()
        speed.mark()
        walls: List[float] = []
        elapsed: List[float] = []
        rounds: List[List[float]] = []
        started = clock()
        while keep_going(elapsed, started, seconds):
            gc.collect()
            round_started = clock()
            wall, _, latencies = self._round(outputs)
            speed.mark()
            scale = speed.scale(len(rounds))
            walls.append(wall * scale)
            rounds.append([latency * scale for latency in latencies])
            elapsed.append(clock() - round_started)
        windows = [
            [latency for latencies in rounds[start : start + self.window] for latency in latencies]
            for start in range(0, len(rounds), self.window)
        ]
        metrics = {
            "throughput_mb_s": median([self.size / wall for wall in walls]) / 1e6,
            "capacity_docs_s": median([self.pool / wall for wall in walls]),
            "peak_buffer_bytes": self.peak,
            **_percentiles("doc_latency", windows),
            **_percentiles("delivery", windows),
        }
        info = {
            "input": f"{self.pool} ticker documents, {self.size} B in {self.chunk} B chunks",
            "samples": sum(len(latencies) for latencies in rounds),
            "rounds": len(rounds),
            "host speed scale": f"{speed.median_scale():.3f}",
        }
        return metrics, info

    def trace(self, seconds: float, outputs: Outputs, spans: Spans) -> Dict[str, float]:
        metrics = _trace_overhead(spans, lambda options: self._round(outputs, options)[:2])
        metrics.update(
            layers.probe(spans, self.documents[: self.probe_documents], self.texts, self.chunk)
        )
        return metrics


class _Drainer(threading.Thread):
    """The one consumer thread: dequeues each result as its subscription signals it.

    Every subscription's ``on_ready`` hook posts the subscription to one
    queue, once per enqueued result and once when it ends; the drainer
    stops when every subscription has ended.
    """

    def __init__(self, subscriptions, consume: Callable[[object, float], None]):
        super().__init__(name="perfbench-drainer", daemon=True)
        self._ready: "queue.SimpleQueue" = queue.SimpleQueue()
        self._live = len(subscriptions)
        self._consume = consume
        self._cond = threading.Condition()
        self.count = 0
        self.errors: List[BaseException] = []
        for subscription in subscriptions:
            subscription.on_ready = self._ready.put

    def run(self) -> None:
        live = self._live
        while live:
            item = self._ready.get().get_nowait()
            if item is None:
                live -= 1
                continue
            try:
                self._consume(item, clock())
            except Exception as exc:  # keep draining; measure() counts it as failed
                self.errors.append(exc)
            with self._cond:
                self.count += 1
                self._cond.notify_all()

    def wait_for(self, count: int, timeout: float) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self.count >= count, timeout)


class ServeFanout(Workload):
    """One ``SubscriptionHub`` with 200 distinct subscriptions over 4 KB ticker chunks.

    Phase one is an open loop: documents are due at a fixed rate, about
    half of the hub's capacity at the commit that introduced this
    benchmark, and delivery latency runs from each document's due time to
    each of its results being dequeued.  Phase two is a closed loop that
    feeds as fast as the hub accepts; it gives ``capacity_docs_s``,
    ``throughput_mb_s`` and the document latency (first byte fed to each
    result dequeued).  One drainer thread reads every result.  Both phases
    run in windows of ``window`` documents; after each, the benchmark waits
    for the drainer and takes a calibration mark (see ``HostSpeed``).
    """

    name = "serve-fanout"
    moves = ("serve", "pipeline", "engine", "compile")
    holds = ("storage", "multiquery", "feeds")
    subscriptions_per_query = {"q1": 160, "q13": 20, "q20": 20}
    pool = 120
    chunk = 4096
    open_rate = 6.0  # documents per second
    window = 5  # documents per window of the windowed medians
    probe_documents = 3
    obs_documents = 10
    wait_timeout = 30.0

    def __init__(self, seed: int, workdir: Path):
        self.documents = inputs.ticker_pool(self.pool, seed)
        self.document_chunks = [inputs.chunked(document, self.chunk) for document in self.documents]
        self.texts = inputs.serve_subscriptions(seed, **self.subscriptions_per_query)
        self.reference = _ReferenceCache(self.texts, lambda index: self.documents[index])
        self.hub = None

    def close(self) -> None:
        if self.hub is not None:
            self.hub.close()
            self.hub = None

    def setup(self) -> None:
        self.hub = SubscriptionHub(layers.load_schema())
        self.subscribe_s = 0.0
        self.subscriptions = []
        for name, text in self.texts.items():
            started = clock()
            self.subscriptions.append(self.hub.subscribe(text, name=name))
            self.subscribe_s += clock() - started

    def _feed(self, due: float, open_loop: bool) -> None:
        index = len(self.fed)
        first = clock()
        self.fed.append((due, first, open_loop))
        for chunk in self.document_chunks[index % self.pool]:
            self.hub.feed(chunk)
        self.service.append(clock() - first)
        if open_loop:
            self.lag_ms.append(1e3 * (first - due))

    def _consume(self, result, dequeued: float) -> None:
        due, first, open_loop = self.fed[result.document]
        self.queue_wait_ms.append(1e3 * (dequeued - result.sealed_at))
        if open_loop:
            self.delivery_ms.setdefault(result.document, []).append(1e3 * (dequeued - due))
        else:
            self.latency_ms.setdefault(result.document, []).append(1e3 * (dequeued - first))
        self.peak = max(self.peak, result.stats.peak_buffered_bytes)
        self.outputs.record(
            ("serve", result.name, result.document % self.pool),
            result.output,
            _buffer_problem(result.name, result.stats),
        )

    def _end_window(self, drainer: _Drainer, speed: HostSpeed) -> None:
        """Wait until every result fed so far is dequeued, then calibrate."""
        drainer.wait_for(len(self.subscriptions) * len(self.fed), self.wait_timeout)
        speed.mark()

    def _scaled(self, samples: Dict[int, List[float]], first: int, mark: int, speed: HostSpeed):
        """Samples keyed by document, from document ``first`` on, in windows
        of ``window`` documents; window ``i`` is scaled by calibration mark
        pair ``mark + i``."""
        windows: Dict[int, List[float]] = {}
        for document, values in samples.items():
            window = (document - first) // self.window
            scale = speed.scale(mark + window)
            windows.setdefault(window, []).extend(value * scale for value in values)
        return list(windows.values())

    def measure(self, seconds: float, outputs: Outputs):
        self.outputs = outputs
        self.fed: List[tuple] = []
        self.service: List[float] = []
        self.delivery_ms: Dict[int, List[float]] = {}
        self.latency_ms: Dict[int, List[float]] = {}
        self.queue_wait_ms: List[float] = []
        self.lag_ms: List[float] = []
        self.peak = 0
        speed = HostSpeed()
        drainer = _Drainer(self.subscriptions, self._consume)
        drainer.start()
        error: Optional[BaseException] = None
        open_docs = 0
        try:
            gc.collect()
            speed.mark()
            offered = max(self.window, int(self.open_rate * seconds / 2))
            begin = clock()
            for index in range(offered):
                due = begin + index / self.open_rate
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                self._feed(due, open_loop=True)
                if (index + 1) % self.window == 0 or index + 1 == offered:
                    self._end_window(drainer, speed)
            open_docs = len(self.fed)
            gc.collect()
            closed_start = clock()
            while len(self.fed) == open_docs or clock() - closed_start < seconds / 2:
                for _ in range(self.window):
                    self._feed(clock(), open_loop=False)
                self._end_window(drainer, speed)
            self.hub.finish()
        except Exception as exc:  # the results never delivered count as failed
            error = exc
            self.hub.close()
            speed.mark()  # closes the window the error cut short
        drainer.join(self.wait_timeout)
        for exc in drainer.errors:
            outputs.error("serve: consuming a result", exc)
        missing = len(self.subscriptions) * len(self.fed) - drainer.count
        if error is not None or missing:
            outputs.error("serve: results not delivered", error or RuntimeError("dropped"), max(missing, 1))
        outputs.tally.check(
            self.hub.fanout.recompiles == 0,
            f"serve: fanout.recompiles={self.hub.fanout.recompiles}, expected 0",
        )
        # In the closed loop the hub thread takes the next document as soon
        # as ``feed`` returns, so a window's summed feed time is its service time.
        open_windows = -(-open_docs // self.window)
        docs_s, mb_s = [], []
        for window, start in enumerate(range(open_docs, len(self.service), self.window)):
            busy = sum(self.service[start : start + self.window]) * speed.scale(open_windows + window)
            size = sum(len(self.documents[index % self.pool]) for index in range(start, start + self.window))
            docs_s.append(self.window / busy)
            mb_s.append(size / busy / 1e6)
        metrics = {
            "throughput_mb_s": median(mb_s or [0.0]),
            "capacity_docs_s": median(docs_s or [0.0]),
            "peak_buffer_bytes": self.peak,
            **_percentiles("doc_latency", self._scaled(self.latency_ms, open_docs, open_windows, speed)),
            **_percentiles("delivery", self._scaled(self.delivery_ms, 0, 0, speed)),
        }
        info = {
            "input": (
                f"{len(self.subscriptions)} subscriptions; {open_docs} documents offered at "
                f"{self.open_rate}/s, then {len(self.fed) - open_docs} closed-loop, {self.chunk} B chunks"
            ),
            "samples": sum(len(values) for values in self.latency_ms.values()),
            "delivery samples": sum(len(values) for values in self.delivery_ms.values()),
            "windows": f"{self.window} documents",
            "host speed scale": f"{speed.median_scale():.3f}",
        }
        return metrics, info

    def trace(self, seconds: float, outputs: Outputs, spans: Spans) -> Dict[str, float]:
        with spans.span("serve.measure"):
            self.measure(seconds, outputs)
        metrics = {
            "serve.subscribe_s": self.subscribe_s,
            "serve.feed_busy_s": sum(self.service),
            "serve.queue_wait_ms": median(self.queue_wait_ms),
            "serve.queue_depth_max": max(sub.peak_queue_depth for sub in self.subscriptions),
            "serve.generator_lag_ms": max(self.lag_ms),
            "serve.fanout_recompiles": self.hub.fanout.recompiles,
        }
        # The hub has no traced mode; its traceable analogue is one shared
        # pass over the same subscription set.
        documents = [doc.decode("utf-8") for doc in self.documents[: self.obs_documents]]
        shared = FluxSession(layers.load_schema()).prepare_many(self.texts)
        gc.collect()
        with spans.span("obs.shared_untraced"):
            for document in documents:
                shared.execute(document)
        gc.collect()
        with spans.span("obs.shared_traced"):
            reports = [shared.execute(document, options=TRACED).trace for document in documents]
        metrics.update(layers.stage_metrics(reports))
        metrics["obs.trace_overhead_ratio"] = spans.total("obs.shared_traced") / spans.total(
            "obs.shared_untraced"
        )
        metrics.update(
            layers.probe(spans, self.documents[: self.probe_documents], self.texts, self.chunk)
        )
        return metrics


WORKLOADS = {
    workload.name: workload for workload in (XMarkStream, XMarkJoin, FeedSmallChunk, ServeFanout)
}
