"""The subscription hub: one shared document stream, N live subscribers.

The hub is the synchronous heart of :mod:`repro.serve`.  One *engine
thread* feeds it stream chunks (network bytes, the XMark ticker, a file);
every chunk flows through **one** byte scan + union projection pass
whatever the subscriber count, and the surviving per-subscription
sub-streams drive one :class:`~repro.engine.executor.StreamExecutor` per
active subscription per document -- exactly the multi-query fan-out, made
long-lived and churn-tolerant:

* subscriptions attach and detach **at document boundaries only** (calls
  made mid-document are queued and applied when the current document
  seals), so in-flight results are never perturbed;
* the union projection automaton is maintained incrementally by
  :class:`~repro.serve.fanout.DynamicFanout` -- churn never re-merges the
  surviving queries (``fanout.recompiles`` stays put);
* per-document results are delivered into each subscription's **bounded
  queue**; a slow consumer is handled by the subscription's policy --
  ``block`` (backpressure the engine thread), ``drop`` (count and skip) or
  ``disconnect`` (evict the subscriber at the next boundary);
* all executors share one optional :class:`~repro.storage.governor.
  MemoryGovernor` whose victim selection is biased to the *heaviest
  subscriber's* pages, so one join-heavy subscription spills before it can
  crowd out the others.

Two subscriptions may carry the *same* query text: each owns its own seat
in the fan-out, its own executors, queue and counters -- results are
delivered independently (the compiled engine is shared, the streams are
not).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.dtd.schema import DTD
from repro.engine.engine import FluxEngine, ensure_rooted
from repro.engine.executor import StreamExecutor
from repro.engine.stats import RunStatistics
from repro.fastpath.dfa import FlatProjectionTable
from repro.fastpath.scanner import ByteScanner
from repro.fastpath.tags import TagTable
from repro.obs import recorder as _flight
from repro.obs import serve as _serve
from repro.obs.metrics import global_registry
from repro.serve.fanout import DynamicFanout
from repro.storage.governor import MemoryGovernor
from repro.xmark.dtd import xmark_dtd

#: Padding accepted between documents (mirrors :mod:`repro.feeds`).
_INTERDOC_WS = b" \t\r\n"

#: Slow-consumer policies.
POLICIES = ("block", "drop", "disconnect")

#: Default bound on a subscription's result queue.
DEFAULT_MAX_QUEUE = 64

_metrics = global_registry()
_CHUNKS = _metrics.counter("repro.serve.chunks.total", "Stream chunks fed to subscription hubs")
_DOCUMENTS = _metrics.counter("repro.serve.documents.total", "Documents sealed by subscription hubs")
_DELIVERED = _metrics.counter("repro.serve.results.delivered.total", "Per-subscription results enqueued")
_DROPPED = _metrics.counter("repro.serve.results.dropped.total", "Results dropped by slow-consumer policy")
_SUBSCRIBES = _metrics.counter("repro.serve.subscribes.total", "Subscriptions opened")
_UNSUBSCRIBES = _metrics.counter("repro.serve.unsubscribes.total", "Subscriptions closed")
_DISCONNECTS = _metrics.counter("repro.serve.disconnects.total", "Subscribers evicted by the disconnect policy")


@dataclass(frozen=True)
class SubscriptionResult:
    """One document's output for one subscription."""

    name: str
    document: int
    output: str
    seq: int
    #: ``time.perf_counter()`` at seal time -- the delivery-latency anchor.
    sealed_at: float
    stats: RunStatistics = field(repr=False, compare=False, default=None)


class Subscription:
    """One subscriber's seat: bounded result queue + watermarks.

    Created by :meth:`SubscriptionHub.subscribe`; consumed from any thread
    via :meth:`get` / :meth:`results`.  All counters are plain ints guarded
    by the queue condition.
    """

    def __init__(self, hub: "SubscriptionHub", name: str, query: str, policy: str, max_queue: int):
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._hub = hub
        self._engine = None
        self.name = name
        self.query = query
        self.policy = policy
        self.max_queue = max_queue
        self.slot_id: Optional[int] = None
        #: pending -> active -> finished | disconnected | closed
        self.state = "pending"
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._cancelled = False
        self.delivered = 0
        self.dropped = 0
        self.documents = 0
        self.seq = 0
        self.peak_queue_depth = 0
        self.resident_hwm = 0
        self.first_document: Optional[int] = None
        #: Optional hook fired (outside the lock) after each enqueue -- the
        #: asyncio server bridges thread-side delivery to its event loop here.
        self.on_ready: Optional[Callable[["Subscription"], None]] = None

    # --------------------------------------------------------------- consume

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def get(self, timeout: Optional[float] = None) -> Optional[SubscriptionResult]:
        """Next result; ``None`` on end-of-subscription (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._queue:
                if self.state in ("finished", "disconnected", "closed"):
                    return None
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining if remaining is not None else 0.5)
            item = self._queue.popleft()
            self._cond.notify_all()
            return item

    def get_nowait(self) -> Optional[SubscriptionResult]:
        with self._cond:
            if not self._queue:
                return None
            item = self._queue.popleft()
            self._cond.notify_all()
            return item

    def results(self):
        """Iterate results until the subscription ends."""
        while True:
            item = self.get()
            if item is None:
                return
            yield item

    def close(self) -> None:
        """Consumer-side cancel: unsubscribes from the hub."""
        self._hub.unsubscribe(self)

    # --------------------------------------------------------------- deliver

    def _deliver(self, result: SubscriptionResult) -> bool:
        """Engine-thread side: enqueue under the subscription's policy."""
        notify = False
        with self._cond:
            if self.state != "active":
                return False
            if len(self._queue) >= self.max_queue:
                if self.policy == "block":
                    # ``_cancelled`` breaks the wait when the consumer went
                    # away mid-document (its detach applies at the boundary
                    # this delivery is part of -- blocking would deadlock).
                    while (
                        len(self._queue) >= self.max_queue
                        and self.state == "active"
                        and not self._cancelled
                    ):
                        self._cond.wait(0.1)
                    if self.state != "active" or self._cancelled:
                        return False
                elif self.policy == "drop":
                    self.dropped += 1
                    _DROPPED.inc()
                    return False
                else:  # disconnect
                    # Mark only -- the hub's boundary sweep performs the
                    # detach, so no hub lock is taken under this one.
                    self.dropped += 1
                    _DROPPED.inc()
                    _DISCONNECTS.inc()
                    self.state = "disconnected"
                    self._cond.notify_all()
                    return False
            self._queue.append(result)
            self.delivered += 1
            self.documents += 1
            if len(self._queue) > self.peak_queue_depth:
                self.peak_queue_depth = len(self._queue)
            self._cond.notify_all()
            notify = True
        _DELIVERED.inc()
        if notify and self.on_ready is not None:
            self.on_ready(self)
        return True

    def _end(self, state: str) -> None:
        with self._cond:
            if self.state in ("finished", "disconnected", "closed"):
                return
            self.state = state
            self._cond.notify_all()
        if self.on_ready is not None:
            self.on_ready(self)

    def _watermarks(self) -> dict:
        with self._cond:
            return {
                "name": self.name,
                "state": self.state,
                "policy": self.policy,
                "delivered": self.delivered,
                "dropped": self.dropped,
                "documents": self.documents,
                "queue_depth": len(self._queue),
                "peak_queue_depth": self.peak_queue_depth,
                "resident_bytes_hwm": self.resident_hwm,
                "first_document": self.first_document,
            }


class _Scan:
    """Per-document bytes-native scan over the dynamic flat table."""

    __slots__ = ("_scanner", "_fanout", "_stats")

    def __init__(self, fanout: DynamicFanout, stats_list: List[Optional[RunStatistics]]):
        self._scanner = ByteScanner(fanout.tags, fanout.table(), stop_at_root_close=True)
        self._fanout = fanout
        self._stats = [stats for stats in stats_list if stats is not None]

    def _split(self, batch):
        if batch.seen:
            for stats in self._stats:
                stats.record_input(batch.seen, batch.cost)
        fanout = self._fanout
        table = self._scanner.table
        return batch.materialize_split(
            fanout.width, table.keep_masks, table.chars_masks, fanout.indices_for
        )

    def feed(self, data: bytes):
        return self._split(self._scanner.feed_batch(data))

    @property
    def root_closed(self) -> bool:
        return self._scanner.root_closed

    def take_remainder(self) -> bytes:
        return self._scanner.take_remainder()

    def finish(self):
        return self._split(self._scanner.close_batch())


#: The single state of the idle scan's drop-everything table.
_IDLE = object()


class _IdleScan:
    """Boundary tracking with zero subscribers: scan, deliver nothing.

    The drop-everything table skips the root element's subtree with the
    scanner's depth counter, so no rows are built; well-formedness and the
    root-close boundary are still checked.
    """

    __slots__ = ("_scanner",)

    def __init__(self, tags: TagTable):
        table = FlatProjectionTable(_IDLE, lambda state, tag: None, lambda state: (False, 0, 0), tags)
        self._scanner = ByteScanner(tags, table, stop_at_root_close=True)

    def feed(self, data: bytes):
        self._scanner.feed_batch(data)
        return None

    @property
    def root_closed(self) -> bool:
        return self._scanner.root_closed

    def take_remainder(self) -> bytes:
        return self._scanner.take_remainder()

    def finish(self):
        self._scanner.close_batch()
        return None


def _heaviest_subscriber_page(pages):
    """Governor victim hook: evict from the subscriber holding the most."""
    return max(pages, key=lambda page: page.stats.resident_bytes_current)


class SubscriptionHub:
    """One shared stream, N independently-subscribed query executions.

    ``feed`` / ``finish`` / ``close`` must be called from a single thread
    (the engine thread); ``subscribe`` / ``unsubscribe`` and all consumer
    methods are safe from any thread.
    """

    def __init__(
        self,
        dtd: Optional[DTD] = None,
        *,
        root_element: Optional[str] = None,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[MemoryGovernor] = None,
    ):
        self.dtd = ensure_rooted(dtd if dtd is not None else xmark_dtd(), root_element)
        self.options = options if options is not None else DEFAULT_OPTIONS
        self._lock = threading.Lock()
        self._engines: Dict[str, FluxEngine] = {}
        self.fanout = DynamicFanout()
        self._by_slot: Dict[int, Subscription] = {}
        self._pending_attach: List[Subscription] = []
        self._pending_detach: List[Subscription] = []
        self._names = 0
        self._state = "open"
        # Per-document scan state (engine thread only).
        self._scan = None
        self._doc_execs: List[Optional[tuple]] = []
        self._doc_start = 0
        self._cursor = 0
        self._bytes_fed = 0
        self._chunks_fed = 0
        self._documents_completed = 0
        self._owns_governor = False
        if governor is None and self.options.memory_budget is not None:
            governor = MemoryGovernor(
                self.options.memory_budget, page_bytes=self.options.memory_page_bytes
            )
            self._owns_governor = True
        self.governor = governor
        if governor is not None:
            governor.victim_selector = _heaviest_subscriber_page
        _flight.RECORDER.note("serve-hub-open", True)
        self._progress_key = _serve.register_run(self._progress)

    # ---------------------------------------------------------- subscriptions

    def subscribe(
        self,
        query: str,
        *,
        name: Optional[str] = None,
        policy: str = "block",
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> Subscription:
        """Register a query subscription; active from the next document on.

        The query is compiled at most once per source text (compiled
        engines are shared between subscriptions); the subscription itself
        -- seat, queue, counters -- is always private, so the same query
        text subscribed twice delivers results independently to both.
        """
        if self._state == "closed":
            raise RuntimeError("cannot subscribe on a closed hub")
        engine = self._engine_for(query)
        with self._lock:
            self._names += 1
            sub = Subscription(
                self, name or f"sub-{self._names}", query, policy, max_queue
            )
            sub._engine = engine
            self._pending_attach.append(sub)
        _SUBSCRIBES.inc()
        _flight.RECORDER.note("serve-subscribe", sub.name)
        # Between documents (or before the first) the attach applies
        # immediately, so a pre-feed subscriber never misses document zero;
        # mid-document it stays queued for the boundary.
        self._apply_pending()
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach a subscription at the next document boundary.

        Results already queued stay readable; the subscription ends (its
        consumers observe ``None``) once the detach applies.  Idempotent.
        """
        announced = False
        with self._lock:
            if sub in self._pending_attach:
                self._pending_attach.remove(sub)
                sub._end("closed")
                _UNSUBSCRIBES.inc()
                return
            if sub.state not in ("active", "disconnected"):
                return
            if sub not in self._pending_detach:
                self._pending_detach.append(sub)
                announced = True
        with sub._cond:
            sub._cancelled = True
            sub._cond.notify_all()
        if announced:
            _UNSUBSCRIBES.inc()
            _flight.RECORDER.note("serve-unsubscribe", sub.name)
        self._apply_pending()

    def subscriptions(self) -> List[Subscription]:
        with self._lock:
            live = list(self._by_slot.values())
            return live + [sub for sub in self._pending_attach if sub not in live]

    def _engine_for(self, query: str) -> FluxEngine:
        with self._lock:
            engine = self._engines.get(query)
        if engine is None:
            compiled = FluxEngine(query, self.dtd, projection=True)
            with self._lock:
                engine = self._engines.setdefault(query, compiled)
        return engine

    # -------------------------------------------------------------- churn

    def _apply_pending(self) -> None:
        """Apply queued churn if no document is open; defer otherwise.

        ``self._scan`` transitions from ``None`` to a live scan only under
        the hub lock (:meth:`_begin_document`), so checking it here makes
        the boundary-only guarantee race-free for subscriber threads; the
        engine thread applies deferred churn itself at every boundary.
        """
        with self._lock:
            if self._scan is None:
                self._apply_pending_locked()

    def _apply_pending_locked(self) -> None:
        detaches = list(self._pending_detach)
        self._pending_detach = []
        # Disconnect-policy evictions mark themselves on the subscription
        # (no hub lock under the queue lock); sweep them up here.
        for sub in self._by_slot.values():
            if sub.state == "disconnected" and sub not in detaches:
                detaches.append(sub)
        attaches = self._pending_attach
        self._pending_attach = []
        for sub in detaches:
            if sub.slot_id is not None:
                self.fanout.detach(sub.slot_id)
                self._by_slot.pop(sub.slot_id, None)
            sub._end("closed" if sub.state != "disconnected" else "disconnected")
        for sub in attaches:
            spec = sub._engine.pipeline.projection_spec
            sub.slot_id = self.fanout.attach(spec)
            sub.first_document = self._documents_completed
            sub.state = "active"
            self._by_slot[sub.slot_id] = sub

    def compact(self) -> int:
        """Reclaim tombstoned seats (the one full re-merge; see fanout)."""
        with self._lock:
            if self._scan is not None:
                raise RuntimeError("compact only between documents")
            return self.fanout.compact()

    # ---------------------------------------------------------------- feed

    def feed(self, chunk: Union[bytes, bytearray, str]) -> int:
        """Consume one stream chunk; returns documents completed by it."""
        if self._state != "open":
            raise RuntimeError(f"cannot feed a {self._state} hub")
        data = chunk.encode("utf-8") if isinstance(chunk, str) else bytes(chunk)
        self._bytes_fed += len(data)
        self._chunks_fed += 1
        _CHUNKS.inc()
        completed = 0
        while data:
            if self._scan is None:
                stripped = data.lstrip(_INTERDOC_WS)
                self._cursor += len(data) - len(stripped)
                data = stripped
                if not data:
                    break
                self._begin_document()
            try:
                subs = self._scan.feed(data)
                if subs is not None:
                    self._dispatch(subs)
                if not self._scan.root_closed:
                    self._cursor += len(data)
                    break
                remainder = self._scan.take_remainder()
                boundary = self._cursor + len(data) - len(remainder)
                final = self._scan.finish()
                if final is not None:
                    self._dispatch(final)
                self._seal_document()
            except Exception:
                self._abort_document()
                self.close()
                raise
            self._cursor = boundary
            data = remainder
            completed += 1
        return completed

    def finish(self) -> None:
        """End of stream: every live subscription observes end-of-feed.

        Raises (like a push run) when the stream ends mid-document.
        """
        if self._state != "open":
            return
        if self._scan is not None:
            try:
                final = self._scan.finish()
                if final is not None:
                    self._dispatch(final)
                self._seal_document()
            except Exception:
                self._abort_document()
                self.close()
                raise
        self._state = "finished"
        self._apply_pending()
        with self._lock:
            live = list(self._by_slot.values()) + list(self._pending_attach)
        for sub in live:
            sub._end("finished")
        self._teardown()

    def close(self) -> None:
        """Abort: release buffers, end every subscription.  Idempotent."""
        if self._state == "closed":
            return
        self._abort_document()
        previous, self._state = self._state, "closed"
        with self._lock:
            live = list(self._by_slot.values()) + list(self._pending_attach)
            self._pending_attach = []
        for sub in live:
            sub._end("closed")
        if previous != "finished":
            self._teardown()

    def __enter__(self) -> "SubscriptionHub":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._state == "open":
            self.finish()
        else:
            self.close()

    # ----------------------------------------------------------- watermarks

    @property
    def documents_completed(self) -> int:
        return self._documents_completed

    @property
    def bytes_fed(self) -> int:
        return self._bytes_fed

    @property
    def active_subscriptions(self) -> int:
        with self._lock:
            return len(self._by_slot)

    def progress(self) -> dict:
        """The hub's live watermark snapshot (what ``/progress`` shows)."""
        return self._progress()

    def _progress(self) -> dict:
        with self._lock:
            subs = list(self._by_slot.values()) + list(self._pending_attach)
        return {
            "mode": "serve",
            "state": self._state,
            "bytes_fed": self._bytes_fed,
            "chunks_fed": self._chunks_fed,
            "documents_completed": self._documents_completed,
            "fanout": {
                "width": self.fanout.width,
                "active": self.fanout.active_count,
                "recompiles": self.fanout.recompiles,
                "attaches": self.fanout.attaches,
                "detaches": self.fanout.detaches,
            },
            "subscriptions": [sub._watermarks() for sub in subs],
        }

    # ------------------------------------------------------------ internals

    def _begin_document(self) -> None:
        # One lock acquisition covers churn application, executor creation
        # and the scan hand-off: a subscription attached concurrently either
        # lands before the capture (it gets this document) or stays pending
        # (the ``_scan`` check in ``_apply_pending`` defers it) -- never half.
        factory = self.governor.make_buffer if self.governor is not None else None
        with self._lock:
            self._apply_pending_locked()
            self._doc_start = self._cursor
            order = self.fanout.order()
            execs: List[Optional[tuple]] = []
            stats_list: List[Optional[RunStatistics]] = []
            for slot_id in order:
                sub = self._by_slot.get(slot_id)
                if sub is None:
                    execs.append(None)
                    stats_list.append(None)
                    continue
                stats = RunStatistics()
                executor = StreamExecutor(
                    sub._engine.plan,
                    collect_output=True,
                    stats=stats,
                    count_input=False,
                    buffer_factory=factory,
                    join=self.options.join,
                )
                executor.begin()
                execs.append((sub, executor, stats))
                stats_list.append(stats)
            self._doc_execs = execs
            if not order:
                self._scan = _IdleScan(self.fanout.tags)
            else:
                self._scan = _Scan(self.fanout, stats_list)

    def _dispatch(self, subs: List[List["object"]]) -> None:
        for entry, sub_batch in zip(self._doc_execs, subs):
            if entry is not None and sub_batch:
                entry[1].process_batch(sub_batch)

    def _seal_document(self) -> None:
        # Clear the scan state *first*: a concurrent subscribe during the
        # delivery loop below may then apply immediately, and the document
        # counter has already advanced so its ``first_document`` is exact.
        index = self._documents_completed
        self._documents_completed = index + 1
        self._scan = None
        execs, self._doc_execs = self._doc_execs, []
        sealed_at = time.perf_counter()
        for entry in execs:
            if entry is None:
                continue
            sub, executor, stats = entry
            execution = executor.finish()
            if stats.peak_resident_bytes > sub.resident_hwm:
                sub.resident_hwm = stats.peak_resident_bytes
            sub.seq += 1
            sub._deliver(
                SubscriptionResult(
                    name=sub.name,
                    document=index,
                    output=execution.output,
                    seq=sub.seq,
                    sealed_at=sealed_at,
                    stats=stats,
                )
            )
        _DOCUMENTS.inc()
        _flight.RECORDER.note("serve-doc", index)

    def _abort_document(self) -> None:
        execs, self._doc_execs = self._doc_execs, []
        self._scan = None
        for entry in execs:
            if entry is None:
                continue
            try:
                entry[1].abort()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass

    def _teardown(self) -> None:
        _serve.unregister_run(self._progress_key)
        if self._owns_governor and self.governor is not None:
            self.governor.close()


__all__ = [
    "DEFAULT_MAX_QUEUE",
    "POLICIES",
    "Subscription",
    "SubscriptionHub",
    "SubscriptionResult",
]
