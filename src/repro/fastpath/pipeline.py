"""The engine's document stages: byte scan + flat-table projection.

:class:`FastEventPipeline` is the one document pipeline every run mode
uses (pull, stream, push, feed).  The bytes-native scanner tokenizes,
coalesces, expands attributes (``expand_attrs``) and projects in one pass
over the input bytes; the executor boundary stays unchanged: every yielded
batch is a list of :class:`~repro.xmlstream.events.Event` objects,
materialized lazily from the struct-of-arrays rows of the survivors.
Statistics follow one protocol: with projection active, pre-drop input
accounting happens here; otherwise the executor counts the (unfiltered)
events itself.

The interning state (:class:`~repro.fastpath.tags.TagTable` and
:class:`~repro.fastpath.dfa.FlatProjectionTable`) lives on the pipeline and
is shared by all runs of the owning engine, so steady-state documents hit a
warm table.  The event tokenizer of :mod:`repro.xmlstream` is not used
here; it stays as the independent reference the conformance oracle and the
naive baseline parse with.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.engine.plan import QueryPlan
from repro.fastpath.dfa import table_for_spec
from repro.fastpath.scanner import ByteScanner
from repro.fastpath.source import resolve_bytes_source
from repro.fastpath.tags import TagTable
from repro.pipeline.projection import ProjectionSpec
from repro.xmlstream.errors import XMLWellFormednessError
from repro.xmlstream.events import Event
from repro.xmlstream.parser import DEFAULT_CHUNK_SIZE, DocumentSource


class FastEventPipeline:
    """Bytes-native document stages of one compiled plan (engine-shared)."""

    def __init__(
        self,
        plan: QueryPlan,
        *,
        projection: bool = True,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        self.plan = plan
        self.chunk_size = chunk_size
        self._projection_spec: Optional[ProjectionSpec] = None
        if projection:
            spec = ProjectionSpec(plan)
            # A trivial spec (root scope captures everything) would filter
            # nothing; bypass it instead of paying a lookup per tag.
            if not spec.trivial:
                self._projection_spec = spec
        self.tags = TagTable()
        self.table = table_for_spec(self._projection_spec, self.tags)

    @property
    def projection_enabled(self) -> bool:
        """Whether a (non-trivial) projection filter is active."""
        return self._projection_spec is not None

    @property
    def projection_spec(self) -> Optional[ProjectionSpec]:
        """The automaton the flat table delegates to (``None`` when bypassed).

        The multi-query fan-out merges these per-plan automata into one
        union filter over a shared document pass.
        """
        return self._projection_spec

    # -------------------------------------------------------------- batches

    def event_batches(
        self,
        document: DocumentSource,
        *,
        expand_attrs: bool = False,
        stats=None,
        chunk_size: Optional[int] = None,
        observer=None,
    ) -> Iterator[List[Event]]:
        """The fully-staged batch stream for one document (pull mode).

        In-memory and file-backed sources are scanned in place (files via
        ``mmap``); streaming sources feed the scanner chunk-wise.  With
        projection active and ``stats`` given, pre-drop input totals are
        recorded here, otherwise the executor counts the (unfiltered)
        events itself.  An enabled ``observer`` (:mod:`repro.obs`) selects
        the traced generator; off, the pre-instrumentation generator runs
        unchanged.
        """
        size = chunk_size if chunk_size is not None else self.chunk_size
        record = stats if self.projection_enabled else None
        scanner = ByteScanner(self.tags, self.table, expand_attrs=expand_attrs)
        if observer is not None and observer.enabled:
            return self._generate_traced(scanner, document, size, record, observer)
        return self._generate(scanner, document, size, record)

    def _generate(self, scanner, document, size: int, record) -> Iterator[List[Event]]:
        kind, source, closer = resolve_bytes_source(document, size)
        try:
            if kind == "buffer":
                for batch in scanner.scan_document(source, size):
                    if record is not None and batch.seen:
                        record.record_input(batch.seen, batch.cost)
                    events = batch.materialize()
                    if events:
                        yield events
            else:
                for chunk in source:
                    batch = scanner.feed_batch(chunk)
                    if record is not None and batch.seen:
                        record.record_input(batch.seen, batch.cost)
                    events = batch.materialize()
                    if events:
                        yield events
                batch = scanner.close_batch()
                if record is not None and batch.seen:
                    record.record_input(batch.seen, batch.cost)
                events = batch.materialize()
                if events:
                    yield events
        finally:
            closer()

    def _generate_traced(self, scanner, document, size: int, record, observer) -> Iterator[List[Event]]:
        """Traced twin of :meth:`_generate`.

        The fast path has two document stages: ``scan`` (the bytes-native
        scanner, projection included via the flat table) and
        ``materialize`` (struct-of-arrays rows back to executor events).
        ``scan``'s event count is pre-drop (``batch.seen``),
        ``materialize``'s is the survivors: the per-stage table reads as a
        selectivity funnel.
        """
        tracer = observer.tracer
        s_scan = observer.stage("scan")
        s_materialize = observer.stage("materialize")
        kind, source, closer = resolve_bytes_source(document, size)

        def produce(batch):
            if record is not None and batch.seen:
                record.record_input(batch.seen, batch.cost)
            with tracer.span("materialize") as span:
                events = batch.materialize()
            s_materialize.charge(span.record.seconds, len(events))
            return events

        try:
            if kind == "buffer":
                batches = scanner.scan_document(source, size)
                while True:
                    with tracer.span("scan") as span:
                        batch = next(batches, None)
                    if batch is None:
                        break
                    s_scan.charge(span.record.seconds, batch.seen)
                    events = produce(batch)
                    if events:
                        yield events
            else:
                for chunk in source:
                    with tracer.span("scan") as span:
                        batch = scanner.feed_batch(chunk)
                    s_scan.charge(span.record.seconds, batch.seen)
                    events = produce(batch)
                    if events:
                        yield events
                with tracer.span("scan") as span:
                    batch = scanner.close_batch()
                s_scan.charge(span.record.seconds, batch.seen)
                events = produce(batch)
                if events:
                    yield events
        finally:
            closer()

    # ------------------------------------------------------------- push mode

    def open_feed(
        self,
        *,
        expand_attrs: bool = False,
        stats=None,
        observer=None,
        stop_at_root_close: bool = False,
    ) -> "FastPipelineFeed":
        """Open an incremental (push-mode) instance of the document stages.

        The returned :class:`FastPipelineFeed` accepts arbitrarily-split
        chunks and returns the surviving event batch per chunk.  With
        ``stop_at_root_close`` it scans exactly one document and parks
        anything fed past the root's close tag (see
        :meth:`FastPipelineFeed.take_remainder`) -- the substrate of
        continuous document feeds (:mod:`repro.feeds`).
        """
        return FastPipelineFeed(
            self,
            expand_attrs=expand_attrs,
            stats=stats,
            observer=observer,
            stop_at_root_close=stop_at_root_close,
        )


class FastPipelineFeed:
    """One in-flight push-mode pass over the bytes-native stages.

    ``feed`` accepts text or byte chunks cut at arbitrary points (bytes are
    the zero-copy path -- they go straight to the scanner, never through a
    decoder), ``finish`` flushes and validates, ``pending_bytes`` guards
    the text-after-partial-UTF-8 case.  All per-run cursor state lives
    here, so one pipeline serves any number of concurrent feeds.
    """

    __slots__ = ("_scanner", "_stats", "_record", "_finished", "_observer")

    def __init__(
        self,
        pipeline: FastEventPipeline,
        *,
        expand_attrs: bool = False,
        stats=None,
        observer=None,
        stop_at_root_close: bool = False,
    ):
        self._scanner = ByteScanner(
            pipeline.tags,
            pipeline.table,
            stop_at_root_close=stop_at_root_close,
            expand_attrs=expand_attrs,
        )
        self._record = stats is not None and pipeline.projection_enabled
        self._stats = stats
        self._finished = False
        # ``None`` when tracing is off; one attribute check per fed chunk.
        self._observer = observer if observer is not None and observer.enabled else None

    @property
    def pending_bytes(self) -> bool:
        """Whether a fed chunk left a partial UTF-8 sequence pending."""
        return self._scanner.pending_bytes

    def feed(self, chunk) -> List[Event]:
        """Stage one chunk; returns the events that became complete."""
        if self._finished:
            raise RuntimeError("this feed is finished; open a new one")
        if isinstance(chunk, str):
            if self._scanner.pending_bytes:
                raise ValueError(
                    "cannot feed text while a partial UTF-8 sequence from a "
                    "previous byte chunk is pending; feed the remaining bytes first"
                )
            data = chunk.encode("utf-8")
        else:
            data = bytes(chunk)
        observer = self._observer
        if observer is None:
            batch = self._scanner.feed_batch(data)
            if self._record and batch.seen:
                self._stats.record_input(batch.seen, batch.cost)
            return batch.materialize()
        with observer.tracer.span("scan") as span:
            batch = self._scanner.feed_batch(data)
        observer.stage("scan").charge(span.record.seconds, batch.seen)
        if self._record and batch.seen:
            self._stats.record_input(batch.seen, batch.cost)
        with observer.tracer.span("materialize") as span:
            events = batch.materialize()
        observer.stage("materialize").charge(span.record.seconds, len(events))
        return events

    def finish(self) -> List[Event]:
        """Signal end of input; returns (and stages) any remaining events.

        A byte feed ending mid-multi-byte-UTF-8-sequence raises a
        truncated-document error at the offset where the incomplete
        sequence starts; it never decodes to U+FFFD.
        """
        if self._finished:
            return []
        self._finished = True
        truncated_at = self._scanner.incomplete_tail_at()
        if truncated_at is not None:
            raise XMLWellFormednessError(
                "truncated document: incomplete UTF-8 sequence at end of input",
                truncated_at,
            )
        batch = self._scanner.close_batch()
        if self._record and batch.seen:
            self._stats.record_input(batch.seen, batch.cost)
        return batch.materialize()

    @property
    def root_closed(self) -> bool:
        """True once the root element closed (``stop_at_root_close`` mode)."""
        return self._scanner.root_closed

    def take_remainder(self) -> bytes:
        """Bytes fed past the closed root element (the next document's)."""
        return self._scanner.take_remainder()


__all__ = ["FastEventPipeline", "FastPipelineFeed"]
