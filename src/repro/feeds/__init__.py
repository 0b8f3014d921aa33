"""Continuous document feeds: one prepared query over an endless stream.

The paper frames streaming around "documents that arrive on a network",
and a network rarely delivers exactly one.  A :class:`FeedHandle` is the
long-lived counterpart of a single-document push run
(:class:`~repro.engine.engine.RunHandle`): one handle consumes an
unbounded stream of *concatenated* documents (optionally separated by
whitespace), cut into chunks at arbitrary byte positions -- including
splits that straddle a document boundary or fall inside a multi-byte
UTF-8 sequence.

Lifecycle
---------
Each document runs in a fresh inner push run over the engine's shared
compiled plan: the scanner and projection cursors, the run's statistics and its
buffer-attribution ledger all start from zero at every boundary, and the
inner run's ``finish()`` releases every buffer it charged against the
(shared) memory governor.  Live bytes therefore return to the same floor
after every document -- the invariant that makes bounded-memory claims
meaningful over millions of documents, and the one the conformance
oracle and the feed soak assert.

Framing and punctuation
-----------------------
``feed(chunk)`` returns the :class:`DocumentResult`\\ s that *completed*
within that chunk (zero or many -- a single chunk may close several
small documents); an ``on_document`` callback receives each one as it
seals.  ``on_heartbeat`` fires every
:attr:`~repro.core.options.FeedOptions.heartbeat_interval_bytes` fed
bytes with a progress snapshot, as punctuation on otherwise-quiet
streams.

Crash-safe resume
-----------------
:attr:`FeedHandle.resume_offset` is always the exact byte offset just
past the last *completed* document.  It is exposed live (the handle, the
``/progress`` endpoint, crash dumps via the inner run's annotations) so
a restarted feed can pass it as ``resume_from`` and skip the
already-processed prefix of the same stream; replayed output is
byte-identical to the uninterrupted run.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional

from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions, FeedOptions
from repro.engine.engine import FluxRunResult
from repro.obs import recorder as _flight
from repro.obs import serve as _serve
from repro.obs.runtime import (
    record_feed_document,
    record_feed_finished,
    record_feed_heartbeat,
)

#: Padding accepted (and skipped, charged to the stream offset) between
#: documents: the four XML whitespace bytes.
_INTERDOC_WS = b" \t\r\n"


@dataclass(frozen=True)
class DocumentResult:
    """One completed document of a feed: framing offsets plus its result.

    ``start_offset`` / ``end_offset`` are absolute byte offsets into the
    stream: the first byte of the document's markup and the byte just past
    its root close tag.  ``end_offset`` is exactly the feed's
    ``resume_offset`` after this document sealed.
    """

    index: int
    start_offset: int
    end_offset: int
    result: FluxRunResult


@dataclass(frozen=True)
class FeedResult:
    """Summary of a finished feed."""

    documents_completed: int
    resume_offset: int
    bytes_fed: int


class FeedHandle:
    """One in-flight continuous feed: documents in, framed results out.

    Typical usage::

        with prepared.open_feed(on_document=handle_doc) as feed:
            for chunk in socket_chunks:
                feed.feed(chunk)
        print(feed.result.documents_completed)

    The context manager finishes on a clean exit (raising if the stream
    ends mid-document, exactly like a single-document push run) and aborts
    on an exception -- :attr:`resume_offset` still reports the last
    completed boundary either way, which is what a restart passes as
    ``resume_from``.
    """

    def __init__(
        self,
        engine,
        *,
        sink=None,
        options: Optional[ExecutionOptions] = None,
        governor=None,
        owns_governor: bool = False,
        on_finish=None,
        on_document=None,
        on_heartbeat=None,
        resume_from: Optional[int] = None,
    ):
        self._engine = engine
        self._sink = sink
        self._options = options if options is not None else DEFAULT_OPTIONS
        feed_options = self._options.feed if self._options.feed is not None else FeedOptions()
        if resume_from is None:
            resume_from = feed_options.resume_offset
        if resume_from < 0:
            raise ValueError(f"resume_from must be >= 0, got {resume_from}")
        self._on_finish = on_finish
        self._on_document = on_document
        self._on_heartbeat = on_heartbeat
        self._governor = governor
        self._state = "open"
        self._run = None
        # Absolute stream cursors, all in bytes: ``_cursor`` is the offset
        # of the next byte to consume, ``_skip`` the resume prefix still to
        # discard, ``_doc_start`` the open document's first byte,
        # ``_resume_offset`` the boundary of the last completed document.
        self._cursor = 0
        self._skip = resume_from
        self._doc_start = resume_from
        self._resume_offset = resume_from
        self._bytes_fed = 0
        self._chunks_fed = 0
        self._documents_completed = 0
        self._heartbeat_every = feed_options.heartbeat_interval_bytes
        self._next_heartbeat = self._heartbeat_every
        #: The finished feed's summary; set by :meth:`finish`.
        self.result: Optional[FeedResult] = None
        # An abandoned handle must still release an owned governor's spill
        # file; the finalizer references only the governor.
        if owns_governor and governor is not None:
            self._finalizer = weakref.finalize(self, governor.close)
        else:
            self._finalizer = None
        _flight.RECORDER.note("feed-begin", True, resume_from)
        self._progress_key = _serve.register_run(self._progress)

    # ------------------------------------------------------------ watermarks

    @property
    def documents_completed(self) -> int:
        """Documents sealed by this handle (not counting a resumed prefix)."""
        return self._documents_completed

    @property
    def resume_offset(self) -> int:
        """Byte offset just past the last completed document.

        Feed the same stream to a new handle with ``resume_from=<this>``
        to skip everything already processed.
        """
        return self._resume_offset

    @property
    def bytes_fed(self) -> int:
        return self._bytes_fed

    def _progress(self) -> dict:
        """One JSON-ready watermark snapshot for the /progress endpoint."""
        return {
            "mode": "feed",
            "state": self._state,
            "bytes_fed": self._bytes_fed,
            "chunks_fed": self._chunks_fed,
            "documents_completed": self._documents_completed,
            "resume_offset": self._resume_offset,
            "document_start_offset": self._doc_start,
            "document_offset": self._cursor,
        }

    # ----------------------------------------------------------------- feed

    def feed(self, chunk) -> List[DocumentResult]:
        """Consume one stream chunk; returns the documents that completed.

        Text chunks are encoded to UTF-8 first, so every offset this
        handle reports is a true byte offset whatever mix of ``str`` and
        ``bytes`` the caller feeds.
        """
        if self._state != "open":
            raise RuntimeError(f"cannot feed a {self._state} feed")
        data = chunk.encode("utf-8") if isinstance(chunk, str) else bytes(chunk)
        self._bytes_fed += len(data)
        self._chunks_fed += 1
        if self._skip:
            drop = min(self._skip, len(data))
            self._cursor += drop
            self._skip -= drop
            data = data[drop:]
        completed: List[DocumentResult] = []
        while data:
            if self._run is None:
                stripped = data.lstrip(_INTERDOC_WS)
                self._cursor += len(data) - len(stripped)
                data = stripped
                if not data:
                    break
                self._open_run()
            run = self._run
            try:
                run.feed(data)
            except Exception:
                # The inner run already dumped a crash snapshot (with this
                # document's exact offsets) and released its buffers.
                self._run = None
                self.close()
                raise
            pipeline_feed = run._feed
            if not pipeline_feed.root_closed:
                self._cursor += len(data)
                break
            remainder = pipeline_feed.take_remainder()
            boundary = self._cursor + len(data) - len(remainder)
            try:
                result = run.finish()
            except Exception:
                self._run = None
                self.close()
                raise
            self._run = None
            self._cursor = boundary
            data = remainder
            completed.append(self._seal_document(boundary, result))
        self._maybe_heartbeat()
        return completed

    def finish(self) -> FeedResult:
        """End of stream: flush, validate, release resources.

        Raises when the stream ends inside a document -- the same
        truncation errors a single-document push run raises, including the
        incomplete-trailing-UTF-8-sequence case.
        """
        if self._state == "finished":
            return self.result
        if self._state != "open":
            raise RuntimeError("cannot finish a closed feed")
        if self._run is not None:
            run = self._run
            try:
                result = run.finish()
            except Exception:
                self._run = None
                self.close()
                raise
            # Only reachable if the document completed exactly at stream
            # end without the boundary being observed; seal it normally.
            self._run = None
            self._seal_document(self._cursor, result)
        self._state = "finished"
        self._teardown()
        record_feed_finished()
        _flight.RECORDER.note("feed-finish", self._documents_completed, self._resume_offset)
        self.result = FeedResult(
            documents_completed=self._documents_completed,
            resume_offset=self._resume_offset,
            bytes_fed=self._bytes_fed,
        )
        return self.result

    def close(self) -> None:
        """Abort an unfinished feed, releasing the open document's buffers.

        Idempotent.  :attr:`resume_offset` keeps reporting the last
        completed boundary, so a closed (or crashed) feed can be resumed.
        """
        run, self._run = self._run, None
        if run is not None:
            run.close()
        if self._state == "open":
            self._state = "closed"
        _serve.unregister_run(self._progress_key)
        if self._finalizer is not None:
            self._finalizer()

    def __enter__(self) -> "FeedHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._state == "open":
            self.finish()
        else:
            self.close()

    # ------------------------------------------------------------ internals

    def _open_run(self) -> None:
        self._doc_start = self._cursor
        self._run = self._engine.open_run(
            sink=self._sink,
            options=self._options,
            governor=self._governor,
            owns_governor=False,
            on_finish=self._on_finish,
            stop_at_root_close=True,
            annotations={
                "document_index": self._documents_completed,
                "document_start_offset": self._doc_start,
                "resume_offset": self._resume_offset,
            },
        )

    def _seal_document(self, boundary: int, result: FluxRunResult) -> DocumentResult:
        document = DocumentResult(
            index=self._documents_completed,
            start_offset=self._doc_start,
            end_offset=boundary,
            result=result,
        )
        self._documents_completed += 1
        self._resume_offset = boundary
        record_feed_document()
        _flight.RECORDER.note("doc-boundary", document.index, boundary)
        if self._on_document is not None:
            self._on_document(document)
        return document

    def _maybe_heartbeat(self) -> None:
        if self._on_heartbeat is None:
            return
        if self._bytes_fed < self._next_heartbeat:
            return
        while self._bytes_fed >= self._next_heartbeat:
            self._next_heartbeat += self._heartbeat_every
        record_feed_heartbeat()
        self._on_heartbeat(self._progress())

    def _teardown(self) -> None:
        _serve.unregister_run(self._progress_key)
        if self._finalizer is not None:
            self._finalizer()


__all__ = ["DocumentResult", "FeedHandle", "FeedResult"]
