"""User-facing parsing helpers.

These wrap the incremental tokenizer with convenient entry points:

* :func:`iter_event_batches` -- stream *batches* of events (one list per text
  chunk), the cheapest way to consume a document as events.
* :func:`iter_events` -- stream events one at a time from a string, a path, a
  file-like object, bytes, or any iterable of text chunks.
* :func:`parse_events` -- materialize the full event list (used in tests and
  by the baselines).
* :func:`parse_tree` -- parse straight into an :class:`~repro.xmlstream.tree.XMLNode`.

A plain ``str`` source is treated as *document text* when (ignoring leading
whitespace) it starts with ``<`` -- every well-formed XML document does --
and as a file path otherwise.  ``bytes`` are always document text (decoded
as UTF-8) and :class:`os.PathLike` objects are always paths, so callers can
be explicit when the heuristic is not wanted.
"""

from __future__ import annotations

import codecs
import io
import mmap
import os
from typing import Iterable, Iterator, List, Union

from repro.xmlstream.attributes import expand_attributes
from repro.xmlstream.events import Event
from repro.xmlstream.tokenizer import Tokenizer
from repro.xmlstream.tree import XMLNode, events_to_tree

#: Default read size for file-like sources, small enough to keep memory flat.
DEFAULT_CHUNK_SIZE = 64 * 1024

DocumentSource = Union[str, bytes, os.PathLike, io.IOBase, Iterable[str]]


def _chunks_from_path(path: Union[str, os.PathLike], chunk_size: int) -> Iterator[str]:
    """Decode a file in bounded chunks over a read-only ``mmap``.

    Mapping the file lets the page cache serve the bytes directly (no
    buffered-reader copies); decoding stays incremental, so multi-byte code
    points straddling a chunk boundary are handled and memory stays flat.
    Empty files (``mmap`` rejects length zero) and unmappable handles fall
    back to a plain read.
    """
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            text = handle.read().decode("utf-8")
            if text:
                yield text
            return
        try:
            yield from _decode_buffer_chunks(mapped, chunk_size)
        finally:
            mapped.close()


def _decode_buffer_chunks(buffer, chunk_size: int) -> Iterator[str]:
    """Incrementally decode an in-memory byte buffer in bounded chunks."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    length = len(buffer)
    for start in range(0, length, chunk_size):
        chunk = decoder.decode(buffer[start : start + chunk_size])
        if chunk:
            yield chunk
    tail = decoder.decode(b"", final=True)
    if tail:
        yield tail


def _chunks_from_text(text: str, chunk_size: int) -> Iterator[str]:
    """Slice an in-memory document so downstream batches stay bounded."""
    if len(text) <= chunk_size:
        yield text
        return
    for start in range(0, len(text), chunk_size):
        yield text[start : start + chunk_size]


def _looks_like_document(text: str) -> bool:
    """First non-whitespace character is ``<`` -- without copying ``text``.

    (``text.lstrip()`` would duplicate a potentially huge in-memory
    document just to inspect one character.)
    """
    for char in text:
        if not char.isspace():
            return char == "<"
    return False


def _chunks_from_source(source: DocumentSource, chunk_size: int) -> Iterator[str]:
    """Yield text chunks from any supported document source.

    A ``str`` is document text when it starts with ``<`` after leading
    whitespace, otherwise a file path.  ``bytes`` are always document text;
    :class:`os.PathLike` always reads from disk.
    """
    if isinstance(source, str):
        if _looks_like_document(source):
            yield from _chunks_from_text(source, chunk_size)
        else:
            yield from _chunks_from_path(source, chunk_size)
        return
    if isinstance(source, (bytes, bytearray)):
        # Incremental decode per chunk -- never one whole-document str copy.
        yield from _decode_buffer_chunks(source, chunk_size)
        return
    if isinstance(source, os.PathLike):
        yield from _chunks_from_path(source, chunk_size)
        return
    if hasattr(source, "read"):
        decoder = None
        while True:
            chunk = source.read(chunk_size)
            if not chunk:
                if decoder is not None:
                    tail = decoder.decode(b"", final=True)
                    if tail:
                        yield tail
                return
            if isinstance(chunk, bytes):
                # Incremental decoding: a multi-byte code point may straddle
                # a chunk boundary.
                if decoder is None:
                    decoder = codecs.getincrementaldecoder("utf-8")()
                chunk = decoder.decode(chunk)
                if not chunk:
                    continue
            yield chunk
        return
    for chunk in source:
        yield chunk


def iter_event_batches(
    source: DocumentSource,
    *,
    strip_whitespace: bool = True,
    expand_attrs: bool = False,
    document_events: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[List[Event]]:
    """Stream batches of SAX-style events, one list per text chunk.

    Each fed chunk becomes one bounded batch of events, so per-event
    generator overhead is paid once per batch instead of once per token.
    """
    tokenizer = Tokenizer(
        strip_whitespace=strip_whitespace,
        report_document_events=document_events,
    )
    for chunk in _chunks_from_source(source, chunk_size):
        batch = tokenizer.feed_batch(chunk)
        if batch:
            if expand_attrs:
                batch = list(expand_attributes(batch))
            yield batch
    batch = tokenizer.close_batch()
    if batch:
        if expand_attrs:
            batch = list(expand_attributes(batch))
        yield batch


def iter_events(
    source: DocumentSource,
    *,
    strip_whitespace: bool = True,
    expand_attrs: bool = False,
    document_events: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[Event]:
    """Stream SAX-style events from ``source``.

    Parameters
    ----------
    source:
        Document text (``str`` starting with ``<``, or ``bytes``), a path
        (``str`` or :class:`os.PathLike`), an open file object, or an
        iterable of chunks.
    strip_whitespace:
        Drop whitespace-only character data (the default; the paper's data
        model has element-only content almost everywhere).
    expand_attrs:
        Apply the attribute-to-subelement expansion of
        :mod:`repro.xmlstream.attributes`.
    document_events:
        Whether to emit :class:`StartDocument`/:class:`EndDocument` markers.
    """
    for batch in iter_event_batches(
        source,
        strip_whitespace=strip_whitespace,
        expand_attrs=expand_attrs,
        document_events=document_events,
        chunk_size=chunk_size,
    ):
        yield from batch


def parse_events(
    source: DocumentSource,
    *,
    strip_whitespace: bool = True,
    expand_attrs: bool = False,
    document_events: bool = True,
) -> List[Event]:
    """Parse ``source`` and return the complete list of events."""
    events: List[Event] = []
    for batch in iter_event_batches(
        source,
        strip_whitespace=strip_whitespace,
        expand_attrs=expand_attrs,
        document_events=document_events,
    ):
        events.extend(batch)
    return events


def parse_tree(
    source: DocumentSource,
    *,
    strip_whitespace: bool = True,
    expand_attrs: bool = False,
) -> XMLNode:
    """Parse ``source`` into an in-memory tree and return the root element."""
    root = events_to_tree(
        iter_events(
            source,
            strip_whitespace=strip_whitespace,
            expand_attrs=expand_attrs,
            document_events=False,
        )
    )
    if root is None:
        raise ValueError("document contains no element")
    return root
