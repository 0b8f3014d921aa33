"""Incremental, hand-written XML tokenizer.

The tokenizer accepts text chunks (of arbitrary size) via
:meth:`Tokenizer.feed_batch` and returns SAX-style events in batches -- one
list per fed chunk.  The generator-style :meth:`Tokenizer.feed` /
:meth:`Tokenizer.close` API is kept as a thin wrapper.  It supports the XML
subset that the paper's data model needs:

* elements with attributes,
* character data with the five predefined entities and numeric references,
* comments, processing instructions, CDATA sections and a DOCTYPE preamble
  (all skipped, except that CDATA content is reported as character data),
* self-closing tags.

It deliberately does not implement namespaces, external entities, or DTD
internal subsets beyond skipping them: the paper's data model is plain
tag-name based.

Two hot-path properties matter for throughput:

* scanning is index-based -- the pending text is only compacted once per fed
  chunk, never sliced per token,
* attribute-free start tags and all end tags are interned: XML vocabularies
  are tiny compared to documents, so almost every tag resolves to a cached,
  shared event object instead of being re-parsed.

The tokenizer never holds more than one pending token worth of text beyond
the current chunk, so it can be used on documents far larger than main
memory -- which is the point of the whole exercise.

Every ``feed_batch`` call resumes exactly where the previous chunk ended
(mid-tag, mid-entity, mid-text), so callers may cut the document at
arbitrary points and get the events of a single-chunk parse.

The engine itself reads documents with the byte scanner of
:mod:`repro.fastpath`; this tokenizer is the independent reference the
naive baseline, the conformance oracle and the tests parse with, so every
run mode is checked against a second implementation.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.xmlstream.errors import XMLSyntaxError, XMLWellFormednessError
from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-")

#: Upper bound on the interned-tag caches; real vocabularies are far smaller,
#: the cap only guards against adversarial documents with unbounded tag sets.
#: When it is reached the caches evict their oldest entry (insertion order)
#: instead of refusing new ones, so a hostile prefix of one-shot tag names
#: cannot permanently disable interning for the rest of the document.
_TAG_CACHE_LIMIT = 4096


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA


def parse_tag_body(raw_tag: str, here: int = 0):
    """Parse the inside of a start tag: ``name, [(attr, value), ...]``.

    Shared by the classic tokenizer's slow path and the fast path's lazy
    event materialization, so attribute-bearing tags raise identical errors
    and produce identical events on both paths.  ``here`` is the offset
    reported in errors.
    """
    raw_tag = raw_tag.strip()
    if not raw_tag:
        raise XMLSyntaxError("empty tag", here)
    i = 0
    if not _is_name_start(raw_tag[0]):
        raise XMLSyntaxError(f"malformed tag <{raw_tag}>", here)
    while i < len(raw_tag) and _is_name_char(raw_tag[i]):
        i += 1
    name = raw_tag[:i]
    attributes = []
    rest = raw_tag[i:]
    j = 0
    while j < len(rest):
        if rest[j].isspace():
            j += 1
            continue
        # attribute name
        start = j
        while j < len(rest) and _is_name_char(rest[j]):
            j += 1
        attr_name = rest[start:j]
        if not attr_name:
            raise XMLSyntaxError(f"malformed attribute in <{raw_tag}>", here)
        while j < len(rest) and rest[j].isspace():
            j += 1
        if j >= len(rest) or rest[j] != "=":
            raise XMLSyntaxError(f"attribute {attr_name!r} without value", here)
        j += 1
        while j < len(rest) and rest[j].isspace():
            j += 1
        if j >= len(rest) or rest[j] not in "\"'":
            raise XMLSyntaxError(f"attribute {attr_name!r} value must be quoted", here)
        quote = rest[j]
        j += 1
        end = rest.find(quote, j)
        if end == -1:
            raise XMLSyntaxError(f"unterminated attribute value for {attr_name!r}", here)
        value = decode_entities(rest[j:end], here)
        attributes.append((attr_name, value))
        j = end + 1
    return name, attributes


def decode_entities(text: str, offset: int = 0) -> str:
    """Replace entity and character references in ``text``.

    Only the five predefined entities and numeric character references are
    supported; anything else raises :class:`XMLSyntaxError`.
    """
    if "&" not in text:
        return text
    out: List[str] = []
    i = 0
    length = len(text)
    while i < length:
        char = text[i]
        if char != "&":
            out.append(char)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1:
            raise XMLSyntaxError("unterminated entity reference", offset + i)
        name = text[i + 1 : end]
        if name.startswith("#x") or name.startswith("#X"):
            try:
                out.append(chr(int(name[2:], 16)))
            except ValueError as exc:
                raise XMLSyntaxError(f"bad character reference &{name};", offset + i) from exc
        elif name.startswith("#"):
            try:
                out.append(chr(int(name[1:])))
            except ValueError as exc:
                raise XMLSyntaxError(f"bad character reference &{name};", offset + i) from exc
        elif name in _PREDEFINED_ENTITIES:
            out.append(_PREDEFINED_ENTITIES[name])
        else:
            raise XMLSyntaxError(f"unknown entity &{name};", offset + i)
        i = end + 1
    return "".join(out)


class Tokenizer:
    """Incremental XML tokenizer.

    Typical batch usage (the pipeline's tokenize stage)::

        tokenizer = Tokenizer()
        for chunk in chunks:
            handle_batch(tokenizer.feed_batch(chunk))
        handle_batch(tokenizer.close_batch())

    The per-event generator API (:meth:`feed` / :meth:`close`) remains
    available.  The tokenizer checks well-formedness (matching tags, single
    root) and raises :class:`XMLWellFormednessError` when violated.
    """

    def __init__(
        self,
        *,
        strip_whitespace: bool = True,
        report_document_events: bool = True,
        stop_at_root_close: bool = False,
    ):
        self._buffer = ""
        self._pos = 0
        self._offset = 0  # absolute document offset of self._buffer[0]
        self._stack: List[str] = []
        self._started = False
        self._finished = False
        self._seen_root = False
        self._strip_whitespace = strip_whitespace
        self._report_document_events = report_document_events
        self._stop_at_root_close = stop_at_root_close
        self._root_closed = False
        self._start_cache: dict = {}
        self._end_cache: dict = {}

    # ------------------------------------------------------------------ API

    def feed_batch(self, chunk: str) -> List[Event]:
        """Feed a chunk of text and return all events that became complete."""
        if self._finished:
            raise XMLWellFormednessError("data after end of document", self._here())
        if self._pos:
            # Compact once per chunk instead of once per token.
            self._offset += self._pos
            self._buffer = self._buffer[self._pos :]
            self._pos = 0
        self._buffer = self._buffer + chunk if self._buffer else chunk
        return self._drain(final=False)

    def close_batch(self) -> List[Event]:
        """Signal end of input and return any remaining events."""
        events = self._drain(final=True)
        if self._stack:
            raise XMLWellFormednessError(
                f"document ended with unclosed element <{self._stack[-1]}>", self._here()
            )
        if not self._seen_root:
            raise XMLWellFormednessError("document contains no element", self._here())
        if not self._finished:
            self._finished = True
            if self._report_document_events:
                events.append(EndDocument())
        return events

    def feed(self, chunk: str) -> Iterator[Event]:
        """Per-event wrapper around :meth:`feed_batch`."""
        yield from self.feed_batch(chunk)

    def close(self) -> Iterator[Event]:
        """Per-event wrapper around :meth:`close_batch`."""
        yield from self.close_batch()

    @property
    def root_closed(self) -> bool:
        """True once the root element closed (``stop_at_root_close`` mode)."""
        return self._root_closed

    def take_remainder(self) -> str:
        """Return (and discard) unparsed text past the closed root element.

        Only meaningful with ``stop_at_root_close=True``: after
        :attr:`root_closed` turns true, the text that arrived beyond the root
        close belongs to the *next* document in a concatenated feed.
        """
        rest = self._buffer[self._pos :]
        self._offset += len(self._buffer)
        self._buffer = ""
        self._pos = 0
        return rest

    # ------------------------------------------------------------ internals

    def _here(self) -> int:
        return self._offset + self._pos

    def _drain(self, final: bool) -> List[Event]:
        events: List[Event] = []
        append = events.append
        if not self._started:
            self._started = True
            if self._report_document_events:
                append(StartDocument())

        buffer = self._buffer
        length = len(buffer)
        pos = self._pos
        find = buffer.find
        startswith = buffer.startswith
        stack = self._stack
        strip = self._strip_whitespace
        start_cache = self._start_cache
        end_cache = self._end_cache
        stop_root = self._stop_at_root_close

        while pos < length:
            if stop_root and not stack and self._seen_root:
                # Feed mode: the root element just closed -- everything from
                # here on belongs to the next document (``take_remainder``).
                break
            if buffer[pos] != "<":
                # ------------------------------------------- character data
                start = pos
                lt = find("<", pos)
                if lt == -1:
                    if not final:
                        break
                    raw = buffer[pos:]
                    pos = length
                else:
                    raw = buffer[pos:lt]
                    pos = lt
                if "&" in raw:
                    raw = decode_entities(raw, self._offset + pos)
                if stack:
                    if not strip or not raw.isspace():
                        append(Characters(raw))
                elif not raw.isspace():
                    # Report at the start of the offending text run -- same
                    # offset convention as the fast path's byte scanner.
                    self._pos = start
                    raise XMLWellFormednessError(
                        "character data outside the root element", self._here()
                    )
                continue

            nxt = pos + 1
            if nxt >= length:
                if final:
                    self._pos = pos
                    raise XMLSyntaxError("truncated markup", self._here())
                break
            second = buffer[nxt]

            if second == "/":
                # --------------------------------------------------- end tag
                gt = find(">", pos)
                if gt == -1:
                    if final:
                        self._pos = pos
                        raise XMLSyntaxError("unterminated tag", self._here())
                    break
                name = buffer[pos + 2 : gt]
                tag_at = pos
                pos = gt + 1
                if stack and stack[-1] == name:
                    # Fast path: the name was validated when its start tag was
                    # parsed, so matching the stack top needs no re-check.
                    stack.pop()
                    event = end_cache.get(name)
                    if event is None:
                        event = EndElement(name)
                        if len(end_cache) >= _TAG_CACHE_LIMIT:
                            # Evict the oldest entry instead of freezing the
                            # cache: an adversarial unbounded vocabulary then
                            # degrades to re-parsing, never to unbounded
                            # memory or a permanently cold cache.
                            del end_cache[next(iter(end_cache))]
                        end_cache[name] = event
                    append(event)
                else:
                    self._pos = pos
                    append(self._end_tag(name.strip(), self._offset + tag_at))
                continue

            if second == "?":
                # --------------------------------------- processing instruction
                end = find("?>", pos)
                if end == -1:
                    if final:
                        self._pos = pos
                        raise XMLSyntaxError("unterminated processing instruction", self._here())
                    break
                pos = end + 2
                continue

            if second == "!":
                # ------------------------------- comment / CDATA / DOCTYPE
                if startswith("<!--", pos):
                    end = find("-->", pos)
                    if end == -1:
                        if final:
                            self._pos = pos
                            raise XMLSyntaxError("unterminated comment", self._here())
                        break
                    pos = end + 3
                    continue
                if startswith("<![CDATA[", pos):
                    end = find("]]>", pos)
                    if end == -1:
                        if final:
                            self._pos = pos
                            raise XMLSyntaxError("unterminated CDATA section", self._here())
                        break
                    text = buffer[pos + 9 : end]
                    pos = end + 3
                    if not stack:
                        self._pos = pos
                        raise XMLWellFormednessError("CDATA outside the root element", self._here())
                    if not strip or text.strip():
                        append(Characters(text))
                    continue
                if startswith("<!DOCTYPE", pos) or startswith("<!doctype", pos):
                    # A DOCTYPE may contain an internal subset in [...]; skip
                    # to the matching '>' while honouring brackets.
                    depth = 0
                    end = -1
                    for index in range(pos, length):
                        char = buffer[index]
                        if char == "[":
                            depth += 1
                        elif char == "]":
                            depth -= 1
                        elif char == ">" and depth <= 0:
                            end = index
                            break
                    if end == -1:
                        if final:
                            self._pos = pos
                            raise XMLSyntaxError("unterminated DOCTYPE", self._here())
                        break
                    pos = end + 1
                    continue
                if length - pos < 9 and not final:
                    break
                self._pos = pos
                raise XMLSyntaxError("unsupported markup declaration", self._here())

            # ------------------------------------------------------ start tag
            gt = find(">", pos)
            if gt == -1:
                if final:
                    self._pos = pos
                    raise XMLSyntaxError("unterminated tag", self._here())
                break
            raw_tag = buffer[pos + 1 : gt]
            tag_at = pos
            pos = gt + 1
            event = start_cache.get(raw_tag)
            if event is not None:
                if not stack:
                    if self._seen_root:
                        # Offset of the second root's '<', matching the fast
                        # path's byte scanner.
                        self._pos = tag_at
                        raise XMLWellFormednessError("multiple root elements", self._here())
                    self._seen_root = True
                stack.append(event.name)
                append(event)
                continue
            # Slow path: self-closing tags, attributes, unseen names.
            self._pos = pos
            self_closing = raw_tag.endswith("/")
            if self_closing:
                raw_tag = raw_tag[:-1]
            name, attributes = self._parse_tag_content(raw_tag)
            if not stack:
                if self._seen_root:
                    self._pos = tag_at
                    raise XMLWellFormednessError("multiple root elements", self._here())
                self._seen_root = True
            event = StartElement(name, tuple(attributes))
            append(event)
            if self_closing:
                end_event = end_cache.get(name)
                if end_event is None:
                    end_event = EndElement(name)
                    if len(end_cache) >= _TAG_CACHE_LIMIT:
                        del end_cache[next(iter(end_cache))]
                    end_cache[name] = end_event
                append(end_event)
            else:
                stack.append(name)
                if not attributes:
                    if len(start_cache) >= _TAG_CACHE_LIMIT:
                        del start_cache[next(iter(start_cache))]
                    start_cache[raw_tag] = event
            continue

        self._pos = pos
        if stop_root and not stack and self._seen_root:
            self._root_closed = True
        return events

    def _end_tag(self, name: str, at: int = None) -> EndElement:
        """Slow-path end tag: full name validation and mismatch reporting.

        ``at`` is the absolute offset of the tag's ``<`` -- errors are
        reported there, the same convention as the fast path's byte scanner.
        """
        if at is None:
            at = self._here()
        if not name or not all(_is_name_char(c) or _is_name_start(c) for c in name):
            raise XMLSyntaxError(f"malformed end tag </{name}>", at)
        if not self._stack:
            raise XMLWellFormednessError(f"unexpected closing tag </{name}>", at)
        expected = self._stack.pop()
        if expected != name:
            raise XMLWellFormednessError(
                f"mismatched closing tag </{name}>, expected </{expected}>", at
            )
        return EndElement(name)

    def _parse_tag_content(self, raw_tag: str):
        return parse_tag_body(raw_tag, self._here())


def tokenize(text: str, *, strip_whitespace: bool = True, report_document_events: bool = True) -> Iterator[Event]:
    """Tokenize a complete document held in a string."""
    tokenizer = Tokenizer(
        strip_whitespace=strip_whitespace,
        report_document_events=report_document_events,
    )
    yield from tokenizer.feed(text)
    yield from tokenizer.close()
