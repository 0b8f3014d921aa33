"""Bytes-native tokenizer fused with the flat-table projection filter.

:class:`ByteScanner` does the document side of every run in one pass:
tokenize, coalesce adjacent text, expand attributes into subelements
(``expand_attrs``) and project -- one index-based scan over a ``bytes`` /
``mmap`` buffer that emits struct-of-arrays rows
(:class:`~repro.fastpath.batch.SoABatch`) for *surviving* events only.

What makes it fast:

* no UTF-8 decode during scanning -- XML markup is pure ASCII, so tag
  delimiters can never appear inside a multi-byte sequence and byte-level
  ``find`` is always correct; text is decoded only if and when a surviving
  span is materialized,
* tag names are interned to ints once (:class:`~repro.fastpath.tags.TagTable`);
  the steady-state cost of a start tag is one dict hit plus one flat-array
  index (:class:`~repro.fastpath.dfa.FlatProjectionTable`),
* subtrees the projection filter drops emit *nothing* -- no events, no
  objects, just a single-integer depth counter, while input statistics
  are still accounted (pre-drop: they describe the document read, not
  the survivors).

Semantics mirror the reference event tokenizer of :mod:`repro.xmlstream`
(tokenize, coalesce, expand, project) exactly for well-formed documents:
same events, same output bytes, same buffered costs, same well-formedness
errors.  Two documented divergences exist, both limited to *invalid*
content inside subtrees that projection drops: malformed attributes
(unless ``expand_attrs`` is on, which parses every attribute) and bad
entity-references in dropped regions are never parsed, so they cannot
raise.  Input *byte* statistics are byte-oriented (UTF-8 length of raw
text) rather than decoded-character-oriented; event counts match.

Push mode (:meth:`feed_batch` / :meth:`close_batch`) accepts chunks cut at
arbitrary byte positions -- **including mid-multibyte UTF-8**: an
incomplete sequence simply stays in the pending tail like any incomplete
token, because markup bytes are ASCII and can never be mistaken for
continuation bytes.  :attr:`pending_bytes` reports whether the tail ends
mid-sequence so the run handle's text-after-partial-bytes guard holds.
"""

from __future__ import annotations

import re
from typing import Iterator, List

from repro.fastpath.batch import (
    K_CDATA,
    K_END,
    K_END_C,
    K_START,
    K_START_C,
    K_TEXT,
    STATE_SHIFT,
    TAG_SHIFT,
    SoABatch,
)
from repro.fastpath.dfa import DROP, UNKNOWN, FlatProjectionTable
from repro.fastpath.tags import TagTable, UNINTERNED
from repro.xmlstream.attributes import expanded_attribute_name
from repro.xmlstream.errors import XMLSyntaxError, XMLWellFormednessError
from repro.xmlstream.events import Characters, EndElement, StartElement
from repro.xmlstream.tokenizer import (
    _is_name_char,
    _is_name_start,
    decode_entities,
    parse_tag_body,
)

#: A start-tag body that is just an (ASCII) name, possibly padded.
_SIMPLE_TAG_RE = re.compile(rb"[ \t\r\n]*([A-Za-z_:][A-Za-z0-9_:.\-]*)[ \t\r\n]*\Z")
#: The leading name of a start-tag body that carries more (attributes).  The
#: name must end at whitespace: a name that continues with a non-ASCII
#: character (``<aé>``) goes to the full tag-body parser instead of being cut.
_NAME_PREFIX_RE = re.compile(rb"[ \t\r\n]*([A-Za-z_:][A-Za-z0-9_:.\-]*)(?=[ \t\r\n])")
#: End-tag name validation (every char a name char/start).
_END_NAME_RE = re.compile(rb"[A-Za-z0-9_:.\-]+\Z")


class ByteScanner:
    """One in-flight scan: tokenize + project a byte stream into SoA rows.

    ``tags`` and ``table`` are engine-shared (warm across runs); everything
    else is per-run cursor state.  The scanner always runs against a flat
    table -- projection-less runs use the one-state keep-everything table
    from :func:`~repro.fastpath.dfa.table_for_spec`, keeping a single code
    path.
    """

    __slots__ = (
        "tags",
        "table",
        "_stack",
        "_states",
        "_skip",
        "_finished",
        "_seen_root",
        "_pending",
        "_offset",
        "_stop_root",
        "_root_closed",
        "_expand",
    )

    def __init__(
        self,
        tags: TagTable,
        table: FlatProjectionTable,
        *,
        stop_at_root_close: bool = False,
        expand_attrs: bool = False,
    ):
        self.tags = tags
        self.table = table
        self._stack: List[object] = []  # tag ids; raw name bytes past the cap
        self._states: List[int] = [table.initial]
        self._skip = 0
        self._finished = False
        self._seen_root = False
        self._pending = b""
        self._offset = 0  # absolute byte offset of the pending tail
        self._stop_root = stop_at_root_close
        self._root_closed = False
        self._expand = expand_attrs

    # -------------------------------------------------------------- push mode

    @property
    def pending_bytes(self) -> bool:
        """Whether the pending tail ends inside a multi-byte UTF-8 sequence.

        While true, only byte chunks may be fed (appending encoded text
        would interleave it into the middle of a code point).
        """
        return self.incomplete_tail_at() is not None

    def incomplete_tail_at(self):
        """Absolute offset of a trailing incomplete UTF-8 sequence, or None.

        Used at EOF to turn a partial multi-byte code point into a
        truncated-document error at the offset where the sequence starts.
        """
        pending = self._pending
        tail = pending[-4:]
        for index in range(len(tail) - 1, -1, -1):
            byte = tail[index]
            if byte < 0x80:
                return None
            if byte >= 0xC0:
                incomplete = len(tail) - index
                if incomplete < (2 if byte < 0xE0 else (3 if byte < 0xF0 else 4)):
                    return self._offset + len(pending) - incomplete
                return None
        return None

    @property
    def root_closed(self) -> bool:
        """True once the root element closed (``stop_at_root_close`` mode)."""
        return self._root_closed

    def take_remainder(self) -> bytes:
        """Return (and discard) unscanned bytes past the closed root element."""
        rest = self._pending
        self._offset += len(rest)
        self._pending = b""
        return rest

    def feed_batch(self, data: bytes) -> SoABatch:
        """Scan one pushed chunk; returns the rows that became complete."""
        if self._finished:
            raise XMLWellFormednessError("data after end of document", self._offset)
        buf = self._pending + data if self._pending else data
        batch = SoABatch(buf, self.tags, self._offset)
        pos = self._drain(buf, 0, len(buf), False, batch, len(buf) + 1)
        self._offset += pos
        self._pending = bytes(buf[pos:])
        return batch

    def close_batch(self) -> SoABatch:
        """End of input: final rows, then the end-of-document well-formedness checks."""
        buf = self._pending
        batch = SoABatch(buf, self.tags, self._offset)
        if self._finished:
            return batch
        pos = self._drain(buf, 0, len(buf), True, batch, len(buf) + 1)
        self._offset += pos
        self._pending = b""
        if self._stack:
            name = self.tags.name_of(self._stack[-1])
            raise XMLWellFormednessError(
                f"document ended with unclosed element <{name}>", self._offset
            )
        if not self._seen_root:
            raise XMLWellFormednessError("document contains no element", self._offset)
        self._finished = True
        return batch

    # -------------------------------------------------------------- pull mode

    def scan_document(self, buf, chunk_size: int) -> Iterator[SoABatch]:
        """Scan a fully-resolved buffer (bytes or mmap) in place, zero-copy.

        Yields one batch per ~``chunk_size`` bytes of input so downstream
        work (materialization, execution, statistics) stays bounded, without
        ever copying or re-compacting the buffer.
        """
        if self._finished:
            raise XMLWellFormednessError("data after end of document", self._offset)
        length = len(buf)
        pos = 0
        while True:
            batch = SoABatch(buf, self.tags, self._offset)
            pos = self._drain(buf, pos, length, True, batch, pos + chunk_size)
            if pos >= length:
                if self._stack:
                    name = self.tags.name_of(self._stack[-1])
                    raise XMLWellFormednessError(
                        f"document ended with unclosed element <{name}>", pos
                    )
                if not self._seen_root:
                    raise XMLWellFormednessError("document contains no element", pos)
                self._finished = True
                yield batch
                return
            yield batch

    # -------------------------------------------------------------- the scan

    def _drain(self, buf, pos: int, length: int, final: bool, batch: SoABatch, stop: int) -> int:
        tags = self.tags
        expand = self._expand
        ids = tags.ids
        start_costs = tags.start_costs
        end_costs = tags.end_costs
        end_pats = tags.end_pats
        words = batch.words
        wapp = words.append
        spans = batch.spans
        sapp = spans.append
        find = buf.find
        stack = self._stack
        push = stack.append
        pop = stack.pop
        states = self._states
        spush = states.append
        spop = states.pop
        table = self.table
        cells = table.cells
        width = table.width
        chars_keep = table.chars_keep
        top = states[-1]
        row = top * width
        skip = self._skip
        base = self._offset
        seen = 0
        cost = 0
        # Coalescing: adjacent counted text segments (text/CDATA split by
        # skipped markup) form one logical node; they count once and
        # materialize merged.
        text_run = False
        stop_root = self._stop_root
        # Tokens only *start* before ``stop``; one starting earlier runs to
        # completion, exactly like the old per-iteration ``pos >= stop`` break.
        limit = stop if stop < length else length

        while pos < limit:
            if stop_root and not stack and self._seen_root:
                # Feed mode: the root element just closed -- bytes from here
                # on belong to the next document (``take_remainder``).
                break
            if buf[pos] != 60:  # not '<'
                # ------------------------------------------- character data
                lt = find(b"<", pos)
                if lt == -1:
                    if not final:
                        break
                    start = pos
                    end = length
                    pos = length
                else:
                    start = pos
                    end = lt
                    pos = lt
                raw = buf[start:end]
                if raw.isspace():  # '&' is not whitespace, so this is safe
                    continue
                if 38 in raw:  # '&': decode now so entity errors surface here
                    text = decode_entities(raw.decode("utf-8"), base + start)
                    if text.isspace():
                        continue
                    add = len(text)
                else:
                    if not raw.isascii() and raw.decode("utf-8").isspace():
                        continue
                    add = end - start
                if not stack:
                    raise XMLWellFormednessError(
                        "character data outside the root element", base + start
                    )
                cost += add
                if not text_run:
                    seen += 1
                    text_run = True
                if skip:
                    continue
                if chars_keep[top]:
                    wapp(K_TEXT | (top << STATE_SHIFT))
                    sapp(start)
                    sapp(end)
                continue

            try:
                second = buf[pos + 1]
            except IndexError:  # '<' is the last byte of the buffer
                if final:
                    raise XMLSyntaxError("truncated markup", base + pos)
                break

            if second > 63:  # a name-start byte: start tag, the common token
                # ------------------------------------------------ start tag
                gt = find(b">", pos)
                if gt == -1:
                    if final:
                        raise XMLSyntaxError("unterminated tag", base + pos)
                    break
                raw = buf[pos + 1 : gt]
                at = pos
                pos = gt + 1
                tid = ids.get(raw)
                if tid is not None:
                    # Fast path: known, attribute-free, non-self-closing tag.
                    seen += 1
                    cost += start_costs[tid]
                    text_run = False
                    if not stack:
                        if self._seen_root:
                            raise XMLWellFormednessError(
                                "multiple root elements", base + at
                            )
                        self._seen_root = True
                    push(tid)
                    if skip:
                        skip += 1
                        continue
                    cell = cells[row + tid] if tid < width else UNKNOWN
                    if cell == UNKNOWN:
                        cell = table.resolve(top, tid)
                        cells = table.cells
                        width = table.width
                        chars_keep = table.chars_keep
                        row = top * width
                    if cell == DROP:
                        skip = 1
                        continue
                    spush(cell)
                    wapp((tid << TAG_SHIFT) | (cell << STATE_SHIFT))
                    top = cell
                    row = top * width
                    continue
                # Uninterned: fall through (past the dispatch chain) into the
                # generic start-tag path below.
            elif second == 47:  # '/'
                # --------------------------------------------------- end tag
                if stack:
                    expected = stack[-1]
                    # Fast path: the only end tag that can be well-formed
                    # here is ``</top-of-stack>``; match it in place with a
                    # range-bounded find (a zero-copy prefix test that, unlike
                    # ``startswith``, ``mmap`` also supports) -- no scan, no
                    # slice, no dict hit.
                    if expected.__class__ is int and find(
                        pat := end_pats[expected], pos, pos + (plen := len(pat))
                    ) == pos:
                        pop()
                        seen += 1
                        cost += end_costs[expected]
                        text_run = False
                        pos += plen
                        if skip:
                            skip -= 1
                            continue
                        sidx = spop()
                        wapp(K_END | (expected << TAG_SHIFT) | (sidx << STATE_SHIFT))
                        top = states[-1]
                        row = top * width
                        continue
                gt = find(b">", pos)
                if gt == -1:
                    if final:
                        raise XMLSyntaxError("unterminated tag", base + pos)
                    break
                name_b = buf[pos + 2 : gt]
                at = pos
                pos = gt + 1
                tid = ids.get(name_b)
                if tid is not None and stack and stack[-1] == tid:
                    pop()
                    seen += 1
                    cost += end_costs[tid]
                    text_run = False
                    if skip:
                        skip -= 1
                        continue
                    sidx = spop()
                    wapp(K_END | (tid << TAG_SHIFT) | (sidx << STATE_SHIFT))
                    top = states[-1]
                    row = top * width
                    continue
                # Slow path: padded, uninterned or mismatched names.
                stripped = name_b.strip()
                if _END_NAME_RE.match(stripped):
                    name = stripped.decode("ascii")
                else:
                    name = stripped.decode("utf-8", "replace").strip()
                    if not _valid_end_name(name):
                        raise XMLSyntaxError(f"malformed end tag </{name}>", base + at)
                if not stack:
                    raise XMLWellFormednessError(
                        f"unexpected closing tag </{name}>", base + at
                    )
                expected = pop()
                expected_name = (
                    tags.names[expected] if type(expected) is int else expected.decode("utf-8")
                )
                if expected_name != name:
                    raise XMLWellFormednessError(
                        f"mismatched closing tag </{name}>, expected </{expected_name}>",
                        base + at,
                    )
                seen += 1
                cost += len(name) + 3
                text_run = False
                if skip:
                    skip -= 1
                    continue
                sidx = spop()
                if type(expected) is int:
                    wapp(K_END | (expected << TAG_SHIFT) | (sidx << STATE_SHIFT))
                else:
                    encoded = name.encode("utf-8")
                    lead = at + 2 + name_b.find(encoded)
                    wapp(K_END_C | (sidx << STATE_SHIFT))
                    sapp(lead)
                    sapp(lead + len(encoded))
                top = states[-1]
                row = top * width
                continue

            elif second == 63:  # '?'
                # --------------------------------------- processing instruction
                end = find(b"?>", pos)
                if end == -1:
                    if final:
                        raise XMLSyntaxError(
                            "unterminated processing instruction", base + pos
                        )
                    break
                pos = end + 2
                continue

            elif second == 33:  # '!'
                # ------------------------------- comment / CDATA / DOCTYPE
                if buf[pos : pos + 4] == b"<!--":
                    end = find(b"-->", pos)
                    if end == -1:
                        if final:
                            raise XMLSyntaxError("unterminated comment", base + pos)
                        break
                    pos = end + 3
                    continue
                sig = buf[pos : pos + 9]
                if sig == b"<![CDATA[":
                    end = find(b"]]>", pos)
                    if end == -1:
                        if final:
                            raise XMLSyntaxError("unterminated CDATA section", base + pos)
                        break
                    start = pos + 9
                    tend = end
                    pos = end + 3
                    if not stack:
                        raise XMLWellFormednessError(
                            "CDATA outside the root element", base + pos
                        )
                    raw = buf[start:tend]
                    if not raw or raw.isspace():
                        continue
                    if not raw.isascii() and raw.decode("utf-8").isspace():
                        continue
                    add = tend - start
                    cost += add
                    if not text_run:
                        seen += 1
                        text_run = True
                    if skip:
                        continue
                    if chars_keep[top]:
                        wapp(K_CDATA | (top << STATE_SHIFT))
                        sapp(start)
                        sapp(tend)
                    continue
                if sig == b"<!DOCTYPE" or sig == b"<!doctype":
                    depth = 0
                    end = -1
                    for index in range(pos, length):
                        byte = buf[index]
                        if byte == 91:  # '['
                            depth += 1
                        elif byte == 93:  # ']'
                            depth -= 1
                        elif byte == 62 and depth <= 0:  # '>'
                            end = index
                            break
                    if end == -1:
                        if final:
                            raise XMLSyntaxError("unterminated DOCTYPE", base + pos)
                        break
                    pos = end + 1
                    continue
                if length - pos < 9 and not final:
                    break
                raise XMLSyntaxError("unsupported markup declaration", base + pos)

            else:
                # Rare openers (padded, ``:``-initial, digit or malformed
                # names): same generic start-tag path as uninterned tags.
                gt = find(b">", pos)
                if gt == -1:
                    if final:
                        raise XMLSyntaxError("unterminated tag", base + pos)
                    break
                raw = buf[pos + 1 : gt]
                at = pos
                pos = gt + 1

            # Generic start tag (fall-through from both start-tag branches):
            # self-closing tags, attributes, unseen/weird names.
            self_closing = raw.endswith(b"/")
            body = raw[:-1] if self_closing else raw
            body_at = at + 1
            attributes = None
            match = _SIMPLE_TAG_RE.match(body)
            if match is not None:
                name_b = match.group(1)
                tid = tags.intern(name_b, base + at)
                if tid != UNINTERNED and not self_closing and raw != name_b:
                    # Remember the padded spelling so re-occurrences take
                    # the fast path.
                    tags.alias(raw, tid)
                has_attrs = False
                name_span = (body_at + match.start(1), body_at + match.end(1))
            else:
                match = _NAME_PREFIX_RE.match(body)
                if match is not None:
                    name_b = match.group(1)
                    tid = tags.intern(name_b, base + at)
                    has_attrs = True
                    name_span = (body_at + match.start(1), body_at + match.end(1))
                else:
                    # Non-ASCII or malformed: the shared tag-body parser
                    # decides, so names, attributes and errors match the
                    # reference tokenizer.
                    name, attributes = parse_tag_body(
                        body.decode("utf-8"), base + at
                    )
                    name_b = name.encode("utf-8")
                    tid = tags.intern(name_b, base + at)
                    has_attrs = bool(attributes)
                    off = body.find(name_b)
                    name_span = (body_at + off, body_at + off + len(name_b))
            if has_attrs and expand:
                # The start tag itself goes out bare; its attributes follow
                # as child elements (see ``_expand_attributes``).
                if attributes is None:
                    attributes = parse_tag_body(body.decode("utf-8"), base + at)[1]
                has_attrs = False
            else:
                attributes = None
            body_span = (body_at, body_at + len(body))

            seen += 1
            text_run = False
            if has_attrs:
                cost += len(body) + 2
            elif tid != UNINTERNED:
                cost += start_costs[tid]
            else:
                cost += len(name_b) + 2
            if self_closing:
                seen += 1
                cost += end_costs[tid] if tid != UNINTERNED else len(name_b) + 3
            if not stack:
                if self._seen_root:
                    raise XMLWellFormednessError("multiple root elements", base + at)
                self._seen_root = True
            if not self_closing:
                push(tid if tid != UNINTERNED else bytes(name_b))
            if skip:
                if not self_closing:
                    skip += 1
                if attributes:
                    self._expand_attributes(name_b, tid, attributes, DROP, batch, base + at)
                continue
            if tid != UNINTERNED:
                cell = cells[row + tid] if tid < width else UNKNOWN
                if cell == UNKNOWN:
                    cell = table.resolve(top, tid)
                    cells = table.cells
                    width = table.width
                    chars_keep = table.chars_keep
                    row = top * width
            else:
                cell = table.resolve_name(top, name_b.decode("utf-8"))
                cells = table.cells
                width = table.width
                chars_keep = table.chars_keep
                row = top * width
            if cell == DROP:
                if not self_closing:
                    skip = 1
                if attributes:
                    self._expand_attributes(name_b, tid, attributes, DROP, batch, base + at)
                continue
            if has_attrs or tid == UNINTERNED:
                span = body_span if has_attrs else name_span
                wapp(K_START_C | (cell << STATE_SHIFT))
                sapp(span[0])
                sapp(span[1])
            else:
                wapp((tid << TAG_SHIFT) | (cell << STATE_SHIFT))
            if attributes:
                self._expand_attributes(name_b, tid, attributes, cell, batch, base + at)
                cells = table.cells
                width = table.width
                chars_keep = table.chars_keep
                row = top * width
            if self_closing:
                if tid != UNINTERNED:
                    wapp(K_END | (tid << TAG_SHIFT) | (cell << STATE_SHIFT))
                else:
                    wapp(K_END_C | (cell << STATE_SHIFT))
                    sapp(name_span[0])
                    sapp(name_span[1])
            else:
                spush(cell)
                top = cell
                row = top * width
            continue

        self._skip = skip
        batch.seen += seen
        batch.cost += cost
        if stop_root and not stack and self._seen_root:
            self._root_closed = True
        return pos

    def _expand_attributes(self, name_b, tid, attributes, cell, batch, at):
        """The paper's attribute-to-subelement expansion of one start tag.

        Each ``(name, value)`` attribute becomes a child element named by
        :func:`~repro.xmlstream.attributes.expanded_attribute_name` holding
        the value, in document order -- the events (and their input costs)
        that :func:`~repro.xmlstream.attributes.expand_attributes` produces
        ahead of coalescing and projection.  The children go through the
        same flat-table transitions as scanned tags, from the element's
        state ``cell``; with ``cell == DROP`` (element skipped or dropped)
        they are only counted in the batch's input accounting.
        """
        tags = self.tags
        table = self.table
        wapp = batch.words.append
        name = tags.names[tid] if tid != UNINTERNED else name_b.decode("utf-8")
        for attr_name, value in attributes:
            child = expanded_attribute_name(name, attr_name)
            ctid = tags.intern(child.encode("utf-8"), at)
            batch.seen += 3 if value else 2
            batch.cost += 2 * len(child) + 5 + len(value)
            if cell == DROP:
                continue
            if ctid == UNINTERNED:
                ccell = table.resolve_name(cell, child)
            else:
                ccell = table.cells[cell * table.width + ctid] if ctid < table.width else UNKNOWN
                if ccell == UNKNOWN:
                    ccell = table.resolve(cell, ctid)
            if ccell == DROP:
                continue
            state = ccell << STATE_SHIFT
            if ctid == UNINTERNED:
                batch.literal(StartElement(child), state)
            else:
                wapp((ctid << TAG_SHIFT) | state)
            if value and table.chars_keep[ccell]:
                batch.literal(Characters(value), state)
            if ctid == UNINTERNED:
                batch.literal(EndElement(child), state)
            else:
                wapp(K_END | (ctid << TAG_SHIFT) | state)


def _valid_end_name(name: str) -> bool:
    return bool(name) and all(_is_name_char(c) or _is_name_start(c) for c in name)


__all__ = ["ByteScanner"]
