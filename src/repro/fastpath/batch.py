"""Struct-of-arrays event batches and their lazy Event materialization.

Between the byte scanner and the executor boundary, the fast path carries
events as parallel columns instead of per-event dataclasses:

* ``words`` -- one packed ``int`` per surviving event:
  ``kind`` (3 bits) | ``tag id`` (30 bits) | ``projection state index``
  (upper bits).  The state index is what the multi-query fan-out uses to
  recover the merged filter's membership masks without touching state
  objects.
* ``spans`` -- ``(start, end)`` byte offsets into the batch's source
  ``buffer`` for rows that carry text: character data, CDATA content, and
  the raw body of attribute-bearing (or uninterned) tags.

Nothing in a batch owns decoded text: the UTF-8 decode, entity decoding and
attribute parsing all happen in :func:`materialize` -- once, for survivors
only.  The exception is attribute expansion, whose decoded values ride in
``literals``.  Adjacent character rows are merged during materialization
(within a batch; batch boundaries never split one text node, because the
scanner holds text pending until the next ``<``).
"""

from __future__ import annotations

from array import array
from typing import Callable, List, Optional, Sequence

from repro.fastpath.tags import TagTable
from repro.xmlstream.events import Characters, Event
from repro.xmlstream.events import EndElement, StartElement
from repro.xmlstream.tokenizer import decode_entities, parse_tag_body

#: Row kinds (3 bits of the packed word).
K_START = 0  # interned start tag, no attributes
K_END = 1  # interned end tag
K_TEXT = 2  # character data span (entity references still encoded)
K_CDATA = 3  # CDATA content span (no entity decoding)
K_START_C = 4  # complex start tag: span is the raw tag body (attrs/uninterned)
K_END_C = 5  # uninterned end tag: span is the name
K_LITERAL = 6  # a prebuilt event (expanded attribute): tag field indexes ``literals``

KIND_BITS = 3
TAG_SHIFT = KIND_BITS
STATE_SHIFT = 33
KIND_MASK = (1 << KIND_BITS) - 1
TAG_MASK = (1 << (STATE_SHIFT - TAG_SHIFT)) - 1


class SoABatch:
    """One scanner output batch: packed words + text spans over ``buffer``.

    ``seen`` / ``cost`` carry the batch's *pre-projection* input accounting,
    so statistics keep describing the document that was read, not the
    survivors.  ``base`` is the absolute document offset of ``buffer[0]``
    (non-zero in push mode), so errors raised while materializing report
    document offsets.
    """

    __slots__ = ("words", "spans", "literals", "buffer", "base", "tags", "seen", "cost")

    def __init__(self, buffer, tags: TagTable, base: int = 0):
        self.words = array("q")
        self.spans = array("q")
        self.literals: List[Event] = []
        self.buffer = buffer
        self.base = base
        self.tags = tags
        self.seen = 0
        self.cost = 0

    def __len__(self) -> int:
        return len(self.words)

    def literal(self, event: Event, state_bits: int) -> None:
        """Append a row carrying a prebuilt event (no span in ``buffer``).

        Attribute expansion produces text that is not a byte range of the
        input (decoded attribute values) and, past the tag-table cap,
        element names that have no id; such rows carry the event itself.
        """
        self.words.append(K_LITERAL | (len(self.literals) << TAG_SHIFT) | state_bits)
        self.literals.append(event)

    def materialize(self) -> List[Event]:
        """Decode the batch into events (the executor boundary)."""
        words = self.words
        out: List[Event] = []
        if not words:
            return out
        append = out.append
        spans = self.spans
        buffer = self.buffer
        tags = self.tags
        starts = tags.start_events
        ends = tags.end_events
        chars = Characters
        si = 0
        # Pending coalesced character data: one segment almost always (extra
        # segments only appear around markup the projection filter skipped).
        pending: Optional[str] = None
        for word in words:
            kind = word & KIND_MASK
            if kind == K_START:
                if pending is not None:
                    append(chars(pending))
                    pending = None
                append(starts[(word >> TAG_SHIFT) & TAG_MASK])
            elif kind == K_END:
                if pending is not None:
                    append(chars(pending))
                    pending = None
                append(ends[(word >> TAG_SHIFT) & TAG_MASK])
            elif kind == K_TEXT or kind == K_CDATA:
                start = spans[si]
                end = spans[si + 1]
                si += 2
                text = buffer[start:end].decode("utf-8")
                if kind == K_TEXT and "&" in text:
                    text = decode_entities(text, self.base + start)
                pending = text if pending is None else pending + text
            elif kind == K_START_C:
                start = spans[si]
                end = spans[si + 1]
                si += 2
                if pending is not None:
                    append(chars(pending))
                    pending = None
                name, attributes = parse_tag_body(
                    buffer[start:end].decode("utf-8"), self.base + start
                )
                append(StartElement(name, tuple(attributes)))
            elif kind == K_END_C:
                start = spans[si]
                end = spans[si + 1]
                si += 2
                if pending is not None:
                    append(chars(pending))
                    pending = None
                append(EndElement(buffer[start:end].decode("utf-8")))
            else:  # K_LITERAL: never adjacent to other text rows
                if pending is not None:
                    append(chars(pending))
                    pending = None
                append(self.literals[(word >> TAG_SHIFT) & TAG_MASK])
        if pending is not None:
            append(chars(pending))
        return out

    def materialize_split(
        self,
        count: int,
        keep_masks: Sequence[int],
        chars_masks: Sequence[int],
        indices_for: Callable[[int], tuple],
    ) -> List[List[Event]]:
        """Fan the batch out into per-query event sub-batches.

        ``keep_masks`` / ``chars_masks`` are the flat table's per-state
        bitsets; each row's packed state index selects the queries that
        receive the materialized event, so query *i* gets exactly what its
        solo projection filter keeps.  Adjacent text rows
        share one state (nothing kept may sit between them), so coalescing
        before distribution is safe.
        """
        subs: List[List[Event]] = [[] for _ in range(count)]
        words = self.words
        if not words:
            return subs
        appends = [sub.append for sub in subs]
        spans = self.spans
        buffer = self.buffer
        tags = self.tags
        starts = tags.start_events
        ends = tags.end_events
        si = 0
        parts: Optional[List[str]] = None
        parts_mask = 0

        def flush_text() -> None:
            nonlocal parts
            event = Characters(parts[0] if len(parts) == 1 else "".join(parts))
            for index in indices_for(parts_mask):
                appends[index](event)
            parts = None

        for word in words:
            kind = word & KIND_MASK
            state = word >> STATE_SHIFT
            if kind == K_START:
                if parts is not None:
                    flush_text()
                event = starts[(word >> TAG_SHIFT) & TAG_MASK]
                for index in indices_for(keep_masks[state]):
                    appends[index](event)
            elif kind == K_END:
                if parts is not None:
                    flush_text()
                event = ends[(word >> TAG_SHIFT) & TAG_MASK]
                for index in indices_for(keep_masks[state]):
                    appends[index](event)
            elif kind == K_TEXT or kind == K_CDATA:
                start = spans[si]
                end = spans[si + 1]
                si += 2
                text = buffer[start:end].decode("utf-8")
                if kind == K_TEXT and "&" in text:
                    text = decode_entities(text, self.base + start)
                if parts is None:
                    parts = [text]
                    parts_mask = chars_masks[state]
                else:
                    parts.append(text)
            elif kind == K_START_C:
                start = spans[si]
                end = spans[si + 1]
                si += 2
                if parts is not None:
                    flush_text()
                name, attributes = parse_tag_body(
                    buffer[start:end].decode("utf-8"), self.base + start
                )
                event = StartElement(name, tuple(attributes))
                for index in indices_for(keep_masks[state]):
                    appends[index](event)
            elif kind == K_END_C:
                start = spans[si]
                end = spans[si + 1]
                si += 2
                if parts is not None:
                    flush_text()
                event = EndElement(buffer[start:end].decode("utf-8"))
                for index in indices_for(keep_masks[state]):
                    appends[index](event)
            else:  # K_LITERAL
                if parts is not None:
                    flush_text()
                event = self.literals[(word >> TAG_SHIFT) & TAG_MASK]
                masks = chars_masks if event.__class__ is Characters else keep_masks
                for index in indices_for(masks[state]):
                    appends[index](event)
        if parts is not None:
            flush_text()
        return subs


__all__ = [
    "SoABatch",
    "K_START",
    "K_END",
    "K_TEXT",
    "K_CDATA",
    "K_START_C",
    "K_END_C",
    "K_LITERAL",
    "KIND_MASK",
    "TAG_MASK",
    "TAG_SHIFT",
    "STATE_SHIFT",
]
