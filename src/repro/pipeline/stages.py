"""Small event-batch stages for already-parsed event streams.

The byte scanner (:mod:`repro.fastpath`) batches and coalesces as it scans;
these stages do the same for event streams that did not come from it: the
pre-parsed-events entry point (``FluxEngine.run_events``) and the
reference tokenizer's output that the tests and the conformance oracle
compare against.  Stages consume and produce *batches* (lists) of events,
so crossing a Python generator boundary happens once per chunk, not once
per token.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.xmlstream.events import Characters, Event


def coalesce_characters(batch: List[Event]) -> List[Event]:
    """Merge runs of adjacent :class:`Characters` events within a batch.

    Adjacent character events arise when skipped markup (comments, PIs,
    CDATA boundaries) splits one logical text node.  This stage runs
    *before* projection, which never creates new adjacencies (it drops all
    character data outside keep-everything regions).  Merging keeps
    buffers, accumulators and output identical (serialization concatenates
    anyway) while halving the event count of text-heavy regions.
    """
    previous_chars = False
    for event in batch:
        if event.__class__ is Characters and previous_chars:
            break
        previous_chars = event.__class__ is Characters
    else:
        return batch  # common case: nothing adjacent, avoid rebuilding

    out: List[Event] = []
    append = out.append
    pending: List[Characters] = []
    for event in batch:
        if event.__class__ is Characters:
            pending.append(event)
            continue
        if pending:
            append(pending[0] if len(pending) == 1 else Characters("".join(e.text for e in pending)))
            pending.clear()
        append(event)
    if pending:
        append(pending[0] if len(pending) == 1 else Characters("".join(e.text for e in pending)))
    return out


def coalesce_batches(batches: Iterable[List[Event]]) -> Iterator[List[Event]]:
    """Apply :func:`coalesce_characters` to every batch of a stream."""
    for batch in batches:
        yield coalesce_characters(batch)


def batched(events: Iterable[Event], batch_size: int = 2048) -> Iterator[List[Event]]:
    """Slice a per-event iterable into bounded batches.

    Used to adapt pre-parsed event streams (tests, ``run_events``) to the
    batch interface of the executor.
    """
    batch: List[Event] = []
    append = batch.append
    for event in events:
        append(event)
        if len(batch) >= batch_size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch
