"""Bytes-native shared scan + fan-out for the multi-query engine.

The document is scanned once, projected through the flat table compiled
from the :class:`~repro.pipeline.fanout.MergedProjectionSpec`, and the
*materialized* survivors are distributed by the per-state membership
bitsets -- so each query receives exactly the sub-stream its solo
projection filter would have produced, byte for byte.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.fastpath.dfa import table_for_merged
from repro.fastpath.scanner import ByteScanner
from repro.fastpath.source import resolve_bytes_source
from repro.fastpath.tags import TagTable
from repro.pipeline.fanout import MergedProjectionSpec
from repro.xmlstream.events import Event
from repro.xmlstream.parser import DocumentSource


class FastFanout:
    """Engine-shared fast-path state for one merged query set."""

    __slots__ = ("spec", "tags", "table", "_indices")

    def __init__(self, spec: MergedProjectionSpec):
        self.spec = spec
        self.tags = TagTable()
        self.table = table_for_merged(spec, self.tags)
        self._indices: Dict[int, Tuple[int, ...]] = {}

    def indices_for(self, mask: int) -> Tuple[int, ...]:
        """Unpack a membership bitset into query indices (memoized)."""
        indices = self._indices.get(mask)
        if indices is None:
            indices = tuple(i for i in range(self.spec.count) if mask >> i & 1)
            self._indices[mask] = indices
        return indices

    def split_batches(
        self,
        document: DocumentSource,
        chunk_size: int,
        stats_list: Optional[Sequence] = None,
        *,
        expand_attrs: bool = False,
    ) -> Iterator[List[List[Event]]]:
        """One shared byte scan; yields per-query sub-batch lists.

        Every query's statistics record the pre-projection totals of the
        shared pass, exactly what each query's solo run records.
        """
        scanner = ByteScanner(self.tags, self.table, expand_attrs=expand_attrs)
        kind, source, closer = resolve_bytes_source(document, chunk_size)
        count = self.spec.count
        keep_masks = self.table.keep_masks
        chars_masks = self.table.chars_masks
        indices_for = self.indices_for
        stats_list = list(stats_list) if stats_list else []

        def split(batch) -> List[List[Event]]:
            if batch.seen:
                for stats in stats_list:
                    stats.record_input(batch.seen, batch.cost)
            return batch.materialize_split(count, keep_masks, chars_masks, indices_for)

        try:
            if kind == "buffer":
                for batch in scanner.scan_document(source, chunk_size):
                    yield split(batch)
            else:
                for chunk in source:
                    yield split(scanner.feed_batch(chunk))
                yield split(scanner.close_batch())
        finally:
            closer()


__all__ = ["FastFanout"]
