"""The engine's document pipeline (bytes-native).

Every run mode -- pull, stream, push, feed, multi-query and serve -- reads
its document through this package:

* :mod:`repro.fastpath.scanner` -- a zero-copy tokenizer that walks
  ``bytes``/``memoryview``/``mmap`` input directly, defers all UTF-8
  decoding until character data is actually emitted, and applies the
  paper's attribute-to-subelement expansion (``expand_attrs``) as it scans,
* :mod:`repro.fastpath.batch` -- struct-of-arrays event batches (packed
  integer words + byte spans) between the scanner and the executor
  boundary, materialized into events lazily,
* :mod:`repro.fastpath.dfa` -- the projection automaton compiled to a flat
  integer transition table indexed by ``state * width + tag_id``, including
  the multi-query merged filter's membership bitsets.

The event tokenizer of :mod:`repro.xmlstream` is not part of any run mode:
it is the independent reference the conformance oracle
(:mod:`repro.conformance`) and the naive baseline parse with, so every run
mode is still cross-checked byte for byte against a second implementation.
"""

from __future__ import annotations

from typing import Optional

from repro.fastpath.batch import SoABatch
from repro.fastpath.dfa import FlatProjectionTable, table_for_merged, table_for_spec
from repro.fastpath.fanout import FastFanout
from repro.fastpath.pipeline import FastEventPipeline, FastPipelineFeed
from repro.fastpath.scanner import ByteScanner
from repro.fastpath.tags import TagTable


def use_fastpath(requested: Optional[bool] = None) -> bool:
    """Always ``True``: the byte pipeline is the only one."""
    # Kept only until perfbench/run.py no longer calls it.
    return True


__all__ = [
    "ByteScanner",
    "FastEventPipeline",
    "FastFanout",
    "FastPipelineFeed",
    "FlatProjectionTable",
    "SoABatch",
    "TagTable",
    "table_for_merged",
    "table_for_spec",
    "use_fastpath",
]
