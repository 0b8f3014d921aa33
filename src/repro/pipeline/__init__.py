"""The query-side stages around the document scan.

A run is::

    scan + project  ->  execute  ->  sink

* **scan + project** (:mod:`repro.fastpath`) turns document bytes into
  bounded batches of SAX events, coalescing adjacent text and dropping the
  events of subtrees the compiled plan provably never touches; the
  projection automaton it runs is derived here
  (:mod:`repro.pipeline.projection`), from the plan's buffer trees, value
  tries and handler tables,
* **execute** (:class:`repro.engine.executor.StreamExecutor`) drives the
  compiled plan with the surviving events via precompiled dispatch tables,
* **sink** (:mod:`repro.pipeline.sinks`) collects, discards, streams or
  writes the serialized output.

For multi-query execution (:mod:`repro.multiquery`), the per-query
automata are merged into one union filter (:mod:`repro.pipeline.fanout`):
one shared scan feeds N per-query projected sub-streams.
:mod:`repro.pipeline.stages` holds the event-batch helpers used by the
pre-parsed-events entry point and the reference checks.
"""

from repro.pipeline.fanout import MergedProjectionSpec
from repro.pipeline.projection import ProjectionSpec
from repro.pipeline.sinks import (
    CollectSink,
    CollectingSink,
    FragmentSink,
    NullSink,
    OutputSink,
    WritableSink,
    resolve_sink,
)
from repro.pipeline.stages import batched, coalesce_batches, coalesce_characters

__all__ = [
    "CollectSink",
    "CollectingSink",
    "FragmentSink",
    "MergedProjectionSpec",
    "NullSink",
    "OutputSink",
    "ProjectionSpec",
    "WritableSink",
    "batched",
    "coalesce_batches",
    "coalesce_characters",
    "resolve_sink",
]
