"""The streaming FluX query engine (Section 5 of the paper).

The engine compiles a safe FluX query (plus the DTD it was scheduled
against) into a :class:`~repro.engine.plan.QueryPlan` and executes it as the
*execute* stage of a run (:mod:`repro.pipeline`)::

    scan + project (repro.fastpath) -> execute -> sink

Plan side (built once per query):

* ``on`` handlers either open a nested evaluator scope (processing the
  child's children incrementally) or copy the child's subtree straight to
  the output,
* ``on-first past(S)`` handlers are triggered by punctuation derived from one
  Glushkov-automaton transition per child (Appendix B) and execute their
  XQuery⁻ bodies over main-memory buffers,
* buffers hold exactly the projection of the input determined by the
  buffer-path analysis Π and the pruned buffer trees of Section 5,
* per scope, handlers are compiled into **dispatch tables** keyed on the
  child tag (``ScopeSpec.on_by_tag`` / ``ScopeSpec.on_first``), so child
  dispatch is one dict lookup instead of a handler-list scan,
* the same plan also yields the **pre-executor projection filter**
  (:class:`repro.pipeline.projection.ProjectionSpec`): events of subtrees
  no buffer tree, value trie, handler or stream-copy can reach are dropped
  before the executor sees them.

Run side (:class:`~repro.engine.executor.StreamExecutor`):

* events arrive in bounded batches; statistics are recorded per batch,
* path-versus-constant conditions on streaming variables are evaluated on
  the fly and only occupy a per-scope flag/value slot,
* output goes to a pluggable :mod:`repro.pipeline.sinks` sink -- collected,
  discarded, streamed as fragments, or written straight to a file.

Public entry point: :class:`repro.engine.engine.FluxEngine` (re-exported
from :mod:`repro.core`) with ``run``, ``run_streaming`` and ``run_to_sink``.
"""

from repro.engine.buffers import BufferManager, EventBuffer
from repro.engine.projection import (
    BufferTreeNode,
    buffer_paths,
    buffer_tree_for_variable,
    buffer_trees,
    condition_value_paths,
)
from repro.engine.plan import QueryPlan, compile_plan
from repro.engine.executor import ExecutionResult, StreamExecutor
from repro.engine.engine import FluxEngine, StreamingRun
from repro.engine.stats import RunStatistics

__all__ = [
    "BufferManager",
    "BufferTreeNode",
    "EventBuffer",
    "ExecutionResult",
    "FluxEngine",
    "QueryPlan",
    "RunStatistics",
    "StreamExecutor",
    "StreamingRun",
    "buffer_paths",
    "buffer_tree_for_variable",
    "buffer_trees",
    "compile_plan",
    "condition_value_paths",
]
