"""repro -- reproduction of the FluX system (VLDB 2004).

"Schema-based Scheduling of Event Processors and Buffer Minimization for
Queries on Structured Data Streams" introduced FluX, an event-based extension
of XQuery, together with an algorithm that uses DTD order constraints to
schedule query evaluation over XML streams with minimal main-memory
buffering.  This package reimplements the complete system:

* :mod:`repro.xmlstream` -- streaming XML substrate (events, trees, and the
  event tokenizer kept as the independent reference parser),
* :mod:`repro.fastpath` -- the document pipeline every run mode uses: a
  zero-copy byte scanner fused with a flat-table projection filter,
* :mod:`repro.dtd` -- DTDs, Glushkov automata, order/cardinality constraints,
* :mod:`repro.xquery` -- the XQuery⁻ fragment, normalisation, reference
  semantics,
* :mod:`repro.flux` -- the FluX language, the scheduling rewrite, safety,
* :mod:`repro.pipeline` -- the projection automata the scanner filters
  with (scan -> project -> execute -> sink) and the unified Sink protocol,
* :mod:`repro.engine` -- the streaming engine with projected buffers,
* :mod:`repro.multiquery` -- multi-query shared-stream execution (one
  scan, N queries, merged projection with membership masks),
* :mod:`repro.storage` -- bounded-memory execution: a memory governor with
  a hard byte budget, spillable paged buffers and a temp-file spill store,
* :mod:`repro.obs` -- observability: per-run span tracing with stage
  breakdowns, a process-wide metrics registry, and JSONL / Prometheus-text
  exporters (``ExecutionOptions(trace=True)`` or ``repro run --trace``),
* :mod:`repro.baselines` -- full-materialisation and projection baselines,
* :mod:`repro.conformance` -- randomized conformance testing: a seeded
  DTD-directed case generator, a cross-engine differential oracle, a
  failing-case shrinker and the replayable ``.case`` format behind the
  ``repro fuzz`` CLI,
* :mod:`repro.xmark` -- XMark-like workload generator and benchmark queries,
* :mod:`repro.core` -- the public API (start here).

The public surface is session-oriented: a :class:`FluxSession` holds the
schema, an LRU plan cache (scheduling against the DTD is the expensive,
perfectly cacheable step) and, optionally, one memory governor shared by
every run.  Prepared queries execute over pull-mode documents (text, path,
file object, chunk iterable) or in **push mode**, fed chunk by chunk as
data arrives from a network.

Quickstart::

    from repro import FluxSession

    session = FluxSession(open("bib.dtd").read(), root_element="bib")
    query = session.prepare(open("query.xq").read())   # compiled once, cached

    result = query.execute("bib.xml")                  # pull mode
    print(result.output)
    print(result.stats.summary())

    with query.open_run() as run:                      # push mode
        for chunk in network_chunks:
            run.feed(chunk)
    print(run.result.output)

The pre-session surface (:class:`FluxEngine`, :func:`run_query` and
friends) keeps working as thin shims over the session layer.
"""

from repro.core import (
    CollectSink,
    CompiledQuery,
    DEFAULT_OPTIONS,
    DocumentResult,
    ExecutionOptions,
    FeedHandle,
    FeedOptions,
    FeedResult,
    FluxEngine,
    FluxRunResult,
    FluxSession,
    FragmentSink,
    MemoryGovernor,
    MetricsRegistry,
    MultiQueryEngine,
    MultiQueryRun,
    NaiveDomEngine,
    NullSink,
    OutputSink,
    PlanCache,
    PlanKey,
    PreparedQuery,
    PreparedQuerySet,
    ProjectionDomEngine,
    QueryRegistry,
    RunHandle,
    RunStatistics,
    SessionStatistics,
    StreamingRun,
    TraceReport,
    Tracer,
    WritableSink,
    compare_engines,
    global_registry,
    compile_to_flux,
    load_dtd,
    parse_memory_budget,
    prometheus_text,
    run_queries,
    run_query,
    run_query_streaming,
    run_query_to_sink,
    validate_span_tree,
)

__version__ = "1.3.0"

__all__ = [
    "CollectSink",
    "CompiledQuery",
    "DEFAULT_OPTIONS",
    "DocumentResult",
    "ExecutionOptions",
    "FeedHandle",
    "FeedOptions",
    "FeedResult",
    "FluxEngine",
    "FluxRunResult",
    "FluxSession",
    "FragmentSink",
    "MemoryGovernor",
    "MetricsRegistry",
    "MultiQueryEngine",
    "MultiQueryRun",
    "NaiveDomEngine",
    "NullSink",
    "OutputSink",
    "PlanCache",
    "PlanKey",
    "PreparedQuery",
    "PreparedQuerySet",
    "ProjectionDomEngine",
    "QueryRegistry",
    "RunHandle",
    "RunStatistics",
    "SessionStatistics",
    "StreamingRun",
    "TraceReport",
    "Tracer",
    "WritableSink",
    "__version__",
    "compare_engines",
    "compile_to_flux",
    "global_registry",
    "load_dtd",
    "parse_memory_budget",
    "prometheus_text",
    "run_queries",
    "run_query",
    "run_query_streaming",
    "run_query_to_sink",
    "validate_span_tree",
]
