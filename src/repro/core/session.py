"""The session-oriented public API: prepare once, execute many times.

A :class:`FluxSession` is the long-lived object a service keeps per schema:

* **plan cache** -- ``session.prepare(query)`` returns a
  :class:`PreparedQuery` backed by an LRU :class:`PlanCache` keyed on the
  *normalized query text* and the DTD's stable
  :meth:`~repro.dtd.schema.DTD.fingerprint`.  Preparing the same query
  again skips parsing, scheduling and plan compilation entirely -- the
  expensive, perfectly cacheable step of FluX execution (the schedule
  depends only on query and DTD, never on the document).
* **unified execution** -- ``prepared.execute(document, sink=..., options=...)``
  replaces the old ``run`` / ``run_streaming`` / ``run_to_sink`` trio: where
  the output goes is a :mod:`~repro.pipeline.sinks` value, how the run
  behaves is one :class:`~repro.core.options.ExecutionOptions`.
* **push mode** -- ``prepared.open_run(sink)`` returns a
  :class:`~repro.engine.engine.RunHandle`: ``feed(chunk)`` / ``finish()``
  execute network-arriving documents incrementally, with every pipeline
  stage resumable across arbitrary chunk boundaries.
* **shared memory governance** -- a session constructed with a
  ``memory_budget`` owns one :class:`~repro.storage.governor.MemoryGovernor`
  for all of its runs, so the budget caps the *session's* resident buffered
  bytes, not each run separately.
* **multi-query** -- ``session.prepare_many({...})`` compiles through the
  same plan cache and executes all queries over one shared document pass
  (:mod:`repro.multiquery`), under the same governor.
* **cumulative telemetry** -- :class:`SessionStatistics` aggregates every
  completed run.

Typical service shape::

    with FluxSession(DTD_SOURCE, root_element="bib") as session:
        q = session.prepare(QUERY)             # compiled once, cached
        for document in documents:
            result = q.execute(document)       # plan reused, zero recompiles
        with q.open_run() as run:              # push mode: chunks, not docs
            for chunk in socket_chunks:
                run.feed(chunk)
        print(run.result.output, session.statistics.summary())
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.engine.engine import FluxEngine, FluxRunResult, RunHandle, StreamingRun, ensure_rooted
from repro.engine.stats import RunStatistics
from repro.feeds import FeedHandle
from repro.flux.ast import FluxExpr
from repro.multiquery import MultiQueryEngine, MultiQueryRun, QueryRegistry
from repro.obs.metrics import global_registry
from repro.storage.governor import MemoryGovernor
from repro.xmlstream.parser import DocumentSource
from repro.xquery.ast import ROOT_VARIABLE, XQExpr

#: Anything a session accepts as a query: source text, a parsed XQuery⁻
#: expression, or a ready-made FluX query.
QuerySource = Union[str, XQExpr, FluxExpr]

#: Default number of compiled plans a session retains.
DEFAULT_PLAN_CACHE_SIZE = 64

# Process-wide plan-cache telemetry (:mod:`repro.obs`): totals across every
# PlanCache instance, bumped alongside each cache's own counters -- plan
# lookups are per prepare(), far off any hot path.
_metrics = global_registry()
_CACHE_HITS = _metrics.counter("repro.plan_cache.hits.total", "Plan-cache lookups served from cache")
_CACHE_MISSES = _metrics.counter("repro.plan_cache.misses.total", "Plan-cache lookups that compiled")
_CACHE_EVICTIONS = _metrics.counter("repro.plan_cache.evictions.total", "Plans evicted by the LRU")


def _normalize_query(query: QuerySource) -> Tuple[str, str]:
    """A stable ``(kind, text)`` cache identity for a query argument.

    Source text is keyed after stripping *surrounding* whitespace only:
    whitespace inside the query can be significant (literal text in
    element constructors, string literals), so collapsing it could make
    two different queries share one plan.  AST arguments are keyed on
    their source rendering.  The kind tag keeps an XQuery⁻ source from
    ever colliding with a FluX source that happens to render identically.
    """
    if isinstance(query, str):
        return ("xquery", query.strip())
    if isinstance(query, FluxExpr):
        return ("flux", query.to_source())
    if isinstance(query, XQExpr):
        return ("xquery-ast", query.to_source())
    raise TypeError(f"not a query: {query!r}")


@dataclass(frozen=True)
class PlanKey:
    """Everything that determines a compiled plan, and nothing else."""

    query_kind: str
    query_text: str
    dtd_fingerprint: str
    projection: bool
    root_var: str
    apply_simplifications: bool
    require_safe: bool


class PlanCache:
    """A thread-safe LRU of compiled engines, with hit/miss/eviction counters.

    One cache can back any number of sessions (pass it to
    ``FluxSession(plan_cache=...)``); entries are keyed by
    :class:`PlanKey`, which embeds the DTD fingerprint, so sessions over
    different schemas never collide.  ``capacity=0`` disables retention
    (every lookup compiles).
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanKey, FluxEngine]" = OrderedDict()
        self._lock = threading.RLock()
        #: In-flight builds: key -> Event set when the build settles.
        self._building: Dict[PlanKey, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, key: PlanKey, builder) -> FluxEngine:
        """The cached engine for ``key``, building (and retaining) on miss.

        Builds are single-flight *per key* but run outside the cache lock:
        concurrent sessions asking for the same plan compile it exactly
        once, while hits for other keys are never blocked behind a slow
        compilation.  If a build fails, one waiter takes over.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    _CACHE_HITS.inc()
                    return entry
                pending = self._building.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._building[key] = pending
                    self.misses += 1
                    _CACHE_MISSES.inc()
                    break  # this thread builds
            pending.wait()
            # Either the entry is cached now (hit on the next loop), or the
            # build failed / was not retained and this thread takes over.
        try:
            engine = builder()
        except BaseException:
            with self._lock:
                del self._building[key]
            pending.set()  # a waiter takes over the build
            raise
        with self._lock:
            # Retain before signalling: a waiter must find the entry, not a
            # gap that would trigger a redundant second compilation.
            if self.capacity > 0:
                self._entries[key] = engine
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    _CACHE_EVICTIONS.inc()
            del self._building[key]
        pending.set()
        return engine

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self):
        """The cached keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict:
        """Counters and occupancy, for telemetry and tests."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


@dataclass
class SessionStatistics:
    """Cumulative counters over every completed run of a session.

    ``absorb`` locks: the session's documented threading contract allows
    concurrent (unbounded) runs, and each run folds its totals in here
    once at completion -- far off the hot path.
    """

    runs: int = 0
    feed_runs: int = 0
    input_events: int = 0
    input_bytes: int = 0
    output_events: int = 0
    output_bytes: int = 0
    elapsed_seconds: float = 0.0
    peak_buffered_bytes: int = 0
    peak_resident_bytes: int = 0
    spill_count: int = 0
    handler_executions: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def absorb(self, stats: RunStatistics, *, feed: bool = False) -> None:
        """Fold one completed run's statistics into the session totals."""
        with self._lock:
            self.runs += 1
            if feed:
                self.feed_runs += 1
            self.input_events += stats.input_events
            self.input_bytes += stats.input_bytes
            self.output_events += stats.output_events
            self.output_bytes += stats.output_bytes
            self.elapsed_seconds += stats.elapsed_seconds
            self.peak_buffered_bytes = max(self.peak_buffered_bytes, stats.peak_buffered_bytes)
            self.peak_resident_bytes = max(self.peak_resident_bytes, stats.peak_resident_bytes)
            self.spill_count += stats.spill_count
            self.handler_executions += stats.handler_executions

    def summary(self) -> str:
        """One line of session-lifetime telemetry."""
        return (
            f"runs={self.runs} (feed={self.feed_runs}) "
            f"in={self.input_events}ev/{self.input_bytes}B "
            f"out={self.output_events}ev/{self.output_bytes}B "
            f"peak-buffer={self.peak_buffered_bytes}B "
            f"spills={self.spill_count} "
            f"elapsed={self.elapsed_seconds:.3f}s"
        )


class PreparedQuery:
    """One compiled, cached plan bound to its session.

    All execution shapes share the plan:

    * :meth:`execute` -- pull a document through, output to any sink,
    * :meth:`stream` -- pull mode with lazily-yielded output fragments,
    * :meth:`open_run` -- push mode (``feed``/``finish``).
    """

    def __init__(self, session: "FluxSession", engine: FluxEngine, key: PlanKey):
        self.session = session
        self.engine = engine
        self.key = key

    # ------------------------------------------------------------ inspection

    @property
    def flux_source(self) -> str:
        """The scheduled FluX query in concrete syntax."""
        return self.engine.flux_source()

    @property
    def plan(self):
        """The compiled executor plan."""
        return self.engine.plan

    def describe_buffers(self) -> str:
        """Human-readable buffer trees (what the engine will buffer)."""
        return self.engine.describe_buffers()

    # ------------------------------------------------------------- execution

    def execute(
        self,
        document: DocumentSource,
        *,
        sink=None,
        options: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> FluxRunResult:
        """Execute over one document; the unified replacement for the trio.

        ``sink=None`` collects output into ``result.output`` (or only counts
        it with ``collect_output=False``); a writable object streams; an
        :class:`~repro.pipeline.sinks.OutputSink` instance is used directly.
        ``options`` (or keyword overrides of the session defaults) carry the
        per-run knobs.
        """
        options = self.session._resolve_options(options, overrides)
        governor, owned = self.session._governor_for(options)
        return self.engine.execute(
            document,
            sink=sink,
            options=options,
            governor=governor,
            owns_governor=owned,
            on_finish=self.session.statistics.absorb,
        )

    def stream(
        self,
        document: DocumentSource,
        *,
        options: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> StreamingRun:
        """Pull-mode run yielding serialized output fragments lazily."""
        options = self.session._resolve_options(options, overrides)
        governor, owned = self.session._governor_for(options)
        return self.engine.stream(
            document,
            options=options,
            governor=governor,
            owns_governor=owned,
            on_finish=self.session.statistics.absorb,
        )

    def open_run(
        self,
        sink=None,
        *,
        options: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> RunHandle:
        """Open a push-mode run: feed chunks as they arrive, then finish.

        Pass a :class:`~repro.pipeline.sinks.FragmentSink` to get each
        ``feed`` call's output back incrementally (duplex streaming), a
        writable to forward output as it is produced, or nothing to collect
        the result.
        """
        options = self.session._resolve_options(options, overrides)
        governor, owned = self.session._governor_for(options)
        return self.engine.open_run(
            sink=sink,
            options=options,
            governor=governor,
            owns_governor=owned,
            on_finish=lambda stats: self.session.statistics.absorb(stats, feed=True),
        )

    def open_feed(
        self,
        sink=None,
        *,
        options: Optional[ExecutionOptions] = None,
        on_document=None,
        on_heartbeat=None,
        resume_from: Optional[int] = None,
        **overrides,
    ) -> "FeedHandle":
        """Open a continuous feed: unboundedly many concatenated documents.

        Each document executes as its own push run over the shared compiled
        plan (buffers, statistics and attribution reset at every boundary),
        against the session's shared memory governor when one is
        configured.  ``on_document`` receives each sealed
        :class:`~repro.feeds.DocumentResult`; ``on_heartbeat`` fires every
        ``options.feed.heartbeat_interval_bytes`` fed bytes; ``resume_from``
        (or ``options.feed.resume_offset``) skips an already-processed
        stream prefix byte-exactly.  See :mod:`repro.feeds`.
        """
        options = self.session._resolve_options(options, overrides)
        governor, owned = self.session._governor_for(options)
        return self.engine.open_feed(
            sink=sink,
            options=options,
            governor=governor,
            owns_governor=owned,
            on_finish=lambda stats: self.session.statistics.absorb(stats, feed=True),
            on_document=on_document,
            on_heartbeat=on_heartbeat,
            resume_from=resume_from,
        )


class PreparedQuerySet:
    """N prepared queries that execute over one shared document pass.

    Built by :meth:`FluxSession.prepare_many`; each member plan came
    through the session's plan cache, and every pass shares the session's
    memory governor.  ``execute`` returns a
    :class:`~repro.multiquery.engine.MultiQueryRun` keyed by query name.
    """

    def __init__(self, session: "FluxSession", registry: QueryRegistry):
        self.session = session
        self.registry = registry

    @property
    def names(self) -> tuple:
        """The member query names, in preparation order."""
        return self.registry.names

    def __len__(self) -> int:
        return len(self.registry)

    def execute(
        self,
        document: DocumentSource,
        *,
        sinks: Optional[Mapping[str, object]] = None,
        options: Optional[ExecutionOptions] = None,
        **overrides,
    ) -> MultiQueryRun:
        """One shared scan + projection pass for all member queries.

        ``sinks`` maps query names to writables (every name must be
        covered); omitted, each query collects (or just counts) its own
        output per ``options.collect_output``.
        """
        options = self.session._resolve_options(options, overrides)
        shared = self.session._shared_governor(options)
        engine = MultiQueryEngine(
            self.registry,
            chunk_size=options.chunk_size,
            governor=shared,
            # With a per-run budget override the multi-query engine creates
            # (and closes) its own pass-scoped governor.
            memory_budget=None if shared is not None else options.memory_budget,
            memory_page_bytes=options.memory_page_bytes,
            join=options.join,
        )
        if sinks is not None:
            run = engine.run_to_sinks(
                document, sinks, expand_attrs=options.expand_attrs, trace=options.trace
            )
        else:
            run = engine.run(
                document,
                collect_output=options.collect_output,
                expand_attrs=options.expand_attrs,
                trace=options.trace,
            )
        for result in run.results.values():
            self.session.statistics.absorb(result.stats)
        return run


class FluxSession:
    """A long-lived execution context: one DTD, cached plans, shared budget.

    Parameters
    ----------
    dtd:
        DTD source text or a parsed :class:`~repro.dtd.schema.DTD`.
    root_element:
        Name of the document element (required unless the DTD already has
        an attached root).
    options:
        Session-default :class:`~repro.core.options.ExecutionOptions`;
        every run starts from these and may override per call.
    memory_budget / memory_page_bytes:
        Convenience spellings folded into ``options``: one governor shared
        by all of the session's runs caps resident buffered memory
        session-wide.
    plan_cache_size / plan_cache:
        Retained compiled plans (LRU), or an externally-shared
        :class:`PlanCache`.

    Sessions are context managers; :meth:`close` releases the shared
    governor's spill file.

    Threading: ``prepare``/``prepare_many`` are thread-safe (the plan
    cache locks; concurrent sessions compile each plan exactly once), and
    *unbounded* runs are independent.  The shared memory governor of a
    session-level ``memory_budget`` is deliberately lock-free -- admission
    accounting sits on the per-event hot path -- so **bounded runs of one
    session must not execute concurrently**; give each thread its own
    session (they can still share a ``plan_cache``) or pass per-run
    budgets via ``options`` (those governors are private to the run).
    """

    def __init__(
        self,
        dtd: Union[str, DTD],
        *,
        root_element: Optional[str] = None,
        options: Optional[ExecutionOptions] = None,
        memory_budget: Optional[int] = None,
        memory_page_bytes: Optional[int] = None,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        plan_cache: Optional[PlanCache] = None,
        root_var: str = ROOT_VARIABLE,
    ):
        schema = parse_dtd(dtd) if isinstance(dtd, str) else dtd
        self.dtd = ensure_rooted(schema, root_element)
        self.root_var = root_var
        self.options = ExecutionOptions.from_kwargs(
            options if options is not None else DEFAULT_OPTIONS,
            memory_budget=memory_budget,
            memory_page_bytes=memory_page_bytes,
        )
        self.cache = plan_cache if plan_cache is not None else PlanCache(plan_cache_size)
        self.statistics = SessionStatistics()
        self._fingerprint = self.dtd.fingerprint()
        self._governor: Optional[MemoryGovernor] = None
        self._governor_finalizer = None
        self._closed = False

    # -------------------------------------------------------------- prepare

    def prepare(
        self,
        query: QuerySource,
        *,
        projection: bool = True,
        apply_simplifications: bool = True,
        require_safe: bool = True,
    ) -> PreparedQuery:
        """Schedule and compile ``query`` (or fetch it from the plan cache).

        The keyword arguments are *compile-time* choices and are part of
        the cache key; per-run behaviour lives in
        :class:`~repro.core.options.ExecutionOptions` at execute time.
        """
        self._ensure_open()
        kind, text = _normalize_query(query)
        key = PlanKey(
            query_kind=kind,
            query_text=text,
            dtd_fingerprint=self._fingerprint,
            projection=projection,
            root_var=self.root_var,
            apply_simplifications=apply_simplifications,
            require_safe=require_safe,
        )
        engine = self.cache.get_or_build(
            key,
            lambda: FluxEngine(
                query,
                self.dtd,
                root_var=self.root_var,
                projection=projection,
                apply_simplifications=apply_simplifications,
                require_safe=require_safe,
            ),
        )
        return PreparedQuery(self, engine, key)

    def prepare_many(
        self,
        queries: Union[Mapping[str, QuerySource], Sequence[QuerySource]],
        *,
        projection: bool = True,
        apply_simplifications: bool = True,
        require_safe: bool = True,
    ) -> PreparedQuerySet:
        """Prepare N queries for shared-pass execution.

        ``queries`` is a mapping ``name -> query`` or a plain sequence
        (auto-named ``q0``, ``q1``, ...).  Every member compiles through
        the session's plan cache -- preparing a query solo and again in a
        set costs one compilation, not two.
        """
        self._ensure_open()
        if isinstance(queries, str):
            raise TypeError(
                "queries must be a mapping or a sequence of queries; "
                "for a single query use prepare(...)"
            )
        if not isinstance(queries, Mapping):
            queries = {f"q{index}": query for index, query in enumerate(queries)}
        if not queries:
            raise ValueError("prepare_many needs at least one query")
        registry = QueryRegistry(self.dtd, projection=projection)
        for name, query in queries.items():
            prepared = self.prepare(
                query,
                projection=projection,
                apply_simplifications=apply_simplifications,
                require_safe=require_safe,
            )
            registry.register_engine(name, prepared.engine)
        return PreparedQuerySet(self, registry)

    # ------------------------------------------------------------- one-shots

    def execute(
        self,
        query: QuerySource,
        document: DocumentSource,
        *,
        sink=None,
        options: Optional[ExecutionOptions] = None,
        projection: bool = True,
        **overrides,
    ) -> FluxRunResult:
        """Prepare (cached) and execute in one call."""
        prepared = self.prepare(query, projection=projection)
        return prepared.execute(document, sink=sink, options=options, **overrides)

    # ------------------------------------------------------------- internals

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("this FluxSession is closed")

    def _resolve_options(
        self, options: Optional[ExecutionOptions], overrides: dict
    ) -> ExecutionOptions:
        """Per-run options: the caller's (or the session defaults) plus
        keyword overrides.

        A session-level memory budget applies to *every* run, as the
        session contract promises: an explicit ``options`` object that
        does not set its own budget inherits the session's, so passing
        options for an unrelated knob can never silently unbound a run.
        """
        self._ensure_open()
        if options is None:
            base = self.options
        else:
            base = options
            if base.memory_budget is None and self.options.memory_budget is not None:
                base = base.replace(
                    memory_budget=self.options.memory_budget,
                    memory_page_bytes=self.options.memory_page_bytes,
                )
        return ExecutionOptions.from_kwargs(base, **overrides)

    def _shared_governor(self, options: ExecutionOptions) -> Optional[MemoryGovernor]:
        """The lazily-created session governor, when the run's budget matches
        the session's; ``None`` otherwise (no budget, or per-run override)."""
        if options.memory_budget is None:
            return None
        if (
            options.memory_budget == self.options.memory_budget
            and options.memory_page_bytes == self.options.memory_page_bytes
        ):
            if self._governor is None:
                self._governor = MemoryGovernor(
                    self.options.memory_budget, page_bytes=self.options.memory_page_bytes
                )
                # A session that is dropped without close() must not leak
                # the governor's spill file; the finalizer references only
                # the governor (close is idempotent), never the session.
                self._governor_finalizer = weakref.finalize(self, self._governor.close)
            return self._governor
        return None

    def _governor_for(self, options: ExecutionOptions) -> Tuple[Optional[MemoryGovernor], bool]:
        """The governor a run should use: ``(governor, run_owns_it)``.

        Runs whose budget matches the session's share the session governor
        (never closed by the run); a per-run override gets a private,
        run-owned governor.  No budget anywhere -> no governor.
        """
        shared = self._shared_governor(options)
        if shared is not None:
            return shared, False
        if options.memory_budget is None:
            return None, False
        return (
            MemoryGovernor(options.memory_budget, page_bytes=options.memory_page_bytes),
            True,
        )

    # ------------------------------------------------------------- telemetry

    def memory_telemetry(self) -> Optional[dict]:
        """The shared governor's counters, ``None`` when unbounded/unused."""
        return self._governor.telemetry() if self._governor is not None else None

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the session governor (spill file included).  Idempotent."""
        self._closed = True
        if self._governor_finalizer is not None:
            self._governor_finalizer()  # runs governor.close() exactly once
            self._governor_finalizer = None
        self._governor = None

    def __enter__(self) -> "FluxSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
