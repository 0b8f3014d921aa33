"""Always-on run telemetry: process-wide totals over every engine run.

Tracing is opt-in and per-run; *telemetry* is neither.  Every run --
traced or not, pull or push -- folds its finished
``RunStatistics`` into the global registry exactly once, from the
engine's finish path.  The cost is a handful of integer adds per *run*
(not per event or batch), which is why this can stay always-on.

The instruments registered here are the engine-layer slice of the
registry; the storage governor, the session plan cache, the multiquery
engine and the conformance oracle register their own counters at their
own layer.  Everything meets in :func:`repro.obs.metrics.global_registry`
and comes out through :func:`repro.obs.export.prometheus_text`.
"""

from __future__ import annotations

from .metrics import global_registry

_registry = global_registry()

RUNS_TOTAL = _registry.counter("repro.runs.total", "Finished engine runs")
RUNS_TRACED = _registry.counter("repro.runs.traced", "Runs executed with tracing on")
RUNS_PUSH = _registry.counter("repro.runs.push", "Runs driven through push-mode feeds")
INPUT_EVENTS = _registry.counter("repro.run.input_events.total", "Parser events consumed")
INPUT_BYTES = _registry.counter("repro.run.input_bytes.total", "Document bytes consumed")
OUTPUT_EVENTS = _registry.counter("repro.run.output_events.total", "Events emitted to sinks")
OUTPUT_BYTES = _registry.counter("repro.run.output_bytes.total", "Serialized bytes emitted to sinks")
SPILL_COUNT = _registry.counter("repro.run.spills.total", "Buffer pages spilled by the governor")
SPILL_BYTES = _registry.counter("repro.run.spill_bytes.total", "Encoded bytes written to spill storage")
PAGE_FAULTS = _registry.counter("repro.run.page_faults.total", "Spilled pages read back")
RUN_SECONDS = _registry.histogram("repro.run.seconds", "Wall time per run (seconds)")
FEEDS_TOTAL = _registry.counter("repro.feeds.total", "Finished continuous feeds")
FEED_DOCUMENTS = _registry.counter(
    "repro.feed.documents.total", "Documents completed by continuous feeds"
)
FEED_HEARTBEATS = _registry.counter(
    "repro.feed.heartbeats.total", "Heartbeat callbacks fired by continuous feeds"
)


def record_run(stats, *, traced: bool = False, push: bool = False) -> None:
    """Fold one finished run's statistics into the global totals."""
    RUNS_TOTAL.inc()
    if traced:
        RUNS_TRACED.inc()
    if push:
        RUNS_PUSH.inc()
    INPUT_EVENTS.inc(stats.input_events)
    INPUT_BYTES.inc(stats.input_bytes)
    OUTPUT_EVENTS.inc(stats.output_events)
    OUTPUT_BYTES.inc(stats.output_bytes)
    SPILL_COUNT.inc(stats.spill_count)
    SPILL_BYTES.inc(stats.spilled_bytes_written)
    PAGE_FAULTS.inc(stats.page_faults)
    RUN_SECONDS.observe(stats.elapsed_seconds)


def record_feed_document() -> None:
    """Count one completed feed document (its run is counted by record_run)."""
    FEED_DOCUMENTS.inc()


def record_feed_finished() -> None:
    """Count one cleanly-finished continuous feed."""
    FEEDS_TOTAL.inc()


def record_feed_heartbeat() -> None:
    """Count one fired feed heartbeat."""
    FEED_HEARTBEATS.inc()
