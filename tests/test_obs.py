"""The observability subsystem (:mod:`repro.obs`).

Four concerns, mirroring the subsystem's contract:

* unit behaviour of the tracer and the metrics registry,
* **invisibility**: tracing on vs off must be byte-identical across every
  sink mode and both engine cores, with identical logical peaks,
* **well-formedness**: finished runs leave balanced span trees, even under
  push-mode feeds with adversarial chunk splits,
* **exporters**: deterministic golden files for the JSON-lines dump, the
  CLI table and the Prometheus text exposition, plus the ``REPRO_OBS_JSON``
  / ``REPRO_TRACE`` environment plumbing and the always-on run telemetry.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro import FluxEngine, FluxSession
from repro.core.options import ExecutionOptions
from repro.engine.stats import RunStatistics
from repro.obs import (
    MetricsRegistry,
    Observer,
    TraceReport,
    Tracer,
    global_registry,
    prometheus_text,
    trace_to_jsonl,
    use_tracing,
    validate_span_tree,
)
from repro.obs.tracer import SpanRecord
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(autouse=True)
def _obs_env_off(monkeypatch):
    """Tests control tracing explicitly; the CI matrix's env must not leak."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_OBS_JSON", raising=False)


@pytest.fixture(scope="module")
def xmark_doc():
    return generate_document(config_for_scale(0.02, seed=11))


def _engine(query: str) -> FluxEngine:
    return FluxEngine(BENCHMARK_QUERIES[query], xmark_dtd())


# ---------------------------------------------------------------- tracer


class _FakeClock:
    """Deterministic clock: every reading advances by an exact eighth."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.125
        return self.now


def test_tracer_records_nested_spans_with_counters():
    tracer = Tracer(clock=_FakeClock())
    with tracer.span("outer") as outer:
        tracer.add("events", 3)
        with tracer.span("inner"):
            tracer.add("events", 4)
        outer.add("batches")
    assert [r.name for r in tracer.records] == ["outer", "inner"]
    outer_rec, inner_rec = tracer.records
    assert outer_rec.parent == -1 and inner_rec.parent == 0
    assert inner_rec.start > outer_rec.start and inner_rec.end < outer_rec.end
    assert outer_rec.counters == {"events": 3, "batches": 1}
    assert inner_rec.counters == {"events": 4}
    assert tracer.open_spans == 0
    assert validate_span_tree(tracer.records) == []


def test_tracer_rejects_crossing_spans():
    tracer = Tracer()
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    with pytest.raises(RuntimeError, match="out of order"):
        outer.__exit__(None, None, None)
    inner.__exit__(None, None, None)
    outer.__exit__(None, None, None)


def test_validate_span_tree_flags_malformed_records():
    never_exited = SpanRecord("a", 0, -1, 1.0)
    backwards = SpanRecord("b", 1, -1, 5.0)
    backwards.end = 4.0
    parent = SpanRecord("p", 2, -1, 10.0)
    parent.end = 11.0
    crossing = SpanRecord("c", 3, 2, 10.5)
    crossing.end = 12.0  # ends after its parent
    problems = validate_span_tree([never_exited, backwards, parent, crossing])
    assert len(problems) == 3
    assert any("never exited" in p for p in problems)
    assert any("ends before it starts" in p for p in problems)
    assert any("crosses its parent" in p for p in problems)


# --------------------------------------------------------------- metrics


def test_registry_instruments_and_snapshot():
    registry = MetricsRegistry()
    counter = registry.counter("runs.total", "runs")
    counter.inc()
    counter.inc(4)
    gauge = registry.gauge("resident.bytes")
    gauge.set(128)
    live = registry.gauge("live.value", fn=lambda: 7)
    histogram = registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
    histogram.observe(0.05)
    histogram.observe(0.5)
    histogram.observe(99.0)

    assert counter.value == 5
    assert live.value == 7
    assert histogram.cumulative() == [(0.1, 1), (1.0, 2), (10.0, 2)]
    assert histogram.count == 3 and histogram.sum == pytest.approx(99.55)
    snapshot = registry.snapshot()
    assert snapshot["runs.total"] == 5
    assert snapshot["resident.bytes"] == 128
    assert snapshot["latency"] == {"count": 3, "sum": pytest.approx(99.55)}
    assert "runs.total" in registry and len(registry) == 4


def test_registry_registration_is_idempotent_and_type_checked():
    registry = MetricsRegistry()
    counter = registry.counter("x", "first wins")
    assert registry.counter("x", "ignored") is counter
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("x")
    registry.unregister("x")
    assert registry.gauge("x").kind == "gauge"


def test_global_registry_carries_engine_layer_metrics():
    names = set(
        instrument.name for instrument in global_registry().collect()
    )
    # One representative per instrumented layer: engine runtime, storage
    # governor, multiquery, session plan cache.
    assert "repro.runs.total" in names
    assert "repro.governor.evictions.total" in names
    assert "repro.multiquery.passes.total" in names
    assert "repro.plan_cache.hits.total" in names


# ---------------------------------------------- invisibility (byte identity)


def _run_mode(engine: FluxEngine, document: str, mode: str, options: ExecutionOptions):
    """Run one sink mode; returns (output_text, stats, trace_or_none)."""
    if mode == "collect":
        result = engine.execute(document, options=options)
        return result.output, result.stats, result.trace
    if mode == "writable":
        sink = io.StringIO()
        result = engine.execute(document, sink=sink, options=options)
        return sink.getvalue(), result.stats, result.trace
    if mode == "stream":
        run = engine.stream(document, options=options)
        text = "".join(run)
        return text, run.stats, run.trace
    if mode == "push":
        handle = engine.open_run(options=options)
        data = document.encode("utf-8")
        for start in range(0, len(data), 777):
            handle.feed(data[start : start + 777])
        result = handle.finish()
        return result.output, result.stats, result.trace
    raise AssertionError(mode)


@pytest.mark.parametrize("mode", ["collect", "writable", "stream", "push"])
@pytest.mark.parametrize("bounded", [False, True])
def test_tracing_is_invisible_across_sink_modes(xmark_doc, mode, bounded):
    engine = _engine("Q8")
    # Bounded runs spill Q8's buffers: tracing must stay invisible there too.
    base = ExecutionOptions(memory_budget=4096 if bounded else None)
    plain_out, plain_stats, plain_trace = _run_mode(engine, xmark_doc, mode, base)
    traced_out, traced_stats, trace = _run_mode(
        engine, xmark_doc, mode, base.replace(trace=True)
    )
    assert plain_trace is None
    assert traced_out == plain_out
    assert traced_stats.input_events == plain_stats.input_events
    assert traced_stats.peak_buffered_bytes == plain_stats.peak_buffered_bytes
    assert traced_stats.peak_buffered_events == plain_stats.peak_buffered_events
    assert isinstance(trace, TraceReport)
    assert validate_span_tree(trace.spans) == []
    assert trace.stages and trace.stage_seconds > 0.0
    assert trace.fastpath is True
    assert trace.mode == ("push" if mode == "push" else ("stream" if mode == "stream" else "pull"))


@pytest.mark.parametrize("stride", [1, 7, 64])
def test_push_feed_span_tree_survives_adversarial_splits(stride):
    document = (
        "<site><regions><namerica>"
        + "<item id=\"i1\"><name>one &amp; two</name></item>" * 6
        + "</namerica></regions></site>"
    )
    engine = FluxEngine(BENCHMARK_QUERIES["Q1"], xmark_dtd())
    reference = engine.execute(document).output
    handle = engine.open_run(options=ExecutionOptions(trace=True))
    data = document.encode("utf-8")
    for start in range(0, len(data), stride):
        handle.feed(data[start : start + stride])
    result = handle.finish()
    assert result.output == reference
    assert result.trace is not None and result.trace.mode == "push"
    assert validate_span_tree(result.trace.spans) == []
    # Every span closed: scan, materialize and execute per fed chunk, one
    # final execute for the tail -- none left open by the feed protocol.
    assert all(span.end is not None for span in result.trace.spans)


def test_abandoned_traced_stream_leaves_no_open_spans(xmark_doc):
    engine = _engine("Q1")
    run = engine.stream(xmark_doc, options=ExecutionOptions(trace=True))
    iterator = iter(run)
    next(iterator, None)  # consume one fragment, then walk away
    run.close()


def test_multiquery_trace_is_invisible_and_pass_scoped(xmark_doc):
    plain_session = FluxSession(xmark_dtd())
    traced_session = FluxSession(xmark_dtd(), options=ExecutionOptions(trace=True))
    queries = {"Q1": BENCHMARK_QUERIES["Q1"], "Q13": BENCHMARK_QUERIES["Q13"]}
    plain = plain_session.prepare_many(queries).execute(xmark_doc)
    traced = traced_session.prepare_many(queries).execute(xmark_doc)
    assert plain.trace is None
    assert traced.outputs() == plain.outputs()
    assert traced.trace is not None and traced.trace.mode == "multiquery"
    assert validate_span_tree(traced.trace.spans) == []
    stage_names = [stage.name for stage in traced.trace.stages]
    assert "scan" in stage_names and "execute" in stage_names


# ------------------------------------------------------------- environment


def test_env_trace_resolution(monkeypatch):
    assert use_tracing(None) is False
    assert use_tracing(True) is True
    monkeypatch.setenv("REPRO_TRACE", "0")
    assert use_tracing(True) is False
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert use_tracing(None) is True
    monkeypatch.delenv("REPRO_TRACE")
    monkeypatch.setenv("REPRO_OBS_JSON", "/tmp/somewhere.jsonl")
    assert use_tracing(None) is True
    assert use_tracing(False) is False  # an explicit off still wins over the dump


def test_env_var_forces_tracing_on_runs(xmark_doc, monkeypatch):
    engine = _engine("Q1")
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert engine.execute(xmark_doc).trace is not None
    monkeypatch.setenv("REPRO_TRACE", "0")
    forced_off = engine.execute(xmark_doc, options=ExecutionOptions(trace=True))
    assert forced_off.trace is None


def test_obs_json_env_appends_one_trace_per_run(xmark_doc, monkeypatch, tmp_path):
    path = tmp_path / "traces.jsonl"
    monkeypatch.setenv("REPRO_OBS_JSON", str(path))
    engine = _engine("Q1")
    engine.execute(xmark_doc)
    engine.execute(xmark_doc)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    headers = [row for row in rows if row["record"] == "run"]
    spans = [row for row in rows if row["record"] == "span"]
    assert len(headers) == 2 and spans
    assert headers[0]["mode"] == "pull"
    stage_names = {stage["stage"] for stage in headers[0]["stages"]}
    assert {"scan", "materialize", "execute"} <= stage_names
    # Run ids separate the appended dumps.
    assert headers[0]["run"] != headers[1]["run"]
    assert all(span["run"] in {h["run"] for h in headers} for span in spans)


def test_run_telemetry_folds_every_run(xmark_doc):
    registry = global_registry()
    engine = _engine("Q13")
    before = registry.snapshot()
    engine.execute(xmark_doc)
    engine.execute(xmark_doc, options=ExecutionOptions(trace=True))
    after = registry.snapshot()
    assert after["repro.runs.total"] - before["repro.runs.total"] == 2
    assert after["repro.runs.traced"] - before["repro.runs.traced"] == 1
    assert after["repro.run.input_bytes.total"] > before["repro.run.input_bytes.total"]
    assert (
        after["repro.run.seconds"]["count"] - before["repro.run.seconds"]["count"] == 2
    )


# --------------------------------------------------------------- exporters


def _golden_report() -> TraceReport:
    """A fully deterministic report: fake clock, fixed statistics."""
    observer = Observer(Tracer(clock=_FakeClock()))
    with observer.tracer.span("tokenize") as span:
        observer.tracer.add("events", 3)
    observer.stage("tokenize").charge(span.record.seconds, 3)
    with observer.tracer.span("execute") as span:
        with observer.tracer.span("flush"):
            pass
    observer.stage("execute").charge(span.record.seconds, 2)
    stats = RunStatistics(input_bytes=1000, output_bytes=64, elapsed_seconds=1.0)
    return observer.finish(stats)


def _golden(name: str) -> str:
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as handle:
        return handle.read()


def test_jsonl_exporter_matches_golden():
    assert trace_to_jsonl(_golden_report(), run=7) == _golden("obs_trace_golden.jsonl")


def test_table_matches_golden():
    assert _golden_report().table() + "\n" == _golden("obs_table_golden.txt")


def test_prometheus_exposition_matches_golden():
    registry = MetricsRegistry()
    runs = registry.counter("repro.runs.total", "Completed runs")
    runs.inc(3)
    registry.gauge("repro.resident.bytes", "Resident buffered bytes").set(4096)
    latency = registry.histogram("repro.run.seconds", "Run latency", buckets=(0.1, 1.0))
    latency.observe(0.05)
    latency.observe(0.25)
    assert prometheus_text(registry) == _golden("obs_prometheus_golden.txt")


def test_report_to_dict_round_trips_through_json():
    report = _golden_report()
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["mode"] == "pull"
    assert [s["stage"] for s in payload["stages"]] == ["tokenize", "execute"]
    assert len(payload["spans"]) == 3


# ------------------------------------------------------------------- CLI


def test_cli_trace_stage_sum_within_five_percent_of_wall(capsys):
    from repro.cli import main

    for _ in range(3):  # noisy-host guard: any clean attempt passes
        code = main(
            ["xmark", "--query", "Q1", "--scale", "0.05", "--discard-output", "--trace"]
        )
        assert code == 0
        err = capsys.readouterr().err
        total_line = next(line for line in err.splitlines() if line.startswith("total"))
        share = float(total_line.split()[2])
        if share >= 95.0:
            break
    assert share >= 95.0, f"stage sum covers only {share}% of wall:\n{err}"
    assert ("tokenize" in err or "scan" in err) and "execute" in err
    assert "mode: pull" in err
