"""Per-layer probes for the traced run.

Every probe is a span recorded by the benchmark around a call into one
module's public function, over the workload's own documents and queries;
the program itself runs unmodified.  Layer metrics are span totals (or
differences of span totals where one public call contains another):

* ``xmlstream.tokenize`` -- ``repro.xmlstream.parser.iter_event_batches`` over each
  document: the batched tokenizer the pipeline's first stage runs (the
  per-event ``tokenize()`` generator is slower, so subtracting it from the
  pipeline would not isolate the later stages),
* ``fastpath.scan`` -- ``ByteScanner.scan_document`` with the keep-all table,
* ``pipeline.event_batches`` -- ``engine.pipeline.event_batches`` per query
  (tokenize + coalesce + project; ``pipeline.project_s`` subtracts the
  tokenize call made just before it, once per query),
* ``engine.execute`` -- ``PreparedQuery.execute`` per query
  (``engine.execute_s`` subtracts the document stages),
* ``multiquery.shared_pass`` -- ``PreparedQuerySet.execute`` over all queries,
* ``feeds.feed`` / ``feeds.tiny_doc`` -- ``FeedHandle.feed`` per chunk, and per
  minimal document (the per-document run set-up),
* ``dtd.load`` / ``compile.prepare_cold`` / ``compile.prepare_warm``.

Layers a workload does not reach by design (``storage.*`` without a memory
budget, ``serve.*`` outside the hub) read 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro import FluxSession, RunStatistics, load_dtd
from repro.fastpath import ByteScanner, TagTable, table_for_spec
from repro.xmark.dtd import XMARK_DTD_SOURCE
from repro.xmlstream.parser import iter_event_batches

from harness import Spans
from inputs import chunked

#: Engine stage names from ``ExecutionOptions(trace=True)`` reports; any
#: other stage a later engine reports is summed into ``obs.stage.other_s``.
STAGES = ("tokenize", "coalesce", "project", "scan", "materialize", "execute")

#: Minimal documents fed per query to time the per-document feed set-up.
TINY_DOCUMENTS = 50
TINY_DOCUMENT = b"<site></site>"


def load_schema():
    """DTD load as a user does it: parse the XMark DTD source, root ``site``."""
    return load_dtd(XMARK_DTD_SOURCE, root_element="site")


def stage_metrics(reports: Iterable) -> Dict[str, float]:
    """``obs.stage.*`` sums and the fast-path share from engine trace reports."""
    metrics = {f"obs.stage.{stage}_s": 0.0 for stage in STAGES + ("other",)}
    runs = fast = 0
    for report in reports:
        runs += 1
        fast += bool(report.fastpath)
        for stage in report.stages:
            key = f"obs.stage.{stage.name}_s"
            metrics[key if key in metrics else "obs.stage.other_s"] += stage.seconds
    metrics["pipeline.fastpath_share"] = fast / runs if runs else 0.0
    return metrics


def probe(spans: Spans, documents: List[bytes], queries: Dict[str, str], chunk_size: int) -> Dict[str, float]:
    """Time each layer over ``documents`` and ``queries``; see the module docs."""
    with spans.span("dtd.load"):
        dtd = load_schema()
    session = FluxSession(dtd)
    prepared = {}
    for name, text in queries.items():
        with spans.span("compile.prepare_cold"):
            prepared[name] = session.prepare(text)
    for text in queries.values():
        with spans.span("compile.prepare_warm"):
            session.prepare(text)
    shared = session.prepare_many(queries)

    counts = dict.fromkeys(
        ("xmlstream.events", "fastpath.events", "kept", "input", "buffered", "output"), 0
    )
    for document in documents:
        text = document.decode("utf-8")
        tags = TagTable()
        scanner = ByteScanner(tags, table_for_spec(None, tags))
        with spans.span("fastpath.scan"):
            counts["fastpath.events"] += sum(
                len(batch) for batch in scanner.scan_document(document, 64 * 1024)
            )
        # Tokenize, then the full document stages, then execute, back to back
        # per query: each difference is taken over adjacent calls, so the
        # host's drift between them stays small.
        for query in prepared.values():
            with spans.span("xmlstream.tokenize"):
                events = sum(len(batch) for batch in iter_event_batches(text, document_events=False))
            stats = RunStatistics()
            with spans.span("pipeline.event_batches"):
                kept = sum(len(batch) for batch in query.engine.pipeline.event_batches(text, stats=stats))
            with spans.span("engine.execute"):
                result = query.execute(text)
            counts["xmlstream.events"] += events
            counts["kept"] += kept
            counts["input"] += stats.input_events or kept
            counts["buffered"] += result.stats.total_buffered_events
            counts["output"] += result.stats.output_bytes
        with spans.span("multiquery.shared_pass"):
            shared.execute(text)

    stream = b"".join(documents)
    calls = 0
    for query in prepared.values():
        with query.open_feed() as feed:
            for chunk in chunked(stream, chunk_size):
                with spans.span("feeds.feed"):
                    feed.feed(chunk)
                calls += 1
        with query.open_feed() as feed:
            for _ in range(TINY_DOCUMENTS):
                with spans.span("feeds.tiny_doc"):
                    feed.feed(TINY_DOCUMENT)

    tokenize_s = spans.total("xmlstream.tokenize")
    batches_s = spans.total("pipeline.event_batches")
    execute_s = spans.total("engine.execute")
    shared_s = spans.total("multiquery.shared_pass")
    return {
        "dtd.load_s": spans.total("dtd.load"),
        "compile.prepare_cold_s": spans.total("compile.prepare_cold"),
        "compile.prepare_warm_s": spans.total("compile.prepare_warm"),
        "xmlstream.tokenize_s": tokenize_s / len(prepared),
        "xmlstream.events": counts["xmlstream.events"] // len(prepared),
        "fastpath.scan_s": spans.total("fastpath.scan"),
        "fastpath.events": counts["fastpath.events"],
        "pipeline.project_s": batches_s - tokenize_s,
        "pipeline.kept_ratio": counts["kept"] / counts["input"] if counts["input"] else 1.0,
        "engine.execute_s": execute_s - batches_s,
        "engine.buffered_events": counts["buffered"],
        "engine.output_bytes": counts["output"],
        "multiquery.shared_pass_s": shared_s,
        "multiquery.sharing_ratio": execute_s / shared_s,
        "feeds.per_chunk_us": 1e6 * spans.total("feeds.feed") / calls,
        "feeds.doc_setup_us": 1e6 * spans.total("feeds.tiny_doc") / (TINY_DOCUMENTS * len(prepared)),
    }
