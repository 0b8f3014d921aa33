"""Command-line interface.

The CLI exposes the end-to-end pipeline for experimentation without writing
Python code::

    python -m repro compile  --query q.xq --dtd bib.dtd --root bib
    python -m repro run      --query q.xq --dtd bib.dtd --root bib --document doc.xml
    python -m repro multirun --query Q1 --query Q13 --query Q20 --document doc.xml
    python -m repro compare  --query q.xq --dtd bib.dtd --root bib --document doc.xml
    python -m repro validate --dtd bib.dtd --root bib --document doc.xml
    python -m repro generate --scale 0.2 --output xmark.xml
    python -m repro xmark    --query Q13 --scale 0.1
    python -m repro fuzz     --seed 1 --cases 200
    python -m repro fuzz     --replay fuzz-failures/seed1-case23.case
    python -m repro feed     --query Q1 --documents 100 --chunk-size 4096
    python -m repro feed     --query q.xq --dtd bib.dtd --root bib --input stream.xml
    python -m repro serve    --documents 1000 --port 9901
    python -m repro subscribe --query Q1 --query Q13 --port 9901
    python -m repro inspect  crash-dumps/repro-1234-1.crash.json

``compile`` prints the scheduled FluX query and the buffer trees; ``run``
executes a query and reports the output (optionally to a file) together with
the buffer statistics; ``multirun`` executes several queries over *one*
shared document pass (repeat ``--query``, optionally one ``--output`` per
query; ``--stats`` prints a per-query summary table); ``compare`` runs the
FluX engine and both baselines; ``generate`` produces XMark-like documents;
``xmark`` runs one of the benchmark queries on generated data.

``run``, ``multirun`` and ``xmark`` accept ``--memory-budget BYTES`` (k/m/g
suffixes allowed): resident buffered memory is then hard-capped and cold
buffer pages spill to a temp file, with output byte-identical to the
unbounded run.  The same three commands accept ``--trace``, which prints a
per-stage time/bytes/events breakdown table (:mod:`repro.obs`) to stderr
after the run; tracing never changes the output.

``run`` and ``multirun`` additionally accept ``--explain-buffers`` (the
per-owner buffer attribution table: who held the peak bytes, and which
plan decision blocked streaming) and ``--serve-metrics PORT`` (a
background ``/metrics`` + ``/progress`` HTTP endpoint on ``127.0.0.1``
for the duration of the command).  ``inspect`` renders the
``*.crash.json`` forensic dumps the flight recorder writes when
``REPRO_CRASH_DIR`` is set and an engine error aborts a run.

``feed`` runs one prepared query as a continuous feed
(:mod:`repro.feeds`) over a stream of concatenated documents: either the
synthetic XMark auction ticker (default; ``--documents``/``--scale``/
``--seed`` shape it) or a file of concatenated documents (``--input``,
with ``--dtd``/``--root`` naming their schema).  The stream is cut into
``--chunk-size``-byte chunks, so document boundaries land mid-chunk; the
summary line reports documents/second and the final resume offset, and
``--resume-from`` skips an already-processed prefix (the crash-recovery
recipe: pass the resume offset a previous run printed or dumped).

``serve`` runs the streaming subscription server (:mod:`repro.serve`):
one shared scan + projection pass over a live feed (the
XMark ticker, a file of concatenated documents, or client-pushed chunks
with ``--client-fed``), fanned out to any number of subscribed queries
over NDJSON-over-TCP.  ``subscribe`` is the matching client: it
registers one or more queries (``--query``, repeatable) on a running
server and streams their results to stdout until ``eof``.

``fuzz`` drives the randomized conformance harness
(:mod:`repro.conformance`): ``--seed``/``--cases`` sweep generated
(DTD, document, queries) triples through every engine and sink mode,
failing cases are shrunk and saved as replayable ``.case`` files, and
``--replay FILE`` re-checks one such file.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, Sequence

from repro.baselines import NaiveDomEngine, ProjectionDomEngine
from repro.core.api import compile_to_flux, load_dtd
from repro.core.options import ExecutionOptions
from repro.core.session import FluxSession
from repro.engine.engine import FluxEngine
from repro.dtd.validator import validate_document
from repro.storage import parse_memory_budget
from repro.xmark.dtd import XMARK_DTD_SOURCE
from repro.xmark.generator import config_for_scale, write_document, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import DEFAULT_TICK_SCALE, iter_ticker_chunks
from repro.xmlstream.parser import iter_events


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_schema(args) -> "DTD":
    if args.dtd is None:
        return load_dtd(XMARK_DTD_SOURCE, root_element=args.root or "site")
    return load_dtd(_read(args.dtd), root_element=args.root)


def _add_schema_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dtd", help="path to the DTD file (defaults to the built-in XMark DTD)")
    parser.add_argument("--root", help="name of the document element", default=None)


def _add_query_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--query",
        required=True,
        help="path to the XQuery- file, or the name of a built-in XMark query (Q1, Q8, Q11, Q13, Q20)",
    )


def _resolve_query(argument: str) -> str:
    if argument in BENCHMARK_QUERIES:
        return BENCHMARK_QUERIES[argument]
    return _read(argument)


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "trace the run and print a per-stage time/bytes/events breakdown "
            "to stderr (REPRO_TRACE overrides); output is unchanged"
        ),
    )


def _add_memory_budget_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory-budget",
        type=parse_memory_budget,
        default=None,
        metavar="BYTES",
        help=(
            "hard cap on resident buffered memory (accepts k/m/g suffixes, "
            "e.g. 32m); cold buffer pages spill to a temp file, output is "
            "unchanged"
        ),
    )


def _add_serve_metrics_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve /metrics (Prometheus text) and /progress (JSON watermarks "
            "of open push-mode runs) on 127.0.0.1:PORT while the command "
            "runs (0 picks an ephemeral port); output is unchanged"
        ),
    )


def _serve_metrics_banner(port) -> None:
    """Start the inspection server for a CLI run and say where it listens."""
    if port is None:
        return
    from repro.obs.serve import ensure_server

    server = ensure_server(port)
    print(
        f"serving /metrics and /progress on http://127.0.0.1:{server.port}",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_compile(args) -> int:
    schema = _load_schema(args)
    compiled = compile_to_flux(_resolve_query(args.query), schema)
    print("--- scheduled FluX query ---")
    print(compiled.flux_source)
    if args.show_normalized:
        print("\n--- normalised XQuery- ---")
        print(compiled.normalized_source)
    engine = FluxEngine(compiled.flux, schema)
    print("\n--- buffer trees ---")
    print(engine.describe_buffers())
    print(f"\nsafe for the DTD: {compiled.is_safe}")
    return 0


def _cmd_run(args) -> int:
    if args.output and args.discard_output:
        print("error: --output and --discard-output are mutually exclusive", file=sys.stderr)
        return 2
    _serve_metrics_banner(args.serve_metrics)
    session = FluxSession(
        _load_schema(args),
        options=ExecutionOptions(
            memory_budget=args.memory_budget,
            trace=True if args.trace else None,
            serve_metrics=args.serve_metrics,
        ),
    )
    prepared = session.prepare(
        _resolve_query(args.query), projection=not args.no_projection
    )
    if args.output:
        # Stream fragments straight to the file: the result never exists as
        # one in-memory string, however large it is.
        with open(args.output, "w", encoding="utf-8") as handle:
            result = prepared.execute(args.document, sink=handle)
    else:
        result = prepared.execute(args.document, collect_output=not args.discard_output)
        if not args.discard_output:
            print(result.output)
    print(result.stats.summary(), file=sys.stderr)
    if args.explain_buffers:
        from repro.obs.attrib import format_attribution

        print(format_attribution(result.stats), file=sys.stderr)
    if result.trace is not None:
        print(result.trace.table(), file=sys.stderr)
    return 0


def _cmd_multirun(args) -> int:
    if args.output and args.discard_output:
        print("error: --output and --discard-output are mutually exclusive", file=sys.stderr)
        return 2
    schema = _load_schema(args)
    if args.output and len(args.output) != len(args.query):
        print(
            f"error: {len(args.query)} queries but {len(args.output)} --output paths "
            "(pass exactly one per query, or none)",
            file=sys.stderr,
        )
        return 2

    _serve_metrics_banner(args.serve_metrics)
    session = FluxSession(
        schema,
        options=ExecutionOptions(
            memory_budget=args.memory_budget,
            trace=True if args.trace else None,
            serve_metrics=args.serve_metrics,
        ),
    )
    queries = {}
    names = []
    for argument in args.query:
        name = argument
        suffix = 2
        while name in queries:
            name = f"{argument}#{suffix}"
            suffix += 1
        queries[name] = _resolve_query(argument)
        names.append(name)
    prepared = session.prepare_many(queries, projection=not args.no_projection)

    if args.output:
        with contextlib.ExitStack() as stack:
            sinks = {
                name: stack.enter_context(open(path, "w", encoding="utf-8"))
                for name, path in zip(names, args.output)
            }
            run = prepared.execute(args.document, sinks=sinks)
    else:
        run = prepared.execute(args.document, collect_output=not args.discard_output)
        if not args.discard_output:
            for name in names:
                print(f"--- {name} ---")
                print(run[name].output)
    for name in names:
        print(f"{name}: {run[name].stats.summary()}", file=sys.stderr)
    if args.explain_buffers:
        from repro.obs.attrib import format_attribution

        for name in names:
            print(f"--- {name} buffers ---", file=sys.stderr)
            print(format_attribution(run[name].stats), file=sys.stderr)
    print(
        f"shared pass over {len(names)} queries: {run.elapsed_seconds:.3f}s total",
        file=sys.stderr,
    )
    if args.stats:
        _print_multirun_stats(run, names)
    if run.trace is not None:
        print(run.trace.table(), file=sys.stderr)
    return 0


def _print_multirun_stats(run, names) -> None:
    """The ``multirun --stats`` per-query summary table (to stderr)."""
    headers = (
        "query", "in events", "out bytes", "peak buffer [B]",
        "peak resident [B]", "spill bytes", "evictions",
    )
    rows = []
    for name in names:
        stats = run[name].stats
        rows.append((
            name,
            str(stats.input_events),
            str(stats.output_bytes),
            str(stats.peak_buffered_bytes),
            str(stats.peak_resident_bytes),
            str(stats.spilled_bytes_written),
            str(stats.spill_count),
        ))
    widths = [
        max(len(header), *(len(row[column]) for row in rows))
        for column, header in enumerate(headers)
    ]

    def render(cells) -> str:
        # The query name is the only text column; every number right-aligns.
        rest = (cell.rjust(widths[i]) for i, cell in enumerate(cells) if i > 0)
        return "  ".join([cells[0].ljust(widths[0]), *rest]).rstrip()

    print(render(headers), file=sys.stderr)
    for row in rows:
        print(render(row), file=sys.stderr)
    if run.memory is not None:
        memory = run.memory
        print(
            f"memory budget: {memory['budget_bytes']}B "
            f"(page {memory['page_bytes']}B) "
            f"peak-resident={memory['peak_resident_bytes']}B "
            f"spills={memory['spill_count']} pages/"
            f"{memory['spilled_bytes_written']}B "
            f"faults={memory['fault_count']} pages/"
            f"{memory['spilled_bytes_read']}B",
            file=sys.stderr,
        )


def _cmd_compare(args) -> int:
    schema = _load_schema(args)
    query = _resolve_query(args.query)
    # A path is handed to each engine as-is: every engine resolves document
    # sources itself (the FluX pipeline reads it incrementally -- mmap on
    # the fast path -- instead of one whole-file read here).
    document = args.document

    flux = FluxEngine(query, schema).run(document, collect_output=True)
    naive = NaiveDomEngine(query).run(document)
    projection = ProjectionDomEngine(query).run(document)

    agree = flux.output == naive.output == projection.output
    print(f"{'engine':>16} {'time [s]':>10} {'peak memory [B]':>16}")
    print(f"{'flux':>16} {flux.stats.elapsed_seconds:>10.3f} {flux.stats.peak_buffered_bytes:>16}")
    print(f"{'naive-dom':>16} {naive.elapsed_seconds:>10.3f} {naive.peak_buffered_bytes:>16}")
    print(f"{'projection-dom':>16} {projection.elapsed_seconds:>10.3f} {projection.peak_buffered_bytes:>16}")
    print(f"outputs identical: {agree}")
    return 0 if agree else 1


def _cmd_validate(args) -> int:
    schema = _load_schema(args)
    report = validate_document(schema, iter_events(args.document), expected_root=args.root)
    if report.is_valid:
        print(f"valid ({report.element_count} elements)")
        return 0
    print(f"INVALID ({len(report.errors)} errors)")
    for error in report.errors[: args.max_errors]:
        print(f"  - {error}")
    return 1


def _cmd_generate(args) -> int:
    config = config_for_scale(args.scale, seed=args.seed)
    if args.output:
        written = write_document(args.output, config)
        print(f"wrote {written} bytes to {args.output}")
    else:
        sys.stdout.write(generate_document(config))
    return 0


def _cmd_xmark(args) -> int:
    schema = load_dtd(XMARK_DTD_SOURCE, root_element="site")
    document = generate_document(config_for_scale(args.scale, seed=args.seed))
    query = BENCHMARK_QUERIES[args.query]
    session = FluxSession(
        schema,
        options=ExecutionOptions(
            memory_budget=args.memory_budget,
            trace=True if args.trace else None,
        ),
    )
    result = session.prepare(query, projection=not args.no_projection).execute(
        document, collect_output=not args.discard_output
    )
    if not args.discard_output and args.show_output:
        print(result.output)
    line = (
        f"{args.query} on {len(document)} bytes: "
        f"time={result.stats.elapsed_seconds:.3f}s "
        f"peak-buffer={result.stats.peak_buffered_bytes}B "
        f"output={result.stats.output_bytes}B"
    )
    if args.memory_budget is not None:
        line += (
            f" peak-resident={result.stats.peak_resident_bytes}B "
            f"spills={result.stats.spill_count} "
            f"spill-bytes={result.stats.spilled_bytes_written}B "
            f"evictions={result.stats.spill_count}"
        )
    print(line)
    if result.trace is not None:
        print(result.trace.table(), file=sys.stderr)
    return 0


def _iter_file_chunks(path: str, chunk_size: int):
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                return
            yield chunk


def _cmd_feed(args) -> int:
    import time

    if args.chunk_size <= 0:
        print("error: --chunk-size must be positive", file=sys.stderr)
        return 2
    if args.input is None:
        schema = load_dtd(XMARK_DTD_SOURCE, root_element=args.root or "site")
        chunks = iter_ticker_chunks(
            documents=args.documents,
            seed=args.seed,
            scale=args.scale,
            chunk_size=args.chunk_size,
        )
        source = f"ticker({args.documents} docs, scale {args.scale}, seed {args.seed})"
    else:
        schema = _load_schema(args)
        chunks = _iter_file_chunks(args.input, args.chunk_size)
        source = args.input

    _serve_metrics_banner(args.serve_metrics)
    session = FluxSession(
        schema,
        options=ExecutionOptions(
            memory_budget=args.memory_budget,
            serve_metrics=args.serve_metrics,
        ),
    )
    prepared = session.prepare(_resolve_query(args.query))

    def on_document(document) -> None:
        if args.show_output:
            print(document.result.output)
        if args.verbose:
            print(
                f"doc {document.index}: bytes "
                f"[{document.start_offset}, {document.end_offset}) "
                f"output={document.result.stats.output_bytes}B "
                f"peak-buffer={document.result.stats.peak_buffered_bytes}B",
                file=sys.stderr,
            )

    def on_heartbeat(progress) -> None:
        print(
            f"heartbeat: {progress['bytes_fed']}B fed, "
            f"{progress['documents_completed']} documents, "
            f"resume offset {progress['resume_offset']}",
            file=sys.stderr,
        )

    started = time.perf_counter()
    with prepared.open_feed(
        on_document=on_document,
        on_heartbeat=on_heartbeat if args.heartbeat else None,
        resume_from=args.resume_from,
    ) as feed:
        for chunk in chunks:
            feed.feed(chunk)
    elapsed = time.perf_counter() - started
    summary = feed.result
    rate = summary.documents_completed / elapsed if elapsed > 0 else float("inf")
    print(
        f"feed over {source}: {summary.documents_completed} documents, "
        f"{summary.bytes_fed} bytes in {elapsed:.3f}s ({rate:.1f} docs/s), "
        f"resume offset {summary.resume_offset}"
    )
    return 0


def _cmd_serve(args) -> int:
    import time

    from repro.serve import ServeServer, SubscriptionHub

    if args.chunk_size <= 0:
        print("error: --chunk-size must be positive", file=sys.stderr)
        return 2
    _serve_metrics_banner(args.serve_metrics)
    hub = SubscriptionHub(
        _load_schema(args),
        options=ExecutionOptions(
            memory_budget=args.memory_budget,
            serve_metrics=args.serve_metrics,
        ),
    )
    if args.client_fed:
        chunks = None
        source = "client-fed stream"
    elif args.input is not None:
        chunks = _iter_file_chunks(args.input, args.chunk_size)
        source = args.input
    else:
        chunks = iter_ticker_chunks(
            documents=args.documents,
            seed=args.seed,
            scale=args.scale,
            chunk_size=args.chunk_size,
        )
        source = f"ticker({args.documents} docs, scale {args.scale}, seed {args.seed})"

    server = ServeServer(hub, host=args.host, port=args.port, chunks=chunks)
    server.start()
    print(f"subscription server on {args.host}:{server.port} ({source})", flush=True)
    try:
        server.join()
        # Give connected subscribers a window to drain their queues and
        # receive ``eof`` before the socket goes away.
        deadline = time.monotonic() + args.linger
        while time.monotonic() < deadline:
            if all(c.eof_sent or c.closed for c in list(server._connections)):
                break
            time.sleep(0.05)
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        server.stop()
    progress = hub.progress()
    print(
        f"served {progress['documents_completed']} documents, "
        f"{progress['bytes_fed']} bytes; fanout attaches={progress['fanout']['attaches']} "
        f"detaches={progress['fanout']['detaches']} recompiles={progress['fanout']['recompiles']}"
    )
    return 1 if server.engine_error is not None else 0


def _resolve_subscribe_query(argument: str) -> str:
    # Built-in names travel as-is (the server resolves them); anything else
    # must be a local query file whose text goes over the wire.
    if argument in BENCHMARK_QUERIES:
        return argument
    return _read(argument)


def _cmd_subscribe(args) -> int:
    from repro.serve import SubscribeClient

    queries = [_resolve_subscribe_query(q) for q in args.query]
    results = 0
    status = 0
    try:
        with SubscribeClient(args.host, args.port, timeout=args.timeout) as client:
            for query in queries:
                client.subscribe(query, policy=args.policy, max_queue=args.max_queue)
            for frame in client.frames():
                event = frame.get("event")
                if event == "subscribed":
                    print(f"subscribed as {frame['name']}", file=sys.stderr)
                elif event == "result":
                    results += 1
                    if not args.quiet:
                        print(frame["output"], end="")
                        if frame["output"] and not frame["output"].endswith("\n"):
                            print()
                    if args.max_results is not None and results >= args.max_results:
                        break
                elif event == "error":
                    print(f"server error: {frame.get('message')}", file=sys.stderr)
                    status = 1
                elif event == "eof":
                    break
    except (ConnectionError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"{results} results received", file=sys.stderr)
    return status


def _cmd_inspect(args) -> int:
    from repro.obs.recorder import inspect_crash

    status = 0
    for path in args.dump:
        try:
            print(inspect_crash(path))
        except (OSError, ValueError) as error:
            print(f"error: cannot inspect {path}: {error}", file=sys.stderr)
            status = 1
    return status


def _cmd_fuzz(args) -> int:
    from repro.conformance import ConformanceFailure, fuzz, replay

    if args.replay:
        failures = 0
        for path in args.replay:
            try:
                report = replay(path)
            except ConformanceFailure as failure:
                failures += 1
                print(f"{path}: FAIL")
                for divergence in failure.divergences:
                    print(f"  - {divergence}")
            else:
                facts = []
                if report.buffered:
                    facts.append("buffered")
                if report.forced_spills:
                    facts.append("forced spills")
                print(f"{path}: PASS ({', '.join(facts) if facts else 'streaming-only'})")
        return 1 if failures else 0

    def progress(index, case_report):
        if args.verbose:
            verdict = "ok" if case_report.passed else "FAIL"
            print(f"case {index}: {verdict} ({case_report.case.describe()})", file=sys.stderr)

    report = fuzz(
        args.seed,
        args.cases,
        start=args.start,
        save_dir=args.save_dir,
        max_queries=args.max_queries,
        shrink=not args.no_shrink,
        on_case=progress,
    )
    print(report.summary())
    for failure in report.failures:
        print(failure.summary())
        for divergence in failure.divergences[:5]:
            print(f"  - {divergence}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FluX: schema-based scheduling for queries on XML streams (VLDB 2004 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser("compile", help="schedule a query into FluX and show the buffers")
    _add_query_argument(compile_parser)
    _add_schema_arguments(compile_parser)
    compile_parser.add_argument("--show-normalized", action="store_true", help="also print the normalised query")
    compile_parser.set_defaults(handler=_cmd_compile)

    run_parser = subparsers.add_parser("run", help="execute a query over a document")
    _add_query_argument(run_parser)
    _add_schema_arguments(run_parser)
    run_parser.add_argument("--document", required=True, help="path to the XML document")
    run_parser.add_argument(
        "--output", help="stream the result to this file instead of stdout (never materialised)"
    )
    run_parser.add_argument("--discard-output", action="store_true", help="do not materialise the result")
    run_parser.add_argument(
        "--no-projection",
        action="store_true",
        help="disable the pre-executor projection filter (for comparisons)",
    )
    _add_memory_budget_argument(run_parser)
    _add_trace_argument(run_parser)
    _add_serve_metrics_argument(run_parser)
    run_parser.add_argument(
        "--explain-buffers",
        action="store_true",
        help=(
            "print the per-owner buffer attribution table (who held the "
            "peak bytes and which plan decision blocked streaming) to stderr"
        ),
    )
    run_parser.set_defaults(handler=_cmd_run)

    multirun_parser = subparsers.add_parser(
        "multirun", help="execute several queries over one shared document pass"
    )
    multirun_parser.add_argument(
        "--query",
        action="append",
        required=True,
        help="query to register (repeatable): a file path or a built-in XMark query name",
    )
    _add_schema_arguments(multirun_parser)
    multirun_parser.add_argument("--document", required=True, help="path to the XML document")
    multirun_parser.add_argument(
        "--output",
        action="append",
        help="output file for the corresponding --query (repeatable, one per query)",
    )
    multirun_parser.add_argument(
        "--discard-output", action="store_true", help="do not materialise any result"
    )
    multirun_parser.add_argument(
        "--no-projection",
        action="store_true",
        help="disable every query's projection filter in the merged pass",
    )
    _add_memory_budget_argument(multirun_parser)
    _add_trace_argument(multirun_parser)
    _add_serve_metrics_argument(multirun_parser)
    multirun_parser.add_argument(
        "--explain-buffers",
        action="store_true",
        help="print each query's per-owner buffer attribution table to stderr",
    )
    multirun_parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print a per-query summary table (events, peak buffered bytes, "
            "spill bytes, evictions) after the run"
        ),
    )
    multirun_parser.set_defaults(handler=_cmd_multirun)

    compare_parser = subparsers.add_parser("compare", help="run FluX and both baselines over a document")
    _add_query_argument(compare_parser)
    _add_schema_arguments(compare_parser)
    compare_parser.add_argument("--document", required=True, help="path to the XML document")
    compare_parser.set_defaults(handler=_cmd_compare)

    validate_parser = subparsers.add_parser("validate", help="validate a document against a DTD")
    _add_schema_arguments(validate_parser)
    validate_parser.add_argument("--document", required=True, help="path to the XML document")
    validate_parser.add_argument("--max-errors", type=int, default=20)
    validate_parser.set_defaults(handler=_cmd_validate)

    generate_parser = subparsers.add_parser("generate", help="generate an XMark-like document")
    generate_parser.add_argument("--scale", type=float, default=0.1, help="document scale (~MB)")
    generate_parser.add_argument("--seed", type=int, default=42)
    generate_parser.add_argument("--output", help="output file (stdout if omitted)")
    generate_parser.set_defaults(handler=_cmd_generate)

    xmark_parser = subparsers.add_parser("xmark", help="run a built-in benchmark query on generated data")
    xmark_parser.add_argument("--query", choices=sorted(BENCHMARK_QUERIES), default="Q13")
    xmark_parser.add_argument("--scale", type=float, default=0.1)
    xmark_parser.add_argument("--seed", type=int, default=42)
    xmark_parser.add_argument("--show-output", action="store_true")
    xmark_parser.add_argument("--discard-output", action="store_true")
    xmark_parser.add_argument(
        "--no-projection",
        action="store_true",
        help="disable the pre-executor projection filter (for comparisons)",
    )
    _add_memory_budget_argument(xmark_parser)
    _add_trace_argument(xmark_parser)
    xmark_parser.set_defaults(handler=_cmd_xmark)

    feed_parser = subparsers.add_parser(
        "feed",
        help="run one query as a continuous feed over a stream of concatenated documents",
    )
    _add_query_argument(feed_parser)
    _add_schema_arguments(feed_parser)
    feed_parser.add_argument(
        "--input",
        help=(
            "file of concatenated documents to stream (omit to generate the "
            "synthetic XMark auction ticker instead)"
        ),
    )
    feed_parser.add_argument(
        "--documents",
        type=int,
        default=100,
        help="ticker mode: number of tick documents to stream",
    )
    feed_parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_TICK_SCALE,
        help="ticker mode: per-tick document scale",
    )
    feed_parser.add_argument("--seed", type=int, default=42, help="ticker mode: generator seed")
    feed_parser.add_argument(
        "--chunk-size",
        type=int,
        default=8192,
        metavar="BYTES",
        help="cut the stream into chunks of this many bytes (boundaries land anywhere)",
    )
    feed_parser.add_argument(
        "--resume-from",
        type=int,
        default=None,
        metavar="OFFSET",
        help=(
            "skip this many stream bytes before processing: the resume offset "
            "a previous run printed (or its crash dump recorded)"
        ),
    )
    feed_parser.add_argument(
        "--show-output", action="store_true", help="print each document's result to stdout"
    )
    feed_parser.add_argument(
        "--heartbeat", action="store_true", help="print heartbeat punctuation lines to stderr"
    )
    feed_parser.add_argument("--verbose", action="store_true", help="per-document progress on stderr")
    _add_memory_budget_argument(feed_parser)
    _add_serve_metrics_argument(feed_parser)
    feed_parser.set_defaults(handler=_cmd_feed)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the streaming subscription server (repro.serve) over a live feed",
    )
    _add_schema_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1", help="listen address")
    serve_parser.add_argument(
        "--port", type=int, default=0, help="listen port (0 picks an ephemeral port)"
    )
    serve_parser.add_argument(
        "--input",
        help="file of concatenated documents to stream (omit for the XMark ticker)",
    )
    serve_parser.add_argument(
        "--client-fed",
        action="store_true",
        help="no server-side source: clients push the stream via 'feed'/'finish' ops",
    )
    serve_parser.add_argument(
        "--documents", type=int, default=100, help="ticker mode: number of tick documents"
    )
    serve_parser.add_argument(
        "--scale", type=float, default=DEFAULT_TICK_SCALE, help="ticker mode: per-tick scale"
    )
    serve_parser.add_argument("--seed", type=int, default=42, help="ticker mode: generator seed")
    serve_parser.add_argument(
        "--chunk-size",
        type=int,
        default=8192,
        metavar="BYTES",
        help="cut the stream into chunks of this many bytes",
    )
    serve_parser.add_argument(
        "--linger",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="after the feed ends, wait up to this long for subscribers to drain",
    )
    _add_memory_budget_argument(serve_parser)
    _add_serve_metrics_argument(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    subscribe_parser = subparsers.add_parser(
        "subscribe",
        help="subscribe queries to a running subscription server and stream results",
    )
    subscribe_parser.add_argument(
        "--query",
        action="append",
        required=True,
        help=(
            "a built-in XMark query name (Q1, Q8, ...) or a path to an XQuery- "
            "file; repeatable for several subscriptions on one connection"
        ),
    )
    subscribe_parser.add_argument("--host", default="127.0.0.1", help="server address")
    subscribe_parser.add_argument("--port", type=int, required=True, help="server port")
    subscribe_parser.add_argument(
        "--policy",
        choices=("block", "drop", "disconnect"),
        default="block",
        help="slow-consumer policy for these subscriptions",
    )
    subscribe_parser.add_argument(
        "--max-queue", type=int, default=None, help="bounded delivery queue depth"
    )
    subscribe_parser.add_argument(
        "--max-results", type=int, default=None, help="disconnect after this many results"
    )
    subscribe_parser.add_argument(
        "--timeout", type=float, default=30.0, help="socket timeout in seconds"
    )
    subscribe_parser.add_argument(
        "--quiet", action="store_true", help="count results instead of printing them"
    )
    subscribe_parser.set_defaults(handler=_cmd_subscribe)

    inspect_parser = subparsers.add_parser(
        "inspect",
        help="pretty-print a *.crash.json flight-recorder dump (see REPRO_CRASH_DIR)",
    )
    inspect_parser.add_argument(
        "dump", nargs="+", metavar="CRASH_JSON", help="crash dump file(s) to render"
    )
    inspect_parser.set_defaults(handler=_cmd_inspect)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="randomized conformance sweep: every engine and sink mode must agree byte-for-byte",
    )
    fuzz_parser.add_argument("--seed", type=int, default=1, help="generator seed (the sweep is deterministic per seed)")
    fuzz_parser.add_argument("--cases", type=int, default=100, help="number of generated cases to check")
    fuzz_parser.add_argument("--start", type=int, default=0, help="first case index (resume a sweep)")
    fuzz_parser.add_argument(
        "--save-dir",
        default="fuzz-failures",
        help="directory for shrunk failing .case files (created on demand)",
    )
    fuzz_parser.add_argument(
        "--max-queries", type=int, default=3, help="maximum queries per generated case"
    )
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true", help="save failing cases unshrunk (faster triage loop)"
    )
    fuzz_parser.add_argument("--verbose", action="store_true", help="per-case progress on stderr")
    fuzz_parser.add_argument(
        "--replay",
        action="append",
        metavar="FILE",
        help="replay saved .case files through the oracle instead of generating (repeatable)",
    )
    fuzz_parser.set_defaults(handler=_cmd_fuzz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
