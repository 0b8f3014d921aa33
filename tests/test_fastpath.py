"""The engine's document pipeline: scanner, SoA batches, flat DFA.

The byte scanner is the only document pipeline; the event tokenizer of
:mod:`repro.xmlstream` ("classic") stays as the independent reference it is
checked against:

* scanner <-> reference-tokenizer round trips on handcrafted documents
  (entities, CDATA, comments, PIs, DOCTYPE, self-closing tags, attributes,
  multi-byte UTF-8, NBSP-only text, padded tag names) and on randomized
  documents,
* the attribute-to-subelement expansion (``expand_attrs``) versus the
  reference expansion, events and input accounting,
* the flat integer transition table versus a direct walk of the projection
  automaton on randomized documents, single- and multi-query,
* push-mode byte feeds split at every small stride (including
  mid-multibyte-UTF-8) versus pull mode,
* the ``mmap`` file ingest,
* bounded behaviour on adversarial unbounded tag vocabularies: the
  TagTable overflow path and the reference tokenizer's FIFO cache eviction.
"""

import random

import pytest

import repro.xmlstream.tokenizer as tokenizer_module
from repro import NaiveDomEngine
from repro.core import FluxSession
from repro.core.options import ExecutionOptions
from repro.fastpath import (
    ByteScanner,
    FastEventPipeline,
    TagTable,
    table_for_spec,
    use_fastpath,
)
from repro.fastpath.batch import KIND_MASK, STATE_SHIFT, TAG_MASK, TAG_SHIFT
from repro.multiquery.engine import MultiQueryEngine
from repro.multiquery.registry import QueryRegistry
from repro.pipeline.projection import KEEP_ALL
from repro.pipeline.stages import coalesce_batches
from repro.xmlstream.errors import XMLSyntaxError, XMLWellFormednessError
from repro.xmlstream.events import EndElement, StartElement
from repro.xmlstream.parser import iter_event_batches, parse_events, parse_tree
from repro.xmlstream.tokenizer import Tokenizer

BIB_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title,author+,publisher,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""

TITLES = "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>"
AUTHORS = "<authors>{ for $b in $ROOT/bib/book return $b/author }</authors>"

DOC = (
    "<bib>"
    "<book><title>Café Str&amp;eams</title><author>Koch</author>"
    "<publisher>V</publisher><price>5</price></book>"
    "<book><title><![CDATA[raw <x>]]></title><author>B&#233;</author>"
    "<author>Z</author><publisher>W</publisher><price>7</price></book>"
    "</bib>"
)


# ---------------------------------------------------------------------------
# Helpers


def classic_events(document, expand_attrs=False):
    """The reference tokenizer's flat event stream (tokenize + coalesce)."""
    flat = []
    for batch in coalesce_batches(
        iter_event_batches(document, document_events=False, expand_attrs=expand_attrs)
    ):
        flat.extend(batch)
    return flat


def fast_events(document, chunk_size=64 * 1024, tags=None, expand_attrs=False):
    """The scanner's flat event stream through the identity (keep-all) table."""
    tags = tags if tags is not None else TagTable()
    scanner = ByteScanner(tags, table_for_spec(None, tags), expand_attrs=expand_attrs)
    data = document.encode("utf-8") if isinstance(document, str) else document
    flat = []
    for batch in scanner.scan_document(data, chunk_size):
        flat.extend(batch.materialize())
    return flat


def pushed_events(document, stride, expand_attrs=False):
    """The scanner's flat event stream in push mode, ``stride``-byte chunks."""
    tags = TagTable()
    scanner = ByteScanner(tags, table_for_spec(None, tags), expand_attrs=expand_attrs)
    data = document.encode("utf-8")
    flat = []
    for start in range(0, len(data), stride):
        flat.extend(scanner.feed_batch(data[start : start + stride]).materialize())
    flat.extend(scanner.close_batch().materialize())
    return flat


# ---------------------------------------------------------------------------
# Scanner round trips


HANDCRAFTED_DOCUMENTS = [
    "<a/>",
    "<a></a>",
    "<a>text</a>",
    "<a>one &amp; two &lt;three&gt; &#233;</a>",
    "<a><![CDATA[raw <markup> & entities stay ]]></a>",
    "<a><!-- comment --><b/><!-- another --></a>",
    "<?xml version='1.0'?><a><?pi data?></a>",
    "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>",
    '<a key="v1" other="two words">body</a>',
    "<a ><b\t></b\n></a >",
    "<a>café 日本語 \U0001f600</a>",
    "<a> </a>",
    "<a>  pad  <b> mid </b>  tail  </a>",
    "<root><a.b-c:d/><_x/><a1/></root>",
    '<a attr="with &amp; entity &#65;"/>',
    "<a>x<b/>y<b/>z</a>",
    "<a><b><c><d><e>deep</e></d></c></b></a>",
    "<a>t1<!-- c -->t2</a>",
    "<r><aé>x</aé><aé k='v'/></r>",
]


@pytest.mark.parametrize("document", HANDCRAFTED_DOCUMENTS)
def test_scanner_round_trip_handcrafted(document):
    assert fast_events(document) == classic_events(document)


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64])
def test_scanner_round_trip_tiny_chunks(chunk_size):
    assert fast_events(DOC, chunk_size=chunk_size) == classic_events(DOC)


def _random_document(rng):
    """A random well-formed document over a mixed (partly fresh) vocabulary."""
    vocabulary = ["alpha", "beta", "gamma", "x-y", "ns:tag"]
    texts = ["plain", "a &amp; b", "café", " ", "  ", "&#65;BC", ""]
    pieces = ["<root>"]
    depth = 0
    for _ in range(rng.randrange(4, 60)):
        action = rng.random()
        if action < 0.4:
            name = rng.choice(vocabulary)
            if rng.random() < 0.15:
                name = f"fresh{rng.randrange(1000)}"
            if rng.random() < 0.3:
                pieces.append(f'<{name} k="v{rng.randrange(10)}"/>')
            elif rng.random() < 0.4:
                pieces.append(f"<{name}/>")
            else:
                pieces.append(f"<{name}>")
                depth += 1
                vocabulary.append(name)
        elif action < 0.7:
            pieces.append(rng.choice(texts))
        elif action < 0.8 and depth > 0:
            name = vocabulary.pop()
            pieces.append(f"</{name}>")
            depth -= 1
        elif action < 0.9:
            pieces.append("<!-- comment -->")
        else:
            pieces.append("<![CDATA[raw <data>]]>")
    while depth > 0:
        pieces.append(f"</{vocabulary.pop()}>")
        depth -= 1
    pieces.append("</root>")
    return "".join(pieces)


def test_scanner_round_trip_randomized():
    rng = random.Random(20260807)
    for _ in range(50):
        document = _random_document(rng)
        assert fast_events(document) == classic_events(document), document


def test_scanner_round_trip_shared_table_across_documents():
    # One engine-shared TagTable serves many documents (warm-table reuse).
    tags = TagTable()
    rng = random.Random(99)
    for _ in range(10):
        document = _random_document(rng)
        assert fast_events(document, tags=tags) == classic_events(document)


# ---------------------------------------------------------------------------
# Scanner errors and push-mode protocol


def test_scanner_rejects_mismatched_and_unclosed_tags():
    with pytest.raises(XMLWellFormednessError):
        fast_events("<a><b></a></b>")
    with pytest.raises(XMLWellFormednessError):
        fast_events("<a><b></b>")
    with pytest.raises(XMLWellFormednessError):
        fast_events("   ")
    with pytest.raises(XMLWellFormednessError):
        fast_events("<a></a><b></b>")


@pytest.mark.parametrize("stride", [1, 2, 3, 5, 7])
def test_push_mode_byte_feeds_match_pull(stride):
    pulled = fast_events(DOC)
    tags = TagTable()
    scanner = ByteScanner(tags, table_for_spec(None, tags))
    data = DOC.encode("utf-8")
    fed = []
    for start in range(0, len(data), stride):
        fed.extend(scanner.feed_batch(data[start : start + stride]).materialize())
    fed.extend(scanner.close_batch().materialize())
    assert fed == pulled


def test_push_mode_reports_document_offsets_for_malformed_attributes():
    document = "<r>" + "<a>x</a>" * 50 + "<a k=v>y</a></r>"
    data = document.encode("utf-8")
    with pytest.raises(XMLSyntaxError) as pulled:
        fast_events(document)
    for stride in (7, 64):
        with pytest.raises(XMLSyntaxError) as pushed:
            pushed_events(document, stride)
        assert pushed.value.offset == pulled.value.offset
    assert pulled.value.offset == data.index(b"<a k=v>") + 1  # the tag body


def test_pending_bytes_flags_partial_utf8_tail():
    tags = TagTable()
    scanner = ByteScanner(tags, table_for_spec(None, tags))
    data = "<a>café</a>".encode("utf-8")
    cut = data.index(b"\xc3") + 1  # mid-sequence
    scanner.feed_batch(data[:cut])
    assert scanner.pending_bytes
    scanner.feed_batch(data[cut:])
    assert not scanner.pending_bytes
    scanner.close_batch()


# ---------------------------------------------------------------------------
# SoA word packing


def test_soa_word_packing_round_trip():
    for kind in range(6):
        for tid in (0, 1, 77, TAG_MASK):
            for state in (0, 3, 1 << 20):
                word = kind | (tid << TAG_SHIFT) | (state << STATE_SHIFT)
                assert word & KIND_MASK == kind
                assert (word >> TAG_SHIFT) & TAG_MASK == tid
                assert word >> STATE_SHIFT == state


# ---------------------------------------------------------------------------
# Flat DFA versus the classic dict automaton


def _reference_projection(spec, events):
    """Project a reference event stream by walking ``spec`` directly."""
    kept = []
    stack = [spec.initial]
    skip = 0
    for event in events:
        if event.__class__ is StartElement:
            if skip:
                skip += 1
                continue
            state = stack[-1]
            target = KEEP_ALL if state is KEEP_ALL else spec.transition(state, event.name)
            if target is None:
                skip = 1
                continue
            stack.append(target)
            kept.append(event)
        elif event.__class__ is EndElement:
            if skip:
                skip -= 1
                continue
            stack.pop()
            kept.append(event)
        elif not skip and stack[-1] is KEEP_ALL:
            kept.append(event)
    return kept


def test_flat_table_matches_classic_projection_on_random_streams():
    with FluxSession(BIB_DTD, root_element="bib") as session:
        pipeline = session.prepare(TITLES).engine.pipeline
        assert pipeline.projection_enabled
        rng = random.Random(7)
        for _ in range(30):
            books = []
            for _ in range(rng.randrange(0, 6)):
                authors = "".join(
                    f"<author>a{rng.randrange(10)}</author>"
                    for _ in range(rng.randrange(1, 3))
                )
                books.append(
                    f"<book><title>t{rng.randrange(100)} &amp; more</title>"
                    f"{authors}<publisher>p</publisher>"
                    f"<price>{rng.randrange(50)}</price></book>"
                )
            document = f"<bib>{''.join(books)}</bib>"
            expected = _reference_projection(
                pipeline.projection_spec, classic_events(document)
            )
            actual = [
                event for batch in pipeline.event_batches(document) for event in batch
            ]
            assert actual == expected, document


def test_fastpath_execution_is_byte_identical_with_identical_stats():
    """Output against the naive reference; input, buffer and output figures
    against the executor's own accounting of the reference tokenizer's
    events (``run_events``).  ASCII only: the scanner counts text bytes."""
    document = DOC.replace("Café", "Cafe")
    with FluxSession(BIB_DTD, root_element="bib") as session:
        engine = session.prepare(TITLES).engine
        fast = engine.run(document)
        reference = engine.run_events(iter(parse_events(document, document_events=False)))
    assert fast.output == NaiveDomEngine(TITLES).run(document).output
    assert fast.output == reference.output
    assert fast.stats.input_events == reference.stats.input_events
    assert fast.stats.input_bytes == reference.stats.input_bytes
    assert fast.stats.peak_buffered_bytes == reference.stats.peak_buffered_bytes
    assert fast.stats.output_bytes == reference.stats.output_bytes


def test_multiquery_fastpath_matches_classic():
    """The shared scan against the naive reference and solo peaks."""
    from repro.core.api import load_dtd

    registry = QueryRegistry(load_dtd(BIB_DTD, root_element="bib"))
    registry.register("titles", TITLES)
    registry.register("authors", AUTHORS)
    shared = MultiQueryEngine(registry).run(DOC)
    for name, query in (("titles", TITLES), ("authors", AUTHORS)):
        assert shared[name].output == NaiveDomEngine(query).run(DOC).output
        solo = registry.get(name).engine.run(DOC)
        assert shared[name].stats.peak_buffered_bytes == solo.stats.peak_buffered_bytes


# ---------------------------------------------------------------------------
# mmap file ingest


def test_mmap_file_ingest_both_pipelines(tmp_path):
    """A mapped file scans like in-memory text and like the reference parse."""
    path = tmp_path / "doc.xml"
    path.write_text(DOC, encoding="utf-8")
    with FluxSession(BIB_DTD, root_element="bib") as session:
        prepared = session.prepare(TITLES)
        from_text = prepared.execute(DOC)
        from_file = prepared.execute(str(path))
    assert from_file.output == from_text.output
    assert from_file.output == NaiveDomEngine(TITLES).run(str(path)).output


def test_empty_file_fails_cleanly_on_both_pipelines(tmp_path):
    """The engine and the reference parser both reject an empty file."""
    path = tmp_path / "empty.xml"
    path.write_bytes(b"")
    with FluxSession(BIB_DTD, root_element="bib") as session:
        with pytest.raises(XMLWellFormednessError):
            session.prepare(TITLES).execute(str(path))
    with pytest.raises(XMLWellFormednessError):
        parse_events(str(path))


# ---------------------------------------------------------------------------
# One pipeline


def test_use_fastpath_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    assert use_fastpath(None) is True
    assert use_fastpath(False) is True
    assert ExecutionOptions().fastpath is True
    with pytest.raises(TypeError):
        ExecutionOptions(fastpath=False)


def test_engine_selects_pipeline_per_run():
    """Every run shape, attribute expansion included, uses the engine's one
    (engine-shared) pipeline."""
    with FluxSession(BIB_DTD, root_element="bib") as session:
        prepared = session.prepare(TITLES)
        pipeline = prepared.engine.pipeline
        assert isinstance(pipeline, FastEventPipeline)
        traced = ExecutionOptions(trace=True)
        runs = [
            prepared.execute(DOC, options=traced),
            prepared.execute(DOC, options=traced.replace(expand_attrs=True)),
        ]
        with prepared.open_run(options=traced) as run:
            run.feed(DOC)
        runs.append(run.result)
        for result in runs:
            assert result.trace.fastpath is True
            assert "scan" in {stage.name for stage in result.trace.stages}
        assert prepared.engine.pipeline is pipeline


# ---------------------------------------------------------------------------
# Attribute-to-subelement expansion in the scanner


EXPAND_DOCUMENTS = {
    "self-closing": '<r><a k="1" j="2"/><b z="3"/></r>',
    "empty-and-entities": '<r><a k="" e="x &amp; &lt;y&gt; &#65;" w=" "/></r>',
    "already-prefixed": '<r><person person_id="p1" name="n"><age>3</age></person></r>',
    "text-around": '<r>t1<a k="v">t2</a>t3</r>',
    "non-ascii": "<r><aé ké='é'>x</aé></r>",
}


@pytest.mark.parametrize("name", sorted(EXPAND_DOCUMENTS))
def test_scanner_expand_attrs_matches_reference(name):
    document = EXPAND_DOCUMENTS[name]
    expected = classic_events(document, expand_attrs=True)
    assert fast_events(document, expand_attrs=True) == expected
    for stride in (1, 2, 3, 5):
        assert pushed_events(document, stride, expand_attrs=True) == expected


def test_scanner_expand_attrs_splits_inside_attribute_values():
    document = '<r><a key="a long &amp; split value" other="x"/></r>'
    value_at = document.index("long")
    data = document.encode("utf-8")
    for cut in range(value_at - 3, value_at + 12):
        tags = TagTable()
        scanner = ByteScanner(tags, table_for_spec(None, tags), expand_attrs=True)
        events = scanner.feed_batch(data[:cut]).materialize()
        events += scanner.feed_batch(data[cut:]).materialize()
        events += scanner.close_batch().materialize()
        assert events == classic_events(document, expand_attrs=True), cut


# Expected figures from the event tokenizer + expansion + projection
# filter this scanner replaced: output, input events, input bytes.
EXPAND_STATS_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (book_id?, book_year?, title, note?)>
<!ELEMENT book_id (#PCDATA)>
<!ELEMENT book_year (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT note (#PCDATA)>
"""
EXPAND_STATS_DOC = (
    '<bib><book id="b1" year="1999"><title>T &amp; U</title>'
    '<note><x a="dropped"/></note></book>'
    '<book book_id="b2"><title>V</title></book></bib>'
)


@pytest.mark.parametrize(
    "query, expected",
    [
        (
            "<ids>{ for $b in $ROOT/bib/book return {$b/book_id} }</ids>",
            ("<ids><book_id>b1</book_id><book_id>b2</book_id></ids>", 28, 180),
        ),
        (
            "<all>{ for $b in $ROOT/bib/book return {$b} }</all>",
            (
                "<all><book><book_id>b1</book_id><book_year>1999</book_year>"
                "<title>T &amp; U</title><note><x><x_a>dropped</x_a></x></note></book>"
                "<book><book_id>b2</book_id><title>V</title></book></all>",
                28,
                180,
            ),
        ),
    ],
    ids=["projected", "whole-subtree"],
)
def test_expand_attrs_run_matches_classic_figures(query, expected):
    with FluxSession(EXPAND_STATS_DTD, root_element="bib") as session:
        prepared = session.prepare(query)
        pulled = prepared.execute(EXPAND_STATS_DOC, expand_attrs=True)
        with prepared.open_run(expand_attrs=True) as run:
            data = EXPAND_STATS_DOC.encode("utf-8")
            for start in range(0, len(data), 4):
                run.feed(data[start : start + 4])
    for result in (pulled, run.result):
        assert (
            result.output,
            result.stats.input_events,
            result.stats.input_bytes,
        ) == expected
    reference = NaiveDomEngine(query).run_tree(parse_tree(EXPAND_STATS_DOC, expand_attrs=True))
    assert pulled.output == reference.output


def test_expand_attrs_malformed_attribute_raises_in_dropped_subtree():
    with FluxSession(EXPAND_STATS_DTD, root_element="bib") as session:
        prepared = session.prepare(
            "<ids>{ for $b in $ROOT/bib/book return {$b/book_id} }</ids>"
        )
        document = "<bib><book><title>T</title><note><x a=b/></note></book></bib>"
        with pytest.raises(XMLSyntaxError):
            prepared.execute(document, expand_attrs=True)
        with pytest.raises(XMLSyntaxError):
            classic_events(document, expand_attrs=True)


# ---------------------------------------------------------------------------
# Adversarial unbounded vocabularies


def test_tag_table_overflow_stays_bounded_and_correct():
    tags = TagTable(limit=3)
    document = "<root>" + "".join(
        f"<t{i}>x{i}</t{i}>" for i in range(40)
    ) + "</root>"
    assert fast_events(document, tags=tags) == classic_events(document)
    assert len(tags) <= 3
    assert len(tags.ids) <= 2 * 3  # canonical entries + padded aliases


def test_tag_table_overflow_with_attributes_and_chunked_feed():
    tags = TagTable(limit=2)
    document = "<root>" + "".join(
        f'<t{i} key="v{i}">x</t{i}>' for i in range(20)
    ) + "</root>"
    assert fast_events(document, chunk_size=5, tags=tags) == classic_events(document)
    assert len(tags) <= 2


def test_classic_tokenizer_caches_evict_fifo_not_cold_turkey(monkeypatch):
    monkeypatch.setattr(tokenizer_module, "_TAG_CACHE_LIMIT", 8)
    tokenizer = Tokenizer(report_document_events=False)
    document = "<root>" + "".join(
        f"<t{i}>x</t{i}>" for i in range(100)
    ) + "</root>"
    events = tokenizer.feed_batch(document)
    events += tokenizer.close_batch()
    assert events == classic_events(document)
    # The caches never exceed the cap, yet keep serving the *newest* tags:
    # FIFO eviction, not a periodic full clear.
    assert 0 < len(tokenizer._start_cache) <= 8
    assert 0 < len(tokenizer._end_cache) <= 8
    assert "t99" in {event.name for event in tokenizer._end_cache.values()}
