"""Unit tests for the streaming executor on small, hand-checkable documents."""

import pytest

from repro.dtd.parser import parse_dtd
from repro.engine.engine import FluxEngine
from repro.engine.plan import compile_plan
from repro.flux.errors import UnsafeQueryError
from repro.flux.parser import parse_flux
from repro.flux.rewrite import rewrite_query
from repro.xquery.parser import parse_query
from repro.baselines import NaiveDomEngine
from repro.xmark.usecases import (
    BIB_ARTICLES_DTD_ORDERED,
    BIB_DTD_ORDERED,
    BIB_DTD_UNORDERED,
    BIB_DTD_USECASES,
    BIB_Q1_DTD_ORDERED,
    BIB_Q1_DTD_UNORDERED,
    XMP_INTRO,
    XMP_Q1,
    XMP_Q2,
    XMP_Q3,
    generate_bibliography,
    generate_q1_bibliography,
)


def _dtd(source):
    return parse_dtd(source).with_root("bib")


DOC = (
    "<bib>"
    "<book><title>Streams</title><author>Koch</author><author>Scherzinger</author>"
    "<publisher>VLDB</publisher><price>10</price></book>"
    "<book><title>Buffers</title><author>Schweikardt</author>"
    "<publisher>Addison-Wesley</publisher><price>20</price></book>"
    "</bib>"
)


def test_intro_query_output_matches_reference():
    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    result = engine.run(DOC)
    expected = NaiveDomEngine(XMP_INTRO).run(DOC).output
    assert result.output == expected
    assert result.stats.peak_buffered_events == 0


def test_intro_query_weak_dtd_buffers_one_book_of_authors():
    weak_doc = (
        "<bib>"
        "<book><author>A1</author><title>T1</title><author>A2</author></book>"
        "<book><title>T2</title><author>B1</author></book>"
        "</bib>"
    )
    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_UNORDERED))
    result = engine.run(weak_doc)
    expected = NaiveDomEngine(XMP_INTRO).run(weak_doc).output
    assert result.output == expected
    # Only the authors of a single book are ever buffered (2 authors, 3
    # events each).
    assert 0 < result.stats.peak_buffered_events <= 6


def test_document_order_is_preserved_for_interleaved_children():
    # Titles are copied on the fly, authors are replayed from the buffer at
    # the end of each book -- exactly the intro scenario of the paper.
    weak_doc = (
        "<bib><book>"
        "<author>First Author</author>"
        "<title>The Title</title>"
        "<author>Second Author</author>"
        "</book></bib>"
    )
    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_UNORDERED))
    output = engine.run(weak_doc).output
    assert output == (
        "<results><result><title>The Title</title>"
        "<author>First Author</author><author>Second Author</author>"
        "</result></results>"
    )


def test_conditional_output_with_on_the_fly_flags():
    doc = generate_q1_bibliography(30, seed=5, ordered=True)
    engine = FluxEngine(XMP_Q1, _dtd(BIB_Q1_DTD_ORDERED))
    result = engine.run(doc)
    assert result.output == NaiveDomEngine(XMP_Q1).run(doc).output
    # Titles are streamed; the publisher condition lives in flags.  Only the
    # year element (whose own value the condition needs) is held, one book at
    # a time -- never more than a single tiny element.
    assert result.stats.peak_buffered_events <= 3
    assert result.stats.peak_condition_bytes > 0


def test_conditional_output_with_buffering_for_weak_dtd():
    doc = generate_q1_bibliography(30, seed=6, ordered=False)
    engine = FluxEngine(XMP_Q1, _dtd(BIB_Q1_DTD_UNORDERED))
    result = engine.run(doc)
    assert result.output == NaiveDomEngine(XMP_Q1).run(doc).output
    assert result.stats.peak_buffered_events > 0


def test_join_query_streams_articles_under_ordered_dtd():
    doc = generate_bibliography(20, articles=10, seed=9)
    dtd = _dtd(BIB_ARTICLES_DTD_ORDERED)
    engine = FluxEngine(XMP_Q3, dtd)
    result = engine.run(doc)
    assert result.output == NaiveDomEngine(XMP_Q3).run(doc).output


def test_title_author_pairs_under_both_dtds():
    ordered_doc = (
        "<bib>"
        "<book><author>A</author><author>B</author><title>T1</title><title>T2</title></book>"
        "</bib>"
    )
    expected = NaiveDomEngine(XMP_Q2).run(ordered_doc).output
    result = FluxEngine(XMP_Q2, _dtd(BIB_DTD_ORDERED)).run(ordered_doc)
    assert result.output == expected
    weak = FluxEngine(XMP_Q2, _dtd(BIB_DTD_UNORDERED)).run(ordered_doc)
    assert weak.output == expected


def test_handwritten_flux_query_executes():
    flux = parse_flux(
        """
        <results>
        { ps $ROOT: on bib as $bib return
          { ps $bib: on book as $b return
            { ps $b: on title as $t return {$t};
                     on author as $a return {$a} } } }
        </results>
        """
    )
    engine = FluxEngine(flux, _dtd(BIB_DTD_USECASES))
    result = engine.run(DOC)
    assert result.output.startswith("<results><title>Streams</title>")
    assert result.output.endswith("</results>")
    assert result.stats.peak_buffered_events == 0


def test_unsafe_handwritten_query_is_rejected():
    flux = parse_flux(
        """
        { ps $ROOT: on bib as $bib return
          { ps $bib: on book as $b return
            { ps $b: on-first past(title) return { for $a in $b/author return {$a} } } } }
        """
    )
    with pytest.raises(UnsafeQueryError):
        FluxEngine(flux, _dtd(BIB_DTD_UNORDERED))


def test_unsafe_check_can_be_disabled():
    flux = parse_flux(
        """
        { ps $ROOT: on bib as $bib return
          { ps $bib: on book as $b return
            { ps $b: on-first past(title) return { for $a in $b/author return {$a} } } } }
        """
    )
    engine = FluxEngine(flux, _dtd(BIB_DTD_UNORDERED), require_safe=False)
    assert engine.run(DOC).output is not None


def test_collect_output_false_still_counts_bytes():
    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    result = engine.run(DOC, collect_output=False)
    assert result.output is None
    assert result.stats.output_bytes > 0


def test_run_events_accepts_pre_parsed_streams():
    from repro.xmlstream.parser import parse_events

    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    events = parse_events(DOC)
    result = engine.run_events(iter(events))
    assert result.output == NaiveDomEngine(XMP_INTRO).run(DOC).output


def test_input_statistics_are_recorded():
    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    result = engine.run(DOC)
    assert result.stats.input_events > 10
    assert result.stats.input_bytes > 50
    assert result.stats.elapsed_seconds >= 0


def test_describe_buffers_lists_buffered_variables():
    engine_streaming = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    assert engine_streaming.describe_buffers() == "(no buffers required)"
    engine_buffering = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_UNORDERED))
    assert "author" in engine_buffering.describe_buffers()


def test_compile_plan_rejects_foreign_outer_variable():
    from repro.flux.errors import UnschedulableQueryError

    flux = parse_flux("{ ps $other: on-first past(*) return <x/> }")
    with pytest.raises(UnschedulableQueryError):
        compile_plan(flux, _dtd(BIB_DTD_USECASES))


def test_unbalanced_event_stream_is_rejected():
    from repro.xmlstream.events import StartElement

    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_USECASES))
    with pytest.raises(ValueError):
        engine.run_events(iter([StartElement("bib"), StartElement("book")]))


def test_flux_source_rendering_is_stable():
    engine = FluxEngine(XMP_INTRO, _dtd(BIB_DTD_UNORDERED))
    source = engine.flux_source()
    assert "on-first past(author,title)" in source
    assert "on title as" in source


DEEP_DTD = "<!ELEMENT r (a*)> <!ELEMENT a (a?, b?)> <!ELEMENT b (#PCDATA)>"
DEEP_QUERY = "<o>{for $x in /r/a return <y>{$x/b}{$x}</y>}</o>"


def test_buffered_output_over_a_5000_deep_subtree_matches_naive():
    """Buffered subtrees are serialized, atomized and navigated without
    recursion, in the engine and in the naive reference alike."""
    depth = 5000
    document = "<r>" + "<a>" * depth + "<b>x</b>" + "</a>" * depth + "<a><b>y</b></a></r>"
    engine = FluxEngine(DEEP_QUERY, parse_dtd(DEEP_DTD).with_root("r"))
    result = engine.run(document)
    assert result.stats.peak_buffered_bytes > 0
    assert result.output == NaiveDomEngine(DEEP_QUERY).run(document).output
    assert result.output.count("<a>") == depth + 1
