"""Adversarial subscription churn: the serve tentpole's property test.

A seeded sweep drives one :class:`~repro.serve.SubscriptionHub` over
2..50 concatenated documents cut at random chunk sizes (so
document boundaries land mid-chunk), while randomly subscribing and
unsubscribing queries from a small pool between feed calls -- including
subscribes landing *mid-document*, which must defer to the next boundary.

Invariants asserted for every delivered result:

* **byte-identity**: the output equals a solo single-document run of the
  same query over the same document (regenerated independently), and the
  naive reference's output (parsed by the event tokenizer, so checked
  against a second implementation of the document pipeline);
* **contiguity**: each subscription receives a contiguous run of document
  indices starting at its recorded ``first_document``;
* **no re-merge**: ``fanout.recompiles`` stays 0 through all churn, and
  the attach/detach counters reconcile with the plan.
"""

import random

import pytest

from repro import NaiveDomEngine
from repro.core.api import load_dtd
from repro.engine.engine import FluxEngine
from repro.serve import SubscriptionHub

BIB_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title,author+,price?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""

QUERY_POOL = [
    "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>",
    "<authors>{ for $b in $ROOT/bib/book return $b/author }</authors>",
    "<prices>{ for $b in $ROOT/bib/book return $b/price }</prices>",
    "<all>{ for $b in $ROOT/bib/book return $b }</all>",
]


def _doc(index: int) -> str:
    books = []
    for book in range(1 + index % 3):
        books.append(
            f"<book><title>T{index}.{book}</title><author>A{index}</author>"
            f"<author>Z{book}</author><price>{index}.{book}0</price></book>"
        )
    return f"<bib>{''.join(books)}</bib>"


def _schema():
    return load_dtd(BIB_DTD, root_element="bib")


def _make_plan(seed: int):
    """A deterministic churn plan: (documents, chunks, ops-by-feed-call).

    ``ops[i]`` runs just before the i-th feed call, so subscribes and
    unsubscribes land at arbitrary positions relative to document
    boundaries -- the hub must defer mid-document ones on its own.
    """
    rng = random.Random(seed)
    count = rng.randint(2, 50)
    stream = "".join(_doc(i) + "\n" for i in range(count)).encode("utf-8")
    chunks = []
    cursor = 0
    while cursor < len(stream):
        step = rng.choice([1, 3, 17, 256, 1024, 5000])
        chunks.append(stream[cursor : cursor + step])
        cursor += step
    ops = {}
    names = 0
    live = []
    for index in range(len(chunks) + 1):
        if rng.random() < 0.15:
            names += 1
            query = rng.randrange(len(QUERY_POOL))
            ops.setdefault(index, []).append(("subscribe", f"s{names}", query))
            live.append(f"s{names}")
        if live and rng.random() < 0.08:
            victim = live.pop(rng.randrange(len(live)))
            ops.setdefault(index, []).append(("unsubscribe", victim, None))
    # Guarantee at least one subscriber sees the stream from document zero.
    ops.setdefault(0, []).insert(0, ("subscribe", "anchor", 0))
    return count, chunks, ops


def _run_plan(seed: int):
    count, chunks, ops = _make_plan(seed)
    hub = SubscriptionHub(_schema())
    subs = {}
    with hub:
        for index in range(len(chunks) + 1):
            for op, name, query in ops.get(index, ()):
                if op == "subscribe":
                    subs[name] = hub.subscribe(QUERY_POOL[query], name=name)
                else:
                    hub.unsubscribe(subs[name])
            if index < len(chunks):
                hub.feed(chunks[index])
        hub.finish()
        delivered = {
            name: [(r.document, r.output) for r in sub.results()]
            for name, sub in subs.items()
        }
    fanout = hub.fanout
    assert fanout.recompiles == 0, f"seed {seed}: the union automaton was re-merged"
    # A subscription cancelled while still pending never reaches the fanout,
    # so attaches may undercount the subscribe ops -- never overcount.
    subscribes = sum(1 for calls in ops.values() for c in calls if c[0] == "subscribe")
    assert 1 <= fanout.attaches <= subscribes
    assert fanout.detaches <= fanout.attaches
    return count, ops, subs, delivered


@pytest.mark.parametrize("seed", range(8))
def test_adversarial_churn_is_byte_identical_on_both_pipelines(seed):
    count, ops, _, delivered = _run_plan(seed)

    solos = {}

    def solo(query_index: int, document: int) -> str:
        if query_index not in solos:
            solos[query_index] = FluxEngine(
                QUERY_POOL[query_index], _schema(), projection=True
            )
        return solos[query_index].run(_doc(document)).output

    def naive(query_index: int, document: int) -> str:
        return NaiveDomEngine(QUERY_POOL[query_index]).run(_doc(document)).output

    query_of = {
        name: query
        for calls in ops.values()
        for op, name, query in calls
        if op == "subscribe"
    }
    total = 0
    for name, results in delivered.items():
        documents = [document for document, _ in results]
        # Contiguity: attach-at-boundary means no gaps, ever.
        assert documents == list(range(documents[0], documents[0] + len(documents))) if documents else True
        for document, output in results:
            total += 1
            assert output == solo(query_of[name], document), (
                f"seed {seed}: {name} diverged on document {document}"
            )
            assert output == naive(query_of[name], document), (
                f"seed {seed}: {name} diverged from the reference on document {document}"
            )
    anchor = delivered["anchor"]
    assert [d for d, _ in anchor][: 1] == [0]  # saw the stream from the start
    assert total > 0
