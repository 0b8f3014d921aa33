"""Seeded benchmark inputs: XMark documents, ticker pools, serve subscriptions.

Everything is a pure function of ``--seed``: the same seed gives
byte-identical documents and the same subscription set.  Inputs are made
with the program's own generators (``repro.xmark.generator`` and
``repro.xmark.ticker``), so no data is downloaded or shipped.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import DEFAULT_TICK_SCALE, TICK_SEPARATOR, ticker_document

#: Tick ``i`` of a pool is generated with seed ``seed * _TICK_STRIDE + i``,
#: so pools of neighbouring seeds share no document while the pool is
#: shorter than the stride.
_TICK_STRIDE = 100_003

_REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")


def xmark_document(scale: float, seed: int) -> bytes:
    """One XMark auction document of roughly ``scale`` MB (UTF-8)."""
    return generate_document(config_for_scale(scale, seed=seed)).encode("utf-8")


def ticker_pool(count: int, seed: int) -> List[bytes]:
    """``count`` distinct ~8 KB ticker documents, each ending in the tick separator."""
    base = seed * _TICK_STRIDE
    separator = TICK_SEPARATOR.encode("utf-8")
    return [
        ticker_document(index, seed=base, scale=DEFAULT_TICK_SCALE).encode("utf-8") + separator
        for index in range(count)
    ]


def chunked(data: bytes, size: int) -> List[bytes]:
    """``data`` cut into ``size``-byte chunks (the last one may be shorter)."""
    return [data[start : start + size] for start in range(0, len(data), size)]


def serve_subscriptions(seed: int, q1: int, q13: int, q20: int) -> Dict[str, str]:
    """Subscription name -> query text, every text different.

    Q1 subscriptions look up distinct ``person_id`` constants, sampled from
    twice as many ids as there are subscriptions so that some match a
    ticker person and most do not.  Q13 subscriptions read a seeded region
    and Q20 ones differ in their result element name, so no two
    subscriptions could share a result.
    """
    rng = random.Random(seed)
    queries: Dict[str, str] = {}
    for person in rng.sample(range(2 * q1), q1):
        queries[f"Q1-person{person}"] = BENCHMARK_QUERIES["Q1"].replace(
            "'person0'", f"'person{person}'"
        )
    for index in range(q13):
        region = rng.choice(_REGIONS)
        queries[f"Q13-{region}-{index}"] = (
            BENCHMARK_QUERIES["Q13"]
            .replace("/regions/australia/", f"/regions/{region}/")
            .replace("query13>", f"query13_{index}>")
        )
    for index in range(q20):
        queries[f"Q20-{index}"] = BENCHMARK_QUERIES["Q20"].replace(
            "query20>", f"query20_{index}>"
        )
    if len(set(queries.values())) != len(queries):
        raise RuntimeError("serve subscriptions must all have distinct query texts")
    return queries
