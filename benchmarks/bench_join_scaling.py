"""Section-6 observation: nested-loop joins make Q8/Q11 grow super-linearly.

"The rapid increase in execution time is due to the fact that we compute
joins by naive nested loops at the moment."  The bench measures Q8 at two
document sizes with the paper's nested loops (``join="nested"``) and checks
that the time ratio clearly exceeds the size ratio.  The default indexed
probe must remove exactly that: Q8 and Q11 then grow near-linearly, like the
streamable Q13.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOptions, FluxSession
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES

from _workload import record_row, xmark_document

_SMALL_SCALE = 0.05
_LARGE_SCALE = 0.2


def _timed_run(query: str, document: str, join: str = "indexed") -> float:
    prepared = FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES[query])
    options = ExecutionOptions(collect_output=False, join=join)
    return prepared.execute(document, options=options).stats.elapsed_seconds


def _scaling(benchmark, query: str, join: str = "indexed"):
    small = xmark_document(_SMALL_SCALE)
    large = xmark_document(_LARGE_SCALE)

    def run():
        return _timed_run(query, small, join), _timed_run(query, large, join)

    small_time, large_time = benchmark.pedantic(run, rounds=1, iterations=1)
    size_ratio = len(large) / len(small)
    time_ratio = large_time / max(small_time, 1e-9)
    record_row(
        benchmark,
        table="join-scaling",
        query=query,
        join=join,
        size_ratio=round(size_ratio, 2),
        time_ratio=round(time_ratio, 2),
    )
    return size_ratio, time_ratio


def test_join_query_time_grows_superlinearly(benchmark):
    size_ratio, time_ratio = _scaling(benchmark, "Q8", join="nested")
    # Quadratic join: the time ratio must clearly exceed the size ratio.
    assert time_ratio > 1.5 * size_ratio


@pytest.mark.parametrize("query", ["Q8", "Q11"])
def test_join_query_time_grows_near_linearly(benchmark, query):
    size_ratio, time_ratio = _scaling(benchmark, query)
    # Indexed probe: one index per firing, a lookup per outer binding.
    assert time_ratio < 1.5 * size_ratio


def test_streaming_query_time_grows_roughly_linearly(benchmark):
    size_ratio, time_ratio = _scaling(benchmark, "Q13")
    # Streaming evaluation: time grows roughly with the document size.
    assert time_ratio < 3.0 * size_ratio
