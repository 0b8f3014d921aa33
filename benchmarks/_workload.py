"""Shared workload helpers for the benchmark harness.

The paper's evaluation (Figure 4) uses XMark documents of 5/10/50/100 MB on a
2004-era JVM.  A pure-Python event-at-a-time engine is roughly two orders of
magnitude slower per byte, so the harness scales the documents down (the
DESIGN.md substitution table documents this).  The *shape* of the results --
which engine wins, how memory scales with document size, where the join
queries explode -- is what the harness reproduces.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Dict, List

from repro.xmark.generator import config_for_scale, generate_document


def _scales_from_env() -> tuple:
    """Document scales, overridable for smoke runs (e.g. CI).

    ``REPRO_BENCH_SCALES="0.02,0.05"`` shrinks every sweep to those scales.
    """
    raw = os.environ.get("REPRO_BENCH_SCALES")
    if not raw:
        return (0.05, 0.1, 0.2, 0.4)
    return tuple(float(part) for part in raw.split(",") if part.strip())


#: Document scales used throughout the harness (fraction of ~1 MB each).
FIGURE4_SCALES = _scales_from_env()

_documents: Dict[float, str] = {}

#: Rows collected by the benchmarks for the terminal summary tables.
COLLECTED_ROWS: List[dict] = []


def xmark_document(scale: float) -> str:
    """Generate (and cache) the XMark document for one scale."""
    if scale not in _documents:
        _documents[scale] = generate_document(config_for_scale(scale, seed=97))
    return _documents[scale]


def record_row(benchmark, **fields) -> None:
    """Attach fields to a benchmark and remember them for the summary table."""
    benchmark.extra_info.update({key: value for key, value in fields.items() if key != "table"})
    benchmark.extra_info["table"] = fields.get("table", "")
    COLLECTED_ROWS.append(dict(fields))


#: The cross-bench schema: every benchmark's headline row carries exactly
#: these keys, whatever its own per-table schema looks like.
SUMMARY_SCHEMA = ("name", "scale", "wall_seconds", "peak_bytes")


def record_summary(benchmark, name: str, *, scale: float, wall_seconds: float,
                   peak_bytes: int, **extra) -> None:
    """One normalized headline row per benchmark.

    Each bench file keeps its own detail table (``BENCH_feed.json``,
    ``BENCH_bounded_memory.json``, ...), but also contributes one row here
    under the fixed :data:`SUMMARY_SCHEMA`, all of which land together in
    ``BENCH_summary.json`` -- trajectory tooling reads that one file
    instead of re-learning every table's ad-hoc field names.
    """
    record_row(
        benchmark,
        table="summary",
        name=name,
        scale=scale,
        wall_seconds=wall_seconds,
        peak_bytes=peak_bytes,
        **extra,
    )


def write_json_reports(directory: str = "") -> List[str]:
    """Emit one machine-readable ``BENCH_<table>.json`` per collected table.

    Terminal tables are for humans; these files are for the perf
    trajectory: every benchmark run drops ``BENCH_pipeline.json`` /
    ``BENCH_multiquery.json`` / ``BENCH_bounded_memory.json`` / ... next to
    the working directory (override with ``REPRO_BENCH_JSON_DIR``) so CI
    can archive them and successive runs can be diffed.  Returns the paths
    written.
    """
    directory = directory or os.environ.get("REPRO_BENCH_JSON_DIR") or "."
    os.makedirs(directory, exist_ok=True)
    tables: Dict[str, List[dict]] = {}
    for row in COLLECTED_ROWS:
        table = row.get("table")
        if not table:
            continue
        tables.setdefault(table, []).append(
            {key: value for key, value in row.items() if key != "table"}
        )
    written: List[str] = []
    for table, rows in tables.items():
        path = os.path.join(directory, f"BENCH_{table.replace('-', '_')}.json")
        payload = {
            "table": table,
            "python": platform.python_version(),
            "scales": list(FIGURE4_SCALES),
            "rows": rows,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        written.append(path)
    return written
