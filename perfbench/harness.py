"""Measurement helpers shared by every workload: clocks, quantiles, spans, RSS.

Nothing here imports the program under test, so the helpers work before
the checkout's ``src`` directory is put on the import path.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List, Sequence

clock = time.perf_counter


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1]) of the samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Spans:
    """In-memory span recorder for the traced run.

    Each span is ``(id, parent id, name, start, end)`` on the
    ``perf_counter`` clock; the parent is the span open when it started.
    Spans wrap calls into the program's public functions from the
    benchmark's own code, so the program runs unmodified.
    """

    def __init__(self):
        self.records: List[tuple] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append(None)
        self._open.append(span_id)
        started = clock()
        try:
            yield
        finally:
            self._open.pop()
            self.records[span_id] = (span_id, parent, name, started, clock())

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for _, _, n, start, end in self.records if n == name)

    def write(self, path: Path) -> None:
        """Dump the spans as JSON lines (id, parent, name, start_s, end_s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, name, start, end in self.records:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start_s": start, "end_s": end}
                    )
                    + "\n"
                )


#: A fixed tag-scanning text for the calibration loop (benchmark-owned code,
#: so no change to the program can move it).
_CALIBRATION_TEXT = "<item><name>parcel</name><desc x='1'>text and more text</desc></item>" * 2400
#: Reference seconds for one calibration pass; a timing scaled by
#: ``CALIBRATION_REFERENCE_S / measured`` reads as it would on a host where a
#: pass takes this long (on the 2-core host the benchmark was written on a
#: pass took 9 to 17 ms as its neighbours' load changed).
CALIBRATION_REFERENCE_S = 0.012


def calibration_seconds() -> float:
    """Time one pass of a fixed pure-Python tag scanner (the work the program
    mostly does: ``str.find``, slicing, dict updates), with the collector off."""
    text = _CALIBRATION_TEXT
    counts: dict = {}
    gc.disable()
    started = clock()
    try:
        position = text.find("<")
        while position >= 0:
            end = text.find(">", position)
            tag = text[position + 1 : end].split(" ", 1)[0]
            counts[tag] = counts.get(tag, 0) + 1
            position = text.find("<", end)
    finally:
        gc.enable()
    return clock() - started


class HostSpeed:
    """Host-speed normalization of timings taken between calibration marks.

    The host shares its cores with other tenants and its speed drifts by
    tens of percent over minutes; a run-level median cannot remove that.
    So the measured loop calls :meth:`mark` around every sample (a leg, a
    round, a window of documents) and each sample is scaled by the
    calibration passes on either side of it: ``scale(i)`` is the factor for
    the sample taken between marks ``i`` and ``i + 1``.
    """

    def __init__(self):
        self.marks: List[float] = []

    def mark(self) -> None:
        self.marks.append(calibration_seconds())

    def scale(self, index: int) -> float:
        """Multiply a duration from sample ``index`` by this (divide a rate)."""
        return 2 * CALIBRATION_REFERENCE_S / (self.marks[index] + self.marks[index + 1])

    def median_scale(self) -> float:
        return CALIBRATION_REFERENCE_S / median(self.marks)


def peak_rss_mb() -> float:
    """The process's resident high-water mark so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def keep_going(walls: Sequence[float], started: float, seconds: float) -> bool:
    """Whether to start another round: always a first one, then another while
    it (as long as the median round so far) would end nearer the deadline
    than stopping now does."""
    return not walls or clock() - started + median(walls) / 2 <= seconds


class Tally:
    """Attempted/failed result counts, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

