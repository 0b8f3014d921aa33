"""Execution options: one object instead of four scattered kwargs.

Before the session redesign, every layer of the engine threaded
``collect_output`` / ``expand_attrs`` / ``memory_budget`` /
``memory_page_bytes`` through its own signature.  :class:`ExecutionOptions`
is the single carrier for all per-run knobs; compile-time choices
(projection, simplifications, safety) stay parameters of
:meth:`~repro.core.session.FluxSession.prepare` because they select *which
plan* is built, not how a run executes it.  There is no option that picks
a document pipeline: every run reads its input with the byte scanner of
:mod:`repro.fastpath`.

Options are immutable; derive variants with :meth:`ExecutionOptions.replace`
or build one from legacy keyword spellings with
:func:`ExecutionOptions.from_kwargs`.

.. note:: Import-layering constraint: :mod:`repro.engine.engine` imports
   this module while the rest of :mod:`repro.core` imports the engine, so
   this module must never import from ``repro.core`` or ``repro.engine``
   (only leaf modules such as :mod:`repro.xmlstream`) -- anything more
   would close an import cycle at package-import time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Optional

from repro.xmlstream.parser import DEFAULT_CHUNK_SIZE


#: Value-join strategies of :attr:`ExecutionOptions.join`.
JOIN_MODES = ("indexed", "nested")


@dataclass(frozen=True)
class FeedOptions:
    """Knobs for continuous document feeds (:mod:`repro.feeds`).

    Parameters
    ----------
    heartbeat_interval_bytes:
        How often (in fed bytes) the feed's heartbeat callback fires --
        punctuation for monitors of otherwise-quiet streams.  Only
        meaningful when the feed is opened with an ``on_heartbeat``
        callback.
    resume_offset:
        Absolute byte offset into the stream at which processing starts;
        everything before it is discarded unparsed.  Pass the
        ``resume_offset`` reported by a previous (crashed or closed) feed
        over the same stream to skip its already-completed documents.
    """

    heartbeat_interval_bytes: int = 1 << 20
    resume_offset: int = 0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_bytes <= 0:
            raise ValueError(
                "heartbeat_interval_bytes must be positive, "
                f"got {self.heartbeat_interval_bytes}"
            )
        if self.resume_offset < 0:
            raise ValueError(f"resume_offset must be >= 0, got {self.resume_offset}")


@dataclass(frozen=True)
class ExecutionOptions:
    """Per-run execution knobs, shared by every public execution path.

    Parameters
    ----------
    collect_output:
        Join the run's output into ``result.output`` (default).  Off, the
        run only counts output events/bytes (a :class:`~repro.pipeline.sinks.NullSink`);
        ignored when an explicit sink is passed to ``execute``.
    expand_attrs:
        Apply the paper's attribute-to-subelement expansion to the input.
    memory_budget:
        Hard cap, in bytes, on resident buffered memory (see
        :mod:`repro.storage`); ``None`` keeps all buffers on the heap.
    memory_page_bytes:
        Page granularity for spillable buffers; only meaningful with a
        budget.
    chunk_size:
        Read size for pull-mode document sources.
    trace:
        Request per-run stage tracing (:mod:`repro.obs`): the result gains a
        ``trace`` report with the per-stage time/bytes/events breakdown and
        the span tree.  ``None`` (the default) defers to the ``REPRO_TRACE``
        environment variable (``1`` forces on, ``0`` forces off).  Tracing
        never changes output bytes or the logical buffering peaks -- the
        conformance oracle asserts this.
    serve_metrics:
        Serve live run inspection over HTTP (:mod:`repro.obs.serve`) on
        ``127.0.0.1:<port>`` for the duration of the process: ``/metrics``
        (Prometheus text) and ``/progress`` (JSON watermarks of open
        push-mode runs).  Port ``0`` binds an ephemeral port (shared by
        all port-0 requests).  ``None`` (the default) serves nothing.
        Serving never changes output bytes -- the runs execute identical
        code whether or not anyone is watching.
    feed:
        Continuous-feed knobs (:class:`FeedOptions`) for
        :meth:`~repro.core.session.PreparedQuery.open_feed`; ignored by
        single-document runs.  ``None`` uses the feed defaults.
    join:
        How buffered handlers evaluate value joins such as XMark Q8's
        ``$t/buyer/buyer_person = $p/person_id``.  ``"indexed"`` (the
        default) probes a per-firing hash or sorted index for candidates
        and re-checks the full condition on each; ``"nested"`` is the
        paper's nested loop (§6).  Output is byte-identical either way.
    """

    collect_output: bool = True
    expand_attrs: bool = False
    memory_budget: Optional[int] = None
    memory_page_bytes: Optional[int] = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    trace: Optional[bool] = None
    serve_metrics: Optional[int] = None
    feed: Optional[FeedOptions] = None
    join: str = "indexed"

    def __post_init__(self) -> None:
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError(f"memory_budget must be positive, got {self.memory_budget}")
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.serve_metrics is not None and (
            not isinstance(self.serve_metrics, int) or self.serve_metrics < 0
        ):
            raise ValueError(
                f"serve_metrics must be a TCP port (>= 0), got {self.serve_metrics!r}"
            )
        if self.feed is not None and not isinstance(self.feed, FeedOptions):
            raise ValueError(f"feed must be a FeedOptions, got {self.feed!r}")
        if self.join not in JOIN_MODES:
            raise ValueError(f"join must be one of {JOIN_MODES}, got {self.join!r}")

    @property
    def fastpath(self) -> bool:
        """Always ``True``: every run reads its document with the byte scanner."""
        # Kept only until perfbench/run.py no longer reads it.
        return True

    def replace(self, **changes) -> "ExecutionOptions":
        """A copy with the given fields changed (validation re-runs)."""
        return _dc_replace(self, **changes)

    @classmethod
    def from_kwargs(
        cls, base: Optional["ExecutionOptions"] = None, **kwargs
    ) -> "ExecutionOptions":
        """Build options from keyword overrides on top of a base.

        ``None``-valued keywords mean "not given, inherit from the base" --
        to explicitly lift a base's memory budget, pass a full
        ``ExecutionOptions`` instead of an override.
        """
        base = base if base is not None else DEFAULT_OPTIONS
        changes = {key: value for key, value in kwargs.items() if value is not None}
        return base.replace(**changes) if changes else base


#: The defaults every session starts from.
DEFAULT_OPTIONS = ExecutionOptions()
