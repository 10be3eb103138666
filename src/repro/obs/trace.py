"""Span-based tracing for the N-SHOT pipeline.

A *span* is one timed, named piece of work (a pipeline phase, an oracle
run, a fuzz unit) with arbitrary key/value attributes.  Spans nest:
the tracer keeps a per-thread stack of open spans, so a ``minimize``
span started while ``synthesize`` is open becomes its child.  The whole
module is dependency-free (stdlib only) so every layer of the pipeline
can import it without cycles.

Design rules:

* **no-op by default** — the process-global tracer starts *disabled*;
  a disabled tracer hands out one shared null span whose enter/exit/set
  do nothing, so the untraced hot path pays a single attribute lookup
  and an ``if`` per instrumentation point;
* **thread-safe** — each thread has its own open-span stack (keyed by
  thread id so a sampling profiler can snapshot another thread's stack
  via :meth:`Tracer.stack_of`) and the completed-span buffer is guarded
  by a lock;
* **multiprocessing-safe** — a worker process records into its own
  local tracer (spans carry the recording pid) and ships the completed
  spans home as a picklable export; the parent re-parents them under
  its own span tree, remapping span ids so a merge never collides or
  drops spans (:func:`repro.obs.readout.adopt_spans`);
* **stable export** — ``--profile-out`` writes the documented
  ``repro-trace/1`` schema (:func:`repro.obs.readout.trace_document`).

The tracer only records and lists spans; every report over them lives
in :mod:`repro.obs.readout`, so a run that reports nothing compiles none
of it.

Typical instrumentation::

    from ..obs import trace_span

    def elaborate(stg):
        with trace_span("reachability", stg=stg.name) as sp:
            ...
            sp.set(states=len(visited))

Enabling for one block (CLI ``--profile``, the bench harness)::

    from repro.obs import Tracer, tracing

    with tracing(Tracer()) as tracer:
        synthesize(sg)
    print([(sp.name, sp.duration) for sp in tracer.spans()])
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "TRACE_SCHEMA",
    "get_tracer",
    "set_tracer",
    "trace_span",
    "tracing",
]

TRACE_SCHEMA = "repro-trace/1"


@dataclass
class Span:
    """One completed (or still open) unit of traced work.

    ``start``/``end`` are wall-clock epoch seconds with
    ``perf_counter`` resolution (the tracer anchors a perf_counter
    offset at construction), so spans recorded in different processes
    of the same machine share a time base and merge cleanly.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    pid: int = 0
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start


class _NullSpan:
    """The shared do-nothing span of a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    @property
    def id(self) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context-manager handle of one live span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    @property
    def id(self) -> int:
        return self._span.span_id

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes on the span."""
        self._span.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        self._tracer._push(self._span)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects spans; disabled instances are shared no-ops."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.pid = os.getpid()
        self._lock = threading.Lock()
        # open-span stacks keyed by thread id; mutated only by the
        # owning thread, but readable from a sampler thread (dict get /
        # list copy are atomic under the GIL)
        self._stacks: dict[int, list[Span]] = {}
        self._spans: list[Span] = []
        self._next_id = 1
        # absolute time base: epoch + perf_counter() is wall-clock with
        # monotonic high-resolution deltas
        self._epoch = time.time() - time.perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._epoch + time.perf_counter()

    def _stack(self) -> list[Span]:
        tid = threading.get_ident()
        st = self._stacks.get(tid)
        if st is None:
            st = self._stacks[tid] = []
        return st

    def stack_of(self, tid: int) -> list[Span]:
        """Snapshot of thread ``tid``'s open-span stack, outermost first.

        Safe to call from any thread (used by the sampling profiler);
        the returned list is a copy and never mutated by the tracer.
        """
        st = self._stacks.get(tid)
        return list(st) if st else []

    def span(self, name: str, **attrs) -> "_SpanHandle | _NullSpan":
        """Open a span; use as a context manager."""
        if not self.enabled:
            return _NULL_SPAN
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        sp = Span(
            name=name,
            span_id=self.reserve_ids(1),
            parent_id=parent,
            start=self._now(),
            pid=self.pid,
            tid=threading.get_ident(),
            attrs=dict(attrs),
        )
        return _SpanHandle(self, sp)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.end = self._now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - defensive against misnested exits
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self._spans.append(span)

    def reserve_ids(self, n: int) -> int:
        """The first of ``n`` fresh consecutive span ids."""
        with self._lock:
            first = self._next_id
            self._next_id += n
        return first

    def record(self, spans: list[Span]) -> None:
        """Add completed spans recorded elsewhere (a pool worker's,
        numbered by :meth:`reserve_ids`)."""
        with self._lock:
            self._spans.extend(spans)

    def current_span_id(self) -> int | None:
        """Id of the innermost open span on this thread (None outside)."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Completed spans, oldest start first."""
        with self._lock:
            return sorted(self._spans, key=lambda s: (s.start, s.span_id))

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


# ----------------------------------------------------------------------
# process-global tracer
# ----------------------------------------------------------------------
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The current process-global tracer (a disabled no-op by default)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global tracer; returns it."""
    global _TRACER
    _TRACER = tracer
    return tracer


def trace_span(name: str, **attrs):
    """Open a span on the current global tracer (no-op when disabled)."""
    return _TRACER.span(name, **attrs)


class tracing:
    """Context manager installing a tracer globally for one block.

    ``with tracing(Tracer()) as t: ...`` — the previous tracer is
    restored on exit, enabled or not.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer or Tracer()
        self._prev: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._prev = get_tracer()
        set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc) -> bool:
        set_tracer(self._prev)
        return False
