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
  its own span tree with :meth:`Tracer.adopt`, remapping span ids so a
  merge never collides or drops spans;
* **stable export** — :meth:`Tracer.to_json` emits the documented
  ``repro-trace/1`` schema.

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
    print(tracer.render_tree())
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
    "traced",
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
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        sp = Span(
            name=name,
            span_id=sid,
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

    def phase_totals(self) -> dict[str, dict]:
        """Aggregate completed spans by name.

        Returns ``{name: {"calls": n, "total_s": seconds}}``.  Nested
        spans each contribute to their own name — a parent's total
        *includes* its children's time (it is wall time of that phase,
        not self time).
        """
        out: dict[str, dict] = {}
        for sp in self.spans():
            agg = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += sp.duration
        return out

    # ------------------------------------------------------------------
    # multiprocessing merge
    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Picklable snapshot of the completed spans (for pool workers)."""
        return {
            "pid": self.pid,
            "spans": [
                {
                    "name": s.name,
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "t0": s.start,
                    "t1": s.end,
                    "pid": s.pid,
                    "tid": s.tid,
                    "attrs": s.attrs,
                }
                for s in self.spans()
                if s.end is not None
            ],
        }

    def adopt(self, exported: dict | None, parent_id: int | None = None) -> int:
        """Merge a worker's exported spans into this tracer.

        Worker span ids are remapped to fresh local ids (no collisions,
        no drops); spans that were roots in the worker are re-parented
        under ``parent_id`` (default: this thread's current open span).
        Returns the number of spans adopted.
        """
        if not self.enabled or not exported:
            return 0
        if parent_id is None:
            parent_id = self.current_span_id()
        rows = exported.get("spans", [])
        with self._lock:
            mapping = {}
            for d in rows:
                mapping[d["id"]] = self._next_id
                self._next_id += 1
            for d in rows:
                self._spans.append(
                    Span(
                        name=d["name"],
                        span_id=mapping[d["id"]],
                        parent_id=mapping.get(d["parent"], parent_id),
                        start=d["t0"],
                        end=d["t1"],
                        pid=d["pid"],
                        tid=d["tid"],
                        attrs=dict(d["attrs"]),
                    )
                )
        return len(rows)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The stable ``repro-trace/1`` document (documented in
        docs/OBSERVABILITY.md).  Span times are seconds relative to the
        trace origin (the earliest span start)."""
        spans = [s for s in self.spans() if s.end is not None]
        origin = min((s.start for s in spans), default=0.0)
        return {
            "schema": TRACE_SCHEMA,
            "origin_unix": round(origin, 6),
            "spans": [
                {
                    "name": s.name,
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "t0": round(s.start - origin, 9),
                    "dur": round(s.duration, 9),
                    "pid": s.pid,
                    "tid": s.tid,
                    "attrs": s.attrs,
                }
                for s in spans
            ],
        }

    # ------------------------------------------------------------------
    # human rendering (``--profile``)
    # ------------------------------------------------------------------
    def render_tree(self) -> str:
        """Indented span tree with durations and attributes."""
        spans = [s for s in self.spans() if s.end is not None]
        if not spans:
            return "(no spans recorded)"
        by_id = {s.span_id: s for s in spans}
        children: dict[int | None, list[Span]] = {}
        for s in spans:
            parent = s.parent_id if s.parent_id in by_id else None
            children.setdefault(parent, []).append(s)
        roots = children.get(None, [])
        name_w = max(
            (len(s.name) + 2 * _depth(s, by_id) for s in spans), default=10
        )
        lines = [f"{'span':<{name_w}}  {'ms':>9}  attributes"]
        def emit(span: Span, depth: int) -> None:
            attrs = " ".join(f"{k}={_fmt(v)}" for k, v in span.attrs.items())
            label = "  " * depth + span.name
            lines.append(f"{label:<{name_w}}  {span.duration * 1e3:9.3f}  {attrs}")
            for child in children.get(span.span_id, []):
                emit(child, depth + 1)
        for root in roots:
            emit(root, 0)
        return "\n".join(lines)


def _depth(span: Span, by_id: dict[int, Span]) -> int:
    d = 0
    cur = span
    while cur.parent_id in by_id:
        cur = by_id[cur.parent_id]
        d += 1
    return d


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


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
