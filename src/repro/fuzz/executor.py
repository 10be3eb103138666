"""Watchdog-guarded worker pool of the differential fuzz campaign.

The pool owns one pipe per worker process, so the parent can enforce
**per-task wall clock deadlines** (a stuck worker is terminated and
respawned, the task becomes a ``timeout`` result), survive **worker
death** (segfault, ``os._exit``, OOM-kill — the task becomes a
``crashed`` result).  Tasks are not retried: fuzz samples are seeded,
so a second attempt would replay the same outcome.

Design rules, enforced for every client:

* a task that raises, times out, or kills its worker is a *recorded*
  :class:`TaskResult`, never an exception that aborts the batch;
* ``KeyboardInterrupt`` terminates the pool cleanly and returns the
  partial results with ``truncated=True`` — a long campaign interrupted
  at 90% still flushes 90% of its report;
* ``jobs=1`` runs inline in the calling process (no pickling, spans
  land in the caller's tracer) under the same timeout policy via a
  SIGALRM guard.

The task function must be a **module-level picklable callable**; its
payloads and return values cross a pipe when ``jobs > 1``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = [
    "TASK_STATUSES",
    "WallClockTimeout",
    "wall_clock_guard",
    "ExecutorPolicy",
    "TaskResult",
    "ExecutorReport",
    "run_tasks",
]

#: vocabulary of :attr:`TaskResult.status`
TASK_STATUSES = ("ok", "error", "timeout", "crashed", "cancelled")


class WallClockTimeout(Exception):
    """The per-task SIGALRM guard fired (inline mode)."""


@contextmanager
def wall_clock_guard(seconds: float | None):
    """Raise :class:`WallClockTimeout` after ``seconds`` of wall clock.

    Usable only on the main thread of a process with ``SIGALRM`` (the
    no-op fallback keeps callers portable); nests by saving the old
    handler.  Every fuzz flow probe runs under it.
    """
    usable = (
        seconds
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _handler(signum, frame):
        raise WallClockTimeout()

    old = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


@dataclass(frozen=True)
class ExecutorPolicy:
    """How a batch of tasks is executed: ``jobs`` worker processes
    (inline when 1) and ``task_timeout`` wall-clock seconds per task."""

    jobs: int = 1
    task_timeout: float | None = None


@dataclass
class TaskResult:
    """Outcome of one task, whatever happened to it.

    ``status`` is one of :data:`TASK_STATUSES`: ``ok`` (``value`` holds
    the return), ``error`` (the task raised), ``timeout`` (the task
    exceeded the deadline), ``crashed`` (the worker process died under
    the task), ``cancelled`` (never ran — the batch was interrupted).
    """

    index: int
    status: str
    value: Any = None
    detail: str = ""
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ExecutorReport:
    """All task results of one batch, in submission order."""

    results: list[TaskResult] = field(default_factory=list)
    #: the batch was interrupted; trailing results are ``cancelled``
    truncated: bool = False

    def values(self) -> list[Any]:
        return [r.value for r in self.results if r.ok]

    def counts(self) -> dict[str, int]:
        out = {k: 0 for k in TASK_STATUSES}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out


# ----------------------------------------------------------------------
# inline execution (jobs=1)
# ----------------------------------------------------------------------
def _run_inline(
    fn: Callable[[Any], Any], payloads: Sequence[Any], policy: ExecutorPolicy
) -> ExecutorReport:
    results: list[TaskResult] = []
    truncated = False
    for i, payload in enumerate(payloads):
        if truncated:
            results.append(TaskResult(i, "cancelled", detail="interrupted"))
            continue
        t0 = time.perf_counter()
        try:
            with wall_clock_guard(policy.task_timeout):
                value = fn(payload)
            res = TaskResult(i, "ok", value=value)
        except WallClockTimeout:
            res = TaskResult(
                i,
                "timeout",
                detail=f"task exceeded {policy.task_timeout}s",
            )
        except KeyboardInterrupt:
            truncated = True
            res = TaskResult(i, "cancelled", detail="interrupted")
        except Exception as e:
            res = TaskResult(i, "error", detail=f"{type(e).__name__}: {e}")
        res.runtime = time.perf_counter() - t0
        results.append(res)
    return ExecutorReport(results=results, truncated=truncated)


# ----------------------------------------------------------------------
# pool execution (jobs>1): one pipe per worker, parent-side deadlines
# ----------------------------------------------------------------------
def _pool_worker(fn: Callable[[Any], Any], conn) -> None:
    """Worker loop: serve (index, payload) requests until the pipe closes."""
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            if msg is None:
                return
            index, payload = msg
            try:
                out = (index, "ok", fn(payload))
            except Exception as e:
                out = (index, "error", f"{type(e).__name__}: {e}")
            try:
                conn.send(out)
            except Exception as e:
                # an unpicklable return value must not kill the worker
                conn.send(
                    (index, "error", f"result not sendable: {type(e).__name__}: {e}")
                )
    except KeyboardInterrupt:  # pragma: no cover - signal timing
        pass


class _Worker:
    """Parent-side handle of one pool process."""

    def __init__(self, fn: Callable[[Any], Any], ctx) -> None:
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_pool_worker, args=(fn, child), daemon=True)
        self.proc.start()
        child.close()
        self.task: int | None = None  # index of the running task
        self.deadline: float | None = None

    def assign(self, index: int, payload: Any, timeout: float | None) -> None:
        self.conn.send((index, payload))
        self.task = index
        self.deadline = (time.monotonic() + timeout) if timeout else None

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=2.0)


def _run_pool(
    fn: Callable[[Any], Any], payloads: Sequence[Any], policy: ExecutorPolicy
) -> ExecutorReport:
    ctx = multiprocessing.get_context()
    n = len(payloads)
    queue: list[int] = list(range(n))  # task indices not yet handed out
    started: dict[int, float] = {}
    results: dict[int, TaskResult] = {}
    workers = [_Worker(fn, ctx) for _ in range(min(policy.jobs, n))]
    truncated = False

    def settle(index: int, status: str, value: Any, detail: str) -> None:
        runtime = time.monotonic() - started.pop(index, time.monotonic())
        results[index] = TaskResult(
            index, status, value=value, detail=detail, runtime=runtime
        )

    try:
        while len(results) < n:
            now = time.monotonic()
            # hand queued tasks to idle workers
            for w in workers:
                if w.task is not None or not queue:
                    continue
                index = queue.pop(0)
                started[index] = time.monotonic()
                try:
                    w.assign(index, payloads[index], policy.task_timeout)
                except (OSError, BrokenPipeError):
                    # worker already gone: respawn and requeue the task
                    w.kill()
                    workers[workers.index(w)] = _Worker(fn, ctx)
                    queue.append(index)

            busy = [w for w in workers if w.task is not None]
            if not busy:
                if queue:  # every handoff failed: respawned workers retry it
                    continue
                break  # nothing queued, nothing running: all settled
            # wait for a result, but wake early for deadlines
            wait_for = 0.25
            for w in busy:
                if w.deadline is not None:
                    wait_for = min(wait_for, max(0.0, w.deadline - now))
            ready = multiprocessing.connection.wait(
                [w.conn for w in busy], timeout=wait_for
            )
            for conn in ready:
                w = next(x for x in busy if x.conn is conn)
                if w.task is None:  # pragma: no cover - settled by deadline path
                    continue
                index = w.task
                try:
                    r_index, status, value = w.conn.recv()
                except (EOFError, OSError):
                    # the worker died mid-task
                    code = w.proc.exitcode
                    w.kill()
                    workers[workers.index(w)] = _Worker(fn, ctx)
                    settle(
                        index, "crashed", None,
                        f"worker process died (exit code {code})",
                    )
                    continue
                w.task = None
                w.deadline = None
                if status == "ok":
                    settle(r_index, "ok", value, "")
                else:
                    settle(r_index, "error", None, value)
            # enforce deadlines on workers that are still running
            now = time.monotonic()
            for w in list(workers):
                if w.task is None or w.deadline is None or now < w.deadline:
                    continue
                index = w.task
                w.kill()
                workers[workers.index(w)] = _Worker(fn, ctx)
                settle(
                    index, "timeout", None,
                    f"task exceeded {policy.task_timeout}s; worker terminated",
                )
    except KeyboardInterrupt:
        truncated = True
    finally:
        for w in workers:
            w.kill()

    ordered = [
        results.get(i, TaskResult(i, "cancelled", detail="interrupted"))
        for i in range(n)
    ]
    return ExecutorReport(results=ordered, truncated=truncated)


def run_tasks(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    policy: ExecutorPolicy | None = None,
) -> ExecutorReport:
    """Run ``fn`` over ``payloads`` under the policy's containment rules.

    Every payload yields exactly one :class:`TaskResult` in submission
    order; the call itself raises only on programming errors (an
    unpicklable ``fn``), never because a task failed.
    """
    policy = policy or ExecutorPolicy()
    payloads = list(payloads)
    if not payloads:
        return ExecutorReport(results=[])
    if policy.jobs > 1 and len(payloads) > 1:
        return _run_pool(fn, payloads, policy)
    return _run_inline(fn, payloads, policy)
