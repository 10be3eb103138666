"""Tests for the shared watchdog-guarded worker pool."""

from __future__ import annotations

import os
import time

import pytest

from repro.fuzz.executor import (
    ExecutorPolicy,
    ExecutorReport,
    TaskResult,
    WallClockTimeout,
    run_tasks,
    wall_clock_guard,
)


# --- module-level task functions (must pickle for the pool) -----------
def _square(x):
    return x * x


def _maybe_fail(x):
    if x % 2:
        raise ValueError(f"odd payload {x}")
    return x


def _die(x):
    if x == "die":
        os._exit(17)  # simulated segfault: bypasses all Python cleanup
    return x


def _hang(x):
    if x == "hang":
        time.sleep(60)
    return x


def _unpicklable(_x):
    return lambda: None  # closures do not pickle


class TestInline:
    def test_all_ok(self):
        report = run_tasks(_square, [1, 2, 3])
        assert [r.status for r in report.results] == ["ok"] * 3
        assert report.values() == [1, 4, 9]
        assert not report.truncated

    def test_error_contained_in_order(self):
        report = run_tasks(_maybe_fail, [0, 1, 2, 3])
        assert [r.status for r in report.results] == ["ok", "error", "ok", "error"]
        assert "ValueError: odd payload 1" in report.results[1].detail
        assert report.counts()["error"] == 2

    def test_timeout_via_sigalrm(self):
        policy = ExecutorPolicy(task_timeout=0.2)
        report = run_tasks(_hang, ["hang", "fast"], policy)
        assert report.results[0].status == "timeout"
        assert report.results[1].status == "ok"

    def test_empty_batch(self):
        report = run_tasks(_square, [])
        assert report.results == []

    def test_wall_clock_guard_raises(self):
        with pytest.raises(WallClockTimeout):
            with wall_clock_guard(0.05):
                time.sleep(5)

    def test_wall_clock_guard_disabled(self):
        with wall_clock_guard(None):
            pass
        with wall_clock_guard(0):
            pass


class TestPool:
    def test_all_ok_in_submission_order(self):
        policy = ExecutorPolicy(jobs=3)
        report = run_tasks(_square, list(range(10)), policy)
        assert report.values() == [x * x for x in range(10)]
        assert not report.truncated

    def test_error_contained(self):
        policy = ExecutorPolicy(jobs=2)
        report = run_tasks(_maybe_fail, [0, 1, 2, 3], policy)
        assert [r.status for r in report.results] == ["ok", "error", "ok", "error"]

    def test_worker_death_is_crashed_and_pool_survives(self):
        policy = ExecutorPolicy(jobs=2)
        report = run_tasks(_die, ["a", "die", "b", "c"], policy)
        by_status = {r.status for r in report.results}
        assert report.results[1].status == "crashed"
        assert "exit code" in report.results[1].detail
        # the other tasks still completed on respawned/live workers
        assert [r.status for i, r in enumerate(report.results) if i != 1] == ["ok"] * 3
        assert by_status == {"ok", "crashed"}

    def test_stuck_worker_killed_on_deadline(self):
        policy = ExecutorPolicy(jobs=2, task_timeout=0.5)
        t0 = time.monotonic()
        report = run_tasks(_hang, ["hang", "x", "y"], policy)
        assert time.monotonic() - t0 < 30
        assert report.results[0].status == "timeout"
        assert report.results[1].status == "ok"
        assert report.results[2].status == "ok"

    def test_unpicklable_result_is_error_not_hang(self):
        policy = ExecutorPolicy(jobs=2)
        report = run_tasks(_unpicklable, [1, 2], policy)
        assert all(r.status == "error" for r in report.results)
        assert "not sendable" in report.results[0].detail


class TestReportShape:
    def test_counts_cover_all_statuses(self):
        report = ExecutorReport(
            results=[TaskResult(0, "ok"), TaskResult(1, "cancelled")]
        )
        counts = report.counts()
        assert counts["ok"] == 1 and counts["cancelled"] == 1
        assert set(counts) == {"ok", "error", "timeout", "crashed", "cancelled"}
