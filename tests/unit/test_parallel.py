"""Unit tests for the morsel-driven worker pool (:mod:`repro.columnar.parallel`).

The differential property suite (``tests/property/test_parallel_differential``)
pins *what* the sharded stages compute; this file pins the executor machinery
itself — the ``workers`` knob's validation, the shard layout, result
ordering, and above all the failure modes: a shard worker that raises must
surface the **original** exception in the parent (not a hang, not a wrapped
pool error), and a worker that dies without reporting must raise
:class:`~repro.errors.ParallelError` instead of deadlocking.
"""

from __future__ import annotations

import os

import pytest

pytest.importorskip("numpy", reason="the parallel executor backs the columnar kernels")

from repro.columnar.parallel import (
    MORSELS_PER_WORKER,
    WORKERS_ENV,
    fork_capable,
    morsel_count,
    parallel_map,
    resolve_workers,
    shard_ranges,
)
from repro.errors import ParallelError, ReproError

needs_fork = pytest.mark.skipif(
    not fork_capable(), reason="the worker pool requires fork-started processes"
)


class TestResolveWorkers:
    def test_explicit_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_non_positive_counts_rejected(self, bad):
        with pytest.raises(ParallelError, match=">= 1"):
            resolve_workers(bad)

    @pytest.mark.parametrize("bad", [2.5, "2", True, False, [2]])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ParallelError, match="positive integer"):
            resolve_workers(bad)

    def test_parallel_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            resolve_workers(0)

    def test_default_without_env_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers() == 1

    def test_blank_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "   ")
        assert resolve_workers(None) == 1

    def test_env_value_is_read(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3

    @pytest.mark.parametrize("raw", ["zero", "2.5", "0", "-2"])
    def test_bad_env_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ParallelError, match=WORKERS_ENV):
            resolve_workers(None)

    def test_explicit_workers_ignore_the_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(2) == 2

    @pytest.fixture
    def fresh_warning_flag(self, monkeypatch):
        """Reset the once-per-process oversubscription warning dedup flag."""
        from repro.columnar import parallel

        monkeypatch.setattr(parallel, "_warned_oversubscription", False)

    def test_oversubscription_warns_but_honours_the_count(
        self, monkeypatch, fresh_warning_flag
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="exceeds os.cpu_count"):
            assert resolve_workers(3) == 3

    def test_oversubscribed_env_value_warns(self, monkeypatch, fresh_warning_flag):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setenv(WORKERS_ENV, "4")
        with pytest.warns(RuntimeWarning, match="oversubscribe"):
            assert resolve_workers(None) == 4

    def test_oversubscription_warns_once_per_process(
        self, monkeypatch, fresh_warning_flag
    ):
        """Repeated oversubscribed calls warn exactly once (regression).

        The serving loop resolves the worker knob on every cached-view
        build; before the dedup flag, each call repeated the warning.
        """
        import warnings

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="exceeds os.cpu_count"):
            assert resolve_workers(5) == 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(5) == 5  # deduped: silent, still honoured
            assert resolve_workers(8) == 8

    def test_fitting_counts_stay_silent(self, monkeypatch, fresh_warning_flag):
        import warnings

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(4) == 4
            assert resolve_workers(1) == 1


class TestShardRanges:
    def test_even_split(self):
        assert shard_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_remainder_spreads_over_leading_shards(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_empty_input_has_no_shards(self):
        assert shard_ranges(0, 4) == []
        assert shard_ranges(-3, 4) == []

    def test_more_shards_than_elements_caps_at_singletons(self):
        assert shard_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 100])
    def test_contiguous_non_empty_and_balanced(self, n, shards):
        ranges = shard_ranges(n, shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        sizes = [stop - start for start, stop in ranges]
        assert all(size > 0 for size in sizes)
        assert max(sizes) - min(sizes) <= 1
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start

    def test_morsel_count_scales_with_workers(self):
        assert morsel_count(1) == MORSELS_PER_WORKER
        assert morsel_count(3) == 3 * MORSELS_PER_WORKER


class TestParallelMap:
    def test_serial_path_is_a_plain_map(self):
        assert parallel_map(lambda x: x * x, [1, 2, 3], workers=1) == [1, 4, 9]
        assert parallel_map(lambda x: x + 1, [], workers=4) == []
        assert parallel_map(lambda x: x + 1, [41], workers=4) == [42]

    @needs_fork
    def test_results_come_back_in_task_order(self):
        import time

        def skewed(task):
            index, delay = task
            time.sleep(delay)
            return index

        tasks = [(0, 0.05), (1, 0.0), (2, 0.02), (3, 0.0), (4, 0.01)]
        assert parallel_map(skewed, tasks, workers=2) == [0, 1, 2, 3, 4]

    @needs_fork
    def test_closures_reach_workers_without_pickling(self):
        shift = 100
        assert parallel_map(lambda x: x + shift, [1, 2, 3], workers=2) == [101, 102, 103]

    @needs_fork
    def test_worker_exception_reraises_the_original(self):
        """An injected shard fault must surface as-is in the parent — the
        pool tears down instead of hanging on the missing result."""

        def faulty(task):
            if task == 2:
                raise ValueError("injected shard fault on task 2")
            return task

        with pytest.raises(ValueError, match="injected shard fault on task 2"):
            parallel_map(faulty, [0, 1, 2, 3], workers=2)

    @needs_fork
    def test_dead_worker_raises_parallel_error_not_deadlock(self):
        """A worker dying without reporting (``os._exit``) is detected by the
        liveness poll; the parent raises instead of waiting forever."""

        def dying(task):
            if task == 1:
                os._exit(17)
            return task

        with pytest.raises(ParallelError, match="exited without reporting"):
            parallel_map(dying, [0, 1, 2, 3], workers=2)

    @needs_fork
    def test_unpicklable_results_fail_loudly(self):
        """A result that cannot be pickled ships the pickling error to the
        parent (eager worker-side pickling) instead of dying silently in the
        queue's feeder thread and hanging the pool."""
        with pytest.raises(Exception, match="[Pp]ickle"):
            parallel_map(lambda task: lambda: task, [0, 1], workers=2)

    @needs_fork
    def test_no_queue_feeder_thread_outlives_the_pool(self):
        """Each pool joins its task queue's feeder thread before returning,
        so no later fork can inherit a feeder (and a lock it may hold)."""
        import threading

        for _ in range(3):
            assert parallel_map(lambda task: task + 1, [0, 1, 2, 3], workers=2) == [1, 2, 3, 4]
            feeders = [
                thread.name for thread in threading.enumerate()
                if thread.name.startswith("QueueFeederThread")
            ]
            assert feeders == []
