"""Morsel-driven multiprocessing executor for the columnar kernels.

The columnar kernels partition cleanly: window sweeps split by certain
``PARTITION BY`` groups, equi-joins by candidate-pair ranges, and sort
position bounds by row shards whose per-shard emission schedules merge by
summation.  This module supplies the shared execution machinery those
stages use:

* :func:`resolve_workers` — the ``workers`` knob (``None`` reads the
  ``REPRO_WORKERS`` environment variable; ``1`` means serial);
* :func:`parallel_map` — a fork-based, morsel-driven worker pool.  Tasks
  are pulled from a shared queue as workers free up, so skewed shards do
  not straggle behind a static assignment.  Inputs reach the workers
  through fork's copy-on-write page sharing (no pickling of the column
  arrays); results return pickled, in task order;
* :func:`shard_ranges` / :func:`morsel_count` — contiguous shard layout
  helpers shared by every sharded stage.

``workers=1`` never touches any of this machinery beyond a trivial list
comprehension in :func:`parallel_map`: every call site keeps its exact
single-shard code path, and the differential property suite pins
``sharded == unsharded`` for every stage class.

>>> resolve_workers(1)
1
>>> shard_ranges(10, 3)
[(0, 4), (4, 7), (7, 10)]
>>> parallel_map(lambda x: x * x, [1, 2, 3], workers=1)
[1, 4, 9]

A worker that raises surfaces the *original* exception in the parent (the
pool shuts down instead of hanging); a worker that dies without reporting
raises :class:`~repro.errors.ParallelError`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import warnings
from typing import Callable, Iterable, TypeVar

from repro.errors import ParallelError

__all__ = [
    "WORKERS_ENV",
    "resolve_workers",
    "fork_capable",
    "shard_ranges",
    "morsel_count",
    "pair_blocks",
    "parallel_map",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when ``workers`` is not given explicitly.
WORKERS_ENV = "REPRO_WORKERS"

#: Morsels per worker: enough slack for the pull-based queue to rebalance
#: skewed shards without drowning small inputs in scheduling overhead.
MORSELS_PER_WORKER = 4

#: Seconds between liveness checks while waiting on worker results.
_POLL_INTERVAL = 0.2


#: Whether the oversubscription warning has already fired in this process.
#: The serving layer resolves a worker count on every cached-view build, so a
#: per-call warning would spam the log once per query; one line per process
#: is enough to surface the misconfiguration (tests reset the flag).
_warned_oversubscription = False


def _warn_if_oversubscribed(workers: int) -> int:
    """Warn once per *process* when ``workers`` exceeds the machine's CPU count.

    Oversubscription makes the fork pool *slower* than serial (the committed
    BENCH records show 2-16x regressions with 2-4 workers on a 1-core
    container), so the footgun gets a one-line :class:`RuntimeWarning` —
    never an error: the count is still honoured.  The warning is deduplicated
    to the first offending call of the process: serving loops resolve the
    worker knob on every query, and repeating the same line per call buries
    the signal.
    """
    global _warned_oversubscription
    cpus = os.cpu_count()
    if cpus is not None and workers > cpus and not _warned_oversubscription:
        _warned_oversubscription = True
        warnings.warn(
            f"workers={workers} exceeds os.cpu_count()={cpus}; the fork pool "
            "will oversubscribe and typically runs slower than serial",
            RuntimeWarning,
            stacklevel=3,
        )
    return workers


def resolve_workers(workers: int | None = None) -> int:
    """Validate a worker count, or read it from ``REPRO_WORKERS``.

    ``None`` falls back to the environment variable (default ``1``);
    anything that is not a positive integer raises
    :class:`~repro.errors.ParallelError`.  A count above ``os.cpu_count()``
    is honoured but draws a one-line :class:`RuntimeWarning` — on a 1-core
    container the fork pool runs slower than serial, and the warning makes
    the silently-regressed benchmark configuration visible.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None or not raw.strip():
            return 1
        try:
            value = int(raw)
        except ValueError:
            raise ParallelError(
                f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
            ) from None
        if value < 1:
            raise ParallelError(f"{WORKERS_ENV} must be >= 1, got {raw!r}")
        return _warn_if_oversubscribed(value)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ParallelError(f"workers must be a positive integer, got {workers!r}")
    if workers < 1:
        raise ParallelError(f"workers must be >= 1, got {workers!r}")
    return _warn_if_oversubscribed(workers)


def fork_capable() -> bool:
    """Whether the platform supports fork-started workers.

    The pool relies on fork's copy-on-write inheritance to share the input
    column arrays (and the task closures) without pickling; platforms
    without it (e.g. Windows) run every plan serially.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def shard_ranges(n: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``shards`` contiguous, non-empty ranges.

    The first ``n % shards`` ranges are one element longer, so sizes differ
    by at most one.  Contiguity is what keeps sharded stages bit-identical:
    concatenating per-range results in range order reproduces the unsharded
    output exactly.
    """
    if n <= 0:
        return []
    shards = max(1, min(shards, n))
    base, extra = divmod(n, shards)
    ranges = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def morsel_count(workers: int) -> int:
    """How many morsels a sharded stage should cut its work into."""
    return workers * MORSELS_PER_WORKER


def pair_blocks(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous pair-range morsels for a stage sharded over ``n`` pair rows.

    The factorised layer (:mod:`repro.columnar.factorised`) shards its
    join-predicate evaluation over logical pair ranges with this layout;
    contiguity plus block-order concatenation is what keeps ``workers=N``
    bit-identical to the serial path.  ``workers <= 1``
    (or a single row) yields one block covering everything, so serial runs
    take the exact single-shard code path.
    """
    if n <= 0:
        return []
    if workers <= 1 or n == 1:
        return [(0, n)]
    return shard_ranges(n, morsel_count(workers))


def parallel_map(
    fn: Callable[[T], R], tasks: Iterable[T], *, workers: int
) -> list[R]:
    """Apply ``fn`` to every task across ``workers`` forked processes.

    Results come back in task order.  Tasks are dispatched through a shared
    queue (morsel-driven): an idle worker pulls the next task, so a skewed
    morsel occupies one worker while the rest drain the remainder.  With
    ``workers <= 1``, a single task, or no fork support this is exactly
    ``[fn(t) for t in tasks]`` — the serial path runs no pool code.

    A task that raises re-raises the original exception in the parent and
    tears the pool down; a worker that dies without reporting (killed,
    ``os._exit``) raises :class:`~repro.errors.ParallelError` instead of
    deadlocking — surviving workers finish, the missing results are
    detected, and the pool is reaped.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1 or not fork_capable():
        return [fn(task) for task in tasks]
    workers = min(workers, len(tasks))

    context = multiprocessing.get_context("fork")
    task_queue = context.Queue()
    result_queue = context.Queue()
    processes = [
        context.Process(
            target=_worker_loop,
            args=(fn, tasks, task_queue, result_queue),
            daemon=True,
        )
        for _ in range(workers)
    ]
    try:
        for process in processes:
            process.start()
        for index in range(len(tasks)):
            task_queue.put(index)
        for _ in processes:
            task_queue.put(None)  # one shutdown sentinel per worker

        results: list[R | None] = [None] * len(tasks)
        outstanding = len(tasks)
        while outstanding:
            try:
                payload = result_queue.get(timeout=_POLL_INTERVAL)
            except queue_module.Empty:
                if any(process.is_alive() for process in processes):
                    continue
                # Every worker exited; drain what they managed to report.
                while True:
                    try:
                        payload = result_queue.get_nowait()
                    except queue_module.Empty:
                        break
                    outstanding -= _consume(pickle.loads(payload), results)
                if outstanding:
                    codes = [process.exitcode for process in processes]
                    raise ParallelError(
                        f"{outstanding} shard result(s) missing: worker processes "
                        f"exited without reporting (exit codes {codes})"
                    )
                break
            outstanding -= _consume(pickle.loads(payload), results)
        return results  # type: ignore[return-value]
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            if process.pid is not None:
                process.join()
        # Join the task queue's feeder thread: a feeder still alive (and
        # possibly holding its lock) at the next fork would be inherited by
        # those workers, which can then block forever.  The parent is the
        # queue's only writer and its payloads are a few small ints, so the
        # join is immediate.
        task_queue.close()
        task_queue.join_thread()
        result_queue.close()


def _consume(message: tuple[int, bool, object], results: list) -> int:
    """Record one worker message; re-raise a shipped exception."""
    index, ok, value = message
    if not ok:
        if isinstance(value, BaseException):
            raise value
        raise ParallelError(f"shard worker failed: {value}")
    results[index] = value
    return 1


def _worker_loop(fn, tasks, task_queue, result_queue) -> None:
    """Worker body: pull task indexes until the shutdown sentinel.

    Results are pickled *eagerly* so an unpicklable result (or exception)
    becomes an explicit failure message instead of dying silently in the
    queue's feeder thread — the parent would otherwise wait on a result
    that never arrives.
    """
    while True:
        index = task_queue.get()
        if index is None:
            return
        try:
            payload = pickle.dumps(
                (index, True, fn(tasks[index])), protocol=pickle.HIGHEST_PROTOCOL
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                payload = pickle.dumps(
                    (index, False, exc), protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:
                payload = pickle.dumps(
                    (index, False, f"unpicklable {type(exc).__name__}: {exc}"),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            result_queue.put(payload)
            return
        result_queue.put(payload)
