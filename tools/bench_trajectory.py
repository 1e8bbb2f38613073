"""Append one record of large-N plan-workload timings to a trajectory file.

Each run appends one JSON record to a ``BENCH_*.json`` trajectory (a JSON
array at the repository root) with one block per requested workload of
:mod:`repro.workloads.registry`.  A block first passes the workload's gates
(a diverging plan aborts the run before anything is recorded), then holds:

* ``rows`` and the workload's facts — the kernel ``method="auto"`` plans for
  a join, candidate and materialised pair counts, the SQL join kernels;
* ``table`` — the harness table's row at that size (per-contender ms and
  the derived speedups, kernels or serving statistics), each contender
  timed in a forked child at ``workers=1``, best of ``reps``;
* ``peak_rss_kb`` — each contender's peak RSS: forking isolates it, since
  ``ru_maxrss`` is a per-process high-water mark;
* ``sharded_ms`` — the sharded contender at every worker count above 1.

Contenders above their declared ceiling are skipped; that asymmetry is the
datapoint.  Records carry the host's core count: speedup numbers are only
meaningful when ``cpus >= workers`` (an oversubscribed pool measures
scheduling overhead, not scaling), so downstream tooling must filter on it
rather than compare raw milliseconds across machines.

Runs are config-driven: ``--config benchmarks/configs/<id>.json`` holds the
workload shape (rows / reps / workers / harness ids / output file) as JSON,
so every PR re-runs the *same* named configuration and the appended records
diff cleanly across commits.  Explicit CLI flags override config values.

Example::

    PYTHONPATH=src python tools/bench_trajectory.py --config benchmarks/configs/pipeline.json
    PYTHONPATH=src python tools/bench_trajectory.py --config benchmarks/configs/rangejoin.json
    PYTHONPATH=src python tools/bench_trajectory.py --rows 20000 --workers 1,2,4

The trajectory is append-only — committing the file over time charts the
backend's perf history against a fixed workload shape.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.workloads.registry import WORKLOADS, run_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"

#: Harness ids a config's ``harnesses`` list may name.
HARNESSES = tuple(WORKLOADS)


def best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _forked_best_of(fn, reps: int) -> tuple[float, int]:
    """Best-of timing plus peak RSS, measured in a forked child process.

    Forking isolates the measurement: ``ru_maxrss`` is a per-process
    high-water mark, so running both contenders in one process would let
    whichever ran first set the mark for both.  The child inherits the
    parent's pages copy-on-write, times ``fn`` like :func:`best_of`, and
    reports ``(best_ms, peak_rss_kb)`` back through a queue.  ``ru_maxrss``
    is kilobytes on Linux.
    """
    import multiprocessing
    import resource

    context = multiprocessing.get_context("fork")
    channel = context.Queue()

    def child() -> None:
        best = best_of(fn, reps)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        channel.put((best, int(peak)))

    process = context.Process(target=child)
    process.start()
    try:
        best_ms, peak_rss_kb = channel.get()
    finally:
        process.join()
    return best_ms, peak_rss_kb


def measure(workload, rows: int, workers: list[int], reps: int) -> dict:
    """One trajectory block: the workload's gates, table row and peak RSS.

    Runs the registry's checked run first (a gate failure aborts the run, so
    no timing of a diverging plan is recorded), then times every contender
    that ran at ``workers=1`` in a forked child, best of ``reps``.  The
    sharded contender is also timed at every worker count above 1.
    """
    outcome = run_workload(workload, rows)
    if outcome.failures:
        raise SystemExit("; ".join(outcome.failures))
    peak_rss_kb = {}
    for label in outcome.outputs:
        contender = workload.contender(label)
        args = outcome.inputs.for_contender(contender)
        outcome.ms[label], peak_rss_kb[label] = _forked_best_of(
            lambda: contender.run(args, 1), reps
        )
    block = {
        "rows": rows,
        **outcome.facts,
        "table": {
            header: round(value, 3) if isinstance(value, float) else value
            for header, value in zip(workload.headers, outcome.row()[1:])
        },
        "peak_rss_kb": peak_rss_kb,
    }
    sharded = workload.sharded
    if sharded in outcome.outputs and any(count > 1 for count in workers):
        contender = workload.contender(sharded)
        args = outcome.inputs.for_contender(contender)
        block["sharded_ms"] = {
            str(count): round(
                _forked_best_of(lambda: contender.run(args, count), reps)[0], 3
            )
            for count in workers
            if count > 1
        }
    print(f"{workload.name} rows={rows}: {json.dumps(block)}")
    return block


def parse_workers(raw: str) -> list[int]:
    try:
        values = sorted({int(part) for part in raw.split(",") if part.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of positive integers, got {raw!r}"
        ) from None
    if not values or any(value < 1 for value in values):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of positive integers, got {raw!r}"
        )
    return values


def load_config(path: Path) -> dict:
    """Parse and validate one ``benchmarks/configs/<id>.json`` file."""
    config = json.loads(path.read_text())
    if not isinstance(config, dict):
        raise SystemExit(f"{path} must hold a JSON object")
    unknown = set(config) - {"rows", "reps", "workers", "harnesses", "output"}
    if unknown:
        raise SystemExit(f"{path}: unknown config keys {sorted(unknown)}")
    harnesses = config.get("harnesses", [])
    bad = [h for h in harnesses if h not in HARNESSES]
    if bad:
        raise SystemExit(f"{path}: unknown harness ids {bad}; expected {HARNESSES}")
    workers = config.get("workers", [])
    if not isinstance(workers, list) or any(
        not isinstance(w, int) or w < 1 for w in workers
    ):
        raise SystemExit(f"{path}: 'workers' must be a list of positive integers")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="JSON config (benchmarks/configs/<id>.json) supplying defaults "
        "for rows/reps/workers/harnesses/output; explicit flags override",
    )
    parser.add_argument("--rows", type=int, default=None, help="workload size (default 20000)")
    parser.add_argument(
        "--workers",
        type=parse_workers,
        default=None,
        help="comma-separated worker counts to time (default 1,2,4)",
    )
    parser.add_argument("--reps", type=int, default=None, help="repetitions, best-of (default 1)")
    parser.add_argument(
        "--output", type=Path, default=None, help="trajectory file to append to"
    )
    args = parser.parse_args(argv)

    config = load_config(args.config) if args.config else {}
    rows = args.rows if args.rows is not None else config.get("rows", 20000)
    reps = args.reps if args.reps is not None else config.get("reps", 1)
    workers = (
        args.workers if args.workers is not None else config.get("workers") or [1, 2, 4]
    )
    harnesses = config.get("harnesses") or ["multiwindow", "equijoin"]
    output = args.output or (
        REPO_ROOT / config["output"] if "output" in config else DEFAULT_OUTPUT
    )

    record = {
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "rows": rows,
        "reps": reps,
        "cpus": os.cpu_count() or 1,
        "workers": workers,
    }
    if args.config:
        record["config"] = args.config.stem
    for name in harnesses:
        record[name] = measure(WORKLOADS[name], rows, workers, reps)

    trajectory = []
    if output.exists():
        trajectory = json.loads(output.read_text())
        if not isinstance(trajectory, list):
            raise SystemExit(f"{output} is not a JSON array")
    trajectory.append(record)
    output.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"appended record #{len(trajectory)} to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
