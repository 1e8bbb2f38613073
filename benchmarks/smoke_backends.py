"""Small-N smoke run of every backend comparison: agreement gates plus speedups.

Used by CI to catch two regressions fast, without the full benchmark suite:

* **divergence and gate failures** — always fatal.  The sort, top-k and
  window paths (including following-only frames, which exercise the
  mirrored-order reduction) must agree across the python backend, the
  columnar backend and the definitional rewrite.  Every plan workload of
  :mod:`repro.workloads.registry` runs through its declared gates: each
  contender agrees with the reference row for row, the count and kernel
  gates hold, and — with ``REPRO_WORKERS`` above 1 — the sharded run of
  the workload's parallel contender equals its ``workers=1`` run;
* **performance regressions** — the columnar paths should stay faster than
  their baselines at the smoke size, and each workload's declared speedup
  floors should hold (the full benchmark suite measures the real ratios).
  Wall-clock comparisons are noisy on shared CI runners, so a slowdown only
  *warns* by default; set ``REPRO_SMOKE_STRICT_PERF=1`` to make it fatal.

Run directly: ``PYTHONPATH=src python benchmarks/smoke_backends.py [rows]``.
Exits non-zero on divergence (always) or slowdown (strict mode only).
"""

from __future__ import annotations

import os
import sys
import time

from repro.columnar.relation import ColumnarAURelation
from repro.harness.adapters import audb_from_workload
from repro.ranking.topk import sort as au_sort, topk as au_topk
from repro.window.native import window_native
from repro.window.semantics import window_rewrite
from repro.window.spec import WindowSpec
from repro.workloads.registry import WORKLOADS, run_workload
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_sort_table,
    generate_window_table,
)



def best_of(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def checked_best_of(fn) -> tuple[object, float]:
    """The output of one run plus the best-of-5 ms; paths over 100 ms run once."""
    start = time.perf_counter()
    output = fn()
    ms = (time.perf_counter() - start) * 1000.0
    return output, (min(ms, best_of(fn)) if ms < 100.0 else ms)


def _report_speedup(
    path: str, rows: int, baseline_ms: float, columnar_ms: float, *, baseline: str = "python"
) -> int:
    speedup = baseline_ms / columnar_ms if columnar_ms else float("inf")
    print(
        f"{path} rows={rows}: {baseline}={baseline_ms:.2f}ms columnar={columnar_ms:.2f}ms "
        f"speedup={speedup:.2f}x"
    )
    if speedup < 1.0:
        if os.environ.get("REPRO_SMOKE_STRICT_PERF") == "1":
            print(f"FAIL: columnar backend slower than the {baseline} path on {path}")
            return 1
        print(
            f"WARN: columnar backend slower than the {baseline} path on {path} "
            "(not fatal; set REPRO_SMOKE_STRICT_PERF=1 to enforce)"
        )
    return 0


def smoke_sort(rows: int) -> int:
    config = SyntheticConfig(
        rows=rows, uncertainty=0.05, attribute_range=max(4, rows // 2), domain=10 * rows, seed=0
    )
    audb = audb_from_workload(generate_sort_table(config))
    columnar = ColumnarAURelation.from_relation(audb)
    order_by = ["a"]

    python_result = au_sort(audb, order_by, method="native")
    columnar_result = au_sort(columnar, order_by, method="native", backend="columnar")
    rewrite_result = au_sort(audb, order_by, method="rewrite")

    failures = 0
    if not (
        python_result.schema == columnar_result.schema == rewrite_result.schema
        and python_result._rows == columnar_result._rows == rewrite_result._rows
    ):
        print("FAIL: sort backends/methods diverge (python vs columnar vs rewrite)")
        failures += 1
    for k in (1, rows // 4):
        tp = au_topk(audb, order_by, k, method="native")
        tc = au_topk(audb, order_by, k, method="native", backend="columnar")
        if tp._rows != tc._rows:
            print(f"FAIL: top-{k} backends diverge")
            failures += 1

    python_ms = best_of(lambda: au_sort(audb, order_by, method="native"))
    columnar_ms = best_of(lambda: au_sort(columnar, order_by, method="native", backend="columnar"))
    failures += _report_speedup("sort", rows, python_ms, columnar_ms)
    return failures


def smoke_window(rows: int) -> int:
    config = SyntheticConfig(
        rows=rows, uncertainty=0.05, attribute_range=max(4, rows // 2), domain=10 * rows, seed=0
    )
    audb = audb_from_workload(generate_window_table(config, partitions=1))
    columnar = ColumnarAURelation.from_relation(audb)
    preceding = WindowSpec(
        function="sum", attribute="v", output="w_sum", order_by=("o",), frame=(-2, 0)
    )
    following = WindowSpec(
        function="sum", attribute="v", output="w_sum", order_by=("o",), frame=(0, 2)
    )

    failures = 0
    for label, spec in (("preceding", preceding), ("following", following)):
        python_result = window_native(audb, spec)
        columnar_result = window_native(columnar, spec, backend="columnar")
        rewrite_result = window_rewrite(audb, spec)
        if not (
            python_result.schema == columnar_result.schema == rewrite_result.schema
            and python_result._rows == columnar_result._rows == rewrite_result._rows
        ):
            print(f"FAIL: {label}-frame window backends/methods diverge")
            failures += 1

    python_ms = best_of(lambda: window_native(audb, preceding))
    columnar_ms = best_of(lambda: window_native(columnar, preceding, backend="columnar"))
    failures += _report_speedup("window", rows, python_ms, columnar_ms)
    return failures


def smoke_workloads(rows: int) -> int:
    """Every plan workload of the registry: its gates, timings and speedup floors.

    Gate failures (disagreement, count gates, sharded != serial) are always
    fatal; a workload that fails one reports no timings.  Speedup floors
    only warn unless ``REPRO_SMOKE_STRICT_PERF=1``.
    """
    strict = os.environ.get("REPRO_SMOKE_STRICT_PERF") == "1"
    failures = 0
    for workload in WORKLOADS.values():
        outcome = run_workload(workload, rows, measure=checked_best_of)
        for message in outcome.failures:
            print(f"FAIL: {message}")
        failures += len(outcome.failures)
        if outcome.failures:
            continue
        cells = [
            f"{header}={value:.2f}" if isinstance(value, float) else f"{header}={value}"
            for header, value in zip(workload.headers, outcome.row()[1:])
        ]
        facts = [f"{name}={value}" for name, value in outcome.facts.items()]
        print(f"{workload.name} rows={rows}: " + " ".join(cells + facts))
        for message in outcome.floor_misses():
            if strict:
                print(f"FAIL: {message}")
                failures += 1
            else:
                print(f"WARN: {message} (not fatal; set REPRO_SMOKE_STRICT_PERF=1 to enforce)")
    return failures


def main(rows: int = 200) -> int:
    failures = smoke_sort(rows) + smoke_window(rows) + smoke_workloads(rows)
    if not failures:
        print("OK: backends agree bit-for-bit")
    return failures


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 200))
