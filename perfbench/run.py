"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload multiwindow --seed 1 --seconds 15 --trace 0

The run sets up the workload's inputs several times (``setup_s`` is the
median), collects and freezes the set-up garbage (``gc.collect(); gc.freeze()``,
so a full collection over set-up objects never lands in a timed request),
warms up, issues requests for ``--seconds``, and then checks every answer
outside the timed phase.  Human-readable lines come first; the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` traces every other request and prints the per-layer metrics
(the untraced half gives the tracing overhead).  The exit code is 0 only when
every answer checked out; a run that cannot import the library from this
checkout's ``src/`` exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Set-up repeats until it has run at least this often and this long (but
#: at most ``SETUP_MAX_REPEATS`` times); ``setup_s`` is the median.  A short
#: set-up is repeated over several seconds so that the median does not ride
#: on one moment of the host's speed.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 4.0
SETUP_MAX_REPEATS = 15



def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def import_library():
    """Import ``repro`` from this checkout's ``src/``; ``None`` if it is missing."""
    src = ROOT / "src"
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        return None
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return None
    return repro


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[str, float]:
    """``(label, value)``: the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample, at percentile ``100 (n - 10) / n``.
    Below twenty samples that percentile would not lie above the median, and
    the tail is the maximum instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return f"max of {n}", ordered[-1]
    return f"p{100 * (n - 10) / n:.2f} of {n}", ordered[n - 11]


def ratio(numerator: float, denominator: float):
    return numerator / denominator if denominator else None


def reset_peak_rss() -> bool:
    """Lower this process's peak RSS to its current RSS (Linux ``clear_refs``
    mode 5); ``False`` where the kernel does not offer it."""
    try:
        with open("/proc/self/clear_refs", "w") as control:
            control.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """The larger peak RSS of this process and of its largest waited-for
    child (the forked ``parallel_map`` workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set up, run and check one workload; returns the raw run record."""
    from perfbench.spans import GcWatch, Tracer, instrument
    from perfbench.workloads import Recorder
    from repro.columnar.factorised import pair_rows_materialised, reset_pair_rows

    setup_s = []
    state = None
    while len(setup_s) < SETUP_MAX_REPEATS and (
        len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_S
    ):
        state = None
        gc.collect()
        started = perf_counter()
        state = workload.setup(seed, seconds)
        setup_s.append(perf_counter() - started)
    gc.collect()
    gc.freeze()
    setup_rss = peak_rss_mb()
    query_phase_rss = reset_peak_rss()
    tracer = None
    if trace:
        tracer = Tracer()
        instrument(tracer)
    try:
        with GcWatch(tracer) as gc_watch:
            warm_started = perf_counter()
            workload.warm(state)
            warm_s = perf_counter() - warm_started
            gc_watch.reset()
            reset_pair_rows()
            recorder = Recorder(tracer)
            workload.run(state, seconds, recorder)
            rss = peak_rss_mb()
            collections = list(gc_watch.collections)
            pause_s = gc_watch.pause_s
        pair_rows = pair_rows_materialised()
        check = workload.check(state, recorder)
        counters = tracer.counters.snapshot() if tracer else {}
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.uninstall()
            tracer.close_counters()
    return {
        "setup_s": setup_s, "warm_s": warm_s, "recorder": recorder, "check": check,
        "rss_mb": rss, "setup_rss_mb": setup_rss, "query_phase_rss": query_phase_rss,
        "gc_collections": collections, "gc_pause_s": pause_s,
        "tracer": tracer, "counters": counters, "state": state, "pair_rows": pair_rows,
    }


def class_median(samples, value, key) -> float:
    """Per request class, the median ``value``; averaged over the classes
    weighted by their share of ``samples``.  One class: the plain median."""
    classes: dict = {}
    for s in samples:
        classes.setdefault(key(s), []).append(value(s))
    return sum(len(v) * statistics.median(v) for v in classes.values()) / len(samples)


def end_to_end(workload, run) -> tuple[dict, list[str]]:
    """The ``BENCHMARK.json`` end-to-end metrics plus human-readable notes.

    ``query_p50_ms`` is :func:`class_median` over the queries: classes are
    the query labels of a closed loop (timed from the start of the call),
    and label × cache hit / miss in the open loop (timed as service time,
    because there the wait behind other requests goes to the tail).
    ``queries_per_s`` is queries over their summed service time: in the
    closed loop the achieved rate, in the open loop the service capacity
    (the achieved rate there is the generator's offered rate).
    ``query_tail_ms`` is timed from each request's due time.
    """
    samples = run["recorder"].samples
    queries = [s for s in samples if s.label != "delta"]
    check = run["check"]
    latencies = [s.latency for s in queries]
    qps = len(queries) / sum(s.service for s in queries)
    if workload.closed:
        p50 = class_median(queries, lambda s: s.latency, lambda s: s.label)
    else:
        p50 = class_median(queries, lambda s: s.service, lambda s: (s.label, s.kind))
    tail_label, tail_value = tail(latencies)
    if run["query_phase_rss"]:
        rss_note = (f"peak_rss_mb covers the warm-up and timed phase, forked workers "
                    f"included (set-up peak {run['setup_rss_mb']:.1f} MB, not counted)")
    else:
        rss_note = "peak_rss_mb includes set-up (this kernel cannot reset the peak)"
    notes = [
        f"query_tail_ms is the {tail_label} queries",
        rss_note,
        f"certain_row_frac = {ratio(check.certain_rows, check.rows) or 0.0:.6f} "
        f"({check.certain_rows} of {check.rows} answer rows have mult.lb >= 1)",
    ]
    metrics = {
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "query_p50_ms": (p50 * 1e3, "ms"),
        "queries_per_s": (qps, "1/s"),
        "query_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
        "bound_width_mean": (ratio(check.width_sum, check.width_cells) or 0.0, "value"),
        "mult_width_mean": (ratio(check.mult_width_sum, check.rows) or 0.0, "count"),
    }
    return metrics, notes


def serve_split(samples) -> tuple[dict, list[str]]:
    """Serve latencies by template and hit / miss, plus delta latencies."""
    groups: dict[tuple[str, str], list[float]] = {}
    for s in samples:
        groups.setdefault((s.label, s.kind), []).append(s.service)
    lines = ["serve split (service time, ms): label kind count p50 max"]
    for (label, kind), values in sorted(groups.items()):
        lines.append(
            f"  {label:7s} {kind:6s} {len(values):5d} "
            f"{statistics.median(values) * 1e3:10.4f} {max(values) * 1e3:10.3f}"
        )
    return groups, lines


def per_layer(workload, run) -> tuple[dict, dict, list[str]]:
    """The ``BENCHMARK.json`` per-layer metrics from a traced run.

    Times are self times per traced request and counts are per request,
    except ``sql.grid_joins``, a run total that must stay 0.  The serve
    split (``serving.hit_us.*``, ``serving.miss_ms.*``,
    ``serving.delta_p50_ms``) is taken from the untraced half.  A metric
    without a base (a ratio over nothing, a count made where the parent
    cannot see it) reads 0 and is listed in the returned ``absent`` map with
    its reason.
    """
    from perfbench.spans import layer_table

    samples = run["recorder"].samples
    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]
    n = max(1, len(traced))
    by_layer, by_name = layer_table(run["tracer"].spans)
    counters = run["counters"]
    state = run["state"]
    absent: dict[str, str] = {}

    def self_ms(*names):
        return sum(by_name.get(name, {}).get("self_s", 0.0) for name in names) * 1e3 / n

    def rows(name, key):
        return by_name.get(name, {}).get(key, 0) / n

    def total_ms(name):
        """Inclusive time of a span name (children, e.g. parallel.map, included)."""
        return sum(s.seconds for s in run["tracer"].spans if s.name == name) * 1e3 / n

    def layer_ms(layer):
        return by_layer.get(layer, 0.0) * 1e3 / n

    def defined(name, value, reason):
        if value is None:
            absent[name] = reason
            return 0.0
        return value

    groups, split_lines = serve_split(plain) if not workload.closed else ({}, [])

    def split_value(label, kind, scale):
        values = groups.get((label, kind))
        return statistics.median(values) * scale if values else None

    member_pairs = counters["window.member_pairs"] / n
    candidates = counters["operators.join_candidate_pairs"] / n
    served = [s for s in samples if s.kind in ("hit", "miss")]
    hits = sum(s.kind == "hit" for s in served)
    waits = [s.start - s.due for s in samples]
    idle = [
        s.start - s.due for prev, s in zip(samples, samples[1:]) if prev.end <= s.due
    ]
    traced_ms = sum(
        span.seconds for span in run["tracer"].spans if span.name == "loadgen.request"
    ) * 1e3 / n
    layer_sum_ms = sum(by_layer.values()) * 1e3 / n

    def request_class(s):
        return s.label if workload.closed else (s.label, s.kind)

    overhead_ms = None
    if plain and traced:
        overhead_ms = (
            class_median(traced, lambda s: s.service, request_class)
            - class_median(plain, lambda s: s.service, request_class)
        ) * 1e3

    metrics = {
        "window.stage_ms": (layer_ms("window"), "ms"),
        "window.stage_total_ms": (total_ms("window.stage"), "ms"),
        "window.rows_in": (rows("window.stage", "rows_in"), "count"),
        "window.member_pairs": (member_pairs, "count"),
        "window.pair_yield": (defined(
            "window.pair_yield",
            ratio(counters["window.frame_slots"] / n, member_pairs),
            "no pair-count pass ran (every window sweep fit the pair budget)",
        ), "ratio"),
        "sort.stage_ms": (layer_ms("sort"), "ms"),
        "sort.rows_in": (rows("sort.sort", "rows_in") + rows("sort.topk", "rows_in"), "count"),
        "operators.join_ms": (self_ms("operators.join", "operators.candidates"), "ms"),
        "operators.join_candidate_pairs": (candidates, "count"),
        "operators.join_pair_yield": (defined(
            "operators.join_pair_yield", ratio(rows("operators.join", "rows_out"), candidates),
            "no join enumerated candidate pairs",
        ), "ratio"),
        "operators.groupby_ms": (self_ms("operators.groupby"), "ms"),
        "operators.select_ms": (self_ms("operators.select"), "ms"),
        "factorised.expand_ms": (layer_ms("factorised"), "ms"),
        "factorised.pair_rows": (defined(
            "factorised.pair_rows",
            None if workload.workers > 1 else run["pair_rows"] / max(1, len(samples)),
            f"workers={workload.workers}: pair rows gathered in forked workers "
            "are invisible to the parent",
        ), "count"),
        "relation.narrow_ms": (self_ms("relation.narrow"), "ms"),
        "relation.ingest_ms": (self_ms("relation.ingest"), "ms"),
        "relation.ingest_rows": (rows("relation.ingest", "rows_in"), "count"),
        "relation.to_rows_ms": (self_ms("relation.to_rows"), "ms"),
        "relation.to_rows_rows": (rows("relation.to_rows", "rows_out"), "count"),
        "parallel.map_ms": (layer_ms("parallel"), "ms"),
        "parallel.tasks": (counters["parallel.tasks"] / n, "count"),
        "incremental.build_ms": (self_ms("incremental.build"), "ms"),
        "incremental.builds": (by_name.get("incremental.build", {}).get("calls", 0) / n, "count"),
        "incremental.patch_ms": (self_ms("incremental.apply"), "ms"),
        "incremental.patched_frac": (defined(
            "incremental.patched_frac",
            ratio(counters["incremental.patched"], counters["incremental.applies"]),
            "no cached view applied a delta",
        ), "frac"),
        "serving.hit_rate": (defined(
            "serving.hit_rate", ratio(hits, len(served)), "no served queries",
        ), "frac"),
        "serving.evictions": (state.get("evictions", 0) / len(samples), "count"),
        "serving.hit_us.topk": (defined(
            "serving.hit_us.topk", split_value("topk", "hit", 1e6), "no topk hits",
        ), "us"),
        "serving.hit_us.window": (defined(
            "serving.hit_us.window", split_value("window", "hit", 1e6), "no window hits",
        ), "us"),
        "serving.miss_ms.topk": (defined(
            "serving.miss_ms.topk", split_value("topk", "miss", 1e3), "no topk misses",
        ), "ms"),
        "serving.miss_ms.window": (defined(
            "serving.miss_ms.window", split_value("window", "miss", 1e3), "no window misses",
        ), "ms"),
        "serving.delta_p50_ms": (defined(
            "serving.delta_p50_ms", split_value("delta", "delta", 1e3), "no deltas",
        ), "ms"),
        "sql.compile_ms": (self_ms("sql.compile"), "ms"),
        "sql.grid_joins": (state.get("grid", 0), "count"),
        "gc.gen2_collections": (run["gc_collections"][2] / len(samples), "count"),
        "gc.pause_ms": (layer_ms("gc"), "ms"),
        "loadgen.queue_wait_ms": (statistics.fmean(waits) * 1e3, "ms"),
        "loadgen.late_ms": (defined(
            "loadgen.late_ms", statistics.fmean(idle) * 1e3 if idle else None,
            "no request arrived at an idle server",
        ), "ms"),
        "trace.query_ms": (traced_ms, "ms"),
        "trace.layer_sum_ms": (layer_sum_ms, "ms"),
        "trace.overhead_ms": (defined(
            "trace.overhead_ms", overhead_ms,
            "no untraced request to compare with",
        ), "ms"),
    }
    return metrics, absent, split_lines


def stage_lines(tracer) -> list[str]:
    """Rows in and out of every span of the first traced request, in call order."""
    first = min((s.request for s in tracer.spans), default=None)
    spans = [s for s in tracer.spans if s.request == first]
    spans.sort(key=lambda s: s.start)
    depth = {}
    lines = ["stages of the first traced request (name rows_in -> rows_out, ms):"]
    for span in spans:
        depth[span.sid] = depth.get(span.parent, -1) + 1
        if span.name == "gc.collect":
            continue
        rows_in = "-" if span.rows_in is None else span.rows_in
        rows_out = "-" if span.rows_out is None else span.rows_out
        lines.append(
            f"  {'  ' * depth[span.sid]}{span.name} {rows_in} -> {rows_out} "
            f"({span.seconds * 1e3:.3f} ms)"
        )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_library() is None:
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.size)
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    recorder, check = run["recorder"], run["check"]
    attempted = len(recorder.samples)
    failed = min(attempted, recorder.failed() + check.failed)

    print(f"workload {workload.name} seed {args.seed} size {args.size} "
          f"workers {workload.workers} trace {args.trace}")
    print("setup_s runs: " + ", ".join(f"{t:.4f}" for t in run["setup_s"])
          + f"; warm-up {run['warm_s']:.4f} s (untimed)")
    print(f"gc.freeze() after set-up; timed phase: gen0/1/2 collections "
          f"{run['gc_collections']}, pause {run['gc_pause_s'] * 1e3:.3f} ms")
    for label, digest in check.digests.items():
        print(f"answer digest {label}: {digest}")
    for problem in check.problems:
        print(f"CHECK FAILED: {problem}")
    if recorder.errors:
        print(f"{len(recorder.errors)} request(s) raised; first:\n{recorder.errors[0]}")
    print(f"failed_frac = {failed / max(1, attempted):.6f} ({failed} of {attempted} ops)")

    if args.trace:
        metrics, absent, split_lines = per_layer(workload, run)
        print("\n".join(stage_lines(run["tracer"])))
        for line in split_lines:
            print(line)
        for name, reason in absent.items():
            print(f"absent: {name} ({reason})")
        print(f"layer self times add up to {metrics['trace.layer_sum_ms'][0]:.4f} ms "
              f"of {metrics['trace.query_ms'][0]:.4f} ms traced per request")
    else:
        metrics, notes = end_to_end(workload, run)
        if not workload.closed:
            _groups, split_lines = serve_split(recorder.samples)
            notes += split_lines
        for line in notes:
            print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
