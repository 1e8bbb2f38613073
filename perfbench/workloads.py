"""The benchmark's three workloads: inputs from a seed, a timed loop, a check.

Each workload class has the same four steps, which :mod:`perfbench.run`
drives in order:

* ``setup(seed, seconds)`` builds everything a run loads once (timed as
  ``setup_s``; ``seconds`` sizes an open-loop schedule);
* ``warm(state)`` runs untimed requests so lazy set-up finishes first;
* ``run(state, seconds, recorder)`` issues the timed requests through
  :class:`Recorder`, which times each one and, in a traced run, traces
  every other one;
* ``check(state, recorder)`` verifies every answer outside the timed phase
  and returns a :class:`Check`.

``multiwindow`` and ``sql-rank`` are closed loops with one caller;
``serve-mix`` is an open loop at a fixed rate whose single-threaded
generator is also the caller.
"""

from __future__ import annotations

import hashlib
import random
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter

from perfbench.spans import Tracer

__all__ = ["WORKLOADS", "Recorder", "Check", "answer_digest", "answer_quality"]


# ---------------------------------------------------------------------------
# Answers: digests and tightness
# ---------------------------------------------------------------------------


def answer_digest(relation) -> str:
    """SHA-256 over every row's value and multiplicity triples, in row order."""
    rows = [
        (
            tuple((v.lb, v.sg, v.ub) for v in tup.values),
            (mult.lb, mult.sg, mult.ub),
        )
        for tup, mult in relation
    ]
    return hashlib.sha256(repr((tuple(relation.schema), rows)).encode()).hexdigest()


def answer_quality(relation, attributes) -> tuple[float, int, int, int, int]:
    """``(width_sum, width_cells, mult_width_sum, certain_rows, rows)`` of one answer.

    Widths are ``ub - lb`` of the named (position / aggregate) attributes;
    a row's multiplicity width is ``mult.ub - mult.lb``, and the row is
    certain when ``mult.lb >= 1``.
    """
    names = list(relation.schema)
    columns = [names.index(a) for a in attributes]
    width = 0.0
    mult_width = certain = rows = 0
    for tup, mult in relation:
        for j in columns:
            value = tup.values[j]
            width += float(value.ub) - float(value.lb)
        mult_width += mult.ub - mult.lb
        certain += mult.lb >= 1
        rows += 1
    return width, rows * len(columns), mult_width, certain, rows


# ---------------------------------------------------------------------------
# Timing and tracing requests
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One timed request: ``perf_counter`` instants, in seconds."""

    label: str
    due: float
    start: float
    end: float
    traced: bool
    ok: bool
    kind: str = ""

    @property
    def service(self) -> float:
        return self.end - self.start

    @property
    def latency(self) -> float:
        """From the due time (open loop) or the start (closed loop) to the end."""
        return self.end - self.due


class Recorder:
    """Times requests; with a tracer, traces every other request of each label.

    Traced requests run with the wrappers installed and one ``loadgen``
    root span around the call; untraced ones run with nothing installed, so
    the two halves of a traced run measure the tracing overhead.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.samples: list[Sample] = []
        self.errors: list[str] = []
        self._seen: dict[str, int] = {}

    def call(self, label: str, fn, *, due: float | None = None):
        """Run ``fn()`` as one request; returns its result or ``None`` if it raised."""
        index = len(self.samples)
        tracer = self.tracer
        seen = self._seen.get(label, 0)
        self._seen[label] = seen + 1
        traced = tracer is not None and seen % 2 == 1
        if traced:
            tracer.install()
            tracer.request = index
            tracer.recording = True
            root = tracer.open("loadgen.request", "loadgen")
        start = perf_counter()
        ok = True
        result = None
        try:
            result = fn()
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            ok = False
            self.errors.append(traceback.format_exc())
        end = perf_counter()
        if traced:
            tracer.close(root)
            tracer.recording = False
            tracer.uninstall()
        self.samples.append(
            Sample(label, start if due is None else due, start, end, traced, ok)
        )
        return result

    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)


@dataclass
class Check:
    """Outcome of a workload's answer check."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    width_sum: float = 0.0
    width_cells: int = 0
    mult_width_sum: int = 0
    certain_rows: int = 0
    rows: int = 0

    def add_quality(self, relation, attributes) -> None:
        width, cells, mult_width, certain, rows = answer_quality(relation, attributes)
        self.width_sum += width
        self.width_cells += cells
        self.mult_width_sum += mult_width
        self.certain_rows += certain
        self.rows += rows

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def _wait_until(due: float) -> None:
    """Spin until ``due``: no sleep, so arrivals are on time and the caller's
    core stays as warm between requests as it is under back-to-back load."""
    while perf_counter() < due:
        pass


def closed_loop(recorder: Recorder, requests, seconds: float) -> dict[str, list[str]]:
    """Issue ``requests`` round-robin, one at a time, for ``seconds``.

    Returns each label's answer digests.  Answers are digested between
    requests and then dropped: keeping them alive would grow the heap every
    full collection scans, and so slow the very requests being timed.
    """
    digests: dict[str, list[str]] = {}
    started = perf_counter()
    i = 0
    while True:
        label, fn = requests[i % len(requests)]
        answer = recorder.call(label, fn)
        if answer is not None:
            digests.setdefault(label, []).append(answer_digest(answer))
        del answer
        i += 1
        if perf_counter() - started >= seconds:
            return digests


# ---------------------------------------------------------------------------
# multiwindow
# ---------------------------------------------------------------------------


class Multiwindow:
    """``select → join → window → select → window`` at N rows, workers=2."""

    name = "multiwindow"
    workers = 2
    closed = True
    sizes = {"full": 20_000, "tiny": 400}

    def __init__(self, size: str = "full"):
        self.rows = self.sizes[size]

    def setup(self, seed: int, seconds: float):
        from repro.workloads.pipeline import multiwindow_inputs

        return {"inputs": multiwindow_inputs(self.rows, seed=seed)}

    def _query(self, state):
        from repro.workloads.pipeline import run_multiwindow_columnar

        fact, dim, threshold = state["inputs"]
        return run_multiwindow_columnar(fact, dim, threshold, workers=self.workers)

    def warm(self, state) -> None:
        state["warm"] = self._query(state)

    def run(self, state, seconds: float, recorder: Recorder) -> None:
        state["digests"] = closed_loop(
            recorder, [("query", lambda: self._query(state))], seconds
        )

    def check(self, state, recorder: Recorder) -> Check:
        """The warm-up answer and every timed answer against the python backend."""
        from repro.workloads.pipeline import run_multiwindow_python

        check = Check()
        expected = answer_digest(run_multiwindow_python(*state["inputs"]))
        check.digests["query"] = expected
        got = [answer_digest(state["warm"]), *state["digests"].get("query", [])]
        wrong = sum(digest != expected for digest in got)
        if wrong:
            check.fail(wrong, f"{wrong} answer(s) differ from the python backend")
        check.add_quality(state["warm"], ["w1", "w2"])
        return check


# ---------------------------------------------------------------------------
# sql-rank
# ---------------------------------------------------------------------------

#: The second query of the sql-rank mix: join, filter on the dimension, top-100.
LEADERBOARD_QUERY = (
    "SELECT o.k AS k, o.v AS v, p.w AS w FROM orders o JOIN parts p ON o.k = p.k "
    "WHERE p.w < 800 ORDER BY v DESC LIMIT 100"
)


class SqlRank:
    """Alternating ``report`` / ``leaderboard`` SQL over a columnar catalog."""

    name = "sql-rank"
    workers = 1
    closed = True
    sizes = {"full": (100_000, 400), "tiny": (2_000, 120)}

    def __init__(self, size: str = "full"):
        self.rows, self.check_rows = self.sizes[size]

    def queries(self) -> dict[str, str]:
        from repro.workloads.sql import SQL_SCALING_QUERY

        return {"report": SQL_SCALING_QUERY, "leaderboard": LEADERBOARD_QUERY}

    def setup(self, seed: int, seconds: float):
        from repro.columnar.relation import as_columnar
        from repro.workloads.sql import sql_catalog

        catalog = {
            name: as_columnar(relation)
            for name, relation in sql_catalog(self.rows, seed=seed).items()
        }
        return {"seed": seed, "catalog": catalog, "grid": 0}

    def _query(self, state, label: str):
        import repro.sql

        compiled = repro.sql.compile_sql(self.queries()[label], state["catalog"])
        answer = compiled.run()
        state["grid"] += compiled.join_kernels.count("grid")
        return answer

    def warm(self, state) -> None:
        """One untimed run of each query; its answer is the reference the
        timed answers must repeat."""
        state["warm"] = {label: self._query(state, label) for label in self.queries()}

    def run(self, state, seconds: float, recorder: Recorder) -> None:
        requests = [
            (label, lambda label=label: self._query(state, label)) for label in self.queries()
        ]
        state["digests"] = closed_loop(recorder, requests, seconds)

    def check(self, state, recorder: Recorder) -> Check:
        """Timed answers against the warm-up answer, which is checked against
        the python backend on a reduced catalog from the same seed."""
        import repro.sql
        from repro.columnar.relation import as_columnar
        from repro.workloads.sql import sql_catalog

        check = Check()
        if state["grid"]:
            check.fail(state["grid"], f"{state['grid']} join(s) fell back to the grid kernel")
        small = sql_catalog(self.check_rows, seed=state["seed"])
        small_columnar = {name: as_columnar(rel) for name, rel in small.items()}
        for label, query in self.queries().items():
            reference = answer_digest(state["warm"][label])
            digests = state["digests"].get(label, [])
            check.digests[label] = reference
            wrong = sum(digest != reference for digest in digests)
            if wrong:
                check.fail(wrong, f"{label}: {wrong} answer(s) differ from the warm-up answer")
            python = repro.sql.compile_sql(query, small, backend="python").run()
            columnar = repro.sql.compile_sql(query, small_columnar).run()
            if answer_digest(python) != answer_digest(columnar):
                check.fail(
                    len(digests) or 1,
                    f"{label}: columnar differs from the python backend at "
                    f"{self.check_rows} rows",
                )
            check.add_quality(state["warm"][label], ["total", "n"] if label == "report" else [])
        return check


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------


class ServeMix:
    """Open-loop reads and deltas against a :class:`~repro.serving.QueryServer`.

    Keys are template × threshold pairs, a few more than the view cache
    holds; popularity is Zipf and each key's read count is its Zipf quota.
    Reads arrive at a fixed rate and deltas at a fixed interval, and the
    server is about two fifths busy.  The tail is timed from the due time.
    """

    name = "serve-mix"
    workers = 1
    closed = False
    capacity = 32
    keys = 40
    zipf = 0.8
    query_rate = 20.0
    delta_every_s = 4.0
    delta_rows = 6
    #: A read that misses the cache is not issued within this long after a
    #: window miss or a delta is due, nor a window miss this long before a
    #: delta: about twice a window miss's service time at 4096 rows.
    quiet_s = 0.7
    #: Bases the tightness figures are taken over (the run's final base and
    #: more drawn from the seed); ~0.3 s each.
    tightness_bases = 16
    sizes = {"full": 4096, "tiny": 256}

    def __init__(self, size: str = "full"):
        self.rows = self.sizes[size]

    def _key_space(self) -> list[tuple[tuple[str, int], float]]:
        """``(key, read weight)`` pairs, most popular first.

        Popularity rank ``r`` weighs ``1 / (r + 1)^zipf``; every fifth rank
        is a ``window`` key, as every fifth query is in ``serve_schedule``
        (``q % 5 == 4``).  The thresholds are ``0, 25, ..., 975``: every
        view keeps 90-100% of the rows, so a template's misses cost about
        the same whichever key misses.  (Spread over ``serve_schedule``'s
        ``[0, 9000]``, the few window misses of a run fell on filters
        keeping 10-100% of the rows, and their median swung by half between
        seeds.)  A fixed shuffle puts them in rank order, and they are the
        same for every seed, so the seed varies the data and not which
        filters are hot.
        """
        values = random.Random(0).sample(range(0, 25 * self.keys, 25), self.keys)
        return [
            (("window" if rank % 5 == 4 else "topk", threshold),
             1.0 / (rank + 1) ** self.zipf)
            for rank, threshold in enumerate(values)
        ]

    def _schedule(self, weighted, seconds: float):
        """``(offset_s, op)`` pairs: Zipf-quota reads plus evenly spaced deltas.

        Read ``i`` is due at ``i / query_rate``.  Each slot goes to the key
        furthest behind its quota, among the keys whose read may be issued
        then: a read the cache (LRU, filled as :meth:`setup` fills it) would
        miss is held back while a window miss or a delta due less than
        ``quiet_s`` earlier may still run, and a window miss also while a
        delta is due within ``quiet_s``.  So every slow operation has the
        server to itself, and the tail is the 11th-slowest of a run's ~15
        window misses.  Without the hold-back, two window misses and a delta
        piled up within a second in one spot of the run, and that one busy
        spell set the tail (516 and 421 ms on seeds 1 and 2), so the tail
        swung with how a few service times happened to line up.

        The schedule is the same for every seed; the seed varies the data
        and the deltas.
        """
        queries = max(1, int(round(self.query_rate * seconds)))
        total = sum(weight for _key, weight in weighted)
        exact = [queries * weight / total for _key, weight in weighted]
        quota = [int(e) for e in exact]
        by_remainder = sorted(range(len(weighted)), key=lambda r: exact[r] - quota[r],
                              reverse=True)
        for rank in by_remainder[: queries - sum(quota)]:
            quota[rank] += 1
        window = [key[0] == "window" for key, _weight in weighted]
        deltas = [(d + 0.5) * self.delta_every_s
                  for d in range(int(seconds / self.delta_every_s))]
        cache = OrderedDict.fromkeys(reversed(range(self.capacity)))
        served = [0] * len(weighted)
        last_window_miss = float("-inf")
        ops = []
        for i in range(queries):
            due = i / self.query_rate
            last_slow = max([last_window_miss] + [d for d in deltas if d <= due])
            quiet = due < last_slow + self.quiet_s
            delta_ahead = any(due < d < due + self.quiet_s for d in deltas)
            behind = sorted(range(len(weighted)),
                            key=lambda r: quota[r] * (i + 1) / queries - served[r],
                            reverse=True)
            allowed = [
                r for r in behind
                if r in cache or not (quiet or (window[r] and delta_ahead))
            ]
            rank = next((r for r in allowed if served[r] < quota[r]), allowed[0])
            served[rank] += 1
            if rank in cache:
                cache.move_to_end(rank)
            else:
                cache[rank] = None
                if len(cache) > self.capacity:
                    cache.popitem(last=False)
                if window[rank]:
                    last_window_miss = due
            ops.append((due, ("query", weighted[rank][0])))
        ops += [(offset, ("delta", d)) for d, offset in enumerate(deltas)]
        ops.sort(key=lambda op: op[0])
        return ops

    def setup(self, seed: int, seconds: float):
        from repro.serving import QueryServer
        from repro.workloads.serve import serve_inputs, serve_schedule, serve_templates

        base = serve_inputs(self.rows, seed=seed)
        weighted = self._key_space()
        keys = [key for key, _weight in weighted]
        schedule = self._schedule(weighted, seconds)
        # One query, then every delta: the schedule's delta stream alone.
        deltas = [
            (op[1], op[2])
            for op in serve_schedule(
                base, queries=1, seed=seed, delta_rows=self.delta_rows,
                deltas=sum(op[0] == "delta" for _t, op in schedule),
            )
            if op[0] == "delta"
        ]
        server = QueryServer(base, workers=self.workers, capacity=self.capacity)
        for name, spec in serve_templates().items():
            server.register(name, spec)
        for name, threshold in reversed(keys[: self.capacity]):
            server.query(name, (threshold,))
        return {
            "seed": seed, "server": server, "keys": keys, "schedule": schedule,
            "deltas": deltas, "served": {}, "evictions": 0,
        }

    def warm(self, state) -> None:
        """Nothing to warm beyond the views ``setup`` built."""

    def run(self, state, seconds: float, recorder: Recorder) -> None:
        server = state["server"]
        served = state["served"]
        started = perf_counter()
        for offset, (kind, arg) in state["schedule"]:
            due = started + offset
            _wait_until(due)
            before = server.stats()
            if kind == "query":
                name, threshold = arg
                recorder.call(name, lambda: server.query(name, (threshold,)), due=due)
                served[arg] = served.get(arg, 0) + 1
            else:
                inserts, retracts = state["deltas"][arg]
                recorder.call(
                    "delta",
                    lambda: server.apply_delta(inserts=inserts, retracts=retracts),
                    due=due,
                )
            after = server.stats()
            sample = recorder.samples[-1]
            if kind == "query":
                sample.kind = "hit" if after["hits"] > before["hits"] else "miss"
            else:
                sample.kind = "delta"
            state["evictions"] += after["evictions"] - before["evictions"]

    def check(self, state, recorder: Recorder) -> Check:
        """Every cached view against a fresh plan over the final base.

        The tightness figures are taken over fresh answers of each template
        at its most popular threshold, on the final base and on
        ``tightness_bases - 1`` more bases drawn from the seed.  One base
        is too little data for them: ``mult_width_mean`` (~10% of the rows
        are bags, width 2) of one base moves by ~6% between seeds, and over
        ten seeds spread by 11% of its median; over 8 bases still by 3.7%.
        """
        from repro.columnar.plan import ColumnarPlan
        from repro.workloads.serve import serve_inputs, serve_templates

        server = state["server"]
        templates = serve_templates()
        attributes = {"topk": ["pos"], "window": ["w_sum"]}
        base = server.base_rows()
        check = Check()
        digests = []
        for name, threshold in state["keys"]:
            expected = templates[name].bind((threshold,)).apply(ColumnarPlan(base)).to_rows()
            digest = answer_digest(expected)
            digests.append(f"{name}@{threshold}:{digest}")
            view = server.cached_view(name, (threshold,))
            if view is not None and answer_digest(view.to_rows()) != digest:
                check.fail(
                    state["served"].get((name, threshold), 0) or 1,
                    f"cached view {name}@{threshold} differs from a fresh plan",
                )
        check.digests["views"] = hashlib.sha256(" ".join(digests).encode()).hexdigest()
        popular: dict[str, int] = {}
        for name, threshold in state["keys"]:
            popular.setdefault(name, threshold)
        bases = [base] + [
            serve_inputs(self.rows, seed=1000 * state["seed"] + j)
            for j in range(1, self.tightness_bases)
        ]
        for relation in bases:
            for name, threshold in popular.items():
                answer = templates[name].bind((threshold,)).apply(ColumnarPlan(relation))
                check.add_quality(answer.to_rows(), attributes[name])
        return check


WORKLOADS = {cls.name: cls for cls in (Multiwindow, SqlRank, ServeMix)}
