"""The plan-workload registry: every benchmarked ``RA⁺`` plan, declared once.

A :class:`Workload` holds all a benchmark surface needs to run one plan
workload: its inputs at a given size and seed, the ordered
:class:`Contender` execution paths with their size ceilings, the columns of
its harness table, and its gates, written as data.  Four surfaces iterate
:data:`WORKLOADS` and wire nothing themselves:

* ``python -m repro.harness <id>`` prints one table per workload
  (:func:`repro.harness.figures.plan_scaling`);
* ``benchmarks/smoke_backends.py`` runs the gates in CI, plus the
  strict-mode speedup floors;
* ``benchmarks/bench_pipeline_ops.py`` times one pytest-benchmark case per
  (workload, contender, size);
* ``tools/bench_trajectory.py`` appends one JSON block per workload to the
  ``BENCH_*.json`` trajectories.

:func:`run_workload` is the one place contenders run and gates are checked,
so every surface tests agreement the same way before it reports a time:
each contender's answer must equal the reference's (the first contender
that ran) row for row, in the same order, and answer lists must have the
same length.

>>> sorted(WORKLOADS)  # doctest: +NORMALIZE_WHITESPACE
['equijoin', 'factjoin', 'groupby', 'multiwindow', 'pipeline', 'rangejoin',
 'serve', 'sql']
>>> [contender.label for contender in WORKLOADS["equijoin"].contenders]
['Imp', 'Grid', 'SearchSorted']
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

from repro.core.expressions import attr, const
from repro.core.operators import groupby_aggregate, join, project, select
from repro.core.relation import AURelation
from repro.sql import compile_sql
from repro.window.native import window_native
from repro.workloads.pipeline import (
    FACTJOIN_WINDOW,
    GROUPBY_AGGREGATES,
    GROUPBY_WINDOW,
    MULTIWINDOW_FIRST,
    MULTIWINDOW_SECOND,
    PIPELINE_WINDOW,
    equijoin_inputs,
    factjoin_inputs,
    multiwindow_inputs,
    multiwindow_second_threshold,
    pipeline_inputs,
    rangejoin_inputs,
    run_multiwindow_columnar,
    run_multiwindow_python,
)
from repro.workloads.serve import (
    SERVE_MODES,
    latency_summary,
    run_serve_mix,
    serve_inputs,
    serve_schedule,
)
from repro.workloads.sql import SQL_SCALING_QUERY, sql_catalog

__all__ = [
    "Contender",
    "Speedup",
    "Floor",
    "Expect",
    "Exclude",
    "PairCeiling",
    "Workload",
    "Inputs",
    "Outcome",
    "WORKLOADS",
    "run_workload",
    "same_answer",
]


@dataclass(frozen=True)
class Contender:
    """One execution path of a workload.

    ``run(args, workers)`` executes the plan on the workload's input tuple
    and returns its output; ``workers`` is the parallel executor's worker
    count (``None`` reads ``REPRO_WORKERS``; python paths ignore it).
    ``backend`` is the ``REPRO_BACKEND`` / ``--backend`` tag.  Columnar
    paths get their inputs converted to columnar beforehand (set-up, never
    timed) unless ``row_inputs`` is set.  ``ceiling`` caps the sizes a
    quadratic path runs at.
    """

    label: str
    backend: str
    run: Callable[[tuple, "int | None"], object]
    ceiling: int | None = None
    row_inputs: bool = False

    def runs_at(self, size: int, ceiling: int | None = None) -> bool:
        """Whether the path runs at ``size``; ``ceiling`` overrides a declared cap."""
        if self.ceiling is None:
            return True
        return size <= (self.ceiling if ceiling is None else ceiling)


@dataclass(frozen=True)
class Speedup:
    """``cost(slower) / cost(faster)``, or ``"-"`` unless both contenders ran.

    The cost is the contender's wall-clock milliseconds unless ``cost``
    derives it from the contender's output.
    """

    slower: str
    faster: str
    cost: Callable[[object], float] | None = None

    def __call__(self, outcome: "Outcome") -> object:
        if self.slower not in outcome.outputs or self.faster not in outcome.outputs:
            return "-"
        if self.cost is None:
            slow, fast = outcome.ms[self.slower], outcome.ms[self.faster]
        else:
            slow = self.cost(outcome.outputs[self.slower])
            fast = self.cost(outcome.outputs[self.faster])
        return slow / fast if fast else float("inf")


@dataclass(frozen=True)
class Floor:
    """Strict-mode gate: ``speedup >= ratio`` at every size from ``from_size`` up."""

    speedup: Speedup
    ratio: float = 1.0
    from_size: int = 0


@dataclass(frozen=True)
class Expect:
    """Gate: ``facts[fact] == value``."""

    fact: str
    value: object

    def violation(self, facts: dict, size: int) -> str | None:
        if self.fact in facts and facts[self.fact] != self.value:
            return f"{self.fact} is {facts[self.fact]!r}, expected {self.value!r}"
        return None


@dataclass(frozen=True)
class Exclude:
    """Gate: ``value not in facts[fact]``."""

    fact: str
    value: object

    def violation(self, facts: dict, size: int) -> str | None:
        if self.fact in facts and self.value in facts[self.fact]:
            return f"{self.fact} {facts[self.fact]!r} contains {self.value!r}"
        return None


@dataclass(frozen=True)
class PairCeiling:
    """Gate: ``facts[count] * factor < facts[full]`` from ``from_size`` rows up.

    A kernel that should enumerate asymptotically fewer pairs than the
    ``|L|·|R|`` cross product fails it once it degrades to near-cross-product
    enumeration.  Below ``from_size`` per-row constants still rival the
    cross product, so the gate does not apply.
    """

    count: str
    full: str
    factor: int = 8
    from_size: int = 128

    def violation(self, facts: dict, size: int) -> str | None:
        if size < self.from_size or self.count not in facts or self.full not in facts:
            return None
        if facts[self.count] * self.factor >= facts[self.full]:
            return (
                f"{self.count}={facts[self.count]} is not {self.factor}x below "
                f"{self.full}={facts[self.full]}"
            )
        return None


def _first(output):
    return output[0]


def _identity(output):
    return output


@dataclass(frozen=True)
class Workload:
    """One plan workload, declared for every benchmark surface at once.

    ``inputs(size, seed=...)`` builds the row-major input tuple.  ``answer``
    extracts the comparable answer from a contender's output.  ``columns``
    are the harness table's columns after ``Size``, each a header and a
    function of the :class:`Outcome`.  ``facts(inputs, outputs)`` derives
    the counts the ``gates`` check; ``floors`` are the strict-mode speedup
    gates; ``sharded`` names the contender whose sharded run must equal its
    serial one when ``REPRO_WORKERS > 1``.  ``sizes`` are the harness and
    pytest-benchmark sizes.
    """

    name: str
    description: str
    inputs: Callable[..., tuple]
    contenders: tuple[Contender, ...]
    columns: tuple[tuple[str, Callable[["Outcome"], object]], ...]
    sizes: tuple[int, ...]
    answer: Callable[[object], object] = _identity
    facts: Callable[["Inputs", dict], dict] | None = None
    gates: tuple[Expect | Exclude | PairCeiling, ...] = ()
    floors: tuple[Floor, ...] = ()
    sharded: str | None = None

    @property
    def headers(self) -> list[str]:
        return [header for header, _ in self.columns]

    def contender(self, label: str) -> Contender:
        return next(c for c in self.contenders if c.label == label)


class Inputs:
    """A workload's input tuple at one size, in row-major and columnar layout."""

    def __init__(self, rows: tuple):
        self.rows = rows

    @cached_property
    def columnar(self) -> tuple:
        from repro.columnar.relation import ColumnarAURelation

        return tuple(
            ColumnarAURelation.from_relation(value) if isinstance(value, AURelation) else value
            for value in self.rows
        )

    def for_contender(self, contender: Contender) -> tuple:
        if contender.backend == "python" or contender.row_inputs:
            return self.rows
        return self.columnar


@dataclass
class Outcome:
    """The checked run of one workload at one size."""

    workload: Workload
    size: int
    inputs: Inputs
    outputs: dict = field(default_factory=dict)
    ms: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def row(self) -> list:
        """The harness table row: the size, then every column's value."""
        return [self.size, *(value(self) for _, value in self.workload.columns)]

    def floor_misses(self) -> list[str]:
        """Every applicable speedup floor this outcome falls below."""
        misses = []
        for floor in self.workload.floors:
            speedup = floor.speedup(self)
            if self.size >= floor.from_size and speedup != "-" and speedup < floor.ratio:
                misses.append(
                    f"{self.workload.name} rows={self.size}: {floor.speedup.faster} "
                    f"only {speedup:.2f}x faster than {floor.speedup.slower} "
                    f"(required >= {floor.ratio:.1f}x)"
                )
        return misses


def same_answer(left, right) -> bool:
    """Bit-identity with row order; answer lists must also match in length."""
    if isinstance(left, list) or isinstance(right, list):
        return (
            isinstance(left, list)
            and isinstance(right, list)
            and len(left) == len(right)
            and all(map(same_answer, left, right))
        )
    return left.schema == right.schema and list(left._rows.items()) == list(
        right._rows.items()
    )


def _columnar_available() -> bool:
    try:
        import numpy  # noqa: F401 - the columnar backend needs it
    except ImportError:
        return False
    return True


def _timed_ms(fn: Callable[[], object]) -> tuple[object, float]:
    start = time.perf_counter()
    output = fn()
    return output, (time.perf_counter() - start) * 1000.0


def run_workload(
    workload: Workload,
    size: int,
    *,
    seed: int = 0,
    enabled: Callable[[Contender], bool] | None = None,
    ceiling: int | None = None,
    measure: Callable[[Callable[[], object]], tuple[object, float]] = _timed_ms,
) -> Outcome:
    """Run every eligible contender at ``size``, then check the gates.

    A contender is eligible when ``enabled`` (default: all) accepts it, its
    ceiling (or ``ceiling``, overriding every declared one) admits ``size``,
    and, for the columnar backend, NumPy imports.  ``measure(fn)`` returns
    ``(output, ms)``; its output is the one checked (default: one timed
    call).  Gate failures are collected in :attr:`Outcome.failures`; a
    caller reports no timing of an outcome that has any.
    """
    columnar = _columnar_available()
    outcome = Outcome(workload, size, Inputs(workload.inputs(size, seed=seed)))
    for contender in workload.contenders:
        if (
            not contender.runs_at(size, ceiling)
            or (enabled is not None and not enabled(contender))
            or (contender.backend == "columnar" and not columnar)
        ):
            continue
        args = outcome.inputs.for_contender(contender)
        output, ms = measure(partial(contender.run, args, None))
        outcome.outputs[contender.label], outcome.ms[contender.label] = output, ms

    answers = {label: workload.answer(output) for label, output in outcome.outputs.items()}
    where = f"{workload.name} rows={size}"
    if answers:
        reference, expected = next(iter(answers.items()))
        for label, answer in answers.items():
            if not same_answer(expected, answer):
                outcome.failures.append(f"{where}: {label} diverges from {reference}")
    if workload.facts is not None and columnar:
        outcome.facts = workload.facts(outcome.inputs, outcome.outputs)
    for gate in workload.gates:
        message = gate.violation(outcome.facts, size)
        if message is not None:
            outcome.failures.append(f"{where}: {message}")
    if workload.sharded in answers:
        from repro.columnar.parallel import resolve_workers

        workers = resolve_workers()
        if workers > 1:
            contender = workload.contender(workload.sharded)
            serial = contender.run(outcome.inputs.for_contender(contender), 1)
            if not same_answer(workload.answer(serial), answers[workload.sharded]):
                outcome.failures.append(
                    f"{where}: {workload.sharded} at workers={workers} diverges "
                    "from workers=1"
                )
    return outcome


def _timing(label: str) -> tuple[str, Callable[[Outcome], object]]:
    """A column of the contender's milliseconds (``-`` when it did not run)."""
    return label, lambda outcome: outcome.ms.get(label, "-")


def _timings(contenders: Sequence[Contender]) -> tuple:
    return tuple(_timing(contender.label) for contender in contenders)


# ---------------------------------------------------------------------------
# Contender plans
# ---------------------------------------------------------------------------
#
# Python paths materialise a row-major relation between stages; columnar
# paths chain a ColumnarPlan that converts once, at ``.to_rows()``.


def _pipeline_python(args, workers):
    fact, dim, threshold = args
    joined = join(select(fact, attr("v").ge(const(threshold))), dim, on=["g"])
    return window_native(project(joined, ["o", "v"]), PIPELINE_WINDOW)


def _pipeline_columnar(args, workers):
    from repro.columnar.plan import ColumnarPlan

    fact, dim, threshold = args
    return (
        ColumnarPlan(fact, workers=workers)
        .select(attr("v").ge(const(threshold)))
        .join(ColumnarPlan(dim), on=["g"])
        .project(["o", "v"])
        .window(PIPELINE_WINDOW)
        .to_rows()
    )


def _groupby_python(args, workers):
    fact, dim, threshold = args
    joined = join(select(fact, attr("v").ge(const(threshold))), dim, on=["g"])
    return window_native(groupby_aggregate(joined, ["g"], GROUPBY_AGGREGATES), GROUPBY_WINDOW)


def _groupby_columnar(args, workers):
    """The groupby stage stays columnar between the join and the window."""
    from repro.columnar.plan import ColumnarPlan

    fact, dim, threshold = args
    return (
        ColumnarPlan(fact, workers=workers)
        .select(attr("v").ge(const(threshold)))
        .join(ColumnarPlan(dim), on=["g"])
        .groupby_aggregate(["g"], GROUPBY_AGGREGATES)
        .window(GROUPBY_WINDOW)
        .to_rows()
    )


def _multiwindow_roundtrip(args, workers):
    """The columnar kernels called per stage: a row-major round trip per stage.

    Each ``backend="columnar"`` call converts its input to columnar and its
    result back, isolating the conversion cost the chained plan removes.
    """
    fact, dim, threshold = args
    filtered = select(fact, attr("v").ge(const(threshold)), backend="columnar")
    joined = join(filtered, dim, on=["g"], backend="columnar")
    first = window_native(joined, MULTIWINDOW_FIRST, backend="columnar")
    second_threshold = const(multiwindow_second_threshold(threshold))
    spiky = select(first, attr("w1").ge(second_threshold), backend="columnar")
    return window_native(spiky, MULTIWINDOW_SECOND, backend="columnar")


def _join_columnar(args, workers, *, method):
    from repro.columnar import operators as col_ops
    from repro.columnar.parallel import resolve_workers

    left, right = args
    workers = resolve_workers(workers)
    return col_ops.join(left, right, on=["k"], method=method, workers=workers).to_relation(
        workers=workers
    )


def _factjoin_python(args, workers):
    left, right, v_threshold, w_threshold = args
    joined = join(select(left, attr("v").ge(const(v_threshold))), right, on=["k"])
    narrowed = select(joined, attr("w").lt(const(w_threshold)))
    return window_native(narrowed, FACTJOIN_WINDOW), None


def _factjoin_columnar(args, workers, *, method):
    """Returns the answer and the pair rows the plan materialised.

    With ``method="auto"`` the join result stays factorised and the later
    select / window push down into it; ``method="grid"`` expands every
    ``|L'|·|R|`` pair eagerly.
    """
    from repro.columnar.factorised import pair_rows_materialised, reset_pair_rows
    from repro.columnar.plan import ColumnarPlan

    left, right, v_threshold, w_threshold = args
    reset_pair_rows()
    result = (
        ColumnarPlan(left, workers=workers)
        .select(attr("v").ge(const(v_threshold)))
        .join(ColumnarPlan(right), on=["k"], method=method)
        .select(attr("w").lt(const(w_threshold)))
        .window(FACTJOIN_WINDOW)
        .to_rows()
    )
    return result, pair_rows_materialised()


def _sql(args, workers, **options):
    """Compile and run the scaling query; returns the answer and its join kernels."""
    (catalog,) = args
    compiled = compile_sql(SQL_SCALING_QUERY, catalog, workers=workers, **options)
    return compiled.run(), compiled.join_kernels


# ---------------------------------------------------------------------------
# Inputs and facts
# ---------------------------------------------------------------------------

#: Queries and delta bursts of the serving schedule at every size.
SERVE_QUERIES, SERVE_DELTAS = 200, 10


def _serve_inputs(size, *, seed):
    base = serve_inputs(size, seed=seed)
    return base, serve_schedule(base, queries=SERVE_QUERIES, deltas=SERVE_DELTAS, seed=seed)


def _planned_kernel(inputs: Inputs, outputs: dict) -> dict:
    """The kernel ``method="auto"`` picks for the ``k`` join of the two relations."""
    from repro.columnar import operators as col_ops

    left, right = inputs.columnar[:2]
    return {"kernel": col_ops.planned_join_kernel(left, right, on=["k"])}


def _rangejoin_facts(inputs: Inputs, outputs: dict) -> dict:
    from repro.columnar import operators as col_ops

    left, right = inputs.columnar
    full = len(left) * len(right)
    candidates = col_ops.candidate_key_pairs(
        [left.column("k")], [right.column("k")], kernels=("sweep",)
    )
    return {
        **_planned_kernel(inputs, outputs),
        "sweep_candidate_pairs": full if candidates is None else len(candidates[0]),
        "grid_pairs": full,
    }


def _factjoin_facts(inputs: Inputs, outputs: dict) -> dict:
    left, right, v_threshold, _ = inputs.rows
    facts = {
        **_planned_kernel(inputs, outputs),
        "expanded_pair_rows": len(select(left, attr("v").ge(const(v_threshold)))) * len(right),
    }
    if "Factorised" in outputs:
        facts["factorised_pair_rows"] = outputs["Factorised"][1]
    return facts


def _sql_facts(inputs: Inputs, outputs: dict) -> dict:
    if "Opt" not in outputs:
        return {}
    answer, kernels = outputs["Opt"]
    return {"kernels": list(kernels), "output_rows": len(answer)}


def _sql_kernels(outcome: Outcome) -> object:
    return "+".join(outcome.facts["kernels"]) if "kernels" in outcome.facts else "-"


def _serve_facts(inputs: Inputs, outputs: dict) -> dict:
    schedule = inputs.rows[1]
    queries = sum(op[0] == "query" for op in schedule)
    return {"queries": queries, "deltas": len(schedule) - queries}


def _serve_stat(label: str, stat: str) -> Callable[[Outcome], object]:
    """A latency statistic over the queries one serving mode answered."""

    def value(outcome: Outcome) -> object:
        if label not in outcome.outputs:
            return "-"
        return latency_summary(outcome.outputs[label][1])[stat]

    return value


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

#: Size above which the tuple-at-a-time loop and the pair grid stay off.
QUADRATIC_CEILING = 1024

#: The SQL contenders' ceiling: high enough for ``benchmarks/configs/sql.json``.
SQL_CEILING = 2048


def _two_backend(name, description, inputs, python, columnar, sizes) -> Workload:
    contenders = (
        Contender("Imp", "python", python),
        Contender("Imp-Col", "columnar", columnar),
    )
    speedup = Speedup("Imp", "Imp-Col")
    return Workload(
        name=name,
        description=description,
        inputs=inputs,
        contenders=contenders,
        columns=(*_timings(contenders), ("speedup", speedup)),
        sizes=sizes,
        floors=(Floor(speedup),),
        sharded="Imp-Col",
    )


_MULTIWINDOW = (
    Contender("Imp", "python", lambda args, workers: run_multiwindow_python(*args)),
    Contender("Imp-Col-RT", "columnar", _multiwindow_roundtrip, row_inputs=True),
    Contender("Imp-Col", "columnar", lambda args, w: run_multiwindow_columnar(*args, workers=w)),
)
#: The quadratic join contenders, shared by the equi-join and the range join.
_JOIN_LOOP_AND_GRID = (
    Contender("Imp", "python", lambda args, workers: join(*args, on=["k"]), QUADRATIC_CEILING),
    Contender("Grid", "columnar", partial(_join_columnar, method="grid"), QUADRATIC_CEILING),
)
_EQUIJOIN = (
    *_JOIN_LOOP_AND_GRID,
    Contender("SearchSorted", "columnar", partial(_join_columnar, method="searchsorted")),
)
_RANGEJOIN = (
    *_JOIN_LOOP_AND_GRID,
    Contender("Sweep", "columnar", partial(_join_columnar, method="sweep")),
)
_FACTJOIN = (
    Contender("Imp", "python", _factjoin_python, QUADRATIC_CEILING),
    Contender("Grid", "columnar", partial(_factjoin_columnar, method="grid"), QUADRATIC_CEILING),
    Contender("Factorised", "columnar", partial(_factjoin_columnar, method="auto")),
)
_SQL = (
    Contender("Imp", "python", partial(_sql, backend="python"), SQL_CEILING),
    Contender("Unopt", "columnar", partial(_sql, optimize=False), SQL_CEILING),
    Contender("Opt", "columnar", _sql),
)
_SERVE = tuple(
    Contender(
        mode,
        "columnar",
        lambda args, workers, mode=mode: run_serve_mix(*args, mode=mode, workers=workers),
        row_inputs=True,
    )
    for mode in SERVE_MODES
)
_SQL_SPEEDUP = Speedup("Unopt", "Opt")
_DELTA_SPEEDUP = Speedup("cached-recompute", "incremental", cost=lambda output: sum(output[2]))

#: Every plan workload, by harness id.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        _two_backend(
            "pipeline",
            "Multi-operator RA+ pipeline runtime (ms): select -> join -> project -> window",
            pipeline_inputs,
            _pipeline_python,
            _pipeline_columnar,
            (64, 128, 256, 512),
        ),
        _two_backend(
            "groupby",
            "Groupby pipeline runtime (ms): select -> join -> groupby -> window",
            pipeline_inputs,
            _groupby_python,
            _groupby_columnar,
            (64, 128, 256, 512),
        ),
        Workload(
            name="multiwindow",
            description=(
                "Multi-window RA+ plan runtime (ms): "
                "select -> join -> window -> select -> window"
            ),
            inputs=multiwindow_inputs,
            contenders=_MULTIWINDOW,
            columns=(
                *_timings(_MULTIWINDOW),
                ("RT-speedup", Speedup("Imp-Col-RT", "Imp-Col")),
                ("Imp-speedup", Speedup("Imp", "Imp-Col")),
            ),
            sizes=(128, 256, 512, 1024),
            floors=(Floor(Speedup("Imp", "Imp-Col")), Floor(Speedup("Imp-Col-RT", "Imp-Col"))),
            sharded="Imp-Col",
        ),
        Workload(
            name="equijoin",
            description="Equi-join runtime (ms): python / columnar grid / columnar searchsorted",
            inputs=equijoin_inputs,
            contenders=_EQUIJOIN,
            columns=_timings(_EQUIJOIN),
            sizes=(256, 1024, 4096),
            facts=_planned_kernel,
            floors=(Floor(Speedup("Imp", "SearchSorted")),),
            sharded="SearchSorted",
        ),
        Workload(
            name="rangejoin",
            description="Range-key join runtime (ms): python / columnar grid / columnar sweep",
            inputs=rangejoin_inputs,
            contenders=_RANGEJOIN,
            columns=_timings(_RANGEJOIN),
            sizes=(256, 1024, 4096),
            facts=_rangejoin_facts,
            gates=(
                Expect("kernel", "sweep"),
                PairCeiling("sweep_candidate_pairs", "grid_pairs"),
            ),
            floors=(Floor(Speedup("Grid", "Sweep")),),
            sharded="Sweep",
        ),
        Workload(
            name="factjoin",
            description=(
                "select-join-select-window runtime (ms): python / expanded grid / factorised"
            ),
            inputs=factjoin_inputs,
            contenders=_FACTJOIN,
            columns=_timings(_FACTJOIN),
            sizes=(256, 1024, 4096),
            answer=_first,
            facts=_factjoin_facts,
            gates=(PairCeiling("factorised_pair_rows", "expanded_pair_rows"),),
            floors=(Floor(Speedup("Grid", "Factorised")),),
            sharded="Factorised",
        ),
        Workload(
            name="serve",
            description=(
                "Cached-plan serving (QPS / p99 ms): incremental views (Inc) vs "
                "recompute-per-query (Direct), plus patched-vs-rebuilt delta speedup"
            ),
            inputs=_serve_inputs,
            contenders=_SERVE,
            columns=(
                ("Inc QPS", _serve_stat("incremental", "qps")),
                ("Direct QPS", _serve_stat("direct", "qps")),
                ("Inc p99", _serve_stat("incremental", "p99_ms")),
                ("Direct p99", _serve_stat("direct", "p99_ms")),
                ("delta speedup", _DELTA_SPEEDUP),
            ),
            sizes=(256, 512, 1024),
            answer=_first,
            facts=_serve_facts,
            floors=(Floor(_DELTA_SPEEDUP), Floor(_DELTA_SPEEDUP, 3.0, from_size=4096)),
        ),
        Workload(
            name="sql",
            description=(
                "SQL query runtime (ms): python / unoptimized lowering / "
                "optimized plan, plus the optimized joins' kernels"
            ),
            inputs=lambda size, seed: (sql_catalog(size, seed=seed),),
            contenders=_SQL,
            columns=(*_timings(_SQL), ("Kernels", _sql_kernels)),
            sizes=(256, 1024, 4096),
            answer=_first,
            facts=_sql_facts,
            gates=(Exclude("kernels", "grid"),),
            floors=(Floor(_SQL_SPEEDUP), Floor(_SQL_SPEEDUP, 5.0, from_size=1024)),
            sharded="Opt",
        ),
    )
}
