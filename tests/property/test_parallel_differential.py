"""Differential properties: sharded (``workers > 1``) vs unsharded execution.

The partitioned parallel executor (:mod:`repro.columnar.parallel`) must be
*invisible* in every output: for each sharded stage class — sort / top-k
(and the window's position-bound sort), per-partition windows, equi- and
theta-joins, and grouped aggregation — running at ``workers > 1`` must be
**bit-identical** to the serial ``workers=1`` path on arbitrary
AU-relations, *including the first-occurrence row order* (downstream
``<ᵗᵒᵗᵃˡ_O`` tiebreakers read it).  The ``.to_rows()`` plan boundary is
serial at every worker count; its property pins that it forks nothing.
The properties below pin that contract, plus the edge cases a sharded
executor typically fumbles:

* **empty inputs** — ``n = 0`` relations and relations whose rows are all
  filtered away before the sharded stage (zero shards, empty concatenation);
* **uncertain partition / group keys** — non-point ``PARTITION BY`` or
  ``GROUP BY`` ranges, where the per-group decomposition is unsound and the
  stage must fall back to the unsharded path (checked against the *Python*
  backend, so the fallback is pinned to the reference semantics, not merely
  to itself);
* **object-dtype join keys**, whose pair kernels route through the scalar
  equality fallbacks inside each shard.

Shard boundaries are exercised at ``workers=2`` (morsels smaller than the
relation) and spot-checked at ``workers=4`` (more morsels than rows, so
every shard is a single row).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

from repro.columnar import operators as col_ops
from repro.columnar.plan import ColumnarPlan
from repro.columnar.relation import ColumnarAURelation
from repro.core.expressions import attr, const
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.window.spec import WindowSpec

from tests.property.strategies import au_relations, object_au_relations, window_frames

#: Forking a worker pool per example is orders of magnitude slower than the
#: kernels under test; fewer examples than the single-process suites, no
#: deadline (fork latency is environment noise).
SETTINGS = settings(max_examples=25, deadline=None)

ALL_AGGREGATES = [
    ("count", "*", "n"),
    ("sum", "v", "s"),
    ("min", "v", "lo"),
    ("max", "v", "hi"),
    ("avg", "v", "m"),
]


def assert_bit_identical(serial: AURelation, sharded: AURelation) -> None:
    """Same schema, same hypercubes and triples, same insertion order."""
    assert serial.schema == sharded.schema
    assert list(serial._rows.items()) == list(sharded._rows.items())


def _window_spec(frame, partition_by=(), *, descending=False) -> WindowSpec:
    return WindowSpec(
        function="sum",
        attribute="v",
        output="w",
        order_by=("o",),
        partition_by=partition_by,
        frame=frame,
        descending=descending,
    )


# -- stage classes: sharded == unsharded ------------------------------------


@SETTINGS
@given(relation=au_relations(max_tuples=8), descending=st.booleans())
def test_sort_sharded_matches_serial(relation, descending):
    serial = ColumnarPlan(relation, workers=1).sort(["a"], descending=descending).to_rows()
    sharded = ColumnarPlan(relation, workers=2).sort(["a"], descending=descending).to_rows()
    assert_bit_identical(serial, sharded)


@SETTINGS
@given(
    relation=au_relations(max_tuples=8),
    k=st.integers(min_value=0, max_value=4),
    descending=st.booleans(),
)
def test_topk_sharded_matches_serial(relation, k, descending):
    serial = ColumnarPlan(relation, workers=1).topk(["a"], k, descending=descending).to_rows()
    sharded = ColumnarPlan(relation, workers=2).topk(["a"], k, descending=descending).to_rows()
    assert_bit_identical(serial, sharded)


@SETTINGS
@given(
    relation=au_relations(attributes=("o", "v"), max_tuples=8),
    frame=window_frames(),
    function=st.sampled_from(["sum", "count", "min", "max"]),
)
def test_window_sharded_matches_serial(relation, frame, function):
    spec = WindowSpec(
        function=function,
        attribute=None if function == "count" else "v",
        output="w",
        order_by=("o",),
        frame=frame,
    )
    serial = ColumnarPlan(relation, workers=1).window(spec).to_rows()
    sharded = ColumnarPlan(relation, workers=2).window(spec).to_rows()
    assert_bit_identical(serial, sharded)


@SETTINGS
@given(relation=au_relations(attributes=("g", "o", "v"), max_tuples=8))
def test_partitioned_window_sharded_matches_serial(relation):
    """Certain PARTITION BY groups are the window stage's shard boundary."""
    spec = _window_spec((-2, 0), partition_by=("g",))
    serial = ColumnarPlan(relation, workers=1).window(spec).to_rows()
    sharded = ColumnarPlan(relation, workers=2).window(spec).to_rows()
    assert_bit_identical(serial, sharded)


@SETTINGS
@given(
    left=au_relations(attributes=("a", "v"), max_tuples=6),
    right=au_relations(attributes=("a", "w"), max_tuples=6),
)
def test_join_auto_sharded_matches_serial(left, right):
    serial = ColumnarPlan(left, workers=1).join(ColumnarPlan(right), on=["a"]).to_rows()
    sharded = ColumnarPlan(left, workers=2).join(ColumnarPlan(right), on=["a"]).to_rows()
    assert_bit_identical(serial, sharded)


@SETTINGS
@given(
    left=au_relations(attributes=("a", "v"), max_tuples=6),
    right=au_relations(attributes=("a", "w"), max_tuples=6),
)
def test_join_grid_sharded_matches_serial(left, right):
    """The pair-grid kernel shards over left-row blocks."""
    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)
    serial = col_ops.join(columnar_left, columnar_right, on=["a"], method="grid")
    sharded = col_ops.join(
        columnar_left, columnar_right, on=["a"], method="grid", workers=2
    )
    assert_bit_identical(serial.to_relation(), sharded.to_relation())


@SETTINGS
@given(
    left=au_relations(attributes=("a", "v"), max_tuples=5),
    right=au_relations(attributes=("b", "w"), max_tuples=5),
)
def test_join_predicate_sharded_matches_serial(left, right):
    predicate = attr("a").le(attr("b"))
    serial = ColumnarPlan(left, workers=1).join(ColumnarPlan(right), predicate).to_rows()
    sharded = ColumnarPlan(left, workers=2).join(ColumnarPlan(right), predicate).to_rows()
    assert_bit_identical(serial, sharded)


@SETTINGS
@given(
    left=object_au_relations(attributes=("k", "a"), pool=["p", "q", "r", "s"]),
    right=object_au_relations(attributes=("v", "a"), pool=["p", "q", "r", "s"]),
)
def test_join_object_keys_sharded_matches_serial(left, right):
    """Object-dtype keys take the scalar equality fallback inside each shard."""
    serial = ColumnarPlan(left, workers=1).join(ColumnarPlan(right), on=["a"]).to_rows()
    sharded = ColumnarPlan(left, workers=2).join(ColumnarPlan(right), on=["a"]).to_rows()
    assert_bit_identical(serial, sharded)


@SETTINGS
@given(relation=au_relations(attributes=("g", "v"), max_tuples=8))
def test_groupby_sharded_matches_serial(relation):
    serial = (
        ColumnarPlan(relation, workers=1).groupby_aggregate(["g"], ALL_AGGREGATES).to_rows()
    )
    sharded = (
        ColumnarPlan(relation, workers=2).groupby_aggregate(["g"], ALL_AGGREGATES).to_rows()
    )
    assert_bit_identical(serial, sharded)


@SETTINGS
@given(relation=au_relations(max_tuples=10))
def test_to_rows_boundary_sharded_matches_serial(relation):
    """The ``.to_rows()`` boundary stays serial at any worker count: it
    forks no pool (forked row blocks measured slower than the serial loop)
    and returns exactly the serial result."""
    from unittest import mock

    from repro.columnar import factorised, parallel

    serial = ColumnarPlan(relation, workers=1).to_rows()
    plan = ColumnarPlan(relation, workers=2)
    forked = AssertionError("the .to_rows() boundary forked a pool")
    with mock.patch.object(parallel, "parallel_map", side_effect=forked), mock.patch.object(
        factorised, "parallel_map", side_effect=forked
    ):
        sharded = plan.to_rows()
    assert_bit_identical(serial, sharded)


@SETTINGS
@given(relation=au_relations(attributes=("o", "v"), max_tuples=8))
def test_chained_plan_sharded_matches_serial_workers4(relation):
    """A whole chained plan at workers=4: more morsels than rows."""
    spec = _window_spec((-1, 0))

    def run(workers):
        return (
            ColumnarPlan(relation, workers=workers)
            .select(attr("v").ge(const(-3)))
            .window(spec)
            .sort(["w"])
            .to_rows()
        )

    assert_bit_identical(run(1), run(4))


# -- edge cases: empty inputs and all-rows-filtered inputs ------------------


def _empty_relation(attributes=("o", "v")) -> AURelation:
    return AURelation(Schema(attributes))


@pytest.mark.parametrize("workers", [2, 4])
def test_empty_inputs_agree_across_all_stages(workers):
    """n = 0 through every sharded stage class: zero shards, empty output."""
    empty = _empty_relation()
    spec = _window_spec((-1, 0))
    for build in (
        lambda w: ColumnarPlan(empty, workers=w).sort(["o"]).to_rows(),
        lambda w: ColumnarPlan(empty, workers=w).topk(["o"], 2).to_rows(),
        lambda w: ColumnarPlan(empty, workers=w).window(spec).to_rows(),
        lambda w: ColumnarPlan(empty, workers=w)
        .join(ColumnarPlan(_empty_relation(("o", "w"))), on=["o"])
        .to_rows(),
        lambda w: ColumnarPlan(empty, workers=w)
        .groupby_aggregate(["o"], ALL_AGGREGATES)
        .to_rows(),
        lambda w: ColumnarPlan(empty, workers=w).to_rows(),
    ):
        assert_bit_identical(build(1), build(workers))
        assert len(build(workers)) == 0


@SETTINGS
@given(relation=au_relations(attributes=("o", "v"), max_tuples=6))
def test_all_rows_filtered_inputs_agree(relation):
    """A certainly-false selection empties the input mid-plan; the sharded
    stages downstream must handle the zero-row intermediate identically."""
    spec = _window_spec((-1, 0))

    def run(workers):
        return (
            ColumnarPlan(relation, workers=workers)
            .select(attr("v").ge(const(100)))  # values are drawn from [-6, 6]
            .window(spec)
            .sort(["w"])
            .groupby_aggregate(["o"], [("count", "*", "n")])
            .to_rows()
        )

    serial = run(1)
    assert len(serial) == 0
    assert_bit_identical(serial, run(2))


# -- uncertain keys: sharding must fall back, pinned to the Python backend --


def _uncertain_group_relation() -> AURelation:
    """A relation whose grouping attribute ``g`` has a non-point range."""
    return AURelation.from_rows(
        ["g", "o", "v"],
        [
            ((RangeValue(0, 1, 2), 1, 10), (1, 1, 1)),  # uncertain group key
            ((1, 2, 20), (1, 1, 1)),
            ((1, 3, 30), (0, 1, 1)),
            ((2, 4, 40), (1, 1, 2)),
        ],
    )


def test_uncertain_partition_by_falls_back_and_matches_python_backend():
    """Non-point PARTITION BY ranges make per-group sharding unsound; the
    window stage must fall back to the unsharded path, and the result must be
    bit-identical to the *Python* backend — not just serial-columnar."""
    from repro.window.native import window_native

    relation = _uncertain_group_relation()
    spec = _window_spec((-1, 0), partition_by=("g",))
    python = window_native(relation, spec)
    for workers in (2, 4):
        sharded = ColumnarPlan(relation, workers=workers).window(spec).to_rows()
        assert_bit_identical(python, sharded)


def test_uncertain_group_by_falls_back_and_matches_python_backend():
    from repro.core.operators import groupby_aggregate as row_groupby

    relation = _uncertain_group_relation()
    python = row_groupby(relation, ["g"], ALL_AGGREGATES, backend="python")
    for workers in (2, 4):
        sharded = (
            ColumnarPlan(relation, workers=workers)
            .groupby_aggregate(["g"], ALL_AGGREGATES)
            .to_rows()
        )
        assert_bit_identical(python, sharded)


# -- the env knob reaches the same code paths -------------------------------


def test_workers_env_knob_matches_explicit_workers(monkeypatch):
    relation = AURelation.from_rows(
        ["o", "v"], [((i, (i * 7) % 5), (1, 1, 1)) for i in range(12)]
    )
    spec = _window_spec((-2, 0))
    explicit = ColumnarPlan(relation, workers=2).window(spec).to_rows()
    monkeypatch.setenv("REPRO_WORKERS", "2")
    from_env = ColumnarPlan(relation).window(spec).to_rows()
    assert ColumnarPlan(relation).workers == 2
    assert_bit_identical(explicit, from_env)
