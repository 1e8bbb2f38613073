"""Property-based tests for Theorems 1 and 2: bound preservation.

For randomly generated small incomplete relations, the AU-DB sort and window
operators (both the definitional/rewrite and the native sweep
implementations, plus the columnar window on its quadrant-tree path) must
bound the deterministic result of **every** possible world.  The bounding
oracle is the exact tuple-matching check of :mod:`repro.core.bounding`.
"""

import importlib.util

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bounding import bounds_world
from repro.incomplete.lift import lift_xtuples
from repro.ranking.native import sort_native
from repro.ranking.semantics import sort_rewrite
from repro.relational.sort import sort_operator
from repro.relational.window import window_aggregate
from repro.window.native import window_native
from repro.window.semantics import window_rewrite
from repro.window.spec import WindowSpec
from tests.property.strategies import uncertain_relations
from tests.property.tree_path import on_the_tree_path

RELATIONS = uncertain_relations(attributes=("a", "b"), max_tuples=4, max_alternatives=2)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(relation=RELATIONS, descending=st.booleans())
def test_sort_bound_preservation(relation, descending):
    """Theorem 1 for both sort implementations."""
    audb = lift_xtuples(relation)
    results = {
        "native": sort_native(audb, ["a"], descending=descending),
        "rewrite": sort_rewrite(audb, ["a"], descending=descending),
    }
    for world, _probability in relation.iter_worlds(limit=512):
        det = sort_operator(world, ["a"], descending=descending)
        for name, result in results.items():
            assert bounds_world(result, det), f"{name} sort violates Theorem 1"


def _columnar_tree_window(audb, spec) -> dict:
    """The columnar backend with every sweep on its quadrant tree (the
    path large inputs take; these small ones would otherwise enumerate
    member pairs), keyed for the results map; empty without NumPy."""
    if importlib.util.find_spec("numpy") is None:
        return {}
    with on_the_tree_path():
        return {"columnar tree": window_native(audb, spec, backend="columnar")}


@SETTINGS
@given(
    relation=RELATIONS,
    function=st.sampled_from(["sum", "count", "min", "max"]),
    preceding=st.integers(min_value=0, max_value=2),
)
def test_window_bound_preservation_preceding(relation, function, preceding):
    """Theorem 2 for PRECEDING frames, both window implementations."""
    spec = WindowSpec(
        function=function,
        attribute=None if function == "count" else "b",
        output="out",
        order_by=("a",),
        frame=(-preceding, 0),
    )
    audb = lift_xtuples(relation)
    results = {
        "native": window_native(audb, spec),
        "rewrite": window_rewrite(audb, spec),
        **_columnar_tree_window(audb, spec),
    }
    for world, _probability in relation.iter_worlds(limit=512):
        det = window_aggregate(
            world,
            function=function,
            attribute=None if function == "count" else "b",
            output="out",
            order_by=["a"],
            frame=(-preceding, 0),
        )
        for name, result in results.items():
            assert bounds_world(result, det), f"{name} window violates Theorem 2"


@SETTINGS
@given(relation=RELATIONS, following=st.integers(min_value=1, max_value=2))
def test_window_bound_preservation_following(relation, following):
    """Theorem 2 for FOLLOWING frames (exercises the mirrored-order reduction)."""
    spec = WindowSpec(
        function="sum", attribute="b", output="out", order_by=("a",), frame=(0, following)
    )
    audb = lift_xtuples(relation)
    results = {
        "native": window_native(audb, spec),
        "rewrite": window_rewrite(audb, spec),
        **_columnar_tree_window(audb, spec),
    }
    for world, _probability in relation.iter_worlds(limit=512):
        det = window_aggregate(
            world,
            function="sum",
            attribute="b",
            output="out",
            order_by=["a"],
            frame=(0, following),
        )
        for name, result in results.items():
            assert bounds_world(result, det), f"{name} window violates Theorem 2"


@SETTINGS
@given(relation=uncertain_relations(attributes=("g", "a", "b"), max_tuples=4, max_alternatives=2))
def test_partitioned_window_bound_preservation(relation):
    """Theorem 2 with a PARTITION BY clause (definitional implementation)."""
    spec = WindowSpec(
        function="sum",
        attribute="b",
        output="out",
        order_by=("a",),
        partition_by=("g",),
        frame=(-1, 0),
    )
    audb = lift_xtuples(relation)
    result = window_rewrite(audb, spec)
    for world, _probability in relation.iter_worlds(limit=512):
        det = window_aggregate(
            world,
            function="sum",
            attribute="b",
            output="out",
            order_by=["a"],
            partition_by=["g"],
            frame=(-1, 0),
        )
        assert bounds_world(result, det)


@SETTINGS
@given(relation=RELATIONS, k=st.integers(min_value=1, max_value=3))
def test_topk_completeness(relation, k):
    """Every world's top-k rows are covered by possible top-k answers."""
    from repro.ranking.topk import topk as au_topk
    from repro.relational.sort import topk as det_topk

    audb = lift_xtuples(relation)
    result = au_topk(audb, ["a"], k=k)
    possible = [tup for tup, mult in result if mult.possibly_exists]
    for world, _probability in relation.iter_worlds(limit=512):
        for row, _mult in det_topk(world, ["a"], k):
            assert any(tup.project(["rid", "a", "b"]).bounds_row(row) for tup in possible)
