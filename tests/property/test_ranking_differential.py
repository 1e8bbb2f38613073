"""Differential properties: native / columnar sorting vs the definitional rewrite.

The rewrite implementation (:func:`repro.ranking.semantics.sort_rewrite`)
evaluates Equations 1-3 literally and is the specification; the native sweep
and the columnar kernels must reproduce its output *bit for bit* — same
hypercubes, same position triples, same multiplicity annotations — on
arbitrary AU-relations.  Top-k additionally pins that both backends prune
exactly the duplicates a position selection would filter to zero.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

from repro.columnar.kernels import (
    certainly_precedes_counts,
    certainly_precedes_matrix,
    lex_rank_pairs,
    order_code_matrices,
    possibly_precedes_counts,
    possibly_precedes_matrix,
)
from repro.columnar.plan import ColumnarPlan
from repro.columnar.relation import ColumnarAURelation
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.errors import OperatorError
from repro.ranking.native import sort_native
from repro.ranking.semantics import sort_rewrite
from repro.ranking.topk import topk
from repro.relational.relation import Relation
from repro.relational.sort import sort_operator

from tests.property.strategies import au_relations


def assert_same_relation(left: AURelation, right: AURelation) -> None:
    """Bit-for-bit equality: same schema, same hypercube -> annotation map."""
    assert left.schema == right.schema
    assert left._rows == right._rows


@settings(max_examples=120, deadline=None)
@given(relation=au_relations(), descending=st.booleans())
def test_sort_native_matches_rewrite(relation, descending):
    native = sort_native(relation, ["a"], descending=descending)
    rewrite = sort_rewrite(relation, ["a"], descending=descending)
    assert_same_relation(native, rewrite)


@settings(max_examples=120, deadline=None)
@given(relation=au_relations(), descending=st.booleans())
def test_sort_columnar_matches_rewrite(relation, descending):
    columnar = sort_native(relation, ["a"], descending=descending, backend="columnar")
    rewrite = sort_rewrite(relation, ["a"], descending=descending)
    assert_same_relation(columnar, rewrite)


@settings(max_examples=80, deadline=None)
@given(relation=au_relations(), descending=st.booleans())
def test_sort_multi_attribute_backends_agree(relation, descending):
    order_by = ["a", "b"]
    native = sort_native(relation, order_by, descending=descending)
    columnar = sort_native(relation, order_by, descending=descending, backend="columnar")
    rewrite = sort_rewrite(relation, order_by, descending=descending)
    assert_same_relation(native, rewrite)
    assert_same_relation(columnar, rewrite)


@settings(max_examples=120, deadline=None)
@given(
    relation=au_relations(),
    k=st.integers(min_value=0, max_value=8),
    descending=st.booleans(),
)
def test_topk_backends_and_methods_agree(relation, k, descending):
    reference = topk(relation, ["a"], k, method="rewrite", descending=descending)
    for method, backend in (("native", "python"), ("native", "columnar"), ("rewrite", "columnar")):
        result = topk(relation, ["a"], k, method=method, backend=backend, descending=descending)
        assert_same_relation(result, reference)


@settings(max_examples=80, deadline=None)
@given(
    relation=au_relations(),
    k=st.integers(min_value=0, max_value=8),
    descending=st.booleans(),
)
def test_pruned_sort_backends_agree(relation, k, descending):
    """With ``k`` given both backends keep exactly the duplicates with lb < k."""
    native = sort_native(relation, ["a"], k=k, descending=descending)
    columnar = sort_native(relation, ["a"], k=k, descending=descending, backend="columnar")
    assert_same_relation(native, columnar)
    full = sort_rewrite(relation, ["a"], descending=descending)
    pos_idx = full.schema.index_of("pos")
    expected = {
        values: mult for values, mult in full._rows.items() if values[pos_idx].lb < k
    }
    assert native._rows == expected


#: Non-order-by columns mixing ``int`` and ``str``: the first never compares
#: the two (only rows with different keys carry them), so every path sorts;
#: in the second a tie on ``a`` reaches ``5`` vs ``"x"``, so every path raises.
MIXED_TYPE_TIEBREAKERS = [
    ([((1, 5), 1), ((2, "x"), 1), ((RangeValue(0, 1, 3), 7), 1)], None),
    ([((1, 5), 1), ((1, "x"), 1)], OperatorError),
]


@pytest.mark.parametrize(("rows", "error"), MIXED_TYPE_TIEBREAKERS)
def test_mixed_type_tiebreakers_agree_across_backends(rows, error):
    relation = AURelation.from_rows(["a", "b"], rows)
    paths = [
        lambda: sort_native(relation, ["a"]),
        lambda: sort_native(relation, ["a"], backend="columnar"),
        lambda: ColumnarPlan(relation).sort(["a"]).to_rows(),
    ]
    if error is not None:
        for path in paths:
            with pytest.raises(error):
                path()
        return
    reference = sort_rewrite(relation, ["a"])
    for path in paths:
        assert_same_relation(path(), reference)


@settings(max_examples=100, deadline=None)
@given(relation=au_relations(max_tuples=5))
def test_precede_kernels_match_pairwise_matrices(relation):
    """Prefix-sum kernels agree with the quadratic pairwise comparison matrices."""
    import numpy as np

    columnar = ColumnarAURelation.from_relation(relation)
    earliest, _sg, latest = order_code_matrices(columnar, ["a", "b"])
    earliest_rank, latest_rank = lex_rank_pairs(earliest, latest)

    certain_matrix = certainly_precedes_matrix(earliest_rank, latest_rank)
    possible_matrix = possibly_precedes_matrix(earliest_rank, latest_rank)
    lower = certainly_precedes_counts(earliest_rank, latest_rank, columnar.mult_lb)
    upper = possibly_precedes_counts(earliest_rank, latest_rank, columnar.mult_ub)

    assert np.array_equal(lower, columnar.mult_lb @ certain_matrix)
    assert np.array_equal(upper, columnar.mult_ub @ possible_matrix)


def test_empty_input_agrees_across_implementations():
    """n = 0 edge case: sort and top-k on an empty relation, every path."""
    from repro.core.schema import Schema

    empty = AURelation(Schema(("a", "b")))
    rewrite = sort_rewrite(empty, ["a"])
    assert len(rewrite) == 0
    assert_same_relation(rewrite, sort_native(empty, ["a"]))
    assert_same_relation(rewrite, sort_native(empty, ["a"], backend="columnar"))
    for backend in ("python", "columnar"):
        assert len(topk(empty, ["a"], 3, backend=backend)) == 0


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.tuples(
                st.integers(min_value=-5, max_value=5),
                st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
            ),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=10,
    ),
    descending=st.booleans(),
    order_by=st.sampled_from([["a"], ["b"], ["b", "a"]]),
)
def test_deterministic_sort_backends_agree(rows, descending, order_by):
    relation = Relation(["a", "b"], rows)
    python = sort_operator(relation, order_by, descending=descending)
    columnar = sort_operator(relation, order_by, descending=descending, backend="columnar")
    assert python.schema == columnar.schema
    assert python._rows == columnar._rows
