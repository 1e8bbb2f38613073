"""The window differential properties again, with every sweep on the quadrant tree.

The columnar window sweep materialises its (query, member) pairs while they
fit ``_PAIR_BUDGET`` and answers larger sweeps from
:class:`~repro.columnar.kernels.FrameQuadrantTree`.  Property-sized inputs
never cross the budget, so :func:`~tests.property.tree_path.on_the_tree_path`
sends every non-empty sweep to the tree instead.  Under it, the three-way native == rewrite ==
columnar properties of ``test_window_differential`` run a second time —
all five aggregates, following-only frames (the mirrored reduction),
``ub > 1`` bags, float columns and chained window plans.  Its
``PARTITION BY`` property almost always draws an uncertain partition key
(which falls back to the python backend), so a fixed bag relation checks
every aggregate, frame direction and certain partitioning on the tree
instead.  The wide-sum fallback (a ``sum`` tree above the budget streams
chunked pairs instead) is pinned separately.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

import tests.property.test_window_differential as base
from repro.columnar import window
from repro.columnar.kernels import FrameMemberIndex
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.window.native import window_native
from repro.window.spec import WindowSpec

from tests.property.tree_path import on_the_tree_path


THREE_WAY_PROPERTIES = [
    base.test_window_backends_agree,
    base.test_float_columns_agree_bit_for_bit,
    base.test_multiwindow_chained_plan_matches_python_per_stage,
    base.test_sort_then_window_chained_plan_matches_python_per_stage,
]


@pytest.mark.parametrize("prop", THREE_WAY_PROPERTIES, ids=lambda prop: prop.__name__)
def test_three_way_properties_on_the_tree_path(prop):
    with on_the_tree_path() as tree:
        prop()
    assert tree.call_count > 0


def _bag_relation() -> AURelation:
    """Uncertain order-by ranges, negative values, ties, a certain narrow
    run (so some members are certain) and ``ub > 1`` rows."""
    return AURelation.from_rows(
        ["o", "v", "g"],
        [
            ((1, -2, 0), (1, 1, 1)),
            ((2, 5, 0), (1, 1, 2)),
            ((3, -2, 0), (1, 1, 1)),
            ((RangeValue(2, 4, 7), 3, 1), (0, 1, 1)),
            ((RangeValue(5, 6, 9), RangeValue(-1, 0, 4), 1), (1, 1, 2)),
            ((8, RangeValue(-3, -3, 2), 0), (0, 0, 1)),
            ((9, 5, 1), (1, 2, 3)),
        ],
    )


@pytest.mark.parametrize("function", ["sum", "count", "min", "max", "avg"])
@pytest.mark.parametrize("frame", [(-2, 0), (0, 3)], ids=["preceding", "following"])
@pytest.mark.parametrize("partition_by", [(), ("g",)], ids=["whole", "partitioned"])
def test_every_aggregate_takes_the_tree_and_matches_python(function, frame, partition_by):
    relation = _bag_relation()
    spec = WindowSpec(
        function=function,
        attribute=None if function == "count" else "v",
        output="w",
        order_by=("o",),
        partition_by=partition_by,
        frame=frame,
    )
    python = window_native(relation, spec)
    with on_the_tree_path() as tree:
        columnar = window_native(relation, spec, backend="columnar")
    assert tree.call_count == (1 if not partition_by else 2)
    assert list(columnar._rows.items()) == list(python._rows.items())


def test_wide_sum_frames_stream_chunked_pairs():
    """A ``sum`` tree above the budget falls back to chunked member pairs;
    the extrema keep the tree (one running value per entry) at the same
    budget."""
    relation = _bag_relation()
    budget = 20
    for function, tree_calls in (("sum", 0), ("max", 1)):
        spec = WindowSpec(
            function=function, attribute="v", output="w", order_by=("o",), frame=(-2, 0)
        )
        python = window_native(relation, spec)
        with mock.patch.object(window, "_PAIR_BUDGET", budget), mock.patch.object(
            window, "_tree_bounds", wraps=window._tree_bounds
        ) as tree, mock.patch.object(
            FrameMemberIndex, "member_pairs", autospec=True,
            side_effect=FrameMemberIndex.member_pairs,
        ) as pairs:
            columnar = window_native(relation, spec, backend="columnar")
            fits = window._tree_fits(11, 3)  # 11 duplicates, k = frame size
        assert list(columnar._rows.items()) == list(python._rows.items())
        assert tree.call_count == tree_calls
        if function == "sum":
            assert not fits
            assert pairs.call_count > 1  # several chunks of at most `budget` pairs


@pytest.mark.parametrize("path", ["pairs", "tree"])
def test_ten_row_frames_over_large_integers_match_python(path):
    """Sums near the ``2**53`` exactness gate with frames above the pair
    path's k-pass limit: every window sum is exact in float64, and both
    paths must keep each partial sum a window sum (a prefix over the whole
    pair list rounds, and once raised ``InvalidRangeError``)."""
    import random

    frame_size = 10
    big = 2**53 // (frame_size + 1) - 1000
    rng = random.Random(0)
    rows = []
    for i in range(12):
        v = big - rng.randint(0, 50)
        order = RangeValue(i, i, i + rng.randint(0, 40))
        value = RangeValue(-v, -v + rng.randint(0, 3), -v + 3)
        rows.append(((order, value), (rng.randint(0, 1), 1, 1)))
    relation = AURelation.from_rows(["o", "v"], rows)
    spec = WindowSpec(
        function="sum", attribute="v", output="w", order_by=("o",), frame=(1 - frame_size, 0)
    )
    python = window_native(relation, spec)
    with on_the_tree_path() if path == "tree" else contextlib.nullcontext():
        columnar = window_native(relation, spec, backend="columnar")
    assert list(columnar._rows.items()) == list(python._rows.items())
