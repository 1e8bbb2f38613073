"""Differential properties: the quadrant-tree window kernel vs member pairs.

:class:`~repro.columnar.kernels.FrameQuadrantTree` answers frame aggregates
without enumerating the possible (query, member) pairs; the pair
enumeration of :class:`~repro.columnar.kernels.FrameMemberIndex` stays as
its cross-check.  On random duplicate position intervals — narrow certain
members (the only ones containment can make certain), tied and negative
values, ``ub > 1`` rows split into shifted duplicates, and ``m = 0 / 1`` —
the tree's counts, minima and ``k`` smallest values must equal reductions
over ``member_pairs``, and the window sweep's tree bounds must equal its
pair bounds for every aggregate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

from repro.columnar import window
from repro.columnar.kernels import FrameMemberIndex, FrameQuadrantTree, duplicate_offsets


@st.composite
def duplicates(draw):
    """Per-duplicate ``(pos_lb, pos_ub, certain, val_lb, val_ub)`` arrays.

    Rows draw a base interval (mostly narrow, sometimes wide), a
    multiplicity triple with ``ub`` up to 3, and integer value bounds in
    ``[-3, 4]``; rows expand into duplicates exactly as the window sweep
    does (the ``i``-th copy shifts its positions by ``i`` and is certain
    while ``i < mult.lb``).
    """
    rows = draw(st.integers(min_value=0, max_value=9))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=rows, max_size=rows)), dtype=np.int64)

    lower = column(st.integers(0, 12))
    width = column(st.sampled_from([0, 0, 1, 2, 3, 8]))
    mult_ub = column(st.integers(1, 3))
    mult_lb = np.array([draw(st.integers(0, int(ub))) for ub in mult_ub], dtype=np.int64)
    values = column(st.integers(-3, 3))
    spread = column(st.integers(0, 1))
    row, offset = duplicate_offsets(mult_ub)
    pos_lb = lower[row] + offset
    pos_ub = pos_lb + width[row]
    certain = offset < mult_lb[row]
    lb = values[row].astype(np.float64)
    ub = lb + spread[row]
    return pos_lb, pos_ub, certain, lb, ub


@settings(max_examples=200, deadline=None)
@given(
    dups=duplicates(),
    preceding=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=1, max_value=4),
)
def test_tree_matches_member_pair_reductions(dups, preceding, k):
    pos_lb, pos_ub, _certain, val_lb, _val_ub = dups
    m = len(pos_lb)
    index = FrameMemberIndex(pos_lb, pos_ub, preceding)
    query, member = index.member_pairs(pos_lb, pos_ub)
    counts = index.pair_counts(pos_lb, pos_ub)
    assert counts.tolist() == np.bincount(query, minlength=m).tolist()

    tree = FrameQuadrantTree(pos_lb, pos_ub, preceding)
    hits = tree.locate(pos_lb, pos_ub)
    smallest = tree.smallest(val_lb, k, hits)
    top = tree.smallest(val_lb, 1, hits)
    for d in range(m):
        members = sorted(val_lb[member[query == d]].tolist())
        expected = (members + [np.inf] * k)[:k]
        assert smallest[d].tolist() == expected
        assert top[d].tolist() == [members[0]]  # the quadrant holds d itself


@settings(max_examples=200, deadline=None)
@given(
    dups=duplicates(),
    preceding=st.integers(min_value=0, max_value=3),
    function=st.sampled_from(["sum", "count", "min", "max", "avg"]),
)
def test_tree_bounds_match_pair_bounds(dups, preceding, function):
    pos_lb, pos_ub, certain, val_lb, val_ub = dups
    m = len(pos_lb)
    index = FrameMemberIndex(pos_lb, pos_ub, preceding)
    args = (function, pos_lb, pos_ub, certain, val_lb, val_ub, preceding, preceding + 1)
    pairs = window._pair_bounds(index, [(0, m)], *args)
    tree = window._tree_bounds(index.pair_counts(pos_lb, pos_ub), *args)
    for expected, got in zip(pairs, tree):
        assert expected.tolist() == np.asarray(got, dtype=np.float64).tolist()
