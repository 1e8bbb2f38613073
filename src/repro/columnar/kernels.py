"""Vectorized kernels over columnar AU-relations.

The ranking operators only ever compare tuples through three per-tuple key
vectors over the order-by attributes — *earliest*, *selected-guess*, and
*latest* (:mod:`repro.ranking.positions`).  The kernels here rank-encode
those vectors into dense ``int64`` codes (order-preserving, so lexicographic
tuple comparison becomes integer comparison) and then evaluate the paper's
Equations 1-3 with sorts, prefix sums, and binary searches instead of
per-tuple Python work:

* :func:`sort_position_bounds` — position ``(lb, sg, ub)`` triples for every
  row, bit-identical to the definitional rewrite semantics,
* :func:`selected_guess_positions` — positions under ``<ᵗᵒᵗᵃˡ_O`` in the
  selected-guess world,
* :func:`emission_schedule` — the batched replacement for the native sweep's
  per-tuple heap feeding: for every row, how many rows of the
  earliest-ordered stream must be processed before its window of uncertainty
  closes,
* :func:`certainly_precedes_matrix` / :func:`possibly_precedes_matrix` —
  pairwise interval-lexicographic comparison matrices (used by the
  differential tests to cross-check the prefix-sum kernels).

Rank encoding uses :func:`repro.relational.sort.sort_key_value` for columns
stored as ``object`` arrays, so ``None`` ordering and mixed ``int``/``float``
columns behave exactly as in the Python backend; genuinely incomparable
columns (e.g. ``int`` vs ``str``) raise a clear
:class:`~repro.errors.OperatorError` naming the attribute.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.columnar.relation import AttributeColumn, ColumnarAURelation
from repro.errors import OperatorError
from repro.relational.sort import sort_key_value

__all__ = [
    "lexsort_stable",
    "dense_rank_codes",
    "order_code_matrices",
    "lex_rank_pairs",
    "sort_position_bounds",
    "sort_position_bounds_ranked",
    "rank_offset_bounds",
    "permutation_insert",
    "permutation_delete",
    "selected_guess_positions",
    "emission_schedule",
    "certainly_precedes_matrix",
    "possibly_precedes_matrix",
    "duplicate_offsets",
    "interval_point_match_pairs",
    "interval_overlap_pairs",
    "certain_frame_members",
    "possible_frame_members",
    "expand_ranges",
    "FrameMemberIndex",
    "FrameQuadrantTree",
    "sliding_window_sums",
    "sliding_window_extrema",
]


def lexsort_stable(keys: Sequence[np.ndarray]) -> np.ndarray:
    """``np.lexsort`` semantics (last key is primary) via chained stable argsorts.

    Bit-identical to ``np.lexsort(keys)`` — both orders are stable — but
    ~5-7x faster on large key arrays: ``np.lexsort`` pays a per-key merge
    over the full index array, while successive ``kind="stable"`` argsorts
    use the radix/timsort fast paths.  The hot sweep orderings (the window
    sweep's member-pair groupings, emission schedules, ``<ᵗᵒᵗᵃˡ_O`` key
    stacks) all sort through here.
    """
    order = np.argsort(keys[0], kind="stable")
    for key in keys[1:]:
        order = order[np.argsort(key[order], kind="stable")]
    return order


# ---------------------------------------------------------------------------
# Rank encoding
# ---------------------------------------------------------------------------


def _object_rank_codes(pools: Sequence[list], attribute: str) -> list[np.ndarray]:
    """Dense order codes for object-dtype component columns (shared code space)."""
    distinct = set()
    for pool in pools:
        distinct.update(pool)
    try:
        ordered = sorted(distinct, key=sort_key_value)
    except TypeError as exc:
        types = sorted({type(v).__name__ for v in distinct})
        raise OperatorError(
            f"cannot order attribute {attribute!r}: column mixes incomparable "
            f"scalar types {types}; clean the column to a single comparable type"
        ) from exc
    codes = {value: rank for rank, value in enumerate(ordered)}
    return [np.array([codes[v] for v in pool], dtype=np.int64) for pool in pools]


def _numeric_rank_codes(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Dense order codes for numeric component columns (shared code space)."""
    pooled = np.concatenate(arrays)
    _, inverse = np.unique(pooled, return_inverse=True)
    inverse = inverse.astype(np.int64, copy=False)
    out = []
    offset = 0
    for arr in arrays:
        out.append(inverse[offset : offset + len(arr)])
        offset += len(arr)
    return out


def dense_rank_codes(values: Sequence, attribute: str) -> np.ndarray:
    """Order-preserving dense ``int64`` codes for one scalar column.

    Used by the deterministic columnar sort; shares the numeric fast path and
    the ``sort_key_value``-based object path with the AU-relation kernels.
    """
    from repro.columnar.relation import column_array

    arr = column_array(list(values))
    if arr.dtype != object:
        return _numeric_rank_codes([arr])[0]
    return _object_rank_codes([arr.tolist()], attribute)[0]


def component_rank_codes(
    column: AttributeColumn, components: Sequence[str] = ("lb", "sg", "ub")
) -> list[np.ndarray]:
    """Order-preserving dense codes for the requested bound components.

    All requested components share one code space so that cross-component
    comparisons (earliest of one tuple vs latest of another) remain valid.
    """
    arrays = [getattr(column, c) for c in components]
    first_dtype = arrays[0].dtype
    # The vectorized path requires one shared numeric dtype: pooling int64
    # with float64 would upcast to float64 and collapse integers >= 2**53,
    # silently breaking order-preservation.  Mixed-dtype components take the
    # exact object path instead.
    if first_dtype != object and all(arr.dtype == first_dtype for arr in arrays):
        return _numeric_rank_codes(arrays)
    return _object_rank_codes([arr.tolist() for arr in arrays], column.name)


def order_code_matrices(
    relation: ColumnarAURelation, order_by: Sequence[str], *, descending: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Earliest / selected-guess / latest code matrices over the order-by attributes.

    Row ``i`` of the matrices is the rank-encoded key vector of tuple ``i``;
    under a descending order the earliest bound of a range is its upper end,
    which the encoding realises by swapping components and negating codes.
    """
    n = len(relation)
    m = len(order_by)
    earliest = np.empty((n, m), dtype=np.int64)
    sg = np.empty((n, m), dtype=np.int64)
    latest = np.empty((n, m), dtype=np.int64)
    for j, name in enumerate(order_by):
        lb_c, sg_c, ub_c = component_rank_codes(relation.column(name))
        if descending:
            earliest[:, j] = -ub_c
            sg[:, j] = -sg_c
            latest[:, j] = -lb_c
        else:
            earliest[:, j] = lb_c
            sg[:, j] = sg_c
            latest[:, j] = ub_c
    return earliest, sg, latest


def _lex_dense_ranks(rows: np.ndarray) -> np.ndarray:
    """Dense ranks of the rows of an integer matrix under lexicographic order."""
    if len(rows) == 0:
        return np.empty(0, dtype=np.int64)
    order = lexsort_stable(tuple(rows.T[::-1]))
    ordered = rows[order]
    changed = np.any(ordered[1:] != ordered[:-1], axis=1)
    ranks_sorted = np.concatenate([[0], np.cumsum(changed)])
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


def lex_rank_pairs(
    earliest: np.ndarray, latest: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar ranks of the earliest / latest key vectors in one shared order.

    After this step ``earliest_rank[i] <= latest_rank[j]`` iff the earliest
    key vector of ``i`` is lexicographically ``<=`` the latest key vector of
    ``j`` — all interval-lexicographic comparisons reduce to ``int64``
    comparisons.
    """
    n = len(earliest)
    ranks = _lex_dense_ranks(np.vstack([earliest, latest]))
    return ranks[:n], ranks[n:]


# ---------------------------------------------------------------------------
# Position-bound kernels (Equations 1-3)
# ---------------------------------------------------------------------------


def emission_schedule(earliest_rank: np.ndarray, latest_rank: np.ndarray) -> np.ndarray:
    """Batched heap feeding: the close index of every tuple's uncertainty window.

    The native sweep feeds tuples into a min-heap in earliest-key order and
    emits a tuple once an incoming tuple certainly follows it.  Vectorized,
    tuple ``i`` closes after exactly ``count(j : earliest[j] <= latest[i])``
    tuples of the earliest-ordered stream have been fed — which is also the
    prefix of that stream contributing to ``i``'s position upper bound.
    """
    order = np.argsort(earliest_rank, kind="stable")
    return np.searchsorted(earliest_rank[order], latest_rank, side="right")


def certainly_precedes_counts(
    earliest_rank: np.ndarray, latest_rank: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """For every tuple ``i``: total weight of tuples that certainly precede it.

    A tuple certainly precedes ``i`` when its latest key vector is strictly
    below ``i``'s earliest key vector (Equation 1's predecessor set).  A tuple
    never certainly precedes itself, so no self-correction is needed.
    """
    order = np.argsort(latest_rank, kind="stable")
    prefix = np.concatenate([[0], np.cumsum(weights[order])])
    return prefix[np.searchsorted(latest_rank[order], earliest_rank, side="left")]


def possibly_precedes_counts(
    earliest_rank: np.ndarray, latest_rank: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """For every tuple ``i``: total weight of tuples that possibly precede it.

    A tuple possibly precedes ``i`` when its earliest key vector does not
    exceed ``i``'s latest key vector (possible ties included).  The count
    includes ``i`` itself; callers subtract its own weight.  Evaluates the
    weighted form of :func:`emission_schedule` with a single sort.
    """
    order = np.argsort(earliest_rank, kind="stable")
    prefix = np.concatenate([[0], np.cumsum(weights[order])])
    return prefix[np.searchsorted(earliest_rank[order], latest_rank, side="right")]


def selected_guess_positions(
    relation: ColumnarAURelation,
    order_by: Sequence[str],
    sg_codes: np.ndarray,
    *,
    strict_tiebreak: str | None = None,
) -> np.ndarray:
    """Position of every tuple's first duplicate in the selected-guess world.

    Orders the tuples under ``<ᵗᵒᵗᵃˡ_O`` — selected-guess order-by keys, then
    the remaining attributes, then the input sequence number — and
    accumulates selected-guess multiplicities, exactly like the Python
    backend's ``_sg_positions``.  When a remaining attribute mixes
    incomparable types, :func:`_break_ties` consults each attribute only
    where a tie reaches it, as the Python tuple key does.

    ``strict_tiebreak`` names an attribute whose selected-guess values are a
    strict ``int64`` permutation ordered like the *full* non-order-by
    remainder (the factorised slim schema's rank column): it settles every
    ``<ᵗᵒᵗᵃˡ_O`` tie before any later attribute or the sequence number could
    be consulted, so the sort uses it as the sole tiebreaker — skipping the
    rank-encode + sort of every remaining column — and stays bit-identical.
    """
    n = len(relation)
    in_order_by = set(order_by)
    rest = [name for name in relation.schema if name not in in_order_by]
    stepwise = False
    # np.lexsort sorts by its *last* key first: sequence number (final
    # tiebreaker) goes first, then the rest attributes right-to-left, then
    # the order-by codes right-to-left.
    if strict_tiebreak is not None:
        if strict_tiebreak in in_order_by or strict_tiebreak not in relation.schema:
            raise OperatorError(
                f"strict_tiebreak {strict_tiebreak!r} must be a non-order-by attribute"
            )
        # Raw values are their own rank codes (strict int64 permutation).
        keys: list[np.ndarray] = [relation.column(strict_tiebreak).sg]
    else:
        keys = [np.arange(n, dtype=np.int64)]
        try:
            rest_codes = [_rank_codes(relation.column(name).sg, name) for name in rest]
        except OperatorError:
            stepwise = True
        else:
            keys.extend(reversed(rest_codes))
    for j in reversed(range(sg_codes.shape[1])):
        keys.append(sg_codes[:, j])
    order = lexsort_stable(keys)
    if stepwise:
        order = _break_ties(relation, order, sg_codes[order], rest)
    weights = relation.mult_sg[order]
    running = np.cumsum(weights) - weights
    positions = np.empty(n, dtype=np.int64)
    positions[order] = running
    return positions


def _rank_codes(values: np.ndarray, attribute: str) -> np.ndarray:
    """Dense order codes of one component array (``OperatorError`` if incomparable)."""
    if values.dtype != object:
        return _numeric_rank_codes([values])[0]
    return _object_rank_codes([values.tolist()], attribute)[0]


def _break_ties(
    relation: ColumnarAURelation,
    order: np.ndarray,
    sorted_keys: np.ndarray,
    rest: Sequence[str],
) -> np.ndarray:
    """Refine ``order`` by the ``rest`` attributes, one attribute at a time.

    ``order`` is sorted by the rows of ``sorted_keys`` (already permuted
    into that order) and by sequence number.  Each attribute re-sorts only
    the rows still tied on the keys and every earlier attribute, ranking
    each tie group on its own, so an attribute mixing incomparable types
    raises only when one tie holds two such values.  Rows that tie on
    everything keep their sequence order.
    """
    if len(order) < 2:
        return order
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    for name in rest:
        group = np.cumsum(starts)
        positions = np.flatnonzero(np.bincount(group)[group] > 1)
        if not len(positions):
            break
        tied_groups = group[positions]
        values = relation.column(name).sg[order[positions]]
        codes = np.empty(len(positions), dtype=np.int64)
        bounds = np.flatnonzero(np.diff(tied_groups)) + 1
        for segment in np.split(np.arange(len(positions)), bounds):
            codes[segment] = _rank_codes(values[segment], name)
        # Tied rows of one group sit contiguously, so a stable sort on
        # (group, code) re-orders each group in place.
        regroup = lexsort_stable([codes, tied_groups])
        order[positions] = order[positions][regroup]
        codes = codes[regroup]
        starts[positions[1:]] |= codes[1:] != codes[:-1]
    return order


def sort_position_bounds(
    relation: ColumnarAURelation, order_by: Sequence[str], *, descending: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row sort-position bound triples (Equations 1-3), fully vectorized.

    Returns ``(lower, sg, upper)`` arrays for the first duplicate of every
    row; bit-identical to :func:`repro.ranking.positions.position_bounds` and
    to what the native sweep emits.
    """
    lower, sg, upper, _latest_rank = sort_position_bounds_ranked(
        relation, order_by, descending=descending
    )
    return lower, sg, upper


def sort_position_bounds_ranked(
    relation: ColumnarAURelation,
    order_by: Sequence[str],
    *,
    descending: bool = False,
    workers: int = 1,
    strict_tiebreak: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sort_position_bounds` plus the latest-key ranks of every row.

    ``latest_rank`` orders rows by their *latest* (upper-bound) key vector —
    the comparator the native sweep's emission heap pops by.  The
    columnar-native sort / window stages order their output rows by
    ``(latest_rank, input sequence)`` so that chained plans see exactly the
    row order the Python backend's insertion-ordered dictionaries would feed
    the next stage (downstream ``<ᵗᵒᵗᵃˡ_O`` sequence-number tiebreakers
    depend on it).

    With ``workers > 1`` the two precedes-counts evaluate as per-shard
    emission schedules that merge by summation (see
    :func:`_sharded_precedes_counts`); the rank encoding and selected-guess
    pass stay serial.  ``strict_tiebreak`` passes through to
    :func:`selected_guess_positions`.
    """
    earliest, sg_matrix, latest = order_code_matrices(
        relation, order_by, descending=descending
    )
    earliest_rank, latest_rank = lex_rank_pairs(earliest, latest)
    if workers > 1 and len(relation) > 1:
        lower, upper = _sharded_precedes_counts(
            earliest_rank, latest_rank, relation.mult_lb, relation.mult_ub, workers
        )
    else:
        lower = certainly_precedes_counts(earliest_rank, latest_rank, relation.mult_lb)
        upper = possibly_precedes_counts(earliest_rank, latest_rank, relation.mult_ub)
    upper -= relation.mult_ub
    sg = selected_guess_positions(
        relation, order_by, sg_matrix, strict_tiebreak=strict_tiebreak
    )
    sg = np.clip(sg, lower, upper)
    return lower, sg, upper, latest_rank


def rank_offset_bounds(
    earliest: np.ndarray,
    latest: np.ndarray,
    mult_lb: np.ndarray,
    mult_ub: np.ndarray,
    earliest_perm: np.ndarray,
    latest_perm: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Position ``(lower, upper)`` bounds from *maintained* sorted permutations.

    The offset-patch twin of :func:`certainly_precedes_counts` /
    :func:`possibly_precedes_counts`: instead of re-sorting the key arrays,
    the caller supplies permutations it keeps sorted across deltas
    (``latest_perm`` orders rows by latest key, ``earliest_perm`` by earliest
    key), so a delta costs two ``np.searchsorted`` passes over already-sorted
    views plus two prefix sums — no argsort of the whole relation.

    ``earliest`` / ``latest`` are *raw* oriented key values, not dense rank
    codes: searchsorted only consults ``<`` / ``==`` between earliest and
    latest values, which any order-isomorphic encoding preserves, so the
    result is bit-identical to the rank-coded kernels (the callers gate on
    the uniform-numeric, NaN-free columns where that isomorphism holds).
    ``upper`` already has the row's own weight removed, exactly as
    :func:`sort_position_bounds_ranked` returns it.
    """
    latest_sorted = latest[latest_perm]
    prefix_lb = np.concatenate([[0], np.cumsum(mult_lb[latest_perm])])
    lower = prefix_lb[np.searchsorted(latest_sorted, earliest, side="left")]
    earliest_sorted = earliest[earliest_perm]
    prefix_ub = np.concatenate([[0], np.cumsum(mult_ub[earliest_perm])])
    upper = prefix_ub[np.searchsorted(earliest_sorted, latest, side="right")]
    return lower, upper - mult_ub


def permutation_insert(
    perm: np.ndarray, positions: np.ndarray, new_indices: np.ndarray
) -> np.ndarray:
    """Insert new row indices into a maintained sorted permutation.

    ``positions[t]`` is the slot (into the *current* ``perm``) before which
    ``new_indices[t]`` belongs — typically a ``np.searchsorted(...,
    side="right")`` result so that an inserted row lands after every equal
    key (its row index is larger than any existing row's, matching the
    stable-argsort tie order the kernels emit).  Equal positions keep the
    order of appearance, so batches pre-sorted by row index stay
    index-ordered among themselves.
    """
    if len(new_indices) == 0:
        return perm
    return np.insert(perm, positions, new_indices)


def permutation_delete(perm: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Drop deleted rows from a maintained permutation and renumber it.

    ``keep`` is a boolean mask over the rows the permutation currently
    indexes; surviving entries are renumbered to index the compacted row
    array (``new_index = cumsum(keep) - 1``), preserving their relative
    order — exactly what a stable argsort of the masked keys would produce.
    """
    new_index = np.cumsum(keep) - 1
    kept = perm[keep[perm]]
    return new_index[kept]


def _sharded_precedes_counts(
    earliest_rank: np.ndarray,
    latest_rank: np.ndarray,
    mult_lb: np.ndarray,
    mult_ub: np.ndarray,
    workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Both precedes-counts, sharded over *contributor* rows.

    Every row shard computes the weight its own rows contribute to each
    tuple's certain / possible predecessor counts — a per-shard emission
    schedule over the full query set — and the partials merge by summation.
    Weights are exact ``int64`` counts, so the shard-local prefix sums add up
    to the global prefix sums regardless of the shard layout: bit-identical
    to the unsharded kernels.
    """
    from repro.columnar.parallel import morsel_count, parallel_map, shard_ranges

    shards = shard_ranges(len(earliest_rank), morsel_count(workers))

    def shard_counts(block: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        start, stop = block
        return (
            certainly_precedes_counts(
                earliest_rank, latest_rank[start:stop], mult_lb[start:stop]
            ),
            possibly_precedes_counts(
                earliest_rank[start:stop], latest_rank, mult_ub[start:stop]
            ),
        )

    partials = parallel_map(shard_counts, shards, workers=workers)
    lower = np.zeros(len(earliest_rank), dtype=np.int64)
    upper = np.zeros(len(earliest_rank), dtype=np.int64)
    for part_lower, part_upper in partials:
        lower += part_lower
        upper += part_upper
    return lower, upper


# ---------------------------------------------------------------------------
# Frame-membership kernels (windowed aggregation, Sections 6-7)
# ---------------------------------------------------------------------------


def duplicate_offsets(mult_ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand a multiplicity-upper-bound vector into per-duplicate indexes.

    Returns ``(row, offset)`` arrays of length ``sum(mult_ub)``: duplicate
    ``t`` belongs to input row ``row[t]`` and is that row's ``offset[t]``-th
    copy.  The ``i``-th duplicate's sort position is the row's base position
    shifted by ``i`` (the split of Fig. 4 / Algorithm 2).
    """
    total = int(mult_ub.sum()) if len(mult_ub) else 0
    row = np.repeat(np.arange(len(mult_ub), dtype=np.int64), mult_ub)
    starts = np.cumsum(mult_ub) - mult_ub
    offset = np.arange(total, dtype=np.int64) - np.repeat(starts, mult_ub)
    return row, offset


def certain_frame_members(
    defining_lb: np.ndarray,
    defining_ub: np.ndarray,
    pos_lb: np.ndarray,
    pos_ub: np.ndarray,
    certain: np.ndarray,
    preceding: int,
) -> np.ndarray:
    """Mask ``M[d, e]``: duplicate ``e`` is certainly in ``d``'s frame.

    A certain duplicate is certainly inside an ``N PRECEDING AND CURRENT
    ROW`` window when its position interval is contained in the positions the
    window certainly covers — it starts no earlier than the latest possible
    window start and ends no later than the earliest possible window end
    (the containment condition of Fig. 6).  ``defining_*`` index the block of
    defining duplicates (rows of the mask); the self pair is *not* masked out
    here (callers exclude the diagonal).

    Quadratic reference implementation: the production sweep resolves
    membership through :class:`FrameMemberIndex` instead; the differential
    tests cross-check the two.
    """
    low = (defining_ub - preceding)[:, None]
    return (
        certain[None, :]
        & (pos_lb[None, :] >= low)
        & (pos_ub[None, :] <= defining_lb[:, None])
    )


def possible_frame_members(
    defining_lb: np.ndarray,
    defining_ub: np.ndarray,
    pos_lb: np.ndarray,
    pos_ub: np.ndarray,
    preceding: int,
) -> np.ndarray:
    """Mask ``M[d, e]``: duplicate ``e`` possibly falls into ``d``'s frame.

    The overlap condition of Fig. 6: the candidate's position interval
    intersects the positions the window possibly covers.  Certain members
    also satisfy it; callers subtract :func:`certain_frame_members` and the
    diagonal.

    Quadratic reference implementation: the production sweep resolves
    membership through :class:`FrameMemberIndex` instead; the differential
    tests cross-check the two.
    """
    return (pos_lb[None, :] <= defining_ub[:, None]) & (
        pos_ub[None, :] >= (defining_lb[:, None] - preceding)
    )


def expand_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, stop)`` for every aligned (start, stop) pair.

    The vectorized replacement for ``[i for s, t in zip(starts, stops) for i
    in range(s, t)]`` — turns per-query searchsorted bounds into the flat
    member-index list of the pair sweep.
    """
    counts = stops - starts
    total = int(counts.sum()) if len(counts) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


class FrameMemberIndex:
    """Width-bucketed, position-sorted index over expanded duplicates.

    Answers the frame-membership queries of the columnar window sweep with
    ``np.searchsorted`` range queries instead of ``O(queries x n)`` boolean
    masks.  For an ``N PRECEDING AND CURRENT ROW`` frame, candidate ``e``
    *possibly* falls into the frame of defining duplicate ``d`` iff its
    position interval overlaps ``[pos_lb[d] - N, pos_ub[d]]`` (the overlap
    condition of Fig. 6):

        ``pos_lb[e] <= pos_ub[d]  and  pos_ub[e] >= pos_lb[d] - N``.

    Bucketing candidates by interval width ``w = pos_ub - pos_lb`` rewrites
    the two-sided condition as a single contiguous range over the bucket's
    sorted ``pos_lb`` — ``pos_lb[e] in [pos_lb[d] - N - w, pos_ub[d]]`` — so
    each (query, bucket) pair costs two binary searches, and materialising
    the members costs ``O(pairs)``.  Total work is ``O((n + q·W) log n +
    pairs)`` with ``W`` distinct widths: linear-ish in the *actual* number of
    possible members instead of quadratic in the relation size.

    All (query, bucket) searches run as *one* ``np.searchsorted`` call: the
    buckets are concatenated in ascending-width order with their normalised
    ``pos_lb`` values shifted by ``bucket_index * stride`` (``stride`` wider
    than the position range, so buckets cannot collide), query values are
    clamped into the bucket's slot and shifted the same way, and the
    resulting bounds are *global* indices into the concatenated member
    array — no per-bucket Python loop.
    """

    __slots__ = (
        "preceding", "_members", "_widths", "_shifted_lb", "_base", "_stride",
        "_pos_lb", "_pos_ub",
    )

    def __init__(self, pos_lb: np.ndarray, pos_ub: np.ndarray, preceding: int):
        self.preceding = preceding
        self._pos_lb, self._pos_ub = pos_lb, pos_ub
        width = pos_ub - pos_lb
        if len(width) == 0:
            self._members = np.empty(0, dtype=np.int64)
            self._widths = np.empty(0, dtype=np.int64)
            self._shifted_lb = np.empty(0, dtype=np.int64)
            self._base = np.int64(0)
            self._stride = np.int64(1)
            return
        # Members sorted by (width, pos_lb): each width bucket is a
        # contiguous, pos_lb-sorted run of the concatenated array.
        order = lexsort_stable((pos_lb, width))
        self._members = order
        sorted_width = width[order]
        bucket_of_member = np.cumsum(
            np.concatenate([[0], (sorted_width[1:] != sorted_width[:-1]).astype(np.int64)])
        )
        starts = np.flatnonzero(
            np.concatenate([[True], sorted_width[1:] != sorted_width[:-1]])
        )
        self._widths = sorted_width[starts]
        self._base = np.int64(pos_lb.min())
        self._stride = np.int64(pos_lb.max()) - self._base + 2
        self._shifted_lb = (pos_lb[order] - self._base) + bucket_of_member * self._stride

    #: Cell budget for the (buckets x queries) bound matrices: query slices
    #: are sized so one batched searchsorted never materialises more cells.
    _CELL_BUDGET = 4_000_000

    def _bucket_bounds(
        self, q_lb: np.ndarray, q_ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global ``[low, high)`` member-array bounds per (bucket, query).

        Returns flattened bucket-major ``(buckets * queries,)`` arrays.  The
        query endpoints are clamped into the bucket's slot
        (``[0, stride - 1]`` for the left bound, ``[-1, stride - 1]`` for the
        right so an endpoint below every position yields an empty run) before
        shifting, so an out-of-range endpoint saturates at its own bucket's
        edge instead of bleeding into a neighbour.
        """
        buckets = len(self._widths)
        lo_values = np.clip(
            q_lb[None, :] - self.preceding - self._widths[:, None] - self._base,
            0,
            self._stride - 1,
        )
        hi_values = np.clip(q_ub - self._base, -1, self._stride - 1)
        shift = (np.arange(buckets, dtype=np.int64) * self._stride)[:, None]
        low = np.searchsorted(self._shifted_lb, (lo_values + shift).ravel(), side="left")
        high = np.searchsorted(
            self._shifted_lb, (hi_values[None, :] + shift).ravel(), side="right"
        )
        return low, np.maximum(low, high)

    def _query_slices(self, queries: int):
        step = max(1, self._CELL_BUDGET // max(1, len(self._widths)))
        for start in range(0, queries, step):
            yield start, min(queries, start + step)

    def pair_counts(self, q_lb: np.ndarray, q_ub: np.ndarray) -> np.ndarray:
        """Per query: how many duplicates possibly fall into its frame.

        Two binary searches per query, no width buckets: the members failing
        ``pos_ub[e] >= q_lb - N`` all have ``pos_lb[e] <= pos_ub[e] < q_lb - N
        <= q_ub``, so they are a subset of the members with ``pos_lb[e] <=
        q_ub`` and the overlap count is a difference of two sorted-array
        ranks.  Sizes the sweep's pair chunks and picks its kernel.
        """
        return np.searchsorted(np.sort(self._pos_lb), q_ub, side="right") - np.searchsorted(
            np.sort(self._pos_ub), q_lb - self.preceding, side="left"
        )

    def member_pairs(
        self, q_lb: np.ndarray, q_ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(query, member)`` index pairs for all possible frame members.

        ``query`` indexes the ``q_lb`` / ``q_ub`` arrays (a chunk of defining
        duplicates), ``member`` the duplicates this index was built over.
        Certain members are a subset (containment implies overlap); callers
        classify them per pair and drop the self pair.  Pair order is
        deterministic but unspecified across query slices; every consumer
        reduces per (query, member) group, so the order never reaches results.
        """
        if len(self._widths) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        query_parts: list[np.ndarray] = []
        member_parts: list[np.ndarray] = []
        for start, stop in self._query_slices(len(q_lb)):
            low, high = self._bucket_bounds(q_lb[start:stop], q_ub[start:stop])
            counts = high - low
            query_parts.append(
                start
                + np.repeat(
                    np.tile(np.arange(stop - start, dtype=np.int64), len(self._widths)),
                    counts,
                )
            )
            member_parts.append(self._members[expand_ranges(low, high)])
        if len(query_parts) == 1:
            return query_parts[0], member_parts[0]
        return np.concatenate(query_parts), np.concatenate(member_parts)


class FrameQuadrantTree:
    """Merge-sort tree answering frame aggregates without enumerating members.

    Duplicate ``e`` possibly falls into the frame of defining duplicate
    ``d`` iff ``pos_lb[e] <= pos_ub[d]`` and ``pos_ub[e] >= pos_lb[d] - N``
    (the overlap condition of Fig. 6) — a quadrant query over the points
    ``(pos_lb[e], pos_ub[e])``.  The tree sorts the points by ``pos_lb``
    (padded to a power of two) and keeps one level per block size ``2**l``;
    inside each block the entries are sorted by ``pos_ub`` descending and
    carry running aggregates.  A query's prefix ``pos_lb <= pos_ub[d]``
    splits into at most one block per level (the set bits of its length),
    and inside each block the entries with ``pos_ub >= pos_lb[d] - N`` are a
    prefix found by one binary search.  All (query, level) searches run as
    one ``np.searchsorted`` over keys shifted by a per-block stride (the
    :class:`FrameMemberIndex` trick), so a query costs ``O(log m)`` searches
    and never touches its members: the vectorised analogue of the
    connected-heap window sweep (Algorithm 3, Sec. 8.2,
    :mod:`repro.algorithms.connected_heap`).

    :meth:`locate` resolves the queries once; :meth:`smallest` then answers
    "the ``k`` smallest values in the quadrant" for any per-duplicate value
    array (``k = 1`` gives min, negated values give max, and ``sum`` bounds
    select from the ``frame_size`` smallest).  The running aggregates are
    built level by level, like the merge sort the tree is named after: a
    block's first ``p`` entries are a prefix of each of its two child
    blocks, so each running list merges one running list of each child —
    one ``k``-list merge per entry and level.

    >>> import numpy as np
    >>> tree = FrameQuadrantTree(np.array([0, 1, 1]), np.array([0, 2, 1]), 1)
    >>> hits = tree.locate(np.array([2, 3]), np.array([2, 3]))
    >>> tree.smallest(np.array([5.0, 3.0, 4.0]), 2, hits).tolist()
    [[3.0, 4.0], [3.0, inf]]
    """

    __slots__ = ("preceding", "_sorted_lb", "_levels", "_size", "_keys", "_member",
                 "_children", "_base", "_top", "_stride", "_block_offsets")

    def __init__(self, pos_lb: np.ndarray, pos_ub: np.ndarray, preceding: int):
        self.preceding = preceding
        m = len(pos_lb)
        order = np.argsort(pos_lb, kind="stable")
        self._sorted_lb = pos_lb[order]
        self._levels, self._size = levels, size = self.shape(m)
        # Entries are ranked on u = -pos_ub (ascending u = pos_ub descending),
        # normalised into [1, top]; padding takes top + 1, above every
        # (clipped) query threshold, so it is never counted.
        u = -pos_ub[order]
        self._base = int(u.min()) - 1 if m else 0
        self._top = int(u.max()) - self._base if m else 0
        self._stride = self._top + 2
        ku = np.full(size, self._top + 1, dtype=np.int64)
        ku[:m] = u - self._base
        member = np.full(size, -1, dtype=np.int64)
        member[:m] = order

        level = np.repeat(np.arange(levels, dtype=np.int64), size)
        index = np.tile(np.arange(size, dtype=np.int64), levels)
        self._block_offsets = np.concatenate(
            [[0], np.cumsum(size >> np.arange(levels, dtype=np.int64))]
        )[:-1]
        block = self._block_offsets[level] + (index >> level)
        perm = lexsort_stable((ku[index], block))
        self._keys = block[perm] * self._stride + ku[index[perm]]
        self._member = member[index[perm]]

        # Per entry above level 0: the running-list rows of its two child
        # blocks that cover the block's prefix ending at the entry (-1, the
        # +inf row, when that prefix takes nothing from a child).  Stable
        # sorting keeps each child's entries in the child's own order.
        flat = np.arange(size, levels * size, dtype=np.int64)
        level, index = level[size:], index[perm[size:]]
        start = flat - ((flat - level * size) & ((1 << level) - 1))
        from_left = ((index >> (level - 1)) & 1) == 0
        taken = np.cumsum(from_left)
        left = taken - (taken - from_left)[start - size]
        right = flat - start + 1 - left
        child = start - size
        self._children = (
            np.where(left > 0, child + left - 1, -1),
            np.where(right > 0, child + (1 << (level - 1)) + right - 1, -1),
        )

    @staticmethod
    def shape(m: int) -> tuple[int, int]:
        """``(levels, padded size)`` of the tree over ``m`` duplicates; a
        :meth:`smallest` call holds ``levels * size * k`` running values."""
        size = 1 << max(0, m - 1).bit_length()
        return size.bit_length(), size

    def locate(self, q_lb: np.ndarray, q_ub: np.ndarray) -> np.ndarray:
        """Per (query, level): the flat entry whose running aggregate covers
        the query's quadrant inside that level's block, or ``-1`` (no block at
        that level, or no entry of the block qualifies).  Shape ``(q, levels)``.
        """
        levels = np.arange(self._levels, dtype=np.int64)
        count = np.searchsorted(self._sorted_lb, q_ub, side="right")[:, None] >> levels
        block = count - 1
        threshold = np.clip(self.preceding - q_lb - self._base, 0, self._top)[:, None]
        keys = (self._block_offsets[levels] + block) * self._stride + threshold
        found = np.searchsorted(self._keys, keys.ravel(), side="right").reshape(keys.shape)
        start = levels * self._size + (block << levels)
        return np.where((count & 1).astype(bool) & (found > start), found - 1, -1)

    def smallest(self, values: np.ndarray, k: int, hits: np.ndarray) -> np.ndarray:
        """The ``k`` smallest ``values`` in each located quadrant, ascending.

        ``values`` is indexed by duplicate; ``hits`` comes from
        :meth:`locate`.  Quadrants holding fewer than ``k`` members pad the
        tail with ``+inf``.  Returns a ``(q, k)`` float64 array.
        """
        size = self._size
        running = np.full((self._levels * size + 1, k), np.inf)
        member = self._member[:size]  # level 0: one entry per block
        present = member >= 0
        running[:size, 0][present] = np.asarray(values, dtype=np.float64)[member[present]]
        left, right = self._children
        for level in range(1, self._levels):
            below = slice((level - 1) * size, level * size)
            a, b = running[left[below]], running[right[below]]
            running[level * size:(level + 1) * size] = (
                np.minimum(a, b) if k == 1
                else np.sort(np.concatenate((a, b), axis=1), axis=1)[:, :k]
            )
        # Row -1 (the appended +inf row) answers the missing blocks.
        candidates = running[hits].reshape(len(hits), hits.shape[1] * k)
        if k == 1:
            return candidates.min(axis=1, keepdims=True)
        return np.sort(candidates, axis=1)[:, :k]


def interval_point_match_pairs(
    lb: np.ndarray, ub: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(interval, point)`` index pairs with ``points[j]`` inside ``[lb[i], ub[i]]``.

    The memory-safe replacement for the pair-grid equi-join when one side's
    key column is certain: sorting the point values once turns every
    interval's possible-overlap match set into a contiguous run bounded by
    two binary searches (``searchsorted`` on the interval endpoints), so the
    work is ``O((n + q) log n + matches)`` instead of ``O(n · q)`` pairs.

    Pairs are emitted grouped by interval; callers needing a specific pair
    order (the join's left-outer / right-inner order) sort the result.
    Inputs must be NaN-free numeric arrays whose cross-dtype promotion is
    exact — the callers gate on :class:`~repro.columnar.relation.ComponentProfile`.
    """
    order = np.argsort(points, kind="stable")
    sorted_points = points[order]
    lo = np.searchsorted(sorted_points, lb, side="left")
    hi = np.maximum(lo, np.searchsorted(sorted_points, ub, side="right"))
    counts = hi - lo
    interval_idx = np.repeat(np.arange(len(lb), dtype=np.int64), counts)
    point_idx = order[expand_ranges(lo, hi)]
    return interval_idx, point_idx


def interval_overlap_pairs(
    l_lb: np.ndarray, l_ub: np.ndarray, r_lb: np.ndarray, r_ub: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(left, right)`` index pairs whose ``[lb, ub]`` intervals overlap.

    The range×range sweep kernel: when *both* join sides carry uncertain
    keys, the possibly-equal pairs are exactly the pairs whose key intervals
    intersect — ``l_lb[i] <= r_ub[j]  and  r_lb[j] <= l_ub[i]``.  The four
    endpoint arrays are rank-encoded into one shared ``int64`` code space
    (overlap only compares endpoints with ``<=``, which dense codes
    preserve), then a :class:`FrameMemberIndex` over the right intervals with
    ``preceding=0`` answers every left interval's overlap set as contiguous
    searchsorted runs per width bucket — ``O((n + q·W) log n + pairs)`` with
    ``W`` distinct right-interval widths, instead of the grid's ``O(n · q)``.

    Pair order is deterministic but unspecified; callers needing the join's
    left-outer / right-inner order sort the result.  Inputs must be NaN-free
    numeric arrays whose cross-dtype promotion is exact — the callers gate on
    :class:`~repro.columnar.relation.ComponentProfile`.
    """
    if len(l_lb) == 0 or len(r_lb) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    q_lb, q_ub, m_lb, m_ub = _numeric_rank_codes([l_lb, l_ub, r_lb, r_ub])
    index = FrameMemberIndex(m_lb, m_ub, 0)
    return index.member_pairs(q_lb, q_ub)


def sliding_window_sums(values: np.ndarray, window: int) -> np.ndarray:
    """Rolling sums of the trailing ``window`` values (prefix-sum shaped).

    ``out[i] = sum(values[max(0, i - window + 1) : i + 1])`` — the
    selected-guess aggregate of an ``N PRECEDING AND CURRENT ROW`` frame over
    a dense, deterministic order.
    """
    n = len(values)
    prefix = np.concatenate([[0], np.cumsum(values)])
    starts = np.maximum(0, np.arange(n) + 1 - window)
    return prefix[1:] - prefix[starts]


def sliding_window_extrema(values: np.ndarray, window: int, *, maximum: bool) -> np.ndarray:
    """Rolling min/max of the trailing ``window`` values (sliding-extrema shaped).

    Pads the front with the identity element so that truncated leading
    windows reduce over exactly the available values.  ``int64`` inputs stay
    ``int64`` (identity from ``np.iinfo``), preserving exactness for
    integers beyond float64's 2**53 range; other inputs reduce in float64.
    """
    if len(values) == 0:
        return np.empty(0, dtype=values.dtype)
    # A trailing window never holds more rows than exist; clamping keeps the
    # padding (and the O(n * window) reduction) bounded for huge frames.
    window = min(window, len(values))
    if values.dtype == np.int64:
        identity = np.iinfo(np.int64).min if maximum else np.iinfo(np.int64).max
        padded = np.concatenate([np.full(window - 1, identity, dtype=np.int64), values])
    else:
        identity = -np.inf if maximum else np.inf
        padded = np.concatenate([np.full(window - 1, identity), values.astype(np.float64)])
    view = np.lib.stride_tricks.sliding_window_view(padded, window)
    return view.max(axis=1) if maximum else view.min(axis=1)


# ---------------------------------------------------------------------------
# Pairwise comparison matrices (cross-checks for small inputs)
# ---------------------------------------------------------------------------


def certainly_precedes_matrix(
    earliest_rank: np.ndarray, latest_rank: np.ndarray
) -> np.ndarray:
    """Boolean matrix ``M[i, j]``: tuple ``i`` certainly precedes tuple ``j``."""
    return latest_rank[:, None] < earliest_rank[None, :]


def possibly_precedes_matrix(
    earliest_rank: np.ndarray, latest_rank: np.ndarray
) -> np.ndarray:
    """Boolean matrix ``M[i, j]``: tuple ``i`` possibly precedes tuple ``j``."""
    return earliest_rank[:, None] <= latest_rank[None, :]
