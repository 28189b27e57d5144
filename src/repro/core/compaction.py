"""Table compaction: the inner kernel of the Friedman-Supowit algorithm.

One compaction step folds variable ``x_i`` into the bottom part of the
diagram: it produces ``FS(<I, i>)`` from ``FS(I)`` by pairing, for every
assignment ``b`` to the remaining variables, the two parent cells
``TABLE_I[b, x_i=0]`` and ``TABLE_I[b, x_i=1]``, applying the reduction
rule, and deduplicating the surviving pairs into nodes.

Two implementations are provided, each registered with the execution
engine's kernel registry (:func:`repro.core.engine.register_kernel`) so
every DP entry point and the CLI can select them by name:

* :func:`compact` — vectorized over numpy (the default ``"numpy"`` kernel);
* :func:`compact_python` — a direct, cell-at-a-time transcription of the
  paper's ``COMPACT`` pseudo code (the ``"python"`` kernel), kept as an
  executable specification and used by the tests to cross-check the
  vectorized kernel.

Under the ``"numpy"`` kernel the sweep does not call :func:`compact` once
per ``(I, i)`` candidate: :func:`compact_layer` handles a whole chunk of
one DP layer at once.  It counts every candidate's new nodes without
building its table, picks each subset's winner, and materializes only the
winners — the same numbers :func:`compact` produces, at one numpy pass
per bit position instead of one call per candidate.

Correctness note on the paper's ``NODE`` membership test: the paper's
pseudo code initializes ``NODE_(I\\i,i)`` with ``NODE_(I\\i)`` and tests
``(u, u0, u1) in NODE``.  Read literally this would merge a *new* node with
an *old* node from a lower level that happens to share the same cofactor
pair — but the paper's own equivalence definition (Sec. 2.2, rule 5(b))
requires ``var(u) = var(v)``, and merging across levels is unsound (two
nodes testing different variables with equal cofactor pairs compute
different functions whenever ``u0 != u1``).  We therefore key the
uniqueness check on the current variable: only nodes created in this very
compaction step can be shared, which is also what the original FS90
implementation does.  ``NODE`` still *accumulates* all triples so the final
diagram can be emitted.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import (
    Callable, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from .._bitops import bits_of, insert_bit_indices, rank_in_mask
from ..analysis.counters import OperationCounters
from ..errors import OrderingError
from .engine import register_kernel
from .executor import ChunkResult, materialize_entry
from .frontier import Layer
from .spec import FSState, ReductionRule

_KEY_SHIFT = 32
_ID_LIMIT = 1 << _KEY_SHIFT
# Key given to merged cells in the fused kernel: sorts after every live
# ``u0 << 32 | u1`` key, so live keys keep their ranks.
_MERGED_KEY = np.iinfo(np.int64).max
# Cells per fused-kernel batch (128 KB per int64 array).
_BATCH_CELLS = 1 << 14


@register_kernel("numpy")
def compact(
    state: FSState,
    var: int,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
) -> FSState:
    """Produce ``FS(<chain..., var>)`` from ``state`` (vectorized).

    ``var`` must be one of the state's free variables.  Node structure is
    tracked iff the input state tracks it.
    """
    free = state.free_mask
    position = rank_in_mask(free, var)
    new_segment = 1 << (state.n - state.placed - 1)
    new_size = state.num_roots * new_segment

    idx0, idx1 = insert_bit_indices(new_segment, position)
    if state.num_roots > 1:
        # One table segment per root; the cofactor indexing applies within
        # each segment, the node dedup below is shared across all of them.
        offsets = (
            np.arange(state.num_roots, dtype=np.int64)[:, None]
            * state.segment_size
        )
        idx0 = (offsets + idx0[None, :]).ravel()
        idx1 = (offsets + idx1[None, :]).ravel()
    u0 = state.table[idx0]
    u1 = state.table[idx1]

    if rule is ReductionRule.ZDD:
        merged = u1 == 0
    else:  # BDD / MTBDD / CBDD all merge equal cofactors
        merged = u0 == u1

    next_id = state.next_id
    if next_id >= _ID_LIMIT:  # pragma: no cover - needs >2^32 nodes
        raise OverflowError("node id space exhausted")

    new_table = np.empty(new_size, dtype=np.int64)
    new_table[merged] = u0[merged]

    live = ~merged
    live_u0 = u0[live].astype(np.int64)
    live_u1 = u1[live].astype(np.int64)
    if rule is ReductionRule.CBDD:
        # Cells hold edges; normalize so the 1-edge is regular and push
        # the complement onto the produced edge.  Two cells whose
        # subfunctions are complements of each other normalize to the
        # same node — that is exactly the complement-class sharing.
        out_complement = live_u1 & 1
        live_u0 = live_u0 ^ out_complement
        live_u1 = live_u1 ^ out_complement
    keys = (live_u0 << _KEY_SHIFT) | live_u1
    unique_keys, first_pos, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    created = int(unique_keys.shape[0])
    if rule is ReductionRule.CBDD:
        new_table[live] = (((next_id + inverse) << 1) | out_complement)
    else:
        new_table[live] = next_id + inverse

    nodes = None
    if state.nodes is not None:
        nodes = dict(state.nodes)
        for j in range(created):
            key = int(unique_keys[j])
            nodes[next_id + j] = (var, key >> _KEY_SHIFT, key & (_ID_LIMIT - 1))

    if counters is not None:
        counters.compactions += 1
        counters.table_cells += new_size
        counters.nodes_created += created

    return FSState(
        n=state.n,
        mask=state.mask | (1 << var),
        pi=state.pi + (var,),
        mincost=state.mincost + created,
        table=new_table,
        num_terminals=state.num_terminals,
        nodes=nodes,
        num_roots=state.num_roots,
    )


@register_kernel("python")
def compact_python(
    state: FSState,
    var: int,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
) -> FSState:
    """Cell-at-a-time transcription of the paper's ``COMPACT`` procedure.

    Functionally identical to :func:`compact` (the tests assert this); kept
    as an executable specification and as the ablation point for the
    "vectorized tables vs per-cell dictionaries" design choice.
    """
    from .._bitops import insert_bit  # local import to keep module header lean

    free = state.free_mask
    position = rank_in_mask(free, var)
    new_segment = 1 << (state.n - state.placed - 1)
    new_size = state.num_roots * new_segment
    old_segment = state.segment_size

    table = state.table
    new_table = np.empty(new_size, dtype=np.int64)
    mincost = state.mincost
    nodes = dict(state.nodes) if state.nodes is not None else None
    # Per-step unique table, keyed on the cofactor pair for the current var.
    step_unique = {}

    for b in range(new_size):
        root, cell = divmod(b, new_segment)
        base = root * old_segment
        u0 = int(table[base + insert_bit(cell, position, 0)])
        u1 = int(table[base + insert_bit(cell, position, 1)])
        if rule is ReductionRule.ZDD:
            drop = u1 == 0
        else:
            drop = u0 == u1
        if drop:
            new_table[b] = u0
            continue
        out_complement = 0
        if rule is ReductionRule.CBDD:
            out_complement = u1 & 1
            u0 ^= out_complement
            u1 ^= out_complement
        existing = step_unique.get((u0, u1))
        if existing is not None:
            node_id = existing
        else:
            mincost += 1
            node_id = state.num_terminals + mincost - 1  # "one plus MINCOST"
            step_unique[(u0, u1)] = node_id
            if nodes is not None:
                nodes[node_id] = (var, u0, u1)
        if rule is ReductionRule.CBDD:
            new_table[b] = (node_id << 1) | out_complement
        else:
            new_table[b] = node_id

    created = mincost - state.mincost
    if counters is not None:
        counters.compactions += 1
        counters.table_cells += new_size
        counters.nodes_created += created

    return FSState(
        n=state.n,
        mask=state.mask | (1 << var),
        pi=state.pi + (var,),
        mincost=mincost,
        table=new_table,
        num_terminals=state.num_terminals,
        nodes=nodes,
        num_roots=state.num_roots,
    )


# ----------------------------------------------------------------------
# the fused layer kernel
# ----------------------------------------------------------------------

class _Candidates(NamedTuple):
    """A chunk's ``(predecessor, variable)`` candidates, as columns."""

    subset: np.ndarray
    """Index of the candidate's subset in the chunk."""
    var: np.ndarray
    row: np.ndarray
    """Row of the candidate's predecessor in the previous layer."""
    position: np.ndarray
    """Insert-bit position: the variable's rank among the predecessor's
    free variables."""

    def counted(self, retain_full: bool) -> np.ndarray:
        """Which candidates the count pass sorts.  A subset's only
        candidate wins whatever its cost, so when winners get tables its
        count falls out of materialization instead."""
        if not retain_full:
            return np.ones(len(self.subset), dtype=bool)
        return np.bincount(self.subset)[self.subset] > 1


def _layer_candidates(masks: Sequence[int], previous: Layer,
                      base: FSState) -> _Candidates:
    """Enumerate a chunk's candidates in the scalar loop's order: subsets
    in chunk order, variables ascending.  Predecessors missing from
    ``previous`` (infeasible under a subset filter) yield no candidate."""
    mask_arr = np.array(masks, dtype=np.int64)
    variables = bits_of(reduce(or_, masks))
    var_arr = np.array(variables, dtype=np.int64)
    member = ((mask_arr[:, None] >> var_arr[None, :]) & 1).astype(bool)
    cand_subset, column = np.nonzero(member)
    cand_var = var_arr[column]
    # A variable's position among the predecessor's free variables: the
    # base's free variables below it, minus the subset's members below it.
    free = base.free_mask
    free_below = np.array(
        [(free & ((1 << v) - 1)).bit_count() for v in variables],
        dtype=np.int64,
    )
    members_below = np.cumsum(member, axis=1) - member
    cand_pos = free_below[column] - members_below[cand_subset, column]
    cand_pmask = mask_arr[cand_subset] ^ (np.int64(1) << cand_var)
    rows = previous.row_index()
    cand_row = np.array([rows.get(p, -1) for p in cand_pmask.tolist()],
                        dtype=np.int64)
    keep = cand_row >= 0
    if not keep.all():
        cand_subset, cand_var = cand_subset[keep], cand_var[keep]
        cand_row, cand_pos = cand_row[keep], cand_pos[keep]
    return _Candidates(cand_subset, cand_var, cand_row, cand_pos)


def _batches(count: int, width: int) -> List[slice]:
    """Split ``count`` candidates of ``width`` cells into batches of at
    most ``_BATCH_CELLS`` cells (at least one candidate each): tiny
    layers then cost one sort, and big ones keep every transient array
    small."""
    step = max(1, _BATCH_CELLS // width)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _cofactor_keys(tables: np.ndarray, rows: np.ndarray,
                   positions: np.ndarray, new_segment: int, num_roots: int,
                   rule: ReductionRule):
    """Gather the cofactor pairs of candidates ``(rows, positions)``
    (positions ascending) and key them for dedup.

    Returns ``(u0, merged, keys, complement)``, one row per candidate:
    the raw 0-cofactors (what a merged cell keeps), the merge predicate,
    the dedup keys ``u0 << 32 | u1`` after CBDD normalization
    (``_MERGED_KEY`` on merged cells) and the CBDD output-complement bits
    (``None`` otherwise).
    """
    change = np.flatnonzero(positions[1:] != positions[:-1]) + 1
    starts = [0, *change.tolist(), len(positions)]
    halves: Tuple[List[np.ndarray], List[np.ndarray]] = ([], [])
    for lo, hi in zip(starts[:-1], starts[1:]):
        # Inserting a bit at ``position`` splits every root segment into
        # blocks of 2**position cells, alternating x=0 and x=1: a strided
        # view, so the gather needs no index arrays (it is what
        # insert_bit_indices computes, per root segment).
        low = 1 << int(positions[lo])
        blocks = tables.reshape(len(tables), num_roots * new_segment // low,
                                2, low)
        for bit, half in enumerate(halves):
            half.append(blocks[rows[lo:hi], :, bit, :].reshape(hi - lo, -1))
    u0, u1 = (part[0] if len(part) == 1 else np.concatenate(part)
              for part in halves)
    merged = (u1 == 0) if rule is ReductionRule.ZDD else (u0 == u1)
    complement = None
    if rule is ReductionRule.CBDD:
        complement = u1 & 1
        keys = (u0 ^ complement).astype(np.int64) << _KEY_SHIFT
        keys |= u1 ^ complement
    else:
        keys = u0.astype(np.int64) << _KEY_SHIFT
        keys |= u1
    keys[merged] = _MERGED_KEY
    return u0, merged, keys, complement


def _distinct_live(steps: np.ndarray, merged: np.ndarray) -> np.ndarray:
    """Per row: distinct live keys, from the ``sorted[1:] != sorted[:-1]``
    steps of the row-sorted keys (the merged cells' shared key is one
    distinct value whenever a row has merged cells)."""
    return 1 + steps.sum(axis=1) - merged.any(axis=1)


def compact_layer(
    masks: Sequence[int],
    previous: Layer,
    base: FSState,
    rule: ReductionRule,
    retain_full: bool,
    counters: OperationCounters,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ChunkResult:
    """Finalize one chunk of a DP layer with the fused numpy kernel.

    ``masks`` are same-cardinality sub-masks of the swept universe
    (relative to ``base``); ``previous`` is the finished previous layer.
    The result equals running :func:`compact` on every ``(predecessor,
    variable)`` candidate and keeping, per subset, the cheapest candidate
    with ties to the lowest variable — ``MINCOST``, chains, tables,
    ``best_last``, every ``Cost_i`` and every
    :class:`~repro.analysis.counters.OperationCounters` tally, replay
    extras included.  It gets there in three steps:

    1. candidates resolve to rows of ``previous.tables`` (a mincost-only
       layer's rows are replayed once each into a local matrix);
    2. candidates are sorted by insert-bit position; one strided 2-D
       gather per position builds their ``u0 << 32 | u1`` keys, and a
       row-wise sort plus an adjacent-difference count give each one's
       ``created`` nodes — no table is built;
    3. only each subset's winner gets a table, its node ids being
       ``next_id`` plus the key's rank among the row's distinct live
       keys (what ``np.unique(..., return_inverse=True)`` assigns),
       written straight into the chunk's output layer.

    Steps 2 and 3 run in batches of bounded size (:func:`_batches`).
    ``should_stop`` is polled before each batch of step 2 and once
    before step 3 (see :func:`fused_polls`); a stopped chunk returns
    ``cancelled=True`` with no layer.
    """
    out = ChunkResult(counters=counters)
    if not masks:
        return out
    cands = _layer_candidates(masks, previous, base)

    n, num_roots = base.n, base.num_roots
    new_segment = 1 << (n - base.placed - int(masks[0]).bit_count())
    width = num_roots * new_segment
    pmincost = previous.costs
    if base.num_terminals + int(pmincost.max()) >= _ID_LIMIT:
        raise OverflowError("node id space exhausted")  # pragma: no cover
    replay = OperationCounters()
    tables, rows = previous.tables, cands.row
    if tables is None:
        # Each candidate reading a skeleton replays it on the scalar
        # path; replay each used row once here and charge the same
        # extras per use.
        used, rows = np.unique(cands.row, return_inverse=True)
        uses = np.bincount(rows).tolist()
        replayed = []
        for row, count in zip(used.tolist(), uses):
            tally = OperationCounters()
            replayed.append(materialize_entry(
                base, previous.entry(row), compact, rule, tally).table)
            for key, amount in tally.extra.items():
                replay.add_extra(key, amount * count)
        tables = np.stack(replayed)

    def by_position(picked: np.ndarray) -> np.ndarray:
        return picked[np.argsort(cands.position[picked], kind="stable")]

    # Step 2: count every contested candidate's created nodes.
    created = np.zeros(len(cands.row), dtype=np.int64)
    counted = by_position(np.flatnonzero(cands.counted(retain_full)))
    for batch in _batches(len(counted), width):
        if should_stop is not None and should_stop():
            out.cancelled = True
            return out
        sel = counted[batch]
        _, merged, keys, _ = _cofactor_keys(
            tables, rows[sel], cands.position[sel], new_segment,
            num_roots, rule,
        )
        keys.sort(axis=1)
        created[sel] = _distinct_live(keys[:, 1:] != keys[:, :-1], merged)

    # Winners: lowest cost per subset, ties to the first (lowest)
    # variable.  An uncounted candidate is alone in its subset.
    order = np.lexsort((pmincost[cands.row] + created, cands.subset))
    first = np.ones(len(order), dtype=bool)
    first[1:] = cands.subset[order][1:] != cands.subset[order][:-1]
    winners = order[first]
    if len(winners) != len(masks):
        won = set(cands.subset[winners].tolist())
        missing = next(m for j, m in enumerate(masks) if j not in won)
        raise OrderingError(f"no feasible chain reaches subset {missing:#x}")
    if should_stop is not None and should_stop():
        out.cancelled = True
        return out

    # Step 3: tables for the winners only, one row per subset.
    out_tables = None
    if retain_full:
        out_tables = np.empty((len(masks), width), dtype=np.int64)
        ranked_winners = by_position(winners)
        for batch in _batches(len(ranked_winners), width):
            sel = ranked_winners[batch]
            u0, merged, keys, complement = _cofactor_keys(
                tables, rows[sel], cands.position[sel], new_segment,
                num_roots, rule,
            )
            # A cell's id: its key's rank among the row's distinct keys.
            at = np.arange(len(sel))[:, None]
            by_key = keys.argsort(axis=1)
            ranked = keys[at, by_key]
            steps = ranked[:, 1:] != ranked[:, :-1]
            created[sel] = _distinct_live(steps, merged)
            rank = np.zeros(keys.shape, dtype=np.int64)
            np.cumsum(steps, axis=1, out=rank[:, 1:])
            block = np.empty_like(rank)
            block[at, by_key] = rank
            block += (base.num_terminals + pmincost[cands.row[sel]])[:, None]
            if complement is not None:
                block <<= 1
                block |= complement
            block[merged] = u0[merged]
            out_tables[cands.subset[sel]] = block

    cost = pmincost[cands.row] + created
    counters.compactions += len(cands.row)
    counters.table_cells += len(cands.row) * width
    counters.nodes_created += int(created.sum())
    counters.subsets_processed += len(masks)
    counters.merge(replay)

    # One int object per predecessor mask, shared by its candidates' keys
    # (as the scalar loop's ``prev_state.mask`` is): results hold these
    # keys for every candidate of the sweep.
    abs_masks = [base.mask | p for p in previous.masks.tolist()]
    out.level_cost = dict(zip(
        zip(map(abs_masks.__getitem__, cands.row.tolist()),
            cands.var.tolist()),
        created.tolist(),
    ))
    win_var, win_cost = cands.var[winners], cost[winners]
    out.layer = Layer(
        n=n, num_terminals=base.num_terminals, num_roots=num_roots,
        base_mask=base.mask, masks=masks, costs=win_cost,
        pis=np.concatenate(
            [previous.pis[cands.row[winners]], win_var[:, None]], axis=1),
        tables=out_tables,
    )
    out.mincost = dict(zip(masks, win_cost.tolist()))
    out.best_last = dict(zip(masks, win_var.tolist()))
    out.processed = len(masks)
    return out


def fused_polls(masks: Sequence[int], previous: Layer, base: FSState,
                retain_full: bool) -> int:
    """How many times :func:`compact_layer` polls ``should_stop`` on this
    chunk when it runs to completion: once per batch its count pass
    sorts, plus once before materialization."""
    if not masks:
        return 0
    counted = _layer_candidates(masks, previous, base).counted(retain_full)
    width = base.num_roots << (
        base.n - base.placed - int(masks[0]).bit_count())
    return len(_batches(int(counted.sum()), width)) + 1
