"""Unit tests for the in-place reordering manager (adjacent level swaps)."""

import random

import pytest

from repro.bdd import ReorderingBDD
from repro.errors import DimensionError, OrderingError
from repro.functions import achilles_bad_order, achilles_heel
from repro.truth_table import TruthTable, count_subfunctions, obdd_size


class TestBasics:
    def test_bad_order_rejected(self):
        with pytest.raises(OrderingError):
            ReorderingBDD(3, order=[0, 0, 1])

    def test_var_out_of_range(self):
        with pytest.raises(DimensionError):
            ReorderingBDD(2).var(2)

    def test_build_and_evaluate(self):
        tt = TruthTable.random(4, seed=0)
        m = ReorderingBDD(4)
        root = m.from_truth_table(tt)
        assert m.to_truth_table(root) == tt

    def test_size_matches_oracle(self):
        tt = TruthTable.random(5, seed=1)
        order = [3, 0, 4, 2, 1]
        m = ReorderingBDD(5, order)
        m.from_truth_table(tt)
        assert m.size() == obdd_size(tt, order)
        assert m.level_widths() == count_subfunctions(tt, order)

    def test_protect_unprotect(self):
        tt = TruthTable.random(3, seed=2)
        m = ReorderingBDD(3)
        root = m.from_truth_table(tt)
        m.unprotect(root)
        m.collect()
        assert m.size(include_terminals=False) == 0


class TestSwap:
    def test_swap_preserves_function(self):
        tt = TruthTable.random(4, seed=3)
        m = ReorderingBDD(4)
        root = m.from_truth_table(tt)
        m.swap(1)
        assert m.order == [0, 2, 1, 3]
        assert m.to_truth_table(root) == tt

    def test_swap_size_matches_oracle(self):
        rnd = random.Random(4)
        tt = TruthTable.random(5, seed=4)
        m = ReorderingBDD(5)
        root = m.from_truth_table(tt)
        for _ in range(30):
            level = rnd.randrange(4)
            m.swap(level)
            m.collect()
            assert m.size() == obdd_size(tt, m.order)
            assert m.to_truth_table(root) == tt

    def test_swap_is_involution(self):
        tt = TruthTable.random(4, seed=5)
        m = ReorderingBDD(4)
        m.from_truth_table(tt)
        before = m.size()
        m.swap(2)
        m.swap(2)
        m.collect()
        assert m.order == [0, 1, 2, 3]
        assert m.size() == before

    def test_swap_bounds(self):
        m = ReorderingBDD(3)
        with pytest.raises(OrderingError):
            m.swap(2)
        with pytest.raises(OrderingError):
            m.swap(-1)

    def test_swap_only_touches_two_levels(self):
        # Widths outside the swapped pair must be unchanged (Lemma 3).
        tt = TruthTable.random(6, seed=6)
        m = ReorderingBDD(6)
        m.from_truth_table(tt)
        before = m.level_widths()
        m.swap(2)
        m.collect()
        after = m.level_widths()
        assert before[:2] == after[:2]
        assert before[4:] == after[4:]

    def test_collision_forwarding(self):
        # A function engineered so a swap merges an upper node into an
        # existing lower node: f = (x0 ? g : g') where the swap creates
        # duplicate (var, lo, hi) triples.  Correctness = the oracle check.
        tt = TruthTable.from_callable(
            4, lambda a, b, c, d: (b & c) | (a & c & d) | ((1 - a) & b & d)
        )
        m = ReorderingBDD(4)
        root = m.from_truth_table(tt)
        for level in (0, 1, 2, 1, 0):
            m.swap(level)
            m.collect()
            assert m.size() == obdd_size(tt, m.order)
        assert m.to_truth_table(root) == tt


class TestMoveReorder:
    def test_move_var(self):
        tt = TruthTable.random(5, seed=7)
        m = ReorderingBDD(5)
        root = m.from_truth_table(tt)
        m.move_var(4, 0)
        assert m.order[0] == 4
        assert m.to_truth_table(root) == tt

    @pytest.mark.parametrize("seed", range(5))
    def test_reorder_to_arbitrary(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(2, 6)
        tt = TruthTable.random(n, seed=100 + seed)
        target = list(range(n))
        rnd.shuffle(target)
        m = ReorderingBDD(n)
        root = m.from_truth_table(tt)
        m.reorder_to(target)
        assert m.order == target
        assert m.size() == obdd_size(tt, target)
        assert m.to_truth_table(root) == tt

    def test_reorder_validation(self):
        m = ReorderingBDD(3)
        with pytest.raises(OrderingError):
            m.reorder_to([0, 1])

    def test_multiple_roots_survive(self):
        m = ReorderingBDD(4)
        t1 = TruthTable.random(4, seed=8)
        t2 = TruthTable.random(4, seed=9)
        r1 = m.from_truth_table(t1)
        r2 = m.from_truth_table(t2)
        m.reorder_to([2, 3, 0, 1])
        assert m.to_truth_table(r1) == t1
        assert m.to_truth_table(r2) == t2


class TestInPlaceSift:
    def test_recovers_achilles_optimum(self):
        tt = achilles_heel(3)
        m = ReorderingBDD(6, achilles_bad_order(3))
        root = m.from_truth_table(tt)
        order, size = m.sift()
        assert size == 8
        assert m.to_truth_table(root) == tt
        assert obdd_size(tt, order) == size

    def test_never_worse(self):
        tt = TruthTable.random(6, seed=10)
        m = ReorderingBDD(6)
        m.from_truth_table(tt)
        before = m.size()
        _, size = m.sift()
        assert size <= before

    def test_matches_evaluation_level_sifting_quality(self):
        # The swap-based and truth-table-based sifting explore the same
        # neighbourhood; sizes must agree on a symmetric function where
        # every path leads to the unique optimum.
        from repro.portfolio import sift_search as eval_sift
        from repro.functions import parity

        tt = parity(5)
        m = ReorderingBDD(5)
        m.from_truth_table(tt)
        _, size = m.sift()
        assert size == eval_sift(tt).size


class _NoCompressionBDD(ReorderingBDD):
    """``resolve`` without path compression.

    The base class's compressing resolve repairs forwarding chains as a
    side effect of ``collect()``'s own reachability pass (``roots()``
    resolves every root before the forward table is filtered), which
    masks GC bugs in the filter itself.  Disabling compression exposes
    the chain to ``collect()`` exactly as a traversal that has not yet
    touched the root would see it.
    """

    def resolve(self, u: int) -> int:
        while u in self._forward:
            u = self._forward[u]
        return u


class TestForwardGC:
    def _forward_identity(self, mgr, u):
        """Retire node ``u`` to a fresh id, exactly as a swap-collision
        does: the triple moves to a new id and ``u`` becomes a forward."""
        var, lo, hi = mgr._nodes.pop(u)
        del mgr._unique[(var, lo, hi)]
        fresh = mgr._next_id
        mgr._next_id += 1
        mgr._nodes[fresh] = (var, lo, hi)
        mgr._unique[(var, lo, hi)] = fresh
        mgr._forward[u] = fresh
        return fresh

    def test_double_forwarded_root_survives_collect(self):
        # A root forwarded twice between collects (r -> b -> c, the
        # target of the first collision itself colliding later).  Random
        # swap sequences essentially never produce this chain — the
        # intermediate must collide again before anything resolves the
        # root — so build it through the same mechanics swap() uses.
        tt = TruthTable.random(3, seed=5)
        mgr = _NoCompressionBDD(3)
        root = mgr.from_truth_table(tt)
        b = self._forward_identity(mgr, root)
        c = self._forward_identity(mgr, b)
        assert mgr._forward == {root: b, b: c}

        mgr.collect()

        # The kept entry must point at the final live node, not at the
        # dead intermediate id this very collect() just dropped.
        assert mgr._forward == {root: c}
        assert mgr.resolve(root) in mgr._nodes
        mgr.triple(root)  # would KeyError on a dangling forward
        assert mgr.to_truth_table(root) == tt

    def test_collect_leaves_only_final_live_targets(self):
        # Invariant after any collect: every kept forward belongs to a
        # root and points directly at a live node (or terminal).
        rng = random.Random(7)
        mgr = ReorderingBDD(4)
        for seed in (1, 2):
            mgr.from_truth_table(TruthTable.random(4, seed=seed))
        for _ in range(30):
            mgr.swap(rng.randrange(3))
        mgr.collect()
        for source, target in mgr._forward.items():
            assert source in mgr._roots
            assert target not in mgr._forward
            assert target in mgr._nodes or target in (0, 1)
