"""Unit tests for the ordering heuristics (the paper's motivating baselines)."""

import pytest

from repro.bdd import greedy_append, random_restart_search
from repro.portfolio import sift_search, window_permutation_search
from repro.core import run_fs
from repro.functions import (
    achilles_bad_order,
    achilles_good_size,
    achilles_heel,
    parity,
)
from repro.truth_table import TruthTable, obdd_size


class TestSift:
    def test_recovers_achilles_optimum(self):
        table = achilles_heel(3)
        result = sift_search(table, initial_order=achilles_bad_order(3))
        assert result.size == achilles_good_size(3)

    def test_order_is_permutation(self):
        table = TruthTable.random(5, seed=1)
        result = sift_search(table)
        assert sorted(result.order) == list(range(5))

    def test_size_consistent_with_oracle(self):
        table = TruthTable.random(5, seed=2)
        result = sift_search(table)
        assert obdd_size(table, list(result.order)) == result.size

    def test_never_worse_than_initial(self):
        table = TruthTable.random(5, seed=3)
        initial = [4, 2, 0, 3, 1]
        result = sift_search(table, initial_order=initial)
        assert result.size <= obdd_size(table, initial)

    def test_trajectory_monotone(self):
        table = achilles_heel(3)
        result = sift_search(table, initial_order=achilles_bad_order(3))
        assert result.trajectory == sorted(result.trajectory, reverse=True)

    def test_single_variable(self):
        result = sift_search(TruthTable.projection(1, 0))
        assert result.order == (0,)

    def test_custom_size_fn(self):
        from repro.bdd.mtbdd import mtbdd_size

        table = TruthTable.random(4, seed=4, num_values=3)
        result = sift_search(table, size_fn=mtbdd_size)
        assert result.size == mtbdd_size(table, list(result.order))


class TestWindowPermute:
    def test_recovers_achilles_optimum_with_wide_window(self):
        table = achilles_heel(2)
        result = window_permutation_search(
            table, initial_order=achilles_bad_order(2), window=4
        )
        assert result.size == achilles_good_size(2)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            window_permutation_search(TruthTable.random(3, seed=0), window=1)

    def test_result_consistent(self):
        table = TruthTable.random(5, seed=5)
        result = window_permutation_search(table, window=3)
        assert obdd_size(table, list(result.order)) == result.size

    def test_never_worse_than_initial(self):
        table = TruthTable.random(5, seed=6)
        initial = list(range(5))
        result = window_permutation_search(table, initial_order=initial, window=2)
        assert result.size <= obdd_size(table, initial)


class TestRandomRestart:
    def test_reproducible(self):
        table = TruthTable.random(5, seed=7)
        a = random_restart_search(table, tries=20, seed=42)
        b = random_restart_search(table, tries=20, seed=42)
        assert a.order == b.order and a.size == b.size

    def test_evaluation_budget(self):
        table = TruthTable.random(4, seed=8)
        result = random_restart_search(table, tries=10, seed=0)
        assert result.evaluations == 11  # initial + tries

    def test_finds_optimum_with_enough_tries(self):
        table = achilles_heel(2)
        # 4! = 24 orderings; 200 tries all but guarantees hitting an optimum.
        result = random_restart_search(table, tries=200, seed=1)
        assert result.size == achilles_good_size(2)


class TestGreedyAppend:
    def test_consistent_size(self):
        table = TruthTable.random(5, seed=9)
        result = greedy_append(table)
        assert obdd_size(table, list(result.order)) == result.size

    def test_exact_on_symmetric_functions(self):
        # Every ordering of a symmetric function is optimal.
        table = parity(4)
        result = greedy_append(table)
        assert result.size == run_fs(table).size

    def test_achilles(self):
        table = achilles_heel(3)
        result = greedy_append(table)
        assert result.size == achilles_good_size(3)


class TestHeuristicVsExact:
    @pytest.mark.parametrize("seed", range(5))
    def test_heuristics_bounded_below_by_optimum(self, seed):
        table = TruthTable.random(5, seed=100 + seed)
        optimum = run_fs(table).size
        for heuristic in (
            sift_search(table),
            window_permutation_search(table, window=3),
            random_restart_search(table, tries=30, seed=seed),
            greedy_append(table),
        ):
            assert heuristic.size >= optimum
