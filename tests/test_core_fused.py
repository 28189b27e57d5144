"""Differential tests for the fused layer kernel.

Under the ``numpy`` kernel every DP layer runs through
:func:`repro.core.compaction.compact_layer`, which counts each
``(predecessor, variable)`` candidate's new nodes without building its
table and materializes only the winners.  The cell-at-a-time
``compact_python`` kernel still runs the per-candidate scalar loop, so
it is the executable specification the fused path is held to: the same
``order``, ``pi``, ``mincost``, ``mincost_by_subset``, ``best_last``,
``level_cost_by_choice`` and every :class:`OperationCounters` field,
extras included.  Independent oracles close the loop: brute force over
all ``n!`` orders, and a :mod:`repro.bdd` rebuild under the returned
order.

Coverage: all four reduction rules, multi-root ``run_fs_shared``,
precedence-constrained sweeps, the mincost-only frontier policy,
``window_sweep`` and ``fs_star`` (``base.mask != 0``), and jobs 1/2
under the serial, thread and process backends.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.counters import OperationCounters
from repro.bdd import BDD, ZDD
from repro.bdd.cbdd import cbdd_size
from repro.bdd.mtbdd import mtbdd_size
from repro.core import (
    EngineConfig,
    ProcessBackend,
    brute_force_optimal,
    initial_state,
    run_fs,
    run_fs_constrained,
    run_fs_shared,
    run_fs_star,
    window_sweep,
)
from repro.core.compaction import compact
from repro.core.constrained import order_satisfies
from repro.core.engine import run_layered_sweep
from repro.core.shared import initial_state_shared
from repro.core.spec import ReductionRule
from repro.errors import OrderingError
from repro.truth_table import TruthTable, obdd_size

common = settings(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)

RULES = list(ReductionRule)


def table_of(rule, min_n=1, max_n=7):
    """Truth tables the rule accepts: Boolean, or 0..3 valued for MTBDD."""
    top = 3 if rule is ReductionRule.MTBDD else 1
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.integers(0, top), min_size=1 << n, max_size=1 << n
        ).map(lambda values: TruthTable(n, values))
    )


def rule_and_table(min_n=1, max_n=7):
    return st.sampled_from(RULES).flatmap(
        lambda rule: table_of(rule, min_n, max_n).map(lambda t: (rule, t))
    )


@pytest.fixture(scope="module")
def process_pool():
    backend = ProcessBackend(jobs=2)
    yield backend
    backend.close()


def solve_both(solver, *args, **kwargs):
    """``(fused, spec)``: the same call under the numpy and python
    kernels, each with its own counters."""
    out = []
    for engine in ("numpy", "python"):
        counters = OperationCounters()
        out.append((solver(*args, engine=engine, counters=counters,
                           **kwargs), counters))
    return out


def assert_same_result(fused, spec):
    (got, got_counters), (want, want_counters) = fused, spec
    assert got.order == want.order
    assert got.pi == want.pi
    assert got.mincost == want.mincost
    for field in ("mincost_by_subset", "best_last", "level_cost_by_choice"):
        if hasattr(want, field):
            assert getattr(got, field) == getattr(want, field), field
    assert got_counters.snapshot() == want_counters.snapshot()
    assert got_counters.extra == want_counters.extra


def chain_cost(base, order, rule):
    """Internal nodes of ``base`` compacted along ``order`` (root first)."""
    state = base
    for var in reversed(order):
        state = compact(state, var, rule)
    return state.mincost - base.mincost


def rebuilt_size(table, rule, order):
    """Internal-node count of the diagram a :mod:`repro.bdd` manager
    builds for ``table`` under ``order``."""
    order = list(order)
    if rule is ReductionRule.BDD:
        return obdd_size(table, order, include_terminals=False)
    if rule is ReductionRule.ZDD:
        manager = ZDD(table.n, order)
        return manager.size(manager.from_truth_table(table),
                            include_terminals=False)
    if rule is ReductionRule.MTBDD:
        return mtbdd_size(table, order, include_terminals=False)
    return cbdd_size(table, order, include_terminals=False)


# ----------------------------------------------------------------------
# single-root DP: spec kernel, brute force, rebuild
# ----------------------------------------------------------------------

@given(rule_and_table(), st.sampled_from(["full", "mincost"]))
@common
def test_run_fs_matches_spec_kernel(case, frontier):
    rule, table = case
    fused, spec = solve_both(run_fs, table, rule=rule, frontier=frontier)
    assert_same_result(fused, spec)


@given(rule_and_table(max_n=5))
@common
def test_run_fs_is_optimal_and_rebuilds(case):
    rule, table = case
    result = run_fs(table, rule=rule)
    assert result.mincost == brute_force_optimal(
        table, rule=rule, collect_all=False).mincost
    assert rebuilt_size(table, rule, result.order) == result.mincost


# ----------------------------------------------------------------------
# multi-root, constrained, window, fs_star
# ----------------------------------------------------------------------

@given(st.sampled_from(RULES).flatmap(
    lambda rule: st.integers(1, 5).flatmap(
        lambda n: st.lists(table_of(rule, n, n), min_size=2, max_size=3)
    ).map(lambda tables: (rule, tables))
), st.sampled_from(["full", "mincost"]))
@common
def test_shared_forest_matches_spec_and_brute_force(case, frontier):
    rule, tables = case
    fused, spec = solve_both(run_fs_shared, tables, rule=rule,
                             frontier=frontier)
    assert_same_result(fused, spec)
    n = tables[0].n
    if n <= 4:
        base = initial_state_shared(tables, rule)
        best = min(chain_cost(base, perm, rule)
                   for perm in itertools.permutations(range(n)))
        assert fused[0].mincost == best
    if rule is ReductionRule.BDD:
        manager = BDD(n, list(fused[0].order))
        roots = [manager.from_truth_table(t) for t in tables]
        shared = {u for root in roots for u in manager.reachable(root)
                  if not manager.is_terminal(u)}
        assert len(shared) == fused[0].mincost


precedences = st.integers(3, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] < p[1]),
            max_size=3, unique=True,
        ),
        st.integers(0, 2**31 - 1),
    )
)


@given(precedences, st.sampled_from(["full", "mincost"]))
@common
def test_constrained_matches_spec_and_brute_force(case, frontier):
    n, precedence, seed = case
    table = TruthTable.random(n, seed=seed)
    fused, spec = solve_both(run_fs_constrained, table, precedence,
                             frontier=frontier)
    assert_same_result(fused, spec)
    result = fused[0]
    assert order_satisfies(result.order, precedence)
    base = initial_state(table)
    best = min(
        chain_cost(base, perm, ReductionRule.BDD)
        for perm in itertools.permutations(range(n))
        if order_satisfies(perm, precedence)
    )
    assert result.mincost == best
    assert obdd_size(table, list(result.order),
                     include_terminals=False) == result.mincost


@given(rule_and_table(min_n=3, max_n=7), st.integers(2, 4))
@common
def test_window_sweep_matches_spec_kernel(case, width):
    rule, table = case
    results = []
    for kernel in ("numpy", "python"):
        counters = OperationCounters()
        result = window_sweep(table, width=width, rule=rule,
                              counters=counters,
                              config=EngineConfig(kernel=kernel))
        results.append((result.order, result.size, counters.snapshot()))
    assert results[0] == results[1]
    order, size, _ = results[0]
    assert rebuilt_size(table, rule, order) == size


@given(rule_and_table(min_n=2, max_n=7), st.data())
@common
def test_fs_star_matches_spec_kernel(case, data):
    rule, table = case
    n = table.n
    placed = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                max_size=n - 1))
    base = initial_state(table, rule)
    for var in placed:
        base = compact(base, var, rule)
    j_mask = data.draw(st.integers(1, (1 << n) - 1)) & base.free_mask
    if j_mask == 0:
        j_mask = base.free_mask
    states = []
    for kernel in ("numpy", "python"):
        counters = OperationCounters()
        state = run_fs_star(base, j_mask, rule=rule, counters=counters,
                            config=EngineConfig(kernel=kernel))
        states.append((state, counters.snapshot()))
    (got, got_counters), (want, want_counters) = states
    assert (got.mask, got.pi, got.mincost) == (want.mask, want.pi,
                                               want.mincost)
    assert got_counters == want_counters
    # The two kernels number a step's new nodes differently (sorted keys
    # vs first occurrence); the fused table must be exactly what the
    # numpy compact() chain along the winning placement produces.
    replay = base
    for var in got.pi[len(base.pi):]:
        replay = compact(replay, var, rule)
    np.testing.assert_array_equal(got.table, replay.table)
    # Lemma 8: FS* is optimal over every order of J on top of ``base``.
    free = [v for v in range(n) if (j_mask >> v) & 1]
    if len(free) <= 5:
        best = min(chain_cost(base, perm, rule) + base.mincost
                   for perm in itertools.permutations(free))
        assert got.mincost == best


@pytest.mark.parametrize("kernel", ["numpy", "python"])
def test_subset_without_feasible_predecessor_raises(kernel):
    # 0b011's predecessors 0b001 and 0b010 are both filtered out.
    with pytest.raises(OrderingError, match="no feasible chain reaches "
                                            "subset 0x3"):
        run_layered_sweep(
            initial_state(TruthTable.random(3, seed=4)), 0b111,
            config=EngineConfig(kernel=kernel),
            subset_filter=lambda mask: mask not in (0b001, 0b010),
        )


# ----------------------------------------------------------------------
# execution axes: jobs x backend x frontier policy
# ----------------------------------------------------------------------

@pytest.mark.parametrize("frontier", ["full", "mincost"])
@pytest.mark.parametrize("backend,jobs", [
    ("serial", 1), ("serial", 2), ("thread", 1), ("thread", 2),
    ("process", 1), ("process", 2),
])
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
def test_execution_axes_match_spec_kernel(rule, backend, jobs, frontier,
                                          process_pool):
    values = np.random.default_rng(7).integers(
        0, 4 if rule is ReductionRule.MTBDD else 2, 1 << 7)
    table = TruthTable(7, values)
    spec = solve_both(run_fs, table, rule=rule, frontier=frontier,
                      backend="serial")[1]
    counters = OperationCounters()
    got = run_fs(table, rule=rule, frontier=frontier, counters=counters,
                 backend=process_pool if backend == "process" else backend,
                 jobs=jobs)
    for key in ("tasks_shipped", "bytes_shipped"):
        counters.extra.pop(key, None)
    assert_same_result((got, counters), spec)

