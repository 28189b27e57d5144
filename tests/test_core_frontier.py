"""Tests for the columnar frontier layer (:class:`repro.core.frontier.Layer`).

The layer contract: one finished DP layer is four columns — masks, costs,
placement chains and (for full layers) a ``tables[P, cells]`` matrix in
the narrowest unsigned dtype holding the layer's maximum cell.  Its byte
accounting is the exact size of those arrays, its dtype (and so its
bytes, and the budget's frontier-cap aborts) is the same under every
backend and job count, ``get`` hands the per-candidate loop ``int64``
tables equal to the ones the kernel produced, and checkpoints round-trip
it exactly.

Process-backed tests share one module-scoped ``ProcessBackend`` so the
interpreter-spawn cost is paid once, not per test.
"""

import json
import pickle

import numpy as np
import pytest

from repro.analysis.counters import OperationCounters
from repro.core import (
    Budget,
    EngineConfig,
    FaultInjector,
    InjectedFault,
    Layer,
    ProcessBackend,
    available_frontier_stores,
    initial_state,
    run_fs,
    run_fs_constrained,
    run_fs_shared,
)
from repro.core import frontier as frontier_module
from repro.core.checkpoint import Skeleton
from repro.core.compaction import compact_python
from repro.core.engine import run_layered_sweep
from repro.core.frontier import narrowest_table_dtype
from repro.core.spec import FSState, ReductionRule
from repro.errors import BudgetExceeded
from repro.truth_table import TruthTable


@pytest.fixture(scope="module")
def process_pool():
    """One spawned pool for the whole module (spawn cost is seconds)."""
    backend = ProcessBackend(jobs=4)
    yield backend
    backend.close()


def make_state(mask, pi, mincost, table, num_terminals=2, num_roots=1):
    """An FSState with ``n`` derived so the table shape validates."""
    table = np.asarray(table, dtype=np.int64)
    n = int(mask).bit_count() + (len(table) // num_roots).bit_length() - 1
    return FSState(n=n, mask=mask, pi=pi, mincost=mincost, table=table,
                   num_terminals=num_terminals, num_roots=num_roots)


def record_layers(monkeypatch):
    """Capture every layer the engine assembles (one per cardinality)."""
    layers = []
    original = Layer.concat

    def spy(parts):
        layer = original(parts)
        layers.append(layer)
        return layer

    monkeypatch.setattr(frontier_module.Layer, "concat", staticmethod(spy))
    return layers


# ----------------------------------------------------------------------
# the one legal store name
# ----------------------------------------------------------------------

class TestStoreRegistry:
    def test_builtins_registered(self):
        assert available_frontier_stores() == ["dict"]

    def test_unknown_store_raises_with_choices(self):
        from repro import solve

        for name in ("packed", "gpu"):
            with pytest.raises(ValueError, match="dict"):
                solve(TruthTable.random(2, seed=0), frontier_store=name)


class TestParityMatrix:
    TABLE = TruthTable.random(6, seed=13)

    @pytest.mark.parametrize("rule", [ReductionRule.BDD, ReductionRule.ZDD,
                                      ReductionRule.CBDD])
    def test_python_kernel_parity_per_rule(self, rule):
        results = {}
        for engine in ("numpy", "python"):
            counters = OperationCounters()
            result = run_fs(self.TABLE, rule=rule, engine=engine,
                            counters=counters)
            results[engine] = (
                result.order, result.mincost, counters.snapshot()
            )
        assert results["numpy"] == results["python"]

    def test_shared_and_constrained_parity(self):
        # The fused kernel (gathering from the layer's table matrix) and
        # the spec kernel (reading the layer through get) agree.
        tables = [TruthTable.random(5, seed=s) for s in (1, 2)]

        def solve_both(engine):
            shared = run_fs_shared(tables, engine=engine)
            constrained = run_fs_constrained(self.TABLE, [(0, 3)],
                                             engine=engine)
            return (shared.order, shared.mincost, shared.counters,
                    constrained.order, constrained.mincost,
                    constrained.counters)

        assert solve_both("numpy") == solve_both("python")

    def test_solve_front_door_accepts_store(self):
        from repro import solve

        a = solve(self.TABLE, frontier_store="dict")
        b = solve(self.TABLE)
        assert (a.order, a.mincost) == (b.order, b.mincost)
        assert a.counters == b.counters


# ----------------------------------------------------------------------
# the layer's packed columns round-trip exactly
# ----------------------------------------------------------------------

class TestPackedRoundTrip:
    def test_full_states_reconstruct_exactly(self):
        base = make_state(0, (), 0, list(range(16)))
        states = [make_state(m, (m.bit_length() - 1,), m, [m, 0, 5, 1] * 2)
                  for m in (0b0001, 0b0100, 0b0010)]
        layer = Layer.from_entries(base, [1, 4, 2], states)
        assert len(layer) == 3 and 4 in layer and 8 not in layer
        assert layer.tables.dtype == np.uint8
        assert [m for m, _ in layer.items()] == [1, 4, 2]
        assert layer.min_mincost() == 1
        for state in states:
            got = layer.get(state.mask)
            assert got.table.dtype == np.int64
            np.testing.assert_array_equal(got.table, state.table)
            assert (got.n, got.mask, got.pi, got.mincost) == (
                state.n, state.mask, state.pi, state.mincost)
        assert layer.get(8) is None

    def test_skeletons_reconstruct_exactly(self):
        base = make_state(0, (), 0, list(range(8)))
        skeletons = [Skeleton(pi=(0, 1), mincost=5),
                     Skeleton(pi=(2, 0), mincost=4)]
        layer = Layer.from_entries(base, [0b011, 0b101], skeletons)
        assert layer.tables is None
        assert layer.get(0b011) == skeletons[0]
        assert layer.get(0b101) == skeletons[1]
        assert layer.min_mincost() == 4

    def test_width_is_insertion_order_independent(self):
        # A layer's dtype converges on the one its maximum needs however
        # its chunks are ordered: that is what makes nbytes() (and so
        # budget aborts) the same across backends and job counts.
        base = make_state(0, (), 0, list(range(8)))
        narrow = Layer.from_entries(
            base, [1, 2], [make_state(m, (m - 1,), 1, [m, 0, 1, 2])
                           for m in (1, 2)])
        wide = Layer.from_entries(
            base, [4], [make_state(4, (2,), 9, [0, 700, 0, 0])])
        a = Layer.concat([narrow, wide])
        b = Layer.concat([wide, narrow])
        assert a.tables.dtype == b.tables.dtype == narrowest_table_dtype(700)
        assert a.nbytes() == b.nbytes()
        np.testing.assert_array_equal(a.get(1).table, [1, 0, 1, 2])
        np.testing.assert_array_equal(b.get(4).table, [0, 700, 0, 0])

    def test_layer_homogeneity_enforced(self):
        base = make_state(0, (), 0, list(range(8)))
        with pytest.raises(ValueError, match="disagree"):
            Layer(n=3, num_terminals=2, num_roots=1, base_mask=0,
                  masks=[1, 2], costs=[1], pis=[[0], [1]])
        with pytest.raises(ValueError, match="one row per mask"):
            Layer(n=3, num_terminals=2, num_roots=1, base_mask=0,
                  masks=[1], costs=[1], pis=[[0]],
                  tables=np.zeros((2, 4), dtype=np.int64))
        two = Layer.from_entries(base, [1], [make_state(1, (0,), 1,
                                                        [0, 1, 2, 3])])
        one = Layer.from_entries(base, [3], [make_state(3, (0, 1), 1,
                                                        [0, 1])])
        with pytest.raises(ValueError):
            Layer.concat([two, one])

    def test_n_over_255_rejected(self):
        # Chains are one byte per variable.  FSState validation forbids
        # building a (2^299)-cell table, so build the columns directly.
        with pytest.raises(ValueError, match="255"):
            Layer(n=300, num_terminals=2, num_roots=1, base_mask=0,
                  masks=[1], costs=[1], pis=[[0]])

    @pytest.mark.parametrize("maximum,dtype", [
        (0, np.uint8), (255, np.uint8), (256, np.uint16),
        (65535, np.uint16), (65536, np.uint32), (2**32, np.int64),
    ])
    def test_table_dtype_is_narrowest(self, maximum, dtype):
        assert narrowest_table_dtype(maximum) == dtype
        base = make_state(0, (), 0, list(range(4)))
        layer = Layer.from_entries(
            base, [1], [make_state(1, (0,), 1, [maximum, 0])])
        assert layer.tables.dtype == dtype
        assert int(layer.get(1).table[0]) == maximum

    def test_negative_cells_rejected(self):
        base = make_state(0, (), 0, list(range(4)))
        with pytest.raises(ValueError, match="non-negative"):
            Layer.from_entries(base, [1], [make_state(1, (0,), 1, [-1, 0])])

    def test_take_concat_and_pickle(self):
        # What the process backend ships: a row subset, pickled.
        base = make_state(0, (), 0, list(range(8)))
        layer = Layer.from_entries(
            base, [1, 2, 4], [make_state(m, (m.bit_length() - 1,), m,
                                         [m, 0, 1, 300]) for m in (1, 2, 4)])
        part = layer.take([4, 1])
        assert part.masks.tolist() == [4, 1]
        assert part.tables.dtype == np.uint16
        np.testing.assert_array_equal(part.get(1).table, [1, 0, 1, 300])
        shipped = pickle.loads(pickle.dumps(part))
        assert shipped.masks.tolist() == [4, 1]
        np.testing.assert_array_equal(shipped.get(4).table, [4, 0, 1, 300])
        merged = Layer.concat([shipped, layer.take([2])])
        assert merged.masks.tolist() == [4, 1, 2]
        assert merged.nbytes() == layer.nbytes()

    def test_get_widens_to_spec_kernel_tables(self, monkeypatch):
        # Under the python kernel the layers hold compact_python's own
        # tables; get() must hand back exactly those values, as int64.
        table = TruthTable.random(6, seed=8)
        base = initial_state(table)
        layers = record_layers(monkeypatch)
        run_layered_sweep(base, 0b111111,
                          config=EngineConfig(kernel="python"))
        assert len(layers) == 6
        for layer in layers:
            for mask, entry in layer.items():
                want = base
                for var in entry.pi:
                    want = compact_python(want, var)
                got = layer.get(mask)
                assert got.table.dtype == np.int64
                np.testing.assert_array_equal(got.table, want.table)
                assert got.mincost == want.mincost


# ----------------------------------------------------------------------
# byte accounting and dtype across the execution axes
# ----------------------------------------------------------------------

class TestByteAccounting:
    def test_packed_nbytes_is_exact(self):
        base = make_state(0, (), 0, list(range(16)))
        # Four 8-cell tables whose max is 300: uint16 cells, 16 bytes a
        # row; masks and costs are int64, chains one byte per variable.
        states = [make_state(m, (0,), 1, [300, 0, 1, 2, 3, 4, 5, 6])
                  for m in (1, 2, 4, 8)]
        layer = Layer.from_entries(base, [1, 2, 4, 8], states)
        assert layer.tables.dtype == np.uint16
        assert layer.nbytes() == 4 * (8 + 8 + 1 + 16) == sum(
            column.nbytes for column in
            (layer.masks, layer.costs, layer.pis, layer.tables))
        skeleton = Layer.from_entries(
            base, [1, 2], [Skeleton(pi=(0,), mincost=1)] * 2)
        assert skeleton.nbytes() == 2 * (8 + 8 + 1)

    def test_layer_dtype_is_backend_and_jobs_independent(
            self, monkeypatch, process_pool):
        # Four outputs over nine variables: node ids pass 255, so the
        # wider layers need uint16 cells.
        tables = [TruthTable.random(9, seed=s) for s in range(4)]
        seen = {}
        for backend, jobs in (("serial", 1), ("serial", 4), ("thread", 1),
                              ("thread", 4), (process_pool, 1),
                              (process_pool, 4)):
            layers = record_layers(monkeypatch)
            run_fs_shared(tables, backend=backend, jobs=jobs)
            monkeypatch.undo()
            for layer in layers:
                assert layer.tables.dtype == narrowest_table_dtype(
                    int(layer.tables.max()))
            name = getattr(backend, "name", backend)
            seen[(name, jobs)] = [(len(l), l.tables.dtype, l.nbytes())
                                  for l in layers]
        reference = seen[("serial", 1)]
        assert {dt for _, dt, _ in reference} >= {np.dtype(np.uint16)}
        assert all(layers == reference for layers in seen.values())

    def test_budget_abort_layer_is_backend_independent(self, process_pool):
        table = TruthTable.random(7, seed=3)
        aborts = []
        for backend, jobs in (("serial", 1), ("thread", 4),
                              (process_pool, 4)):
            with pytest.raises(BudgetExceeded) as info:
                run_fs(table, backend=backend, jobs=jobs,
                       budget=Budget(max_frontier_bytes=600))
            aborts.append(
                (info.value.reason, info.value.layers_completed,
                 info.value.where)
            )
        assert aborts[0][0] == "frontier_bytes"
        assert aborts.count(aborts[0]) == len(aborts)


# ----------------------------------------------------------------------
# fused layer kernel guard rails
# ----------------------------------------------------------------------

def spy_on_compact_layer(monkeypatch):
    """Record every chunk the fused layer kernel finalizes."""
    from repro.core import compaction as compaction_module

    calls = []
    original = compaction_module.compact_layer

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(compaction_module, "compact_layer", spy)
    return calls


class TestFusedLayerKernel:
    def test_declines_node_tracking(self):
        # Sweeps never build node structure; diagrams are rebuilt from
        # the returned order (repro.core.reconstruct.build_diagram).
        table = TruthTable.random(4, seed=2)
        for kernel in ("numpy", "python"):
            with pytest.raises(ValueError, match="node structure"):
                run_layered_sweep(
                    initial_state(table, track_nodes=True), 0b1111,
                    config=EngineConfig(kernel=kernel),
                )

    def test_python_kernel_never_uses_fused_path(self, monkeypatch):
        # The fused path restates the numpy compact(); the python kernel
        # must keep running its executable-specification scalar loop.
        calls = spy_on_compact_layer(monkeypatch)
        run_fs(TruthTable.random(4, seed=2), engine="python")
        assert calls == []

    def test_numpy_kernel_takes_fused_path(self, monkeypatch):
        calls = spy_on_compact_layer(monkeypatch)
        run_fs(TruthTable.random(4, seed=2), engine="numpy")
        assert len(calls) == 4  # one chunk per layer at jobs=1


# ----------------------------------------------------------------------
# checkpoint round-trips
# ----------------------------------------------------------------------

class TestCheckpointRoundTrip:
    TABLE = TruthTable.random(6, seed=21)

    def test_packed_to_packed(self, tmp_path):
        # A layer written as columns resumes bit-identically.
        clean = run_fs(self.TABLE, counters=OperationCounters())
        with pytest.raises(InjectedFault):
            run_fs(self.TABLE, counters=OperationCounters(),
                   checkpoint_dir=str(tmp_path),
                   fault_injector=FaultInjector(kill_after_layer=3))
        resumed = run_fs(self.TABLE, counters=OperationCounters(),
                         checkpoint_dir=str(tmp_path), resume=True)
        assert resumed.order == clean.order
        assert resumed.mincost == clean.mincost
        assert resumed.counters == clean.counters

    def test_packed_checkpoint_uses_column_payload(self, tmp_path):
        ckpt = tmp_path / "cols"
        run_fs(self.TABLE, checkpoint_dir=str(ckpt))
        files = sorted(ckpt.glob("ckpt_*_layer_*.json"))
        assert len(files) == 6
        with open(files[2]) as handle:
            payload = json.load(handle)["payload"]
        blob = payload["frontier"]
        assert "entries" not in payload
        assert blob["count"] == 20 and blob["pi_len"] == 3
        assert blob["cells"] == 8
        assert len(blob["columns"]) == len(blob["dtypes"]) == 4

    def test_skeleton_layers_checkpoint_packed(self, tmp_path):
        ckpt = tmp_path / "skel"
        clean = run_fs(self.TABLE, counters=OperationCounters(),
                       frontier="mincost")
        with pytest.raises(InjectedFault):
            run_fs(self.TABLE, counters=OperationCounters(),
                   frontier="mincost", checkpoint_dir=str(ckpt),
                   fault_injector=FaultInjector(kill_after_layer=4))
        layer4 = sorted(ckpt.glob("ckpt_*_layer_0004.json"))[0]
        blob = json.loads(layer4.read_text())["payload"]["frontier"]
        assert blob["cells"] is None and len(blob["columns"]) == 3
        resumed = run_fs(self.TABLE, counters=OperationCounters(),
                         frontier="mincost", checkpoint_dir=str(ckpt),
                         resume=True)
        assert resumed.order == clean.order
        assert resumed.counters == clean.counters

    def test_payload_integrity_guard(self, tmp_path):
        from repro.core.checkpoint import read_checked_json, write_checked_json
        from repro.errors import CheckpointError

        run_fs(self.TABLE, checkpoint_dir=str(tmp_path))
        newest = sorted(tmp_path.glob("ckpt_*_layer_*.json"))[-1]
        payload = read_checked_json(str(newest))
        payload["frontier"]["count"] += 1
        write_checked_json(str(newest), payload)
        with pytest.raises(CheckpointError, match="layer") as info:
            run_fs(self.TABLE, checkpoint_dir=str(tmp_path), resume=True)
        assert str(newest) in str(info.value)
