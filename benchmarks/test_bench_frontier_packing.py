"""Frontier packing: peak retained-layer bytes of the columnar layer.

The FS dynamic program's memory wall is the retained frontier — at the
waist it holds ``C(n, n/2)`` states of ``2^{n/2}`` table cells each, the
very cells the paper's ``3^n`` analysis counts.  A
:class:`~repro.core.frontier.Layer` keeps one layer as mask, cost and
chain columns plus one ``tables[P, cells]`` matrix in the narrowest
unsigned dtype holding the layer's largest cell.  Measured here: peak
frontier bytes (the exact figure the budget's ``max_frontier_bytes`` cap
meters) and sweep wall-clock over an ``n`` sweep — recorded to
``BENCH_frontier_packing.json`` next to this file (the CI uploads it as
an artifact).

The memory-regression gate: at ``n = 12`` (seed 12) the peak must stay at
or below a third of 1,112,760 B, the figure the retired per-entry dict
store (``int64`` tables plus a flat per-entry overhead) reported for the
same sweep.  The columnar layer measures 263,340 B there.
"""

import json
import pathlib
import time

from conftest import print_table

from repro.analysis.counters import OperationCounters
from repro.core import run_fs
from repro.observability import Profiler
from repro.truth_table import TruthTable

DICT_STORE_PEAK_N12 = 1_112_760


def test_frontier_packing_artifact(benchmark):
    rows = []
    for n in (8, 10, 12):
        table = TruthTable.random(n, seed=n)
        profiler = Profiler()
        counters = OperationCounters()
        start = time.perf_counter()
        result = run_fs(table, counters=counters, profiler=profiler)
        elapsed = time.perf_counter() - start
        peak = max(profiler.layers, key=lambda layer: layer.frontier_bytes)
        rows.append({
            "n": n,
            "peak_frontier_bytes": profiler.peak_frontier_bytes,
            "peak_layer_k": peak.k,
            "peak_layer_states": peak.frontier_states,
            "sweep_seconds": elapsed,
            "mincost": result.mincost,
            "table_cells": counters.table_cells,
        })

    top = rows[-1]
    assert top["n"] == 12
    assert top["peak_frontier_bytes"] * 3 <= DICT_STORE_PEAK_N12

    record = {
        "benchmark": "frontier_packing",
        "store": "layer",
        "bytes_are_exact": True,
        "dict_store_peak_n12": DICT_STORE_PEAK_N12,
        "rows": rows,
    }
    out_path = pathlib.Path(__file__).parent / "BENCH_frontier_packing.json"
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
    with open(out_path) as handle:
        assert json.load(handle)["rows"][-1]["n"] == 12

    benchmark.pedantic(
        lambda: run_fs(TruthTable.random(10, seed=10)),
        rounds=1, iterations=1,
    )

    print_table(
        "Frontier packing (numpy kernel, FULL policy)",
        ["n", "peak B", "peak k", "states", "sweep s"],
        [
            (row["n"], row["peak_frontier_bytes"], row["peak_layer_k"],
             row["peak_layer_states"], f"{row['sweep_seconds']:.3f}")
            for row in rows
        ],
    )
