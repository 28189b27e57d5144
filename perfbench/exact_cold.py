"""Workload ``exact_cold``: the exact DP in-process, no cache, no checkpoint.

One pass solves five functions with ``repro.solve(table)`` at default
engine settings: a uniformly random function, a random DNF, a middle
multiplication bit and achilles-heel at n=12, and the hidden weighted
bit at n=13.  The
random and the structured functions are both here because dedup cost
depends on how many distinct cofactor pairs a layer produces: at equal
table cells, a random function creates several times the nodes of a
structured one.  The job count is odd so that the median solve falls
inside one job's cluster of latencies: with four jobs it sat between the
second and third fastest, and moved by 40 % across seeds when runs
differed by one pass.  Every pass solves a fresh random renaming (and
output complement) of the same five bases, so the DP does the same work each
pass and every pass must report the same sizes.

On a 2-core box one pass takes 5-8 s, so a 15-second run holds two or
three passes.  An n=14 function would double the pass and leave one,
too few for a median on a machine whose speed drifts by 15 % between
consecutive passes; n=14 is exercised by the traced ``portfolio_gap``
scoreboard.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

import numpy as np

from harness import (
    KernelTimer, Outcome, Tracer, compaction_layers, median, orbit_variant,
    repeat, self_peak_rss_mb, tail, timed_calls, trace_overhead,
)


def setup(seed: int, smoke: bool) -> Dict[str, Any]:
    from repro import TruthTable
    from repro.functions.families import (
        achilles_heel, hidden_weighted_bit, multiplication_bit,
    )
    from repro.functions.random_functions import random_dnf_function

    rng = np.random.default_rng(seed)
    small, mid = (6, 7) if smoke else (12, 13)
    bases = [
        ("random", TruthTable.random(small, seed=int(rng.integers(2**31)))),
        ("dnf", random_dnf_function(small, 8, 4, seed=int(rng.integers(2**31)))),
        ("mult", multiplication_bit(small // 2, small // 2 - 1)),
        ("achilles", achilles_heel(small // 2)),
        ("hwb", hidden_weighted_bit(mid)),
    ]
    return {"seed": seed, "bases": bases}


def pass_inputs(state: Dict[str, Any], index: int) -> List[Tuple[str, Any]]:
    from repro import TruthTable

    rng = np.random.default_rng([state["seed"], index])
    return [
        (name, TruthTable(base.n, orbit_variant(base.values, base.n, rng)))
        for name, base in state["bases"]
    ]


def solve_pass(state: Dict[str, Any], index: int, tracer: Tracer,
               out: Outcome, sizes: Dict[str, int],
               **engine_kwargs: Any) -> Tuple[float, List[float], List[Any]]:
    """Solve pass ``index``; returns its wall time, the per-solve latencies
    and the counters of the solves that succeeded.  The checks run after
    the clock stops; solutions are not kept, so ``peak_rss_mb`` does not
    grow with the number of passes."""
    import repro

    jobs = pass_inputs(state, index)
    elapsed, latencies, solutions = timed_calls(
        jobs, lambda table: repro.solve(table, **engine_kwargs), tracer,
        workload="exact_cold", index=index)
    for (name, table), solution in zip(jobs, solutions):
        check(name, table, solution, sizes, out)
    return elapsed, latencies, [s.counters for s in solutions
                                if not isinstance(s, Exception)]


def check(name: str, table: Any, solution: Any, sizes: Dict[str, int],
          out: Outcome) -> None:
    """Re-score the returned order outside the DP; orbit members agree."""
    from repro import obdd_size

    out.attempted += 1
    if isinstance(solution, Exception):
        out.fail(f"{name}: {type(solution).__name__}: {solution}")
        return
    rescored = obdd_size(table, list(solution.order))
    if rescored != solution.size:
        out.fail(f"{name}: reported size {solution.size}, order re-scores "
                 f"to {rescored}")
    if sizes.setdefault(name, solution.size) != solution.size:
        out.fail(f"{name}: orbit member size {solution.size} differs from "
                 f"{sizes[name]}")


def measure(state, seconds, tracer, out, sizes, first_index=0, **kwargs):
    """Passes until ``seconds`` have elapsed (at least one)."""
    done = repeat(seconds, lambda i: solve_pass(
        state, first_index + i, tracer, out, sizes, **kwargs))
    return ([p[0] for p in done], [x for p in done for x in p[1]],
            [x for p in done for x in p[2]])


def run(state: Dict[str, Any], seconds: float, trace: bool,
        out: Outcome, tracer: Tracer, workdir: str) -> None:
    import repro

    # Untimed warm-up: the first sweeps of a process pay lazy imports and
    # first-touch allocation (about 0.8 s of the first pass).
    repro.solve(state["bases"][0][1])
    sizes: Dict[str, int] = {}
    if not trace:
        passes, latencies, _ = measure(state, seconds, tracer, out, sizes)
        out.e2e.update(
            pass_s=median(passes),
            req_per_s=len(latencies) / sum(passes),
            p50_ms=median(latencies) * 1e3,
            tail_ms=tail(latencies) * 1e3,
            peak_rss_mb=self_peak_rss_mb(),
            size_ratio=1.0,
        )
        out.samples.update(pass_s=len(passes), p50_ms=len(latencies))
        out.raw.update(pass_s=passes, p50_ms=latencies)
        return

    untraced, lat_u, _ = measure(state, 0, Tracer(False), out, sizes)
    traced_layers(state, tracer, out, sizes, untraced, lat_u)
    axis_diagnostic(state, tracer, out)


def traced_layers(state, tracer, out, sizes, untraced, lat_u) -> None:
    from repro.observability import Profiler

    timer = KernelTimer()
    engine = timer.install()
    profiler = Profiler()
    passes, latencies, counters = measure(
        state, 0, tracer, out, sizes, first_index=1,
        engine=engine, profiler=profiler,
    )
    layer_s = profiler.total_layer_seconds
    out.layers.update(compaction_layers(counters, timer))
    out.layers.update(trace_overhead(passes, untraced, latencies, lat_u))
    out.layers.update({
        "engine.layer_s": layer_s,
        "engine.waist_s": max((l.wall_seconds for l in profiler.layers),
                              default=0.0),
        "engine.other_s": layer_s - timer.busy_s,
        "frontier.peak_bytes": profiler.peak_frontier_bytes,
        "frontier.peak_states": max(
            (l.frontier_states for l in profiler.layers), default=0),
    })


def axis_diagnostic(state, tracer, out) -> None:
    """One n=12 random function under every registered backend x frontier
    store, at jobs 1 and nproc: the sweep's layer time and bytes shipped.
    Rows come from the registries, so a deleted mechanism drops its row."""
    import repro
    from repro.core import available_backends, available_frontier_stores
    from repro.observability import Profiler

    table = pass_inputs(state, 0)[0][1]
    reference = None
    cpu = os.cpu_count() or 1
    for backend in available_backends():
        for store in available_frontier_stores():
            for label, jobs in (("j1", 1), ("jcpu", cpu)):
                profiler = Profiler()
                out.attempted += 1
                with tracer.span("axis", backend=backend, store=store,
                                 jobs=jobs):
                    try:
                        solution = repro.solve(
                            table, backend=backend, frontier_store=store,
                            jobs=jobs, profiler=profiler,
                        )
                    except Exception as exc:  # noqa: BLE001 - reported
                        out.fail(f"axis {backend}/{store}/{jobs}: {exc!r}")
                        continue
                answer = (solution.order, solution.mincost,
                          {k: v for k, v in solution.counters.snapshot().items()
                           if k not in ("bytes_shipped", "tasks_shipped")})
                if reference is None:
                    reference = answer
                elif answer != reference:
                    out.fail(f"axis {backend}/{store}/{jobs}: answer or "
                             "counters differ from the first combination")
                key = f"axis.{backend}.{store}.{label}"
                out.layers[f"{key}_s"] = profiler.total_layer_seconds
                out.layers[f"{key}_bytes_shipped"] = \
                    solution.counters.extra.get("bytes_shipped", 0)
