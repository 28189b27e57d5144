"""Workload ``serve_mix``: a ``repro serve`` daemon under two closed-loop clients.

The daemon runs in its own process at its defaults (process backend,
``jobs`` = nproc, an in-memory cache that starts empty).  Two client
connections each send their next request when the previous one is
answered, pulling from one shared script per pass:

* 6 cold single requests: distinct random functions at n = 7, 8, 9, 9,
  10 and 11;
* 2 ``solve_many`` manifests of four items: two distinct cold functions
  (n = 8 and 9) plus a renamed or complemented copy of each, which the
  daemon dedups inside the manifest;
* 10 cache hits: renamed or complemented variants of functions answered
  in the previous pass, which the canonical cache answers without a
  sweep.

Here the kernel does little; cache, canonicalisation, queueing, process
pool shipping and transport dominate.  A warm-up pass (cold requests
only) fills the cache for the first measured pass's hits and is not
timed.  ``p50_ms`` and ``tail_ms`` are the latency of the cold single
requests, the class that runs the solver.  Hit latency swings with how
often a hit meets the other connection's sweep (its tail moved between
13 and 42 ms across identical runs), so it is a per-layer metric.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

import numpy as np

from harness import (
    Outcome, Tracer, bits, compaction_layers, median, orbit_variant,
    proc_peak_rss_mb, program_env, repeat, tail, trace_overhead,
)

CLIENTS = 2
COLD_N = (7, 8, 9, 9, 10, 11)
BATCH_N = (8, 9)
BATCHES = 2
HITS = 10
SMOKE_SHIFT = 3
"""Smoke runs subtract this from every n."""

CORE_COUNTERS = ("table_cells", "compactions", "nodes_created",
                 "subsets_processed")
"""Counters that must be bit-identical between the daemon (process
backend) and a direct in-process solve; transport extras differ."""


def setup(seed: int, smoke: bool) -> Dict[str, Any]:
    """Inputs are drawn per pass from ``(seed, pass index)``."""
    return {"seed": seed, "shift": SMOKE_SHIFT if smoke else 0}


# ----------------------------------------------------------------------
# daemon lifecycle
# ----------------------------------------------------------------------

class Daemon:
    """One ``repro serve`` process on an ephemeral localhost port."""

    def __init__(self, workdir: str, tag: str) -> None:
        self.log_path = os.path.join(workdir, f"serve-{tag}.log")
        self.proc: Optional[subprocess.Popen] = None
        self.address = None

    def start(self, timeout: float = 60.0) -> None:
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                env=program_env(), stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                found = re.search(r"listening on ([\d.]+):(\d+)", log.read())
            if found:
                self.address = (found.group(1), int(found.group(2)))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not start; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not drain."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)


def launch(state, workdir: str, tag: str):
    """Start a daemon and send its first request (the pool spawns lazily).
    Returns the daemon, a connected client, the launch-to-first-answer
    time and the first request's own latency."""
    from repro.serve import ServeClient

    rng = np.random.default_rng([state["seed"], 99])
    first = rng.integers(0, 2, size=1 << 6)
    started = time.perf_counter()
    daemon = Daemon(workdir, tag)
    daemon.start()
    try:
        client = ServeClient(daemon.address)
        t0 = time.perf_counter()
        client.solve(values=bits(first))
    except Exception:
        daemon.stop()
        raise
    now = time.perf_counter()
    return daemon, client, now - started, now - t0


# ----------------------------------------------------------------------
# the request script
# ----------------------------------------------------------------------

def _random_values(rng, n):
    return rng.integers(0, 2, size=1 << n, dtype=np.int64)


def script(state: Dict[str, Any], index: int,
           previous: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The requests of pass ``index``.  ``previous`` holds the distinct
    functions answered in the pass before, which the hits vary."""
    rng = np.random.default_rng([state["seed"], index])
    shift = state["shift"]
    ops: List[Dict[str, Any]] = []
    for n in COLD_N:
        n -= shift
        ops.append({"kind": "cold", "tables": [(n, _random_values(rng, n))]})
    for _ in range(BATCHES):
        distinct = [(n - shift, _random_values(rng, n - shift))
                    for n in BATCH_N]
        copies = [(n, orbit_variant(v, n, rng)) for n, v in distinct]
        ops.append({"kind": "batch", "tables": distinct + copies,
                    "orbit_of": [None] * len(distinct)
                    + list(range(len(distinct)))})
    if previous:
        for pick in rng.integers(0, len(previous), size=HITS):
            origin = previous[int(pick)]
            n = origin["n"]
            ops.append({"kind": "hit", "origin": origin,
                        "tables": [(n, orbit_variant(origin["values"], n,
                                                     rng))]})
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def answered_functions(ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Distinct functions a finished pass answered (hit targets)."""
    found = []
    for op in ops:
        if op["kind"] == "hit" or op.get("results") is None:
            continue
        for j, (n, values) in enumerate(op["tables"]):
            if op["kind"] == "batch" and op["orbit_of"][j] is not None:
                continue
            found.append({"n": n, "values": values,
                          "size": op["results"][j]["size"]})
    return found


def _send(client, op) -> None:
    started = time.perf_counter()
    try:
        if op["kind"] == "batch":
            response = client.solve_many(
                [{"values": bits(v), "n": n} for n, v in op["tables"]])
            op["statuses"] = response["statuses"]
            op["results"] = [body.get("result", {}) for body in
                             response["results"]]
        else:
            n, values = op["tables"][0]
            op["results"] = [client.solve(values=bits(values), n=n)]
    except Exception as exc:  # noqa: BLE001 - refused or failed request
        op["error"] = f"{type(exc).__name__}: {exc}"
    op["latency"] = time.perf_counter() - started


def run_pass(clients, pool, ops, tracer: Tracer, index: int) -> float:
    queue = deque(ops)
    lock = threading.Lock()

    def drain(client) -> None:
        while True:
            with lock:
                if not queue:
                    return
                op = queue.popleft()
            with tracer.span("request", kind=op["kind"], index=index):
                _send(client, op)

    with tracer.span("pass", workload="serve_mix", index=index):
        started = time.perf_counter()
        futures = [pool.submit(drain, c) for c in clients]
        for future in futures:
            future.result()
        return time.perf_counter() - started


def check(ops: List[Dict[str, Any]], out: Outcome) -> None:
    """Re-score every answer; orbit members report their original's size."""
    from repro import TruthTable, obdd_size

    for op in ops:
        out.attempted += 1
        if "error" in op:
            out.fail(f"{op['kind']}: {op['error']}")
            continue
        if op["kind"] == "batch" and any(
                s not in ("ok", "cached", "coalesced")
                for s in op["statuses"]):
            out.fail(f"batch statuses {op['statuses']}")
            continue
        for j, ((n, values), result) in enumerate(
                zip(op["tables"], op["results"])):
            size = obdd_size(TruthTable(n, values), result["order"])
            if size != result["size"]:
                out.fail(f"{op['kind']}: reported size {result['size']}, "
                         f"order re-scores to {size}")
            if op["kind"] == "hit" and result["size"] != op["origin"]["size"]:
                out.fail(f"hit: size {result['size']} differs from its orbit's "
                         f"{op['origin']['size']}")
            if op["kind"] == "batch" and op["orbit_of"][j] is not None:
                if result["size"] != op["results"][op["orbit_of"][j]]["size"]:
                    out.fail("batch: orbit copies report different sizes")


def compare_direct(ops: List[Dict[str, Any]], rng, out: Outcome,
                   sample: int = 2) -> None:
    """A seeded sample of cold answers must equal a direct ``solve()``."""
    import repro
    from repro import TruthTable

    colds = [op for op in ops if op["kind"] == "cold" and "error" not in op]
    for pick in rng.choice(len(colds), size=min(sample, len(colds)),
                           replace=False):
        op = colds[int(pick)]
        n, values = op["tables"][0]
        served = op["results"][0]
        direct = repro.solve(TruthTable(n, values))
        out.attempted += 1
        core = direct.counters.snapshot()
        if (list(direct.order) != served["order"]
                or direct.mincost != served["mincost"]
                or any(core[k] != served["counters"].get(k)
                       for k in CORE_COUNTERS)):
            out.fail(f"cold n={n}: daemon answer differs from direct solve()")


def measure(state, seconds, clients, pool, tracer, previous, first_index):
    """Passes until ``seconds`` have elapsed; each pass's hits vary the
    functions the pass before it answered."""
    passes, all_ops = [], []

    def one_pass(i):
        nonlocal previous
        ops = script(state, first_index + i, previous)
        passes.append(run_pass(clients, pool, ops, tracer, first_index + i))
        all_ops.extend(ops)
        previous = answered_functions(ops)

    done = repeat(seconds, one_pass)
    return passes, all_ops, previous, first_index + len(done)


def latencies(ops, kind: str) -> List[float]:
    return [op["latency"] for op in ops
            if op["kind"] == kind and "error" not in op]


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def run(state: Dict[str, Any], seconds: float, trace: bool, out: Outcome,
        tracer: Tracer, workdir: str) -> float:
    """Measure; returns ``setup_s``: the median of three daemon launches,
    each up to its first answered request (one launch when traced)."""
    from repro.serve import ServeClient

    setups = []
    for tag in () if trace else ("a", "b"):
        daemon, client, total, _ = launch(state, workdir, tag)
        client.close()
        daemon.stop()
        setups.append(total)
    daemon, first_client, total, first_request_s = launch(state, workdir,
                                                          "main")
    setups.append(total)
    clients = [first_client] + [ServeClient(daemon.address)
                                for _ in range(CLIENTS - 1)]
    pool = ThreadPoolExecutor(max_workers=CLIENTS)
    try:
        _measure_all(state, seconds, trace, out, tracer, clients, pool,
                     daemon, first_request_s)
    finally:
        # Closing the sockets first unblocks a client thread stuck in a
        # read when the run is aborted, so the pool can be joined.
        for client in clients:
            client.close()
        daemon.stop()
        pool.shutdown(wait=True)
    return median(setups)


def _measure_all(state, seconds, trace, out, tracer, clients, pool, daemon,
                 first_request_s) -> None:
    warm = script(state, 0, [])
    run_pass(clients, pool, warm, Tracer(False), 0)
    check(warm, out)
    previous = answered_functions(warm)
    rng = np.random.default_rng([state["seed"], 7])

    window = seconds / 2 if trace else seconds
    passes, ops, previous, index = measure(
        state, window, clients, pool, Tracer(False), previous, 1)
    check(ops, out)
    compare_direct(ops, rng, out)
    colds = latencies(ops, "cold")
    if not trace:
        out.e2e.update(
            pass_s=median(passes),
            req_per_s=len(ops) / sum(passes),
            p50_ms=median(colds) * 1e3,
            tail_ms=tail(colds) * 1e3,
            peak_rss_mb=daemon.peak_rss_mb(),
            size_ratio=1.0,
        )
        out.samples.update(pass_s=len(passes), p50_ms=len(colds))
        out.raw.update(pass_s=passes, p50_ms=colds)
        _print_classes(ops)
        return

    before = clients[0].metrics()
    t_passes, t_ops, _, _ = measure(
        state, window, clients, pool, tracer, previous, index)
    after = clients[0].metrics()
    check(t_ops, out)
    traced_layers(out, t_passes, t_ops, before, after, first_request_s)
    out.layers.update(trace_overhead(t_passes, passes,
                                     latencies(t_ops, "cold"), colds))


def _print_classes(ops) -> None:
    for kind in ("hit", "cold", "batch"):
        lat = latencies(ops, kind)
        print(f"  serve {kind:<5} p50 {median(lat) * 1e3:9.3f} ms  "
              f"tail {tail(lat) * 1e3:9.3f} ms  ({len(lat)} requests)")


def traced_layers(out, passes, ops, before, after, first_request_s) -> None:
    from repro import TruthTable
    from repro.core import ReductionRule, table_key

    count = len(passes)

    def delta(section: str, key: str) -> float:
        return (after[section].get(key, 0) - before[section].get(key, 0)) / count

    hits = delta("cache", "hits")
    misses = delta("cache", "misses")
    layer = out.layers
    layer.update(compaction_layers([{
        key: delta("counters", key)
        for key in ("compactions", "table_cells", "nodes_created")}]))
    layer.update({
        "executor.bytes_shipped": delta("counters", "bytes_shipped"),
        "executor.tasks_shipped": delta("counters", "tasks_shipped"),
        "executor.pool_rebuilds": delta("counters", "pool_rebuilds")
        + delta("server", "backend_restarts"),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.lock_waits": delta("cache", "lock_waits"),
        "serve.kernel_sweeps": delta("server", "kernel_sweeps"),
        "serve.coalesced": delta("server", "coalesced"),
        "serve.batch_deduped": delta("server", "batch_deduped"),
        "serve.rejected_queue_full": delta("server", "rejected_queue_full"),
        "serve.first_request_s": first_request_s,
    })
    for kind in ("hit", "cold"):
        done = [op for op in ops if op["kind"] == kind and "error" not in op]
        server = [op["results"][0]["elapsed_seconds"] for op in done]
        outside = [op["latency"] - s for op, s in zip(done, server)]
        client = [op["latency"] for op in done]
        layer[f"serve.{kind}_server_ms"] = median(server) * 1e3
        layer[f"serve.{kind}_outside_ms"] = median(outside) * 1e3
        layer[f"serve.{kind}_p50_ms"] = median(client) * 1e3
        layer[f"serve.{kind}_tail_ms"] = tail(client) * 1e3
    layer["serve.batch_p50_ms"] = median(latencies(ops, "batch")) * 1e3

    keys = []
    for op in ops:
        if op["kind"] in ("hit", "cold"):
            n, values = op["tables"][0]
            table = TruthTable(n, values)
            started = time.perf_counter()
            table_key([table], ReductionRule.BDD)
            keys.append(time.perf_counter() - started)
    layer["cache.canonicalize_ms"] = median(keys) * 1e3
