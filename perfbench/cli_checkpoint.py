"""Workload ``cli_checkpoint``: ``repro optimize`` as a fresh subprocess.

One pass runs ``repro optimize --pla <file> --all-outputs
--checkpoint-dir <dir> --backend process --jobs 2 --profile <file>`` on
a seeded two-output PLA over 11 inputs.  It is the only workload that
pays interpreter start and ``import repro``, runs the multi-root shared
DP, and writes a checkpoint per DP layer beside the sweep.  Each pass
renames the PLA's inputs afresh, which leaves the shared optimum and the
DP's work unchanged, so every pass must report the same node count; the
count is re-derived by rebuilding the forest in ``repro.bdd`` under the
returned order.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List

import numpy as np

from harness import (
    Outcome, Tracer, compaction_layers, fresh_interpreter_s, median,
    program_env, repeat, tail, trace_overhead,
)

TIMEOUT_S = 150.0


def setup(seed: int, smoke: bool) -> Dict[str, Any]:
    import repro.cli  # noqa: F401 - part of what a CLI user pays

    rng = np.random.default_rng(seed)
    n, outputs, cubes = (6, 2, 8) if smoke else (11, 2, 20)
    rows = []
    for _ in range(cubes):
        literals = rng.choice(n, size=int(rng.integers(3, 6)), replace=False)
        inputs = ["-"] * n
        for var in literals:
            inputs[int(var)] = "01"[int(rng.integers(0, 2))]
        outs = ["0"] * outputs
        for j in rng.choice(outputs, size=int(rng.integers(1, outputs + 1)),
                            replace=False):
            outs[int(j)] = "1"
        rows.append(("".join(inputs), "".join(outs)))
    return {"seed": seed, "n": n, "outputs": outputs, "rows": rows}


def pass_input(state: Dict[str, Any], index: int):
    """PLA text of pass ``index`` (inputs renamed) and its truth tables,
    computed here independently of the program's PLA reader."""
    n = state["n"]
    perm = np.random.default_rng([state["seed"], index]).permutation(n)
    rows = ["".join(cube[perm[i]] for i in range(n))
            for cube, _ in state["rows"]]
    x = np.arange(1 << n, dtype=np.int64)
    tables = []
    for j in range(state["outputs"]):
        on = np.zeros(1 << n, dtype=bool)
        for cube, (_, outs) in zip(rows, state["rows"]):
            if outs[j] != "1":
                continue
            hit = np.ones(1 << n, dtype=bool)
            for var, symbol in enumerate(cube):
                if symbol != "-":
                    hit &= ((x >> var) & 1) == int(symbol)
            on |= hit
        tables.append(on.astype(np.int64))
    text = "\n".join(
        [f".i {n}", f".o {state['outputs']}", f".p {len(rows)}"]
        + [f"{cube} {outs}" for cube, (_, outs) in zip(rows, state["rows"])]
        + [".e", ""])
    return text, tables


def shared_internal_nodes(n: int, tables: List[np.ndarray],
                          order: List[int]) -> int:
    """Internal nodes of the multi-output forest under ``order``, rebuilt
    by the node-based BDD manager (independent of the DP)."""
    from repro import BDD, TruthTable

    bdd = BDD(n, order=order)
    reach = set()
    for values in tables:
        reach.update(bdd.reachable(bdd.from_truth_table(TruthTable(n, values))))
    return sum(1 for node in reach if not bdd.is_terminal(node))


def run_cli(argv: List[str], stdout_path: str):
    """Run the CLI; returns (wall s, exit code, peak RSS MB of the child)."""
    with open(stdout_path, "w") as stdout:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], env=program_env(),
            stdout=stdout, stderr=subprocess.STDOUT,
        )
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def one_pass(state, index, workdir, tracer, out, nodes_seen):
    text, tables = pass_input(state, index)
    pla = os.path.join(workdir, "input.pla")
    checkpoints = os.path.join(workdir, "checkpoints")
    profile = os.path.join(workdir, "profile.json")
    stdout_path = os.path.join(workdir, "stdout.txt")
    shutil.rmtree(checkpoints, ignore_errors=True)
    with open(pla, "w") as handle:
        handle.write(text)
    argv = ["optimize", "--pla", pla, "--all-outputs",
            "--checkpoint-dir", checkpoints, "--backend", "process",
            "--jobs", "2", "--profile", profile]
    with tracer.span("cli_run", index=index):
        elapsed, code, rss = run_cli(argv, stdout_path)
    out.attempted += 1
    with open(stdout_path) as handle:
        printed = handle.read()
    order_line = re.search(r"shared ordering\s*:\s*(.*)", printed)
    nodes_line = re.search(r"shared nodes\s*:\s*(\d+)", printed)
    if code != 0 or order_line is None or nodes_line is None:
        out.fail(f"pass {index}: exit {code}: {printed[-300:]!r}")
        return elapsed, rss, None
    order = [int(tok[1:]) for tok in order_line.group(1).split()]
    reported = int(nodes_line.group(1))
    rebuilt = shared_internal_nodes(state["n"], tables, order)
    if rebuilt != reported:
        out.fail(f"pass {index}: reported {reported} shared nodes, the "
                 f"rebuilt forest has {rebuilt}")
    nodes_seen.add(reported)
    if len(nodes_seen) > 1:
        out.fail(f"pass {index}: orbit members disagree: {sorted(nodes_seen)}")
    return elapsed, rss, profile


def measure(state, seconds, workdir, tracer, out, nodes_seen, first_index=0):
    done = repeat(seconds, lambda i: one_pass(
        state, first_index + i, workdir, tracer, out, nodes_seen))
    return [p[0] for p in done], [p[1] for p in done], [p[2] for p in done]


def directory_usage(path: str):
    files, size = 0, 0
    for folder, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(folder, name))
    return files, size


def run(state: Dict[str, Any], seconds: float, trace: bool,
        out: Outcome, tracer: Tracer, workdir: str) -> None:
    nodes_seen: set = set()
    if not trace:
        passes, rss, _ = measure(state, seconds, workdir, tracer, out,
                                 nodes_seen)
        out.e2e.update(
            pass_s=median(passes),
            req_per_s=len(passes) / sum(passes),
            p50_ms=median(passes) * 1e3,
            tail_ms=tail(passes) * 1e3,
            peak_rss_mb=median(rss),
            size_ratio=1.0,
        )
        out.samples.update(pass_s=len(passes), p50_ms=len(passes))
        out.raw.update(pass_s=passes, p50_ms=passes)
        return

    untraced, _, _ = measure(state, 0, workdir, Tracer(False), out,
                             nodes_seen)
    passes, _, profiles = measure(state, 0, workdir, tracer, out, nodes_seen,
                                  first_index=1)
    files, size = directory_usage(os.path.join(workdir, "checkpoints"))
    layer = out.layers
    layer.update({
        "checkpoint.bytes": size,
        "checkpoint.files": files,
        "cli.import_s": median([fresh_interpreter_s("import repro.cli")
                                for _ in range(3)]),
    })
    layer.update(trace_overhead(passes, untraced, passes, untraced))
    if profiles[-1] is None:
        return
    with open(profiles[-1]) as handle:
        profile = json.load(handle)
    layers = profile["layers"]
    final = layers[-1]["counters"] if layers else {}
    phases = profile["phases"]
    layer.update(compaction_layers([final] if final else []))
    layer.update({
        "engine.layer_s": profile["total_layer_seconds"],
        "engine.waist_s": max((l["wall_seconds"] for l in layers),
                              default=0.0),
        "frontier.peak_bytes": profile["peak_frontier_bytes"],
        "frontier.peak_states": max((l["frontier_states"] for l in layers),
                                    default=0),
        "executor.ipc_submit_s": phases.get("ipc_submit", 0.0),
        "executor.ipc_merge_s": phases.get("ipc_merge", 0.0),
        "executor.bytes_shipped": final.get("bytes_shipped", 0),
        "executor.tasks_shipped": final.get("tasks_shipped", 0),
        "executor.pool_rebuilds": final.get("pool_rebuilds", 0),
        "checkpoint.write_s": phases.get("checkpoint_write", 0.0),
    })
