"""Shared plumbing for the perfbench workloads.

Everything here is benchmark-side: statistics, the span recorder that
the traced runs use, the timing wrapper registered around the numpy
compaction kernel, environment capture, resident-memory probes and the
orbit transforms that turn one seeded base function into many inputs
with identical exact-ordering cost.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
"""The checkout the benchmark runs in (the parent of ``perfbench/``)."""

SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
"""Throwaway files (checkpoints, PLA inputs, profiles); removed per run."""

OUT = os.path.join(ROOT, ".perfbench_out")
"""Full run records (environment, samples, spans) as JSON."""

CELL_BYTES = 8
"""Width of one DP table cell: the engine stores tables as int64."""


def program_env() -> Dict[str, str]:
    """Environment for child interpreters running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def repeat(seconds: float, one_pass: Callable[[int], Any]) -> List[Any]:
    """``one_pass(i)`` for i = 0, 1, ... until ``seconds`` have elapsed
    (at least once); returns the results."""
    results: List[Any] = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        results.append(one_pass(len(results)))
    return results


def tail(samples: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it, and
    never one below the 90th (nearest rank).

    Below 110 samples no percentile above the 90th has ten samples
    beyond it, so the 90th is reported, and the sample count printed
    beside it says so.  A floor that moved with the sample count would
    let the tail of a pass of mixed jobs jump from the slowest job to a
    faster one when a run fits one more pass.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    count = len(ordered)
    return float(ordered[max(math.ceil(0.9 * count) - 1, count - 11)])


def timed_calls(jobs, call, tracer: "Tracer", **span_attrs: Any):
    """``call(table)`` for each ``(name, table)`` job, inside one pass span.

    Returns the pass wall time, the per-call latencies and the results;
    a call that raised leaves its exception in place of a result, so the
    checks made after the clock stops count it as failed.
    """
    latencies, results = [], []
    with tracer.span("pass", **span_attrs):
        started = time.perf_counter()
        for name, table in jobs:
            with tracer.span("solve", job=name, n=table.n):
                t0 = time.perf_counter()
                try:
                    result = call(table)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    result = exc
                latencies.append(time.perf_counter() - t0)
            results.append(result)
        elapsed = time.perf_counter() - started
    return elapsed, latencies, results


def trace_overhead(passes, untraced, latencies,
                   untraced_latencies) -> Dict[str, float]:
    """Traced minus untraced ``pass_s``, ``p50_ms`` and ``tail_ms``."""
    return {
        "trace.pass_s_delta": median(passes) - median(untraced),
        "trace.p50_ms_delta":
            (median(latencies) - median(untraced_latencies)) * 1e3,
        "trace.tail_ms_delta":
            (tail(latencies) - tail(untraced_latencies)) * 1e3,
    }


def compaction_layers(counters: Sequence[Any],
                      timer: Optional["KernelTimer"] = None) -> Dict[str, float]:
    """``compaction.*`` metrics from ``OperationCounters`` (or their
    snapshot dicts) and, for in-process sweeps, the kernel timer."""
    def total(key: str) -> int:
        return sum(c[key] if isinstance(c, dict) else getattr(c, key)
                   for c in counters)

    cells = total("table_cells")
    layers = {
        "compaction.calls": total("compactions"),
        "compaction.cells": cells,
        "compaction.bytes_computed": cells * CELL_BYTES * 3,
        "compaction.nodes_per_cell":
            total("nodes_created") / cells if cells else 0.0,
    }
    if timer is not None:
        layers["compaction.busy_s"] = timer.busy_s
        layers["compaction.us_per_call"] = (
            timer.busy_s / timer.calls * 1e6 if timer.calls else 0.0)
    return layers


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder around the benchmark's calls into each layer.

    Disabled tracers record nothing, so untraced runs pay only a no-op
    context manager.  Spans nest per thread; the serve workload's two
    client threads each get their own parent chain.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record ``name`` around the block; the yielded dict collects
        attributes the block learns while running (counts, sizes)."""
        if not self.enabled:
            yield attrs
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span = Span(self._next_id, stack[-1] if stack else None, name,
                        time.perf_counter(), attrs=attrs)
            self.spans.append(span)
        stack.append(span.span_id)
        try:
            yield span.attrs
        finally:
            stack.pop()
            span.end = time.perf_counter()


class KernelTimer:
    """Counts and times every call of the numpy compaction kernel.

    :meth:`install` registers a wrapper through the program's public
    kernel registry; passing ``engine=KernelTimer.NAME`` to ``solve``
    routes every compaction of an in-process sweep through it.
    """

    NAME = "perfbench_timed_numpy"

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self._lock = threading.Lock()

    def install(self) -> str:
        from repro.core import compact, register_kernel

        def timed(state, var, rule, counters):
            started = time.perf_counter()
            try:
                return compact(state, var, rule, counters)
            finally:
                elapsed = time.perf_counter() - started
                with self._lock:
                    self.calls += 1
                    self.busy_s += elapsed

        register_kernel(self.NAME)(timed)
        return self.NAME


# ----------------------------------------------------------------------
# environment and resources
# ----------------------------------------------------------------------

def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over ``src/`` — identifies a checkout that is not a git
    repository."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment() -> Dict[str, Any]:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": _commit(),
        "src_digest": _source_digest(),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB (0 when /proc lacks it)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def fresh_interpreter_s(code: str, timeout: float = 60.0) -> float:
    """Wall time of ``python -c code`` in a new interpreter over ``src/``."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=program_env(),
        check=True, timeout=timeout, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def timed_setups(argv: Sequence[str], count: int = 3) -> List[float]:
    """Wall times of ``count`` fresh ``run.py --setup-only`` interpreters."""
    script = os.path.join(ROOT, "perfbench", "run.py")
    times = []
    for _ in range(count):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, script, *argv, "--setup-only"], cwd=ROOT,
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return times


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def orbit_variant(values: np.ndarray, n: int, rng: np.random.Generator,
                  *, rename: bool = True,
                  negate_inputs: bool = False) -> np.ndarray:
    """A random member of ``values``' orbit: variables renamed (or not),
    inputs negated (or not), and the output complemented at random.

    Renaming variables, negating inputs and complementing the output all
    preserve the optimal OBDD size, and renaming maps every DP subset to
    another of the same size, so a variant costs the exact DP the same
    work as its base.  The serve daemon's canonical cache recognises
    renaming and output complement, not input negation.
    """
    perm = rng.permutation(n) if rename else np.arange(n)
    flips = rng.integers(0, 2, size=n) if negate_inputs else np.zeros(n, int)
    x = np.arange(1 << n, dtype=np.int64)
    source = np.zeros_like(x)
    for new_var, old_var in enumerate(perm):
        bit = ((x >> new_var) & 1) ^ int(flips[new_var])
        source |= bit << int(old_var)
    out = np.asarray(values, dtype=np.int64)[source]
    if rng.integers(0, 2):
        out = 1 - out
    return out


def bits(values: np.ndarray) -> str:
    """Truth-table bits in the serve protocol's ``values`` string form."""
    return "".join("1" if v else "0" for v in np.asarray(values).tolist())


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run measured."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    """Sample count behind each timing (printed beside it)."""

    raw: Dict[str, List[float]] = field(default_factory=dict)
    """Every timing sample behind the reported medians (run record only)."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    """One line per failed, refused or wrong operation."""

    def fail(self, message: str) -> None:
        self.failures.append(message)
