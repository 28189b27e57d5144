"""perfbench: the benchmark of the exact-ordering system.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exact_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  The exit code is 1 when any correctness check
failed, 2 when the program's sources are missing.  The full record of a
run (environment, sample counts, failures, spans) is written under
``.perfbench_out/``.  See ``perfbench/README.md`` for the workloads and
for which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Process-backend workers re-import this module under spawn, so the
# source path must be set at import time, not only under __main__.
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

WORKLOADS = ("exact_cold", "serve_mix", "portfolio_gap", "cli_checkpoint")
RUN_LIMIT_S = 170
"""Abort (without a result) before the 180-second limit on one run."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (for --selftest)")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit "
                             "(timed by the parent run for setup_s)")
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at smoke size and check "
                             "every metric is emitted with its unit")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    return args


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_S = 5.0
"""How long descendants may take to exit on their own before SIGKILL."""


def _become_subreaper() -> None:
    """Adopt orphaned descendants.

    The daemon and the CLI's process backend start helpers of their own
    (pool workers, multiprocessing's resource tracker) that outlive their
    parent by a moment; as a subreaper this process becomes their parent
    when theirs exits, so :func:`_reap_descendants` can wait for them.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: children only
        pass


def _children() -> list:
    me = str(os.getpid())
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me:
            found.append(int(entry))
    return found


def _reap_descendants() -> None:
    """Stop this process's resource tracker, then wait for every child
    (adopted orphans included); SIGKILL whatever is left after
    :data:`REAP_GRACE_S`.  Runs at exit, after multiprocessing's own exit
    handlers, so no finalizer restarts the tracker afterwards."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()
        except Exception:  # noqa: BLE001 - reaped below instead
            pass
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.02)


def run_workload(args) -> int:
    import importlib

    import harness

    module = importlib.import_module(args.workload)
    if args.setup_only:
        module.setup(args.seed, args.smoke)
        return 0

    e2e_units, layer_units = load_spec()
    env = harness.environment()
    out = harness.Outcome()
    tracer = harness.Tracer(bool(args.trace))
    workdir = os.path.join(harness.SCRATCH, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        state = module.setup(args.seed, args.smoke)
        # A workload that sets up more than its inputs (the daemon)
        # measures its own set-up and returns it.
        setup_s = module.run(state, args.seconds, bool(args.trace), out,
                             tracer, workdir)
        if setup_s is None and not args.trace:
            setup_s = harness.median(harness.timed_setups(
                ["--workload", args.workload, "--seed", str(args.seed)]
                + (["--smoke"] if args.smoke else [])))
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    if setup_s is not None:
        out.e2e["setup_s"] = setup_s

    if args.trace:
        names, values = layer_units, out.layers
    else:
        names, values = e2e_units, out.e2e
    missing = [name for name in names if name not in values]
    if not args.trace and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in names.items()}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        count = out.samples.get(name)
        note = (f"  ({count} samples)" if count is not None
                else "  (not exercised by this workload)"
                if name in missing else "")
        print(f"  {name:<40} {metric['value']:>16.6f} {metric['unit']}{note}")
    for failure in out.failures[:20]:
        print(f"  FAILED: {failure}")

    os.makedirs(harness.OUT, exist_ok=True)
    record = os.path.join(
        harness.OUT,
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": env, "e2e": out.e2e, "layers": out.layers,
            "samples": out.samples, "raw": out.raw,
            "attempted": out.attempted,
            "failures": out.failures,
            "spans": [span.to_dict() for span in tracer.spans],
        }, handle, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not out.failures,
        "attempted": max(out.attempted, 1),
        "failed": len(out.failures),
        "metrics": metrics,
    }))
    return 0 if not out.failures else 1


def selftest() -> int:
    """Every workload at smoke size, untraced and traced: each named metric
    is emitted with its unit, and nothing failed."""
    import subprocess

    e2e_units, layer_units = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", "3", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line "
                                f"(exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or result["failed"] or not result["correct"]:
                problems.append(f"{label}: exit {proc.returncode}, "
                                f"{result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(units))}")
            print(f"{label:<30} {time.perf_counter() - started:5.1f} s")
    for problem in problems:
        print("PROBLEM:", problem)
    print("selftest", "passed" if not problems else "FAILED")
    return 0 if not problems else 1


def main(argv=None) -> int:
    # Registered before anything imports multiprocessing, so it runs after
    # multiprocessing's exit handlers (atexit runs last-in, first-out).
    atexit.register(_reap_descendants)
    _become_subreaper()
    signal.signal(signal.SIGTERM, _on_term)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    try:
        return run_workload(args)
    except Exception:  # noqa: BLE001 - a crashed run reports no result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
