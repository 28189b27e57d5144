"""Crash-safe checkpoints for the layered sweep (and fault injection).

The FS dynamic program is the most expensive thing this repository runs —
``O*(3^n)`` table cells (Theorem 5) — and, because Lemma 4's recurrence
only ever reads the previous layer, a finished layer is a perfect cut
point: the frontier layer plus the accumulated DP tables are everything
the sweep needs to continue.  This module snapshots exactly that state so
:func:`repro.core.engine.run_layered_sweep` can restart from the last
finished layer instead of from scratch, which covers every DP entry point
(``run_fs``, ``run_fs_shared``, the constrained DP, the window optimizer
and FS*) for free.

Design points:

* **Self-describing files.**  Each layer writes one JSON file carrying a
  *fingerprint* of the sweep (kernel, rule, ``n``, universe mask, frontier
  policy, a content hash of the base state, ...) and a SHA-256 *checksum*
  of the payload.  Loading validates both; a truncated file, a checksum
  mismatch or a fingerprint mismatch raises
  :class:`~repro.errors.CheckpointError` naming the offending file —
  a resume never silently continues from the wrong data.
* **Fingerprint-scoped filenames.**  The fingerprint hash is part of the
  filename, so many sweeps (a window sweep runs dozens of FS* solves) can
  share one checkpoint directory without clobbering each other, and a
  resume only ever considers files written by an identical sweep.
* **Atomic writes.**  Files are written to a unique temp name in the
  same directory and ``os.replace``-d into place, so a crash mid-write
  leaves the previous checkpoint intact (the torn temp file is ignored
  by the loader), and two writers of one path never share a temp inode.
* **Columnar payload.**  The finished frontier layer (its mask, cost,
  chain and table columns; see :class:`~repro.core.frontier.Layer`) and
  the cumulative ``mincost_by_subset``, ``best_last`` and
  ``level_cost_by_choice`` maps travel as base64 little-endian integer
  columns, each at the narrowest of int8 to int64 that holds it, so a
  layer's file costs one C-level encode of a few strings.  Format 3
  introduced the layer columns; the format is part of the fingerprint,
  so older files hash to other names and are never resumed.
* **Exact counter restoration.**  Each checkpoint stores the sweep's
  *delta* of :class:`~repro.analysis.counters.OperationCounters` since
  the sweep started.  Because the sweep is deterministic, restoring the
  delta is indistinguishable from recomputing the layers: an
  interrupted-then-resumed run is bit-identical to an uninterrupted one
  in both results and counters (the fault-injection tests prove this for
  all five entry points).

:class:`FaultInjector` is the testing hook that makes the guarantee
checkable: attached to an :class:`~repro.core.engine.EngineConfig` it can
kill the process (raise :class:`InjectedFault`) after a chosen layer or
after a chosen number of checkpoint writes, and corrupt a just-written
checkpoint to exercise the validation paths.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import secrets
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.counters import OperationCounters
from ..errors import CheckpointError
from .frontier import Layer, Skeleton  # noqa: F401  (Skeleton re-exported)
from .spec import FSState

FORMAT_VERSION = 3

_COUNTER_FIELDS = (
    "table_cells",
    "compactions",
    "nodes_created",
    "subsets_processed",
    "oracle_queries",
    "classical_evaluations",
)


# ----------------------------------------------------------------------
# checked-JSON envelope (shared with repro.core.cache)
# ----------------------------------------------------------------------

def write_checked_json(path: str, payload: Dict[str, Any]) -> str:
    """Atomically write ``payload`` wrapped in a checksummed envelope.

    The document layout (``format``/``checksum``/``payload``) is the one
    every durable artifact of this package uses: sweep checkpoints and
    result-cache entries alike.  The payload checksum is computed over the
    canonical (sorted, separator-free) JSON encoding, and that same string
    is embedded as the envelope's payload, so the payload is encoded once.
    The file lands via ``os.replace`` from a temp file unique to this
    write, so a crash mid-write never leaves a torn file under the real
    name and concurrent writers of one path never interleave.
    """
    payload_json = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(payload_json.encode()).hexdigest()
    document = (
        f'{{"checksum":"{checksum}","format":{FORMAT_VERSION},'
        f'"payload":{payload_json}}}'
    )
    # A random exclusive-create name per write: mkstemp's recipe, but
    # with the umask-governed mode a plain open() gives rather than
    # 0600, so shared cache directories stay readable.
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(document)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_checked_json(path: str, error: type = CheckpointError) -> Dict[str, Any]:
    """Read and validate a :func:`write_checked_json` document.

    Returns the payload.  A missing/unreadable file, invalid JSON, a
    missing envelope, or a checksum mismatch raises ``error`` (default
    :class:`~repro.errors.CheckpointError`; the result cache passes
    :class:`~repro.errors.CacheError`) naming the offending file.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise error(f"{path} could not be read: {exc}") from exc
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(
            f"{path} is truncated or not valid JSON ({exc})"
        ) from None
    if (
        not isinstance(document, dict)
        or "payload" not in document
        or "checksum" not in document
    ):
        raise error(f"{path} is missing its payload/checksum envelope")
    payload = document["payload"]
    payload_json = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload_json.encode()).hexdigest()
    if digest != document["checksum"]:
        raise error(
            f"{path} failed its content checksum "
            f"(expected {document['checksum']}, computed {digest}); "
            "the file is corrupt"
        )
    return payload


@dataclass
class RetryPolicy:
    """Exponential-backoff retry for transient durable-storage I/O.

    Checkpoint and result-cache files live on whatever filesystem the
    operator points them at — often networked storage where a write can
    fail transiently (NFS blip, quota race) without the run being doomed.
    This policy wraps one I/O callable: retryable exceptions are retried
    up to ``max_retries`` times with delays ``base_delay * 2**attempt``
    capped at ``max_delay``; anything else (and the final failure)
    propagates unchanged.  Validation errors
    (:class:`~repro.errors.CheckpointError` /
    :class:`~repro.errors.CacheError`) are *not* ``OSError`` subclasses,
    so corrupt data is never retried into silence.

    ``sleep`` is injectable so tests run instantly; ``retries_used``
    tallies across every :meth:`run` for observability (the result cache
    mirrors it into :class:`repro.core.cache.CacheStats.retries` and the
    engine into the ``retries`` extra counter).
    """

    max_retries: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    retryable: Tuple[type, ...] = (OSError,)
    sleep: Callable[[float], None] = time.sleep

    retries_used: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def run(
        self,
        fn: Callable[[], Any],
        describe: str = "operation",
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> Any:
        """Call ``fn`` with retries; returns its result.

        ``on_retry(attempt, exc)`` fires before each backoff sleep (for
        counters/logging).  The last exception is re-raised unchanged
        once the budget of retries is spent.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except self.retryable as exc:
                if attempt >= self.max_retries:
                    raise
                delay = min(self.base_delay * (2 ** attempt), self.max_delay)
                attempt += 1
                self.retries_used += 1
                if on_retry is not None:
                    on_retry(attempt, exc)
                self.sleep(delay)


class InjectedFault(RuntimeError):
    """Raised by :class:`FaultInjector` to simulate a crash.

    Deliberately *not* a :class:`~repro.errors.ReproError`: a real crash
    is not handled by library error paths, so the simulated one must not
    be either (the CLI's ``except ReproError`` would otherwise swallow
    it and defeat the tests).
    """


def corrupt_checkpoint(path: str, mode: str = "truncate") -> None:
    """Damage a checkpoint file in a controlled way (for fault injection).

    ``"truncate"`` keeps only the first half of the file (torn write),
    ``"flip"`` flips one byte in the middle (bit rot; the JSON usually
    still parses but the checksum no longer matches), ``"garbage"``
    replaces the content with non-JSON bytes.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if mode == "truncate":
        data = data[: len(data) // 2]
    elif mode == "flip":
        mid = len(data) // 2
        data = data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1:]
    elif mode == "garbage":
        data = b"\x00corrupt checkpoint\x00" * 4
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    with open(path, "wb") as handle:
        handle.write(data)


@dataclass
class FaultInjector:
    """Deterministic crash/corruption injection for checkpointed sweeps.

    Attach one to ``EngineConfig(fault_injector=...)``; the engine calls
    :meth:`on_layer_committed` after each layer's checkpoint is durably
    on disk.  Counters persist across sweeps, so ``kill_after_writes``
    can target a layer deep inside a multi-solve run (a window sweep).
    """

    kill_after_layer: Optional[int] = None
    """Raise :class:`InjectedFault` after the first sweep layer with this
    cardinality ``k`` commits."""

    kill_after_writes: Optional[int] = None
    """Raise after this many layer commits, counted across every sweep
    this injector observes."""

    corrupt_layer: Optional[int] = None
    """Corrupt the checkpoint file of the layer with this cardinality
    right after it is written (simulating a torn write that fsync'd)."""

    corruption: str = "truncate"
    """Damage mode for ``corrupt_layer`` (see :func:`corrupt_checkpoint`)."""

    kill_worker_layer: Optional[int] = None
    """SIGKILL the worker process executing chunk ``kill_worker_chunk``
    of the layer with this cardinality — a *process-level* fault, unlike
    the coordinator-side raises above.  The process backend consults the
    injector while building that chunk's task and flags the envelope;
    the worker kills itself with ``SIGKILL`` (uncatchable, exactly what
    an OOM killer delivers), the pool reports
    :class:`concurrent.futures.process.BrokenProcessPool`, and the
    backend's self-healing path takes over.  In-process backends ignore
    these fields: there is no worker to lose."""

    kill_worker_chunk: int = 0
    """Chunk index (within the layer's chunk list) whose worker dies."""

    kill_worker_phase: str = "before"
    """``"before"`` kills the worker as the chunk starts (no work done);
    ``"during"`` kills it about halfway through the chunk's masks, so
    partial worker-side state is provably discarded on retry."""

    worker_kills: int = 1
    """How many times the targeted chunk's worker dies.  Each armed kill
    fires once — the coordinator marks it consumed *before* shipping the
    chunk, so the healed pool's re-submission runs clean.  Values above
    ``max_pool_rebuilds`` exhaust the healing budget and surface
    :class:`~repro.errors.ExecutorBrokenError` deterministically."""

    commits_seen: int = field(default=0, init=False)

    worker_kills_injected: int = field(default=0, init=False)
    """How many worker kills this injector has armed so far (across
    retries and sweeps); tests assert it to prove the fault fired."""

    def on_layer_committed(self, k: int, path: Optional[str]) -> None:
        self.commits_seen += 1
        if self.corrupt_layer == k and path is not None:
            corrupt_checkpoint(path, self.corruption)
        if self.kill_after_layer is not None and k == self.kill_after_layer:
            raise InjectedFault(
                f"injected crash after layer k={k} committed"
            )
        if (
            self.kill_after_writes is not None
            and self.commits_seen >= self.kill_after_writes
        ):
            raise InjectedFault(
                f"injected crash after {self.commits_seen} checkpoint commits"
            )

    def take_worker_kill(self, layer: int, chunk_index: int) -> Optional[str]:
        """Consume one armed worker kill for ``(layer, chunk_index)``.

        Returns the kill phase (``"before"``/``"during"``) when the
        chunk's worker should die, ``None`` otherwise.  Consuming
        *mutates coordinator state*, which is what makes recovery
        deterministic: once ``worker_kills`` kills have been armed, the
        healed pool's re-submission of the same chunk ships clean.
        """
        if (
            self.kill_worker_layer != layer
            or self.kill_worker_chunk != chunk_index
            or self.worker_kills_injected >= self.worker_kills
        ):
            return None
        if self.kill_worker_phase not in ("before", "during"):
            raise ValueError(
                f"unknown kill_worker_phase {self.kill_worker_phase!r}; "
                "expected 'before' or 'during'"
            )
        self.worker_kills_injected += 1
        return self.kill_worker_phase


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def sweep_fingerprint(
    base: FSState,
    universe_mask: int,
    rule: str,
    upto: int,
    kernel: str,
    frontier: str,
    tag: str = "",
) -> Dict[str, Any]:
    """Identity of a sweep: two sweeps with equal fingerprints compute
    bit-identical layers, so one may resume from the other's checkpoints.

    The base state is folded in as a content hash of its table plus its
    placement bookkeeping; ``tag`` lets entry points with state the engine
    cannot see (the constrained DP's precedence closure — its
    ``subset_filter`` is an opaque callable) contribute to the identity.
    """
    base_hash = hashlib.sha256()
    base_hash.update(str(base.table.dtype).encode())
    base_hash.update(np.ascontiguousarray(base.table).tobytes())
    return {
        "format": FORMAT_VERSION,
        "kernel": kernel,
        "rule": rule,
        "frontier": frontier,
        "n": base.n,
        "num_roots": base.num_roots,
        "num_terminals": base.num_terminals,
        "track_nodes": base.nodes is not None,
        "universe_mask": universe_mask,
        "upto": upto,
        "base_mask": base.mask,
        "base_pi": list(base.pi),
        "base_mincost": base.mincost,
        "base_table_sha256": base_hash.hexdigest(),
        "tag": tag,
    }


def fingerprint_hash(fingerprint: Dict[str, Any]) -> str:
    """Short stable digest used to scope checkpoint filenames."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# column / counter codecs
# ----------------------------------------------------------------------

_COLUMN_DTYPES = ("<i1", "<i2", "<i4", "<i8")


def _narrowest_dtype(column: np.ndarray) -> str:
    """Smallest signed little-endian integer dtype holding ``column``."""
    if column.size == 0:
        return _COLUMN_DTYPES[0]
    lo, hi = int(column.min()), int(column.max())
    for dtype in _COLUMN_DTYPES[:-1]:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return dtype
    return _COLUMN_DTYPES[-1]


def _encode_columns(columns: List[np.ndarray]) -> Dict[str, Any]:
    """Integer columns as base64 text, each at the narrowest signed
    little-endian width that holds it (int64 at most)."""
    dtypes = [_narrowest_dtype(column) for column in columns]
    return {
        "dtypes": dtypes,
        "columns": [
            base64.b64encode(column.astype(dtype).tobytes()).decode("ascii")
            for column, dtype in zip(columns, dtypes)
        ],
    }


def _decode_columns(
    blob: Dict[str, Any], lengths: List[int], name: str
) -> List[np.ndarray]:
    """Inverse of :func:`_encode_columns` for columns of the given
    lengths; ``ValueError`` on a malformed column (the loader turns it
    into a :class:`CheckpointError`)."""
    texts, dtypes = blob["columns"], blob["dtypes"]
    if len(texts) != len(lengths) or len(dtypes) != len(lengths):
        raise ValueError(
            f"{name} has {len(texts)} columns and {len(dtypes)} dtypes, "
            f"expected {len(lengths)}"
        )
    columns = []
    for text, dtype, length in zip(texts, dtypes, lengths):
        if dtype not in _COLUMN_DTYPES:
            raise ValueError(f"{name} column has unknown dtype {dtype!r}")
        raw = base64.b64decode(text, validate=True)
        if len(raw) != np.dtype(dtype).itemsize * length:
            raise ValueError(
                f"{name} column holds {len(raw)} bytes, expected "
                f"{length} {dtype} values"
            )
        columns.append(np.frombuffer(raw, dtype=dtype))
    return columns


def _encode_map(mapping: Dict[Any, int], key_width: int) -> Dict[str, Any]:
    """A DP map as integer columns sorted by key: one column per key
    component (``key_width`` of them), then the values."""
    count = len(mapping)
    flat_keys = chain.from_iterable(mapping) if key_width > 1 else mapping
    keys = np.fromiter(
        flat_keys, dtype=np.int64, count=count * key_width
    ).reshape(count, key_width)
    values = np.fromiter(mapping.values(), dtype=np.int64, count=count)
    order = np.lexsort(keys.T[::-1])
    return {
        "count": count,
        **_encode_columns([column[order] for column in (*keys.T, values)]),
    }


def _decode_map(
    blob: Dict[str, Any], key_width: int, name: str
) -> Dict[Any, int]:
    """Inverse of :func:`_encode_map`."""
    count = int(blob["count"])
    *keys, values = (
        column.tolist()
        for column in _decode_columns(blob, [count] * (key_width + 1), name)
    )
    if key_width == 1:
        return dict(zip(keys[0], values))
    return dict(zip(zip(*keys), values))


def _encode_layer(layer: Layer) -> Dict[str, Any]:
    """A frontier layer as its columns, in row order; the tables column
    is absent for a mincost-only layer."""
    columns = [layer.masks, layer.costs, layer.pis.ravel()]
    if layer.tables is not None:
        columns.append(layer.tables.ravel())
    return {
        "count": len(layer),
        "pi_len": int(layer.pis.shape[1]),
        "cells": None if layer.tables is None else int(layer.tables.shape[1]),
        **_encode_columns(columns),
    }


def _decode_layer(
    blob: Dict[str, Any], k: int, fingerprint: Dict[str, Any]
) -> Layer:
    """Inverse of :func:`_encode_layer`, checked against the shape layer
    ``k`` of the fingerprinted sweep must have."""
    count, pi_len = int(blob["count"]), int(blob["pi_len"])
    placed = len(fingerprint["base_pi"]) + k
    if pi_len != placed:
        raise ValueError(f"layer pi_len {pi_len}, expected {placed}")
    lengths = [count, count, count * pi_len]
    if blob["cells"] is not None:
        cells = int(blob["cells"])
        expected = fingerprint["num_roots"] << (fingerprint["n"] - placed)
        if cells != expected:
            raise ValueError(f"layer has {cells} cells, expected {expected}")
        lengths.append(count * cells)
    masks, costs, pis, *tables = _decode_columns(blob, lengths, "layer")
    return Layer(
        n=fingerprint["n"],
        num_terminals=fingerprint["num_terminals"],
        num_roots=fingerprint["num_roots"],
        base_mask=fingerprint["base_mask"],
        masks=masks,
        costs=costs,
        pis=pis.reshape(count, pi_len),
        tables=tables[0].reshape(count, -1) if tables else None,
    )


def counters_from_snapshot(snapshot: Dict[str, int]) -> OperationCounters:
    """Rebuild an :class:`OperationCounters` from a plain-dict snapshot
    (the inverse of ``OperationCounters.snapshot`` / ``diff``)."""
    counters = OperationCounters()
    for key, amount in snapshot.items():
        if key in _COUNTER_FIELDS:
            setattr(counters, key, int(amount))
        else:
            counters.add_extra(key, int(amount))
    return counters


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

@dataclass
class RestoredSweep:
    """Everything a resumed sweep needs to continue after ``layer``."""

    layer: int
    frontier: Layer
    mincost_by_subset: Dict[int, int]
    best_last: Dict[int, int]
    level_cost_by_choice: Dict[Tuple[int, int], int]
    subsets_processed: int
    counter_delta: OperationCounters
    path: str


class CheckpointStore:
    """Reads and writes per-layer sweep checkpoints in one directory.

    Files are named ``ckpt_<fingerprint12>_layer_<k>.json`` so multiple
    sweeps coexist; only files matching this store's fingerprint are ever
    considered for resume, and every load re-validates the embedded
    fingerprint and payload checksum.
    """

    def __init__(
        self,
        directory: str,
        fingerprint: Dict[str, Any],
        retry: Optional[RetryPolicy] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> None:
        self.directory = directory
        self.fingerprint = fingerprint
        self.fp_hash = fingerprint_hash(fingerprint)
        self.retry = retry
        self.on_retry = on_retry
        os.makedirs(directory, exist_ok=True)

    def layer_path(self, k: int) -> str:
        return os.path.join(
            self.directory, f"ckpt_{self.fp_hash}_layer_{k:04d}.json"
        )

    def layers_on_disk(self) -> List[int]:
        """Layer numbers with a checkpoint file for this fingerprint."""
        pattern = re.compile(
            rf"^ckpt_{re.escape(self.fp_hash)}_layer_(\d+)\.json$"
        )
        out = []
        for name in os.listdir(self.directory):
            match = pattern.match(name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def save_layer(
        self,
        k: int,
        frontier: Layer,
        mincost_by_subset: Dict[int, int],
        best_last: Dict[int, int],
        level_cost_by_choice: Dict[Tuple[int, int], int],
        subsets_processed: int,
        counter_delta: Dict[str, int],
    ) -> str:
        """Atomically persist layer ``k`` (its finished ``frontier`` plus
        the cumulative DP maps); returns the file path."""
        payload = {
            "fingerprint": self.fingerprint,
            "layer": k,
            "frontier": _encode_layer(frontier),
            "mincost_by_subset": _encode_map(mincost_by_subset, 1),
            "best_last": _encode_map(best_last, 1),
            "level_cost_by_choice": _encode_map(level_cost_by_choice, 2),
            "subsets_processed": subsets_processed,
            "counter_delta": dict(sorted(counter_delta.items())),
        }
        path = self.layer_path(k)
        if self.retry is not None:
            return self.retry.run(
                lambda: write_checked_json(path, payload),
                describe=path,
                on_retry=self.on_retry,
            )
        return write_checked_json(path, payload)

    def load_latest(self, upto: int) -> Optional[RestoredSweep]:
        """Restore the newest finished layer ``<= upto``, or ``None``.

        The newest matching file must validate; a damaged or mismatched
        checkpoint raises :class:`~repro.errors.CheckpointError` rather
        than silently falling back to an older layer or a cold start.
        """
        candidates = [k for k in self.layers_on_disk() if k <= upto]
        if not candidates:
            return None
        return self.load_file(self.layer_path(max(candidates)))

    def load_file(self, path: str) -> RestoredSweep:
        """Load and fully validate one checkpoint file."""
        payload = read_checked_json(path, error=CheckpointError)
        found = payload.get("fingerprint", {})
        if found != self.fingerprint:
            differing = sorted(
                key
                for key in set(found) | set(self.fingerprint)
                if found.get(key) != self.fingerprint.get(key)
            )
            raise CheckpointError(
                f"checkpoint {path} was written by a different sweep "
                f"configuration (fingerprint mismatch on: "
                f"{', '.join(differing) or 'entire fingerprint'}); "
                "refusing to resume from it"
            )
        try:
            layer = int(payload["layer"])
            restored = RestoredSweep(
                layer=layer,
                frontier=_decode_layer(
                    payload["frontier"], layer, self.fingerprint
                ),
                mincost_by_subset=_decode_map(
                    payload["mincost_by_subset"], 1, "mincost_by_subset"
                ),
                best_last=_decode_map(payload["best_last"], 1, "best_last"),
                level_cost_by_choice=_decode_map(
                    payload["level_cost_by_choice"], 2,
                    "level_cost_by_choice",
                ),
                subsets_processed=int(payload["subsets_processed"]),
                counter_delta=counters_from_snapshot(
                    payload["counter_delta"]
                ),
                path=path,
            )
        except (KeyError, ValueError, TypeError) as error:
            raise CheckpointError(
                f"checkpoint {path} has a malformed payload: {error!r}"
            ) from None
        return restored
