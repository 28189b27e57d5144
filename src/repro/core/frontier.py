"""The retained DP layer — the *frontier* — as one set of columns.

At the waist the FS dynamic program holds ``C(n, n/2)`` states of
``2^{n/2}`` table cells each; Theorem 5's ``3^n`` analysis counts exactly
these cells, so their representation is what caps tractable ``n``.  A
:class:`Layer` stores one finished layer column-wise:

* ``masks[P]`` — subset masks relative to the swept universe (``int64``);
* ``costs[P]`` — each subset's ``MINCOST`` (``int64``);
* ``pis[P, |pi|]`` — each winning placement chain, one byte per variable;
* ``tables[P, cells]`` — the winners' tables, in the narrowest unsigned
  integer dtype (``uint8``/``uint16``/``uint32``) that holds the layer's
  largest cell — node ids, or edges under the CBDD rule, are never
  negative.  Mincost-only layers
  (:attr:`~repro.core.engine.FrontierPolicy.MINCOST_ONLY`) carry no
  tables: their entries are ``(pi, mincost)`` skeletons that are replayed
  from the sweep's base state on demand.

The engine builds one layer per cardinality, the fused kernel gathers
predecessor cofactors straight from :attr:`Layer.tables`, the process
backend ships row subsets (:meth:`Layer.take`), the checkpoint codec
writes the columns, and the budget meters :meth:`Layer.nbytes` — the
exact byte size of the column arrays.  A layer's dtype depends only on
its largest cell, so concatenating the chunks of a layer in any split
gives the same dtype, the same bytes and the same budget aborts under
every backend and job count.

:meth:`Layer.get` returns ordinary entries (an :class:`FSState` with an
``int64`` table, or a :class:`Skeleton`) for the per-candidate loop that
the ``python`` spec kernel and custom kernels run, so every kernel sees
exactly the values that were stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .spec import FSState


@dataclass
class Skeleton:
    """Mincost-only frontier entry: enough to rebuild the state on demand."""

    pi: Tuple[int, ...]
    mincost: int


Entry = Union[FSState, Skeleton]

# Beyond 32 bits a table falls back to int64, which the kernels' keys
# (``u0 << 32 | u1`` in int64) combine with directly; node ids stay below
# 2^32, so only CBDD edges of a >2^31-node layer would ever get there.
_TABLE_DTYPES = (np.uint8, np.uint16, np.uint32, np.int64)


def available_frontier_stores() -> List[str]:
    """Names ``solve(frontier_store=...)`` accepts: only ``"dict"``, the
    historical name of the default store, now the one :class:`Layer`
    format (kept so callers that enumerate stores keep working)."""
    return ["dict"]


def narrowest_table_dtype(maximum: int) -> np.dtype:
    """Smallest table dtype holding every value in ``[0, maximum]``."""
    for dtype in _TABLE_DTYPES:
        if maximum <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise OverflowError(f"table value {maximum} exceeds int64")


def _narrow(tables: np.ndarray) -> np.ndarray:
    """``tables`` in the narrowest unsigned dtype holding its maximum."""
    if tables.size == 0:
        return tables.astype(np.uint8)
    if tables.dtype.kind == "i" and int(tables.min()) < 0:
        raise ValueError("frontier tables hold non-negative node ids")
    dtype = narrowest_table_dtype(int(tables.max()))
    return tables if tables.dtype == dtype else tables.astype(dtype)


@dataclass(eq=False)
class Layer:
    """One finished DP layer as parallel columns (see the module doc)."""

    n: int
    num_terminals: int
    num_roots: int
    base_mask: int
    """Variables the sweep's base state had already placed; an entry's
    absolute mask is ``base_mask | masks[row]``."""
    masks: np.ndarray
    costs: np.ndarray
    pis: np.ndarray
    tables: Optional[np.ndarray] = None
    """``None`` for a mincost-only (skeleton) layer."""

    _rows: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.n > 0xFF:
            raise ValueError(
                f"chains store one byte per placed variable; n={self.n} "
                "exceeds 255"
            )
        self.masks = np.asarray(self.masks, dtype=np.int64)
        self.costs = np.asarray(self.costs, dtype=np.int64)
        self.pis = np.asarray(self.pis, dtype=np.uint8)
        count = len(self.masks)
        if self.costs.shape != (count,) or self.pis.ndim != 2 \
                or len(self.pis) != count:
            raise ValueError(
                f"layer columns disagree: {count} masks, costs "
                f"{self.costs.shape}, pis {self.pis.shape}"
            )
        if self.tables is not None:
            if self.tables.ndim != 2 or len(self.tables) != count:
                raise ValueError(
                    f"layer tables {self.tables.shape} do not hold one "
                    f"row per mask ({count})"
                )
            self.tables = _narrow(self.tables)

    # -- construction --------------------------------------------------

    @classmethod
    def of_base(cls, base: FSState) -> "Layer":
        """The sweep's layer 0: the base state alone, under mask 0."""
        return cls(
            n=base.n,
            num_terminals=base.num_terminals,
            num_roots=base.num_roots,
            base_mask=base.mask,
            masks=np.zeros(1, dtype=np.int64),
            costs=np.array([base.mincost], dtype=np.int64),
            pis=np.array([base.pi], dtype=np.uint8).reshape(1, len(base.pi)),
            tables=np.asarray(base.table)[None, :],
        )

    @classmethod
    def from_entries(cls, base: FSState, masks: Sequence[int],
                     entries: Sequence[Entry]) -> "Layer":
        """A layer of ``entries`` (all states or all skeletons) keyed by
        the relative ``masks``."""
        pi_len = len(entries[0].pi) if entries else len(base.pi)
        full = bool(entries) and isinstance(entries[0], FSState)
        return cls(
            n=base.n,
            num_terminals=base.num_terminals,
            num_roots=base.num_roots,
            base_mask=base.mask,
            masks=np.array(masks, dtype=np.int64),
            costs=np.array([e.mincost for e in entries], dtype=np.int64),
            pis=np.array([e.pi for e in entries],
                         dtype=np.uint8).reshape(len(entries), pi_len),
            tables=np.stack([e.table for e in entries]) if full else None,
        )

    def _like(self, masks: np.ndarray, costs: np.ndarray, pis: np.ndarray,
              tables: Optional[np.ndarray]) -> "Layer":
        return Layer(
            n=self.n, num_terminals=self.num_terminals,
            num_roots=self.num_roots, base_mask=self.base_mask,
            masks=masks, costs=costs, pis=pis, tables=tables,
        )

    def take(self, masks: Sequence[int]) -> "Layer":
        """The rows of ``masks`` (all present), in that order."""
        rows = np.array([self.row_index()[m] for m in masks], dtype=np.int64)
        return self._like(
            self.masks[rows], self.costs[rows], self.pis[rows],
            None if self.tables is None else self.tables[rows],
        )

    @staticmethod
    def concat(layers: Sequence["Layer"]) -> "Layer":
        """Rows of ``layers`` in order (one layer's chunks).  The tables
        take the widest chunk dtype, which is the dtype of the layer's
        maximum — the same whatever the split."""
        first = layers[0]
        if len(layers) == 1:
            return first
        return first._like(
            np.concatenate([part.masks for part in layers]),
            np.concatenate([part.costs for part in layers]),
            np.concatenate([part.pis for part in layers]),
            None if first.tables is None
            else np.concatenate([part.tables for part in layers]),
        )

    # -- reading -------------------------------------------------------

    def row_index(self) -> Dict[int, int]:
        """``mask -> row`` over the layer (built on first use)."""
        if self._rows is None:
            self._rows = {m: r for r, m in enumerate(self.masks.tolist())}
        return self._rows

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self.row_index()

    def get(self, mask: int) -> Optional[Entry]:
        """The entry for ``mask`` (tables widened to ``int64``), or
        ``None`` — what the per-candidate loop reads."""
        row = self.row_index().get(mask)
        return None if row is None else self.entry(row)

    def entry(self, row: int) -> Entry:
        """Row ``row`` as an :class:`FSState` or a :class:`Skeleton`."""
        pi = tuple(self.pis[row].tolist())
        mincost = int(self.costs[row])
        if self.tables is None:
            return Skeleton(pi=pi, mincost=mincost)
        return FSState(
            n=self.n,
            mask=self.base_mask | int(self.masks[row]),
            pi=pi,
            mincost=mincost,
            table=self.tables[row].astype(np.int64),
            num_terminals=self.num_terminals,
            num_roots=self.num_roots,
        )

    def items(self) -> Iterator[Tuple[int, Entry]]:
        for row, mask in enumerate(self.masks.tolist()):
            yield mask, self.entry(row)

    def min_mincost(self) -> int:
        """Smallest ``mincost`` over the layer (the best-so-far bound)."""
        return int(self.costs.min())

    def nbytes(self) -> int:
        """Exact bytes of the column arrays."""
        total = self.masks.nbytes + self.costs.nbytes + self.pis.nbytes
        if self.tables is not None:
            total += self.tables.nbytes
        return int(total)

    def __getstate__(self) -> Dict[str, object]:
        # The mask index is rebuilt on demand; never ship it.
        state = dict(self.__dict__)
        state["_rows"] = None
        return state
