"""Decision-diagram substrates: OBDD, ZDD and MTBDD managers, ordering
heuristics, and DOT export.

These are independent of the Friedman-Supowit dynamic program in
:mod:`repro.core`; the test suite uses each side to validate the other.
"""

from .cbdd import CBDD, cbdd_size
from .dot import diagram_to_dot, to_dot
from .manager import BDD
from .mtbdd import MTBDD, mtbdd_size
from .node import FALSE, TRUE, Node
from .reorder import (
    SearchResult,
    greedy_append,
    random_restart_search,
)
from .swap import ReorderingBDD
from .symbolic import ReachabilityResult, TransitionSystem, rename
from .zdd import ZDD

__all__ = [
    "BDD",
    "ZDD",
    "ReorderingBDD",
    "CBDD",
    "cbdd_size",
    "TransitionSystem",
    "ReachabilityResult",
    "rename",
    "MTBDD",
    "mtbdd_size",
    "Node",
    "FALSE",
    "TRUE",
    "SearchResult",
    "random_restart_search",
    "greedy_append",
    "to_dot",
    "diagram_to_dot",
]
