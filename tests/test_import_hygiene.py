"""Import hygiene: the package's entry points stay light.

Every CLI run, every daemon and every spawn-context pool worker (which
unpickles ``repro.core.executor._run_chunk_task`` and so runs
``repro/__init__``) pays for whatever ``import repro`` loads.  scipy is
only needed by the Appendix C parameter solver and networkx only by
callers who build graphs, so neither may load at import time; the
modules that use them import them inside the functions.
"""

import os
import subprocess
import sys

import pytest

from repro.analysis.parameters import solve_parameters, solve_table1
from repro.functions.graphs import independent_sets, vertex_covers

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
HEAVY = ("scipy", "networkx")


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.core.executor"]
)
def test_import_leaves_heavy_dependencies_unloaded(module):
    probe = (
        f"import sys, {module}\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "", (
        f"import {module} loaded {done.stdout.strip()}"
    )


def test_parameter_solver_still_solves():
    # The lazily imported scipy path: Table 1's k=1 and k=2 rows (paper:
    # 2.97625 and 2.8569).
    rows = solve_table1(2)
    assert rows[0].base == pytest.approx(2.976245255, abs=1e-8)
    assert rows[1].base == pytest.approx(2.856887309, abs=1e-8)
    assert rows[1].alphas == pytest.approx((0.192754877, 0.334571136),
                                           abs=1e-8)
    assert solve_parameters(1).alphas == pytest.approx((0.274862765,),
                                                       abs=1e-8)


def test_graph_families_still_enumerate():
    nx = pytest.importorskip("networkx")
    family, index = independent_sets(nx.path_graph(4))
    assert sorted(sorted(s) for s in family) == [
        [], [0], [0, 2], [0, 3], [1], [1, 3], [2], [3],
    ]
    assert index == {0: 0, 1: 1, 2: 2, 3: 3}
    covers, _ = vertex_covers(nx.path_graph(4))
    assert len(covers) == len(family)
