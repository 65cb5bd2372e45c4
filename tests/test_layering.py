"""Every package outside ``sim/`` reaches the simulator through its public API.

``Simulator``'s underscore attributes (now-queue, event heap, free lists)
are the engine's own: the RAIZN and mdraid data paths, the harnesses and
the workload drivers all queue zero-delay work with
``sim.schedule(0.0, fn, *args)``.  The list is read off a live
``Simulator``, so an attribute added later is covered without editing
this test.
"""

import ast
import pathlib

import repro
from repro.sim import Simulator

PRIVATE = {name for name in vars(Simulator()) if name.startswith("_")}


def private_uses(source: str) -> list:
    """``(line, attribute)`` for every ``x.<private name>`` in ``source``."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE]


def test_a_private_use_is_found():
    assert {"_now_queue", "_heap"} <= PRIVATE
    assert private_uses("sim._now_queue.append((fn, ()))") == \
        [(1, "_now_queue")]
    assert private_uses("sim.schedule(0.0, fn)") == []


def test_no_driver_names_a_private_simulator_attribute():
    root = pathlib.Path(repro.__file__).resolve().parent
    found = {str(path.relative_to(root)): private_uses(path.read_text())
             for path in sorted(root.rglob("*.py"))
             if path.relative_to(root).parts[0] != "sim"}
    assert len(found) > 50
    assert not {path: uses for path, uses in found.items() if uses}
