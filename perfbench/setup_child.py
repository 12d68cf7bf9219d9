"""Cold-start probe: import the program, answer one request, print ``answered``.

``python perfbench/setup_child.py <workload> <seed>``, with ``src/`` on
``PYTHONPATH``.  The parent times this process from spawn to that line.
``python perfbench/setup_child.py reference 0`` is the reference cold
start instead: it imports numpy and runs a fixed kernel, never the
program, so its time tracks only the host's speed.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def reference_kernel() -> None:
    """Fixed work of the kinds a cold start does: numpy sorts, dict-heavy Python."""
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(6):
        np.argsort(rng.random(1 << 18, dtype=np.float32), kind="stable")
    table: dict[int, int] = {}
    for i in range(300_000):
        table[i & 1023] = table.get(i & 1023, 0) + (i * 7) % 13


workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "reference":
    reference_kernel()
else:
    from run import WORKLOADS

    importlib.import_module(WORKLOADS[workload]).first_request(seed)
print("answered", flush=True)
