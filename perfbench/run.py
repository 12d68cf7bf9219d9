"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sort-1m --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload half untraced, half with spans around the layer boundaries,
and reports the per-layer split plus the tracing overhead.  The last
line of standard output is one JSON object; a wrong output, or a
checkout without ``src/repro``, exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
import traceback

from common import BenchFailure, cleanup_workdir, emit, require_program

WORKLOADS = {
    "sort-1m": "wl_sort",
    "serve-socket": "wl_serve",
    "fleet-replay": "wl_fleet",
    "store-mixed": "wl_store",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    opts = parse_args(argv)
    opts.trace = bool(opts.trace)
    started = time.perf_counter()
    try:
        require_program()
        module = importlib.import_module(WORKLOADS[opts.workload])
        print(f"{opts.workload}: seed {opts.seed}, {opts.seconds:g} s, "
              f"trace {int(opts.trace)}", flush=True)
        outcome = module.run(opts)
        print(f"  (run took {time.perf_counter() - started:.1f} s)")
        emit(outcome, trace=opts.trace)
    except BenchFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 -- any crash is a failed run, not a result
        traceback.print_exc()
        return 1
    finally:
        cleanup_workdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
