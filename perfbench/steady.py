"""Steadiness check: run a workload N times and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload sort-1m --runs 10 [--seed 100]
        [--out set1.json] [--against set0.json]

Runs ``run.py`` once per seed (``--seed``, ``--seed + 1``, ...) for
``run_seconds`` from ``BENCHMARK.json``, then prints, per end-to-end
metric, the median, quartiles, min and max, and the spread: the
interquartile distance as a share of the median.  The quartiles are
``statistics.quantiles(values, n=4)``, the rule the benchmark's
acceptance check applies to the per-run values.  A spread over its
``BENCHMARK.json`` bound is flagged, ``setup_s``'s too; ``target`` is a
third of the bound.  ``--out`` saves the per-run values; ``--against``
compares this set's medians with a saved set and flags a median that
got worse by more than the bound, and a failed total that differs from
the saved set's: the same seeds must fail the same requests.  Exits 1
when any run fails or anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--out", type=Path, help="save the per-run values here")
    parser.add_argument("--against", type=Path, help="a set saved with --out")
    opts = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    counts: dict[str, list[int]] = {"attempted": [], "failed": []}
    for i in range(opts.runs):
        seed = opts.seed + i
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", opts.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"run with seed {seed} failed (exit {proc.returncode})")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for name in counts:
            counts[name].append(result[name])
        summary = ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
        print(f"seed {seed}: {summary} (failed {result['failed']}/{result['attempted']})",
              flush=True)
    if opts.out:
        opts.out.write_text(json.dumps({**values, **counts}, indent=1))
    before = json.loads(opts.against.read_text()) if opts.against else None

    steady = True
    totals = {name: sum(data) for name, data in counts.items()}
    print(f"\nfailed {totals['failed']} of {totals['attempted']} attempted")
    if before is not None:
        old = {name: sum(before[name]) for name in counts}
        if old["failed"] != totals["failed"]:
            print(f"FAILED COUNTS DIFFER: saved set failed {old['failed']} of "
                  f"{old['attempted']}")
            steady = False
    print(f"\n{opts.workload}: {opts.runs} runs of {seconds:g} s")
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}"
          f"{'spread':>9}{'bound':>7}{'target':>8}{'moved':>9}")
    for name, data in values.items():
        q1, q2, q3 = statistics.quantiles(data, n=4)
        spread = (q3 - q1) / q2
        flag = ""
        if spread > bounds[name]:
            flag = "  OVER BOUND"
            steady = False
        elif spread > bounds[name] / 3:
            flag = "  over target"
        moved = ""
        if before is not None:
            # Positive: this set's median is worse than the saved set's.
            old = statistics.median(before[name])
            worse = (q2 - old if lower[name] else old - q2) / old
            moved = f"{worse:+.3f}"
            if worse > bounds[name]:
                flag += "  MEDIAN WORSE"
                steady = False
        print(f"{name:<16}{q2:>12.4f}{q1:>12.4f}{q3:>12.4f}{min(data):>12.4f}"
              f"{max(data):>12.4f}{spread:>9.3f}{bounds[name]:>7.2f}"
              f"{bounds[name] / 3:>8.3f}{moved:>9}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
