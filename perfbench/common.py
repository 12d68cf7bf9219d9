"""Shared helpers of the benchmark: paths, statistics, set-up probes, output.

Every workload module exposes ``run(opts) -> Outcome``.  ``run.py``
turns an :class:`Outcome` into the human table and the final JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
#: The checkout root: the benchmark runs from it, and it holds ``src/``.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space the benchmark creates and removes inside the checkout.
WORK = ROOT / ".perfbench"

#: Cold starts timed per run; ``setup_s`` comes from their median.
SETUP_REPEATS = 7
#: Wall time of one reference cold start (``setup_child.py reference``)
#: on the reference machine (2-core x86 container, Python 3.11), in s.
REFERENCE_START_S = 0.6

class BenchFailure(Exception):
    """A wrong output or an unusable environment: the run exits non-zero."""


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int
    failed: int
    #: End-to-end slot name -> value (``--trace 0``).
    e2e: dict[str, float] = field(default_factory=dict)
    #: Per-layer metric name -> value (``--trace 1``).
    layers: dict[str, float] = field(default_factory=dict)
    #: Human-readable rows: (display name, value, unit, note).
    table: list[tuple[str, float, str, str]] = field(default_factory=list)


def require_program() -> None:
    """Put ``src/`` on the import path, or fail when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchFailure(
            f"no program to measure: {SRC / 'repro'} is missing "
            "(run from the root of a checkout)"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child Python processes: ``src/`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def cleanup_workdir() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


# -- process measurements -----------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, in seconds."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate ``proc`` and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def spawn_until_answered(args: list[str]) -> float:
    """Wall time from spawning ``setup_child.py ARGS`` to its ``answered`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_child.py"), *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        stop_process(proc)
        proc.stdout.close()
    if line.strip() != "answered" or code != 0:
        raise BenchFailure(f"set-up probe {args} failed (exit {code})")
    return elapsed


def setup_s(probe, repeats: int = SETUP_REPEATS) -> tuple[float, float, float]:
    """``setup_s`` from ``repeats`` cold starts ``probe()``.

    Each cold start is timed against a reference cold start spawned right
    before it: a fresh interpreter that imports numpy and runs a fixed
    kernel, and never imports the program.  The median of the ratios,
    times the reference's wall time on the reference machine, is the
    set-up time in that machine's seconds: host speed drift, which hits
    both sides of a ratio alike, cancels.  Returns ``(setup_s, median
    probe wall s, median reference wall s)``.
    """
    probes, refs = [], []
    for _ in range(repeats):
        refs.append(spawn_until_answered(["reference", "0"]))
        probes.append(probe())
    ratio = np.median(np.asarray(probes) / np.asarray(refs))
    return float(ratio) * REFERENCE_START_S, float(np.median(probes)), float(np.median(refs))


def cold_start_s(workload: str, seed: int, repeats: int = SETUP_REPEATS):
    """:func:`setup_s` of fresh processes answering the workload's first request.

    Each probe process (``setup_child.py``) imports the program, answers
    the workload's first request, the same one each time, and prints
    ``answered``.
    """
    return setup_s(lambda: spawn_until_answered([workload, str(seed)]), repeats)


# -- output -------------------------------------------------------------------


def emit(outcome: Outcome, *, trace: bool) -> None:
    """Print the human table, then the one-line JSON result.

    Wrong answers raise :class:`BenchFailure` before this point, so a
    printed result is always ``correct``.
    """
    for name, value, unit, note in outcome.table:
        print(f"  {name:<34} {value:>14.4f} {unit:<6} {note}")
    metrics = outcome.layers if trace else outcome.e2e
    units = metric_units("per_layer" if trace else "end_to_end")
    missing = set(units) - set(metrics)
    if missing:
        raise BenchFailure(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": True,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result), flush=True)


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``"end_to_end"`` or ``"per_layer"``.

    ``BENCHMARK.json`` is the one list of metrics; every workload reports
    all of them (each end-to-end name is a slot, see README.md).
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}
