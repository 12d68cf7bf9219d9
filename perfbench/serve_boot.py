"""Start the CLI server with the benchmark's span wrappers installed.

``python perfbench/serve_boot.py SPANS_OUT serve --port 0 ...``: wraps
the layer boundaries of :mod:`layers` in this process, runs
``python -m repro``'s ``main`` with the remaining arguments, and writes
the recorded spans to ``SPANS_OUT`` (JSON lines) when the server stops.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402

from repro.__main__ import main  # noqa: E402

tracer = layers.install(Tracer())
try:
    code = main(sys.argv[2:])
finally:
    tracer.restore()
    tracer.dump(sys.argv[1])
sys.exit(code)
