"""In-memory spans around the program's public functions, from outside.

:class:`Tracer` wraps named functions and methods with timing shims and
restores the originals on :meth:`Tracer.restore`.  Each span records its
name, start, end, parent span and the id of the request (the outermost
span) it belongs to.  Parents are tracked per thread, so work the
service hands to its executor threads nests under the executor call.
Nothing inside ``src/`` changes: the program runs as it stands.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Records spans for every function it wraps until restored."""

    def __init__(self):
        #: One entry per span: [name, start_s, end_s, parent index, request id].
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _shim(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                request = tracer.spans[parent][4] if parent >= 0 else index
                tracer.spans.append([name, time.perf_counter(), None, parent, request])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[index][2] = time.perf_counter()

        return traced

    # -- patching -------------------------------------------------------------

    def wrap(self, target: str, name: str) -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` as span ``name``.

        A module-level function is also replaced in every loaded
        ``repro`` module that imported it by name, so call sites that
        bound it with ``from ... import`` are traced too.
        """
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if owners else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {target}: static/class method")
        shim = self._shim(name, original)
        self._set(owner, attr, shim)
        if not owners:
            for mod_name, module in list(sys.modules.items()):
                if (
                    mod_name.startswith("repro")
                    and module is not owner
                    and getattr(module, attr, None) is original
                ):
                    self._set(module, attr, shim)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total seconds, total self seconds, call count.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_s: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0 and end is not None:
                child_s[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _parent, _req) in enumerate(self.spans):
            if end is None:
                continue
            total[name] += end - start
            self_s[name] += end - start - child_s.get(index, 0.0)
            calls[name] += 1
        return total, self_s, calls

    def _under(self, name: str, ancestor: str):
        """Finished spans called ``name`` with an ``ancestor`` span above."""
        for span in self.spans:
            if span[0] != name or span[2] is None:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    yield span
                    break
                parent = self.spans[parent][3]

    def count_under(self, name: str, ancestor: str) -> int:
        """How many ``name`` spans ran inside an ``ancestor`` span."""
        return sum(1 for _span in self._under(name, ancestor))

    def seconds_under(self, name: str, ancestor: str) -> float:
        """Total duration of the ``name`` spans inside ``ancestor`` spans."""
        return sum(end - start for _n, start, end, _p, _r in self._under(name, ancestor))

    @classmethod
    def load(cls, path) -> "Tracer":
        """Read spans :meth:`dump` wrote (e.g. by a server child)."""
        tracer = cls()
        with open(path) as lines:
            for line in lines:
                span = json.loads(line)
                tracer.spans.append([
                    span["name"], span["start_s"], span["end_s"],
                    span["parent"], span["request"],
                ])
        return tracer

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w") as out:
            for index, (name, start, end, parent, req) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start_s": start, "end_s": end,
                    "parent": parent, "request": req,
                }) + "\n")
