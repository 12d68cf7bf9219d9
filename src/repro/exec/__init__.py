"""Execution tiers: the exact reference hot loops vs numpy fast paths.

The modeled costs in this repository are *counted* -- comparisons,
seeks, bytes, modeled milliseconds -- but the code doing the counting
has wall-clock costs of its own, and the hottest serving paths (the
k-way loser-tree merge behind :func:`repro.cluster.sharded.merge_sorted_runs`,
reused by every :class:`repro.store.SortedStore` query, and the
out-of-core merge/run-formation pipeline of
:class:`repro.hybrid.external.ExternalSorter`) historically emitted one
record per Python-level call.  This package makes the execution strategy
a first-class, selectable **tier**, mirroring PPT-GPU's hybrid
fast-analytical / cycle-accurate split:

``reference``
    Today's per-element interpreters, unchanged: every comparison is an
    actual :class:`~repro.hybrid.external.LoserTree` match, every stream
    phase an actual machine pass.  The tier for tracing and figures.

``vectorized``
    Whole-array numpy execution of the same algorithms: one forcing
    pass (:func:`repro.exec.vectorized.forced_order` -- build the
    composites, sort them, decide strictness) orders both a whole input
    and the concatenation of k sorted runs, and whole stream-kernel
    passes -- the ABiSort bitonic-tree levels, network columns, and
    layout remaps -- execute through the *stream tier*
    (:mod:`repro.exec.stream_tier`): the unchanged drivers run once per
    (program, length) on a counting machine that reproduces the op log
    closed-form, and one op-log memo serves its records, counters and
    modeled time to every stream engine.  The tier for serving.

**The contract both tiers honor:** output is bit-identical and modeled
telemetry is identical.  Comparison counts come from the closed form
:func:`repro.analysis.complexity.loser_tree_merge_comparisons` (which
equals the reference tree's counter exactly -- the tree plays ``K-1``
build matches plus ``log2 K`` per emitted element, independent of the
data), and the disk model is charged with the reference's exact access
pattern.  Inputs the vectorized order cannot reproduce provably
(NaN keys, duplicated (key, id) pairs) fall back wholesale to the
reference backend, so the guarantee holds unconditionally.

Tier selection flows through the planner (`SortPlan.exec_tier`:
``vectorized`` for serving-shaped requests, ``reference`` when the
request asks for a trace), with explicit overrides on
:class:`repro.engines.base.SortRequest`, :class:`repro.service.ServiceConfig`,
:class:`repro.store.StoreConfig`, and the ``--exec-tier`` CLI flag.
See ``docs/execution.md``.
"""

from __future__ import annotations

from repro.errors import SortInputError
from repro.exec.backend import ExecutionBackend, ReferenceBackend
from repro.exec.vectorized import VectorizedBackend

__all__ = [
    "EXEC_TIERS",
    "ExecutionBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "default_tier",
    "set_default_tier",
    "resolve_tier",
    "resolve_request_tier",
    "get_backend",
]

#: The selectable execution tiers, in documentation order.
EXEC_TIERS = ("reference", "vectorized")

_BACKENDS: dict[str, ExecutionBackend] = {
    "reference": ReferenceBackend(),
    "vectorized": VectorizedBackend(),
}

#: What ``tier=None`` resolves to.  Vectorized is safe as the ambient
#: default because the tiers are bit-identical in output *and* telemetry;
#: the reference tier remains one explicit override (or ``trace=True``
#: request) away.
_default = "vectorized"


def default_tier() -> str:
    """The tier a ``None`` tier resolves to (process-wide)."""
    return _default


def set_default_tier(tier: str) -> str:
    """Set the process-wide default tier; returns the previous default."""
    global _default
    previous = _default
    _default = resolve_tier(tier)
    return previous


def resolve_tier(tier: str | None) -> str:
    """Validate ``tier``, resolving ``None`` to the process default."""
    if tier is None:
        return _default
    if tier not in _BACKENDS:
        raise SortInputError(
            f"unknown execution tier {tier!r}; "
            f"known tiers: {', '.join(EXEC_TIERS)}"
        )
    return tier


def resolve_request_tier(request) -> str:
    """The tier a sort request actually runs under -- the planner's rule.

    An explicit ``request.exec_tier`` wins; otherwise traced requests pin
    the reference tier (so op-log consumers see identical traces,
    gather traces included) and everything else takes the process
    default.  ``request`` is duck-typed on ``exec_tier`` / ``trace`` so
    both :class:`repro.engines.base.SortRequest` and plan objects work.
    """
    return resolve_tier(
        request.exec_tier or ("reference" if request.trace else None)
    )


def get_backend(tier: str | None = None) -> ExecutionBackend:
    """The :class:`ExecutionBackend` serving ``tier`` (default-resolved)."""
    return _BACKENDS[resolve_tier(tier)]
