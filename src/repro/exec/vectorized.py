"""The ``vectorized`` tier: whole-array numpy merges, reference-identical.

The trick that makes a bit-identical fast path possible is the paper's
own distinctness device: with unique (key, id) pairs the total order is
*strict*, so the sorted union of sorted runs is unique -- any correct
merge algorithm must produce the byte-for-byte reference output.  The
implementation therefore reduces the (key, id) order to one ``uint64``
composite per record and merges k runs as a tournament of two-way
``np.searchsorted`` merges, O(n log k) work with no per-element Python.

Composite construction (:func:`composite_keys`) uses the classic
order-preserving float trick: reinterpret the float32 key as its IEEE
bit pattern, flip all bits of negatives and the sign bit of
non-negatives, and the unsigned integer order equals the float order --
including denormals and the infinities.  Two wrinkles the reference
semantics force:

* ``-0.0`` and ``+0.0`` compare *equal* under Python/NumPy float
  comparison (the reference tree then tie-breaks by id), but their bit
  patterns differ; keys equal to zero are canonicalized to ``+0.0``
  before the bit transform so the composite agrees with the reference
  tie-break.
* NaN keys have no coherent place in either order; inputs containing
  them report "cannot vectorize" and the caller falls back wholesale to
  the reference tier.

The same fallback triggers when the merged composites contain
duplicates (possible only when full (key, id) pairs repeat): there the
reference output depends on the loser tree's internal structure, so the
only way to match it bit-for-bit is to run it.  Fallbacks preserve the
tier contract -- output and telemetry stay reference-identical, only the
speedup is lost.
"""

from __future__ import annotations

import numpy as np

from repro.exec.backend import ExecutionBackend, ReferenceBackend
from repro.stream.stream import VALUE_DTYPE

__all__ = ["composite_keys", "merge_order", "vectorized_merge", "VectorizedBackend"]

_SIGN = np.int32(-(1 << 31))  # the sign bit, as int32

#: The fallback executor for inputs the composite order cannot represent.
_REFERENCE = ReferenceBackend()


def composite_keys(values: np.ndarray) -> np.ndarray | None:
    """One order-preserving ``uint64`` composite per (key, id) record.

    ``composite(a) < composite(b)`` iff ``(a.key, a.id) < (b.key, b.id)``
    under the reference comparison (floats compared numerically with
    ``-0.0 == +0.0``, ids breaking ties).  Returns ``None`` when any key
    is NaN -- such inputs have no total order to preserve.
    """
    # -0.0 == +0.0 in the reference order; collapse the two bit patterns
    # so the id tie-break decides, exactly as the loser tree does.  IEEE
    # addition does it in the same pass that copies the strided field:
    # -0.0 + 0.0 is +0.0, and every other key (NaN included) is unchanged.
    keys = values["key"] + np.float32(0.0)
    if np.isnan(keys).any():
        return None
    # In place on the int32 view: the arithmetic shift yields all ones for
    # negatives, so the xor flips every bit of negatives and only the sign
    # bit of non-negatives.
    bits = keys.view(np.int32)
    bits ^= (bits >> 31) | _SIGN
    composite = bits.view(np.uint32).astype(np.uint64)
    composite <<= np.uint64(32)
    composite |= values["id"]
    return composite


def _merge_two(
    comp_a: np.ndarray,
    gather_a: np.ndarray,
    comp_b: np.ndarray,
    gather_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted composite sequences, carrying gather indices.

    Each ``b`` element lands after the ``a`` elements ≤ it
    (``searchsorted(..., side="right")``) plus the ``b`` elements before
    it -- a strictly increasing position vector, so a boolean scatter
    interleaves both sides in one vectorized pass.
    """
    positions = np.searchsorted(comp_a, comp_b, side="right")
    positions = positions + np.arange(comp_b.shape[0], dtype=np.int64)
    total = comp_a.shape[0] + comp_b.shape[0]
    comp = np.empty(total, dtype=np.uint64)
    gather = np.empty(total, dtype=np.int64)
    from_b = np.zeros(total, dtype=bool)
    from_b[positions] = True
    comp[from_b] = comp_b
    comp[~from_b] = comp_a
    gather[from_b] = gather_b
    gather[~from_b] = gather_a
    return comp, gather


def merge_order(runs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray] | None:
    """The merge permutation of ``runs`` (each sorted, each non-empty).

    Returns ``(gather, provenance)`` where ``gather`` indexes the
    concatenation of ``runs`` in merged order and ``provenance[i]`` is
    the run index that produced output element ``i`` -- or ``None`` when
    the input cannot be vectorized faithfully (NaN keys, or duplicate
    (key, id) pairs whose relative order is a loser-tree implementation
    detail).
    """
    composites: list[np.ndarray] = []
    for run in runs:
        composite = composite_keys(run)
        if composite is None:
            return None
        composites.append(composite)
    lengths = [run.shape[0] for run in runs]
    starts = np.concatenate(([0], np.cumsum(lengths[:-1]))).astype(np.int64)

    # Pairwise tournament: log2 k rounds of two-way vectorized merges.
    items = [
        (composites[r], np.arange(starts[r], starts[r] + lengths[r], dtype=np.int64))
        for r in range(len(runs))
    ]
    while len(items) > 1:
        merged: list[tuple[np.ndarray, np.ndarray]] = []
        for i in range(0, len(items) - 1, 2):
            comp_a, gather_a = items[i]
            comp_b, gather_b = items[i + 1]
            merged.append(_merge_two(comp_a, gather_a, comp_b, gather_b))
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    composite, gather = items[0]
    if composite.shape[0] > 1 and bool(np.any(composite[1:] == composite[:-1])):
        return None  # full (key, id) duplicates: tree order is not ours to guess
    provenance = np.searchsorted(starts, gather, side="right") - 1
    return gather, provenance


def vectorized_merge(
    runs: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Merge sorted non-empty runs into ``(merged, provenance)``.

    ``merged`` is bit-identical to the reference loser-tree merge;
    ``provenance`` names the source run of every output element (what
    the out-of-core pipeline needs to replay the reference disk access
    pattern).  Returns ``None`` when the caller must fall back.
    """
    order = merge_order(runs)
    if order is None:
        return None
    gather, provenance = order
    merged = np.concatenate(runs)[gather]
    return merged, provenance


class VectorizedBackend(ExecutionBackend):
    """The serving tier: numpy merges with reference-identical accounting.

    Comparisons are charged by the closed form
    :func:`repro.analysis.complexity.loser_tree_merge_comparisons`,
    which equals the reference tree's counter *exactly* (the tree plays
    ``K-1`` build matches and replays precisely ``log2 K`` matches per
    emitted element regardless of the data).  Unvectorizable inputs run
    the :class:`~repro.exec.backend.ReferenceBackend` outright.
    """

    name = "vectorized"

    def merge_runs(self, runs: list[np.ndarray]) -> tuple[np.ndarray, int]:
        """Vectorized k-way merge (see :class:`ExecutionBackend`)."""
        # Late import: repro.analysis pulls in cluster reporting, which
        # imports the cluster layer, which imports this package.
        from repro.analysis.complexity import loser_tree_merge_comparisons

        live_runs = [r for r in runs if r.shape[0]]
        total = sum(r.shape[0] for r in live_runs)
        if not live_runs:
            return np.empty(0, dtype=VALUE_DTYPE), 0
        if len(live_runs) == 1:
            out = np.empty(total, dtype=VALUE_DTYPE)
            out[:] = live_runs[0]
            return out, 0
        result = vectorized_merge(live_runs)
        if result is None:
            return _REFERENCE.merge_runs(live_runs)
        merged, _provenance = result
        return merged, loser_tree_merge_comparisons(total, len(live_runs))
