"""The ``vectorized`` tier: whole-array numpy merges, reference-identical.

The trick that makes a bit-identical fast path possible is the paper's
own distinctness device: with unique (key, id) pairs the total order is
*strict*, so the sorted union of sorted runs is unique -- any correct
merge algorithm must produce the byte-for-byte reference output.  The
implementation therefore reduces the (key, id) order to one ``uint64``
composite per record and makes a k-way merge the same forcing pass as a
sort (:func:`forced_order`): one sort of the concatenated runs'
composites, with no per-element Python.

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

The same fallback triggers when the sorted composites contain
duplicates (possible only when full (key, id) pairs repeat): there the
reference output depends on the loser tree's internal structure, so the
only way to match it bit-for-bit is to run it.  Fallbacks preserve the
tier contract -- output and telemetry stay reference-identical, only the
speedup is lost.
"""

from __future__ import annotations

import numpy as np

from repro.core.values import contiguous_id_base
from repro.exec.backend import ExecutionBackend, ReferenceBackend
from repro.stream.stream import VALUE_DTYPE

__all__ = ["composite_keys", "forced_order", "vectorized_merge", "VectorizedBackend"]

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


def forced_order(values: np.ndarray) -> np.ndarray | None:
    """The one permutation that sorts ``values`` under the strict order.

    Builds the composites, sorts them, and decides whether the order is
    strict: returns ``None`` on NaN keys or duplicate (canonical key, id)
    composites, where the reference implementation must decide (a loser
    tree or a bitonic network may place equal-comparing records either
    way).  When the ids are one contiguous run ``base + arange(n)`` (the
    :func:`~repro.core.values.make_values` default) they are distinct,
    so the composites are too, and each sorted composite's low 32 bits
    -- its id -- minus ``base`` is the row it came from: a plain
    ``np.sort`` yields the permutation.  Otherwise a default-kind
    ``np.argsort`` is exact whenever the composites are unique, which
    the adjacent check then confirms.
    """
    composite = composite_keys(values)
    if composite is None:
        return None
    base = contiguous_id_base(values["id"])
    if base is not None:
        composite.sort()
        rows = composite.astype(np.uint32)  # the low 32 bits: the ids
        if base:
            rows -= np.uint32(base)
        return rows
    order = np.argsort(composite)
    ranked = composite[order]
    if ranked.shape[0] > 1 and bool(np.any(ranked[1:] == ranked[:-1])):
        return None
    return order


def vectorized_merge(
    runs: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Merge sorted non-empty runs into ``(merged, provenance)``.

    Under the strict order the merge of the runs is the sorted
    concatenation, so one :func:`forced_order` pass over it yields
    ``merged``, bit-identical to the reference loser-tree merge.
    ``provenance`` names the source run of every output element (what
    the out-of-core pipeline needs to replay the reference disk access
    pattern).  Returns ``None`` when the caller must fall back.
    """
    concatenated = np.concatenate(runs)
    order = forced_order(concatenated)
    if order is None:
        return None
    starts = np.cumsum([run.shape[0] for run in runs[:-1]])
    provenance = np.searchsorted(starts, order, side="right")
    return concatenated[order], provenance


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
