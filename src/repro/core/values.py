"""Value/pointer pairs and their total order.

The paper sorts arrays of value/pointer pairs (Section 8): a 32-bit floating
point sort key plus a unique 32-bit id that doubles as (a) the pointer to the
record being sorted and (b) the *secondary sort key* that makes all elements
distinct -- adaptive bitonic sorting requires distinct elements (Section 4),
and "since we can assume (without loss of generality) that all pointers in
the given array are unique, we can use these pointers at the same time as
secondary sort keys".

This module provides helpers around the ``VALUE_DTYPE`` structured arrays
defined in :mod:`repro.stream.stream` plus a NumPy-native reference ordering
(:func:`total_order_argsort`) used to verify every sorter in the test suite.

It is also the canonical re-export point for :func:`make_values` (defined
next to ``VALUE_DTYPE`` in :mod:`repro.stream.stream`): ``repro.make_values``
and every user-facing module import it from here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SortInputError
from repro.stream.stream import VALUE_DTYPE, make_values, values_greater

__all__ = [
    "as_key_id",
    "keys_of",
    "ids_of",
    "make_values",
    "values_greater",
    "values_less",
    "total_order_argsort",
    "reference_sort",
    "check_unique_ids",
    "contiguous_id_base",
]


def as_key_id(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpack a ``VALUE_DTYPE`` array into ``(keys, ids)`` views."""
    if values.dtype != VALUE_DTYPE:
        raise SortInputError(f"expected VALUE_DTYPE array, got {values.dtype}")
    return values["key"], values["id"]


def keys_of(values: np.ndarray) -> np.ndarray:
    """The primary-sort-key view of a value array."""
    return values["key"]


def ids_of(values: np.ndarray) -> np.ndarray:
    """The id / record-pointer view of a value array."""
    return values["id"]


def values_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorised ``a < b`` under the (key, id) total order."""
    ak, bk = a["key"], b["key"]
    return (ak < bk) | ((ak == bk) & (a["id"] < b["id"]))


def total_order_argsort(values: np.ndarray) -> np.ndarray:
    """Indices that sort ``values`` by (key, id) -- the reference order.

    ``np.lexsort`` with the id as tiebreak realises exactly the paper's
    ``operator>`` order; every sorter in this repository must agree with it.
    """
    return np.lexsort((values["id"], values["key"]))


def reference_sort(values: np.ndarray) -> np.ndarray:
    """The reference-sorted copy of ``values`` (ascending (key, id))."""
    return values[total_order_argsort(values)]


def check_unique_ids(values: np.ndarray) -> None:
    """Raise :class:`SortInputError` unless all ids are distinct.

    Distinct ids are what guarantees the total order (and thereby the unique
    ``j*`` of the bitonic-merge binary search, Section 4.1).
    """
    # A sorted copy plus one adjacent comparison: far cheaper than
    # np.unique (which also builds the deduplicated array) at 2^20 ids.
    ids = np.sort(values["id"])
    if ids.shape[0] > 1 and bool((ids[1:] == ids[:-1]).any()):
        raise SortInputError(
            "value ids must be unique: they serve as the secondary sort key "
            "that makes all elements distinct (paper Sections 4 and 8)"
        )


def contiguous_id_base(ids: np.ndarray) -> int | None:
    """``base`` if ``ids`` is exactly ``base + arange(n)``, else ``None``.

    The default ids of :func:`make_values` (positions ``0..n-1``) and a
    store's ingest ids are such runs; they are unique by construction,
    so callers may skip :func:`check_unique_ids` and read a sort
    permutation straight off the ids.  ``None`` for empty input.
    """
    n = ids.shape[0]
    if n == 0:
        return None
    base = int(ids[0])
    if base + n > 1 << 32 or int(ids[-1]) != base + n - 1:
        return None
    if not np.array_equal(ids, np.arange(base, base + n, dtype=ids.dtype)):
        return None
    return base
