"""Tests for the value helpers (repro.core.values)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core.values import (
    as_key_id,
    check_unique_ids,
    contiguous_id_base,
    ids_of,
    keys_of,
    make_values,
    reference_sort,
    total_order_argsort,
    values_less,
)
from repro.errors import SortInputError
from repro.stream.stream import values_greater


class TestAccessors:
    def test_as_key_id_views(self):
        vals = make_values(np.array([1.0, 2.0], dtype=np.float32))
        keys, ids = as_key_id(vals)
        keys[0] = 9.0  # views, not copies
        assert vals["key"][0] == np.float32(9.0)
        assert keys_of(vals)[0] == np.float32(9.0)
        assert list(ids_of(vals)) == [0, 1]

    def test_as_key_id_rejects_wrong_dtype(self):
        with pytest.raises(SortInputError):
            as_key_id(np.zeros(3))


class TestTotalOrder:
    def test_argsort_breaks_ties_by_id(self):
        vals = make_values(
            np.array([1.0, 1.0, 0.5], dtype=np.float32), np.array([7, 3, 9])
        )
        order = total_order_argsort(vals)
        assert list(order) == [2, 1, 0]

    def test_reference_sort_sorted(self, rng):
        vals = make_values(rng.random(100, dtype=np.float32))
        out = reference_sort(vals)
        assert (np.diff(out["key"]) >= 0).all()

    @given(
        keys=st.lists(
            st.floats(allow_nan=False, allow_infinity=True, width=32),
            min_size=2, max_size=32,
        )
    )
    def test_less_and_greater_are_strict_duals(self, keys):
        vals = make_values(np.array(keys, dtype=np.float32))
        a, b = vals[:-1], vals[1:]
        lt = values_less(a, b)
        gt = values_greater(a, b)
        # With unique ids, exactly one of <, > holds for each pair.
        assert (lt != gt).all()

    def test_check_unique_ids(self):
        ok = make_values(np.zeros(3, dtype=np.float32))
        check_unique_ids(ok)
        bad = make_values(np.zeros(3, dtype=np.float32), np.array([1, 1, 2]))
        with pytest.raises(SortInputError):
            check_unique_ids(bad)


class TestUniqueIds:
    def test_strided_field_view(self):
        vals = make_values(np.zeros(8, dtype=np.float32), np.arange(8) // 2)
        check_unique_ids(vals[::2])  # ids 0, 1, 2, 3: a strided view
        with pytest.raises(SortInputError, match="ids must be unique"):
            check_unique_ids(vals[:4])

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single(self, n):
        check_unique_ids(make_values(np.zeros(n, dtype=np.float32)))

    @pytest.mark.parametrize(
        "ids", [[5, 5, 1, 2, 3], [1, 2, 3, 9, 9], [9, 2, 3, 4, 9]]
    )
    def test_duplicates_at_the_ends(self, ids):
        vals = make_values(np.zeros(5, dtype=np.float32), np.array(ids))
        with pytest.raises(SortInputError, match="ids must be unique"):
            check_unique_ids(vals)


class TestContiguousIdBase:
    def test_runs(self):
        assert contiguous_id_base(np.arange(5, dtype=np.uint32)) == 0
        assert contiguous_id_base(np.arange(7, 12, dtype=np.uint32)) == 7
        top = np.arange((1 << 32) - 3, 1 << 32, dtype=np.uint64)
        assert contiguous_id_base(top.astype(np.uint32)) == (1 << 32) - 3

    def test_non_runs(self):
        assert contiguous_id_base(np.empty(0, dtype=np.uint32)) is None
        assert contiguous_id_base(np.uint32([0, 2, 1, 3])) is None
        assert contiguous_id_base(np.uint32([3, 2, 1, 0])) is None
        assert contiguous_id_base(np.uint32([0, 1, 1, 3])) is None

    def test_strided_view(self):
        vals = make_values(np.zeros(6, dtype=np.float32), np.arange(6) * 2)
        assert contiguous_id_base(vals["id"]) is None
        assert contiguous_id_base(make_values(np.zeros(6))["id"][2:]) == 2


@pytest.mark.slow
class TestLargeN:
    def test_sort_2_to_16(self):
        """End-to-end smoke at 2^16 (a Table-2/3 size) in both variants."""
        from repro.workloads.generators import paper_workload
        from repro.workloads.records import verify_sort_output

        values = paper_workload(1 << 16, seed=6)
        out_opt = repro.abisort(values)
        verify_sort_output(values, out_opt)
        out_base = repro.abisort(values, repro.ABiSortConfig(optimized=False))
        assert np.array_equal(out_opt, out_base)
