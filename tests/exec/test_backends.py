"""The execution-tier surface: resolution, selection, and the composite order."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engines.base import SortRequest
from repro.engines.cost import request_shape
from repro.errors import ServiceError, SortInputError
from repro.exec import (
    EXEC_TIERS,
    default_tier,
    get_backend,
    resolve_tier,
    set_default_tier,
)
from repro.exec.vectorized import composite_keys
from repro.planner.planner import Planner
from repro.service.config import ServiceConfig
from repro.stream.stream import VALUE_DTYPE


def _values(keys, ids):
    out = np.empty(len(keys), dtype=VALUE_DTYPE)
    out["key"] = np.asarray(keys, dtype=np.float32)
    out["id"] = np.asarray(ids, dtype=np.uint32)
    return out


class TestTierResolution:
    def test_default_is_vectorized(self):
        assert default_tier() == "vectorized"
        assert resolve_tier(None) == "vectorized"

    def test_explicit_tiers_resolve_to_themselves(self):
        for tier in EXEC_TIERS:
            assert resolve_tier(tier) == tier
            assert get_backend(tier).name == tier

    def test_unknown_tier_rejected(self):
        with pytest.raises(SortInputError):
            resolve_tier("turbo")
        with pytest.raises(SortInputError):
            get_backend("turbo")

    def test_set_default_tier_round_trips(self):
        previous = set_default_tier("reference")
        try:
            assert previous == "vectorized"
            assert resolve_tier(None) == "reference"
            assert get_backend().name == "reference"
        finally:
            set_default_tier(previous)
        assert resolve_tier(None) == "vectorized"

    def test_set_default_tier_rejects_unknown(self):
        with pytest.raises(SortInputError):
            set_default_tier("turbo")
        assert default_tier() == "vectorized"

    def test_merge_dispatch_rejects_unknown_tier(self):
        from repro.cluster.sharded import merge_sorted_runs

        runs = [_values([0.25, 0.5], [0, 1])]
        with pytest.raises(SortInputError):
            merge_sorted_runs(runs, tier="turbo")


class TestCompositeOrder:
    def test_matches_reference_order_on_hostile_keys(self):
        keys = np.array(
            [
                -np.inf,
                np.inf,
                -0.0,
                0.0,
                1e-45,  # smallest denormal
                -1e-45,
                np.float32(np.finfo(np.float32).tiny),
                -np.float32(np.finfo(np.float32).tiny),
                1.0,
                -1.0,
                np.float32(np.finfo(np.float32).max),
            ],
            dtype=np.float32,
        )
        values = _values(keys, np.arange(len(keys)))
        composite = composite_keys(values)
        reference = np.lexsort((values["id"], values["key"]))
        assert np.array_equal(np.argsort(composite, kind="stable"), reference)

    def test_zero_signs_tie_break_by_id(self):
        values = _values([0.0, -0.0, -0.0, 0.0], [3, 0, 2, 1])
        composite = composite_keys(values)
        # -0.0 == +0.0 in the reference order: ids alone decide.
        assert list(np.argsort(composite, kind="stable")) == [1, 3, 2, 0]

    def test_nan_reports_unvectorizable(self):
        values = _values([0.5, np.nan], [0, 1])
        assert composite_keys(values) is None

    def test_matches_the_textbook_bit_transform(self, rng):
        """Random bit patterns (denormals, infinities, both zeros) give
        exactly the composite of the plain formula: zeros canonicalized
        to +0.0, negatives fully flipped, non-negatives sign-flipped."""
        bits = rng.integers(0, 1 << 32, size=1 << 16, dtype=np.uint64)
        keys = bits.astype(np.uint32).view(np.float32)
        keys = np.concatenate(
            [keys[~np.isnan(keys)], np.float32([0.0, -0.0, np.inf, -np.inf])]
        )
        ids = rng.integers(0, 1 << 32, size=keys.shape[0], dtype=np.uint64)
        values = _values(keys, ids.astype(np.uint32))
        canon = np.where(keys == 0, np.float32(0.0), keys).view(np.uint32)
        flipped = np.where(canon >> 31 == 1, ~canon, canon | np.uint32(1 << 31))
        expected = (flipped.astype(np.uint64) << np.uint64(32)) | ids
        assert np.array_equal(composite_keys(values), expected)


class TestPlannedTier:
    def test_planner_defaults_to_vectorized(self, rng):
        plan = Planner().plan(
            SortRequest(keys=rng.random(256, dtype=np.float32))
        )
        assert plan.exec_tier == "vectorized"

    def test_trace_selects_reference(self, rng):
        plan = Planner().plan(
            SortRequest(keys=rng.random(256, dtype=np.float32), trace=True)
        )
        assert plan.exec_tier == "reference"

    def test_explicit_request_tier_wins_over_trace(self, rng):
        plan = Planner().plan(
            SortRequest(
                keys=rng.random(256, dtype=np.float32),
                trace=True,
                exec_tier="vectorized",
            )
        )
        assert plan.exec_tier == "vectorized"

    def test_shapes_differing_only_in_tier_do_not_alias(self, rng):
        keys = rng.random(256, dtype=np.float32)
        shapes = {
            request_shape(SortRequest(keys=keys)),
            request_shape(SortRequest(keys=keys, trace=True)),
            request_shape(SortRequest(keys=keys, exec_tier="reference")),
        }
        assert len(shapes) == 3

    def test_explain_names_the_tier(self, rng):
        text = Planner().plan(
            SortRequest(keys=rng.random(256, dtype=np.float32))
        ).explain()
        assert "vectorized execution tier" in text

    def test_auto_sort_carries_the_planned_tier(self, rng):
        result = repro.sort(
            SortRequest(keys=rng.random(256, dtype=np.float32))
        )
        assert result.plan is not None
        assert result.plan.exec_tier == "vectorized"


class TestServiceConfigTier:
    def test_valid_tiers_accepted(self):
        for tier in (None, *EXEC_TIERS):
            assert ServiceConfig(exec_tier=tier).exec_tier == tier

    def test_unknown_tier_rejected(self):
        with pytest.raises(ServiceError):
            ServiceConfig(exec_tier="turbo")
