"""Tests for the hardware cost model (repro.stream.gpu_model)."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.stream.context import StreamOpRecord
from repro.stream.gpu_model import (
    AGP_SYSTEM,
    GEFORCE_6800_ULTRA,
    GEFORCE_7800_GTX,
    PCIE_SYSTEM,
    GPUModel,
    cpu_sort_time_ms,
    estimate_gpu_time_ms,
    transfer_round_trip_ms,
)
from repro.stream.mapping2d import RowWiseMapping, ZOrderMapping


def op(
    name="k", instances=1000, rb=0, wb=0, gb=0,
    in_blocks=None, out_blocks=None, tag="",
) -> StreamOpRecord:
    return StreamOpRecord(
        index=0, kind="kernel", name=name, instances=instances,
        linear_read_elems=rb // 8, linear_read_bytes=rb,
        linear_write_elems=wb // 8, linear_write_bytes=wb,
        gather_elems=gb // 8, gather_bytes=gb,
        output_blocks=tuple(out_blocks or ()),
        input_blocks=tuple(in_blocks or ()),
        tag=tag,
    )


class TestGPUModel:
    def test_presets_sane(self):
        assert GEFORCE_6800_ULTRA.fragment_units == 16
        assert GEFORCE_7800_GTX.fragment_units == 24
        assert GEFORCE_7800_GTX.mem_bandwidth_gb_s > GEFORCE_6800_ULTRA.mem_bandwidth_gb_s

    def test_with_units(self):
        g = GEFORCE_6800_ULTRA.with_units(32)
        assert g.fragment_units == 32
        assert g.core_clock_mhz == GEFORCE_6800_ULTRA.core_clock_mhz
        assert "32u" in g.name

    def test_invalid_configs(self):
        with pytest.raises(ModelError):
            GPUModel("x", 0, 100, 10, 1)
        with pytest.raises(ModelError):
            GPUModel("x", 8, -1, 10, 1)
        with pytest.raises(ModelError):
            GPUModel("x", 8, 100, 10, 1, tiled_read_efficiency=1.5)

    def test_cycles_lookup_falls_back(self):
        assert GEFORCE_6800_ULTRA.cycles_for("nonexistent_kernel") == (
            GEFORCE_6800_ULTRA.default_cycles
        )


class TestCostModel:
    def test_overhead_only(self):
        """A zero-work op costs exactly the per-op overhead."""
        cost = estimate_gpu_time_ms([op(instances=1)], GEFORCE_6800_ULTRA)
        assert cost.total_ms == pytest.approx(
            GEFORCE_6800_ULTRA.stream_op_overhead_us / 1000, rel=0.05
        )
        assert cost.ops == 1

    def test_compute_scales_inverse_with_units(self):
        big = op(instances=10_000_000)
        t16 = estimate_gpu_time_ms([big], GEFORCE_6800_ULTRA).total_ms
        t32 = estimate_gpu_time_ms([big], GEFORCE_6800_ULTRA.with_units(32)).total_ms
        assert t16 / t32 == pytest.approx(2.0, rel=0.05)

    def test_memory_bound_op_uses_bandwidth(self):
        # 1 GB written, negligible compute.
        o = op(instances=1, wb=10**9)
        cost = estimate_gpu_time_ms([o], GEFORCE_6800_ULTRA)
        expected_ms = 10**9 / (35.2e9) * 1e3
        assert cost.total_ms == pytest.approx(expected_ms, rel=0.05)
        assert cost.bound == "memory"

    def test_max_of_compute_and_memory(self):
        """The model overlaps compute and memory (takes the max)."""
        o = op(instances=10_000_000, wb=10**9)
        both = estimate_gpu_time_ms([o], GEFORCE_6800_ULTRA)
        comp_only = estimate_gpu_time_ms([op(instances=10_000_000)], GEFORCE_6800_ULTRA)
        mem_only = estimate_gpu_time_ms([op(instances=1, wb=10**9)], GEFORCE_6800_ULTRA)
        assert both.total_ms == pytest.approx(
            max(comp_only.total_ms, mem_only.total_ms), rel=0.05
        )

    def test_mapping_changes_read_cost(self):
        """A small linear-read block is cheap under Z-order, expensive
        row-wise -- the Table-2 (a)/(b) mechanism."""
        blocks = [("s", [(0, 64)])]
        o = op(instances=1, rb=10**8, in_blocks=blocks)
        t_row = estimate_gpu_time_ms([o], GEFORCE_6800_ULTRA, RowWiseMapping(2048)).total_ms
        t_z = estimate_gpu_time_ms([o], GEFORCE_6800_ULTRA, ZOrderMapping()).total_ms
        assert t_row > 4 * t_z

    def test_fixed_efficiency_overrides_mapping(self):
        blocks = [("s", [(0, 64)])]
        o = op(instances=1, rb=10**8, in_blocks=blocks)
        t = estimate_gpu_time_ms([o], GEFORCE_6800_ULTRA, fixed_read_efficiency=1.0).total_ms
        t_half = estimate_gpu_time_ms([o], GEFORCE_6800_ULTRA, fixed_read_efficiency=0.5).total_ms
        assert t_half == pytest.approx(2 * t, rel=0.05)

    def test_gathers_cost_more_than_linear_reads(self):
        lin = op(instances=1, rb=10**8)
        gat = op(instances=1, gb=10**8)
        t_lin = estimate_gpu_time_ms([lin], GEFORCE_6800_ULTRA, ZOrderMapping()).total_ms
        t_gat = estimate_gpu_time_ms([gat], GEFORCE_6800_ULTRA, ZOrderMapping()).total_ms
        assert t_gat > 3 * t_lin

    def test_by_tag_accumulates(self):
        ops = [op(tag="a"), op(tag="b")]
        cost = estimate_gpu_time_ms(ops, GEFORCE_7800_GTX)
        assert set(cost.by_tag) == {"a", "b"}
        assert sum(cost.by_tag.values()) == pytest.approx(cost.total_ms)


class TestHostModels:
    def test_cpu_time_linear_in_ops(self):
        assert cpu_sort_time_ms(2_000_000, AGP_SYSTEM) == pytest.approx(
            2 * cpu_sort_time_ms(1_000_000, AGP_SYSTEM)
        )

    def test_cpu_time_rejects_negative(self):
        with pytest.raises(ModelError):
            cpu_sort_time_ms(-1, AGP_SYSTEM)

    def test_paper_transfer_calibration(self):
        assert transfer_round_trip_ms(1 << 20, AGP_SYSTEM) == pytest.approx(100, rel=0.05)
        assert transfer_round_trip_ms(1 << 20, PCIE_SYSTEM) == pytest.approx(20, rel=0.05)

    def test_pcie_cpu_faster(self):
        assert PCIE_SYSTEM.cpu_op_ns < AGP_SYSTEM.cpu_op_ns
