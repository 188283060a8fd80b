"""Tests for the area/energy models and the hardware configs."""

import pytest

from repro.config import DRAMConfig, TransArrayConfig, default_baseline_configs
from repro.energy import (
    AreaModel,
    EnergyBreakdown,
    EnergyParameters,
    OperationEnergyTable,
    baseline_area_report,
    sram_access_energy_pj,
    transarray_area_report,
)
from repro.errors import ConfigurationError


class TestArea:
    def test_table2_transarray_core_area(self):
        report = transarray_area_report()
        # Paper Table 2: 0.443 mm^2 for the 6-unit compute core, 480 KB buffer.
        assert report.core_mm2 == pytest.approx(0.443, rel=0.12)
        assert report.buffer_kb == 480.0

    def test_table2_baseline_core_areas(self):
        reports = baseline_area_report()
        expected = {"bitfusion": 0.491, "ant": 0.484, "olive": 0.489,
                    "bitvert": 0.473, "tender": 0.474}
        for name, value in expected.items():
            assert reports[name].core_mm2 == pytest.approx(value, rel=0.05)

    def test_transarray_core_smaller_than_all_baselines(self):
        transarray = transarray_area_report()
        assert all(transarray.core_mm2 < r.core_mm2 for r in baseline_area_report().values())

    def test_buffer_area_scales_with_capacity(self):
        model = AreaModel()
        assert model.buffer_area_mm2(1024 * 1024) > model.buffer_area_mm2(512 * 1024)
        with pytest.raises(ConfigurationError):
            AreaModel(sram_mm2_per_kb=0)


class TestEnergyModels:
    def test_multiplier_much_more_expensive_than_adder(self):
        ops = OperationEnergyTable()
        assert ops.mac_8bit_pj > 5 * ops.add_12bit_pj
        assert ops.add_energy(12) == ops.add_12bit_pj
        assert ops.mac_energy(4) == ops.mac_4bit_pj
        assert ops.mac_energy(16) == ops.mac_16bit_pj

    def test_sram_energy_scales_with_capacity_and_width(self):
        small = sram_access_energy_pj(8 * 1024, 32)
        large = sram_access_energy_pj(512 * 1024, 32)
        assert large > small
        assert sram_access_energy_pj(8 * 1024, 64) == pytest.approx(2 * small)
        with pytest.raises(ConfigurationError):
            sram_access_energy_pj(0, 32)

    def test_energy_parameters_validation(self):
        with pytest.raises(ConfigurationError):
            EnergyParameters(core_static_power_mw=-1)

    def test_breakdown_totals_and_percentages(self):
        breakdown = EnergyBreakdown(dram_static_nj=10, core_nj=30, prefix_buffer_nj=60)
        assert breakdown.total_nj == 100
        assert breakdown.buffer_nj == 60
        shares = breakdown.percentages()
        assert shares["prefix_buffer"] == pytest.approx(60.0)
        merged = breakdown.merge(breakdown).scale(0.5)
        assert merged.total_nj == pytest.approx(100)


class TestMemory:
    def test_dram_config_validation(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(bandwidth_bytes_per_cycle=0)


class TestConfig:
    def test_table1_defaults(self):
        config = TransArrayConfig()
        assert config.lanes == 8
        assert config.num_nodes == 256
        assert config.total_buffer_bytes == 80 * 1024
        assert config.weight_rows(8) == 32 and config.weight_rows(4) == 64

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TransArrayConfig(transrow_bits=0)
        with pytest.raises(ConfigurationError):
            TransArrayConfig(max_transrows=4, transrow_bits=8)
        with pytest.raises(ConfigurationError):
            TransArrayConfig(num_units=0)

    def test_baseline_registry_geometry(self):
        configs = default_baseline_configs()
        assert configs["bitfusion"].num_pes == 28 * 32
        assert configs["bitvert"].bit_sparsity == 0.5
        assert configs["tender"].buffer_bytes == 608 * 1024
