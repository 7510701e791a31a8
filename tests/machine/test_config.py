"""Unit tests for machine configurations (Table 1)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.machine.config import (
    EXTENDED_MAX_CELLS,
    MEGABYTE,
    PEAK_MFLOPS_PER_CELL,
    MachineConfig,
)


class TestOfficialConfigs:
    def test_smallest_machine(self):
        cfg = MachineConfig.official(4)
        assert cfg.system_performance_gflops == pytest.approx(0.2)

    def test_largest_machine(self):
        cfg = MachineConfig.official(1024, memory_per_cell=64 * MEGABYTE)
        assert cfg.system_performance_gflops == pytest.approx(51.2)

    def test_peak_per_cell_is_50_mflops(self):
        assert MachineConfig.official(4).peak_mflops_per_cell == \
            PEAK_MFLOPS_PER_CELL == 50.0

    def test_cell_count_range_enforced(self):
        with pytest.raises(ConfigurationError):
            MachineConfig.official(2)
        with pytest.raises(ConfigurationError):
            MachineConfig.official(2048)

    def test_memory_options_enforced(self):
        with pytest.raises(ConfigurationError):
            MachineConfig.official(64, memory_per_cell=32 * MEGABYTE)

    def test_official_memory_options_ok(self):
        for mem in (16 * MEGABYTE, 64 * MEGABYTE):
            assert MachineConfig.official(16, memory_per_cell=mem)


class TestExtendedConfigs:
    """The extended=True escape hatch: 4096 cells for the weak-scaling
    study (``repro bench weak``), every other strict check intact."""

    def test_oversized_strict_config_names_the_escape_hatch(self):
        with pytest.raises(ConfigurationError,
                           match="pass extended=True.*weak-scaling study"):
            MachineConfig(num_cells=2048, allow_nonstandard=False)

    def test_extended_lifts_ceiling_to_4096(self):
        cfg = MachineConfig(num_cells=EXTENDED_MAX_CELLS,
                            allow_nonstandard=False, extended=True)
        assert cfg.num_cells == 4096

    def test_extended_ceiling_still_enforced(self):
        with pytest.raises(ConfigurationError) as excinfo:
            MachineConfig(num_cells=8192, allow_nonstandard=False,
                          extended=True)
        # No self-referential hint once the hatch is already open.
        assert "pass extended=True" not in str(excinfo.value)

    def test_extended_keeps_other_strict_checks(self):
        with pytest.raises(ConfigurationError, match="16 or 64 MB"):
            MachineConfig(num_cells=2048, allow_nonstandard=False,
                          extended=True,
                          memory_per_cell=32 * MEGABYTE)

    def test_official_presets_stay_within_table1(self):
        with pytest.raises(ConfigurationError):
            MachineConfig.official(2048)


class TestNonstandardConfigs:
    def test_small_test_machines_allowed_by_default(self):
        cfg = MachineConfig(num_cells=2, memory_per_cell=1 << 20)
        assert cfg.num_cells == 2

    def test_at_least_one_cell(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cells=0)

    def test_tiny_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cells=4, memory_per_cell=100)

    def test_cache_is_36k(self):
        assert MachineConfig().cache_bytes == 36 * 1024


class TestScheduler:
    @pytest.mark.parametrize("scheduler", ("sharded", "bogus"))
    def test_unknown_scheduler_rejected(self, scheduler):
        with pytest.raises(ConfigurationError) as excinfo:
            MachineConfig(scheduler=scheduler)
        message = str(excinfo.value)
        assert repr(scheduler) in message
        assert "'batched'" in message and "'reference'" in message
