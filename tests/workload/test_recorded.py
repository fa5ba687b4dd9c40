"""Recorded (external) trace ingestion."""

import numpy as np
import pytest

from tests.conftest import make_vm
from repro.baselines.pri_aware import PriAwarePolicy
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine
from repro.workload.materialize import build_materialization
from repro.workload.packs import RecordedTraceSource, TracePack
from repro.workload.recorded import RecordedTraceLibrary, load_utilization_csv


@pytest.fixture
def matrix() -> np.ndarray:
    rng = np.random.default_rng(5)
    return rng.uniform(0.1, 0.9, size=(4, 120))  # 4 VMs, 4 slots of 30


@pytest.fixture
def library(matrix) -> RecordedTraceLibrary:
    return RecordedTraceLibrary(matrix, steps_per_slot=30)


class TestCsvLoading:
    def test_round_trip(self, tmp_path, matrix):
        path = tmp_path / "traces.csv"
        np.savetxt(path, matrix, delimiter=",")
        loaded = load_utilization_csv(path)
        assert np.allclose(loaded, matrix)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("0.1,0.2\n\n0.3,0.4\n")
        assert load_utilization_csv(path).shape == (2, 2)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_utilization_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("0.1,oops\n")
        with pytest.raises(ValueError, match="traces.csv:1"):
            load_utilization_csv(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("0.1,1.2\n")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            load_utilization_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no utilization"):
            load_utilization_csv(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text(
            "# recorded at DC-1, 5 s sampling\n"
            "0.1,0.2\n"
            "  # mid-file annotation\n"
            "0.3,0.4\n"
        )
        assert load_utilization_csv(path).shape == (2, 2)

    def test_out_of_range_names_file_line_column(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("# header\n0.1,0.2\n0.3,1.7\n")
        with pytest.raises(ValueError, match=r"traces\.csv:3:2: .*1\.7"):
            load_utilization_csv(path)

    def test_non_numeric_names_file_line_column(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        with pytest.raises(ValueError, match=r"traces\.csv:2:2: .*'oops'"):
            load_utilization_csv(path)

    def test_nan_rejected_as_out_of_range(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("0.1,nan\n")
        with pytest.raises(ValueError, match=r"traces\.csv:1:2"):
            load_utilization_csv(path)


class TestLibrary:
    def test_shape_properties(self, library):
        assert library.recorded_vms == 4
        assert library.recorded_slots == 4

    def test_slot_trace_matches_window(self, library, matrix):
        vm = make_vm(vm_id=1)
        assert np.array_equal(library.slot_trace(vm, 2), matrix[1, 60:90])

    def test_vm_rows_wrap(self, library, matrix):
        vm = make_vm(vm_id=5)  # 5 % 4 == 1
        assert np.array_equal(library.slot_trace(vm, 0), matrix[1, :30])

    def test_slots_wrap(self, library, matrix):
        vm = make_vm(vm_id=0)
        assert np.array_equal(
            library.slot_trace(vm, 4), library.slot_trace(vm, 0)
        )

    def test_demand_scales_cores(self, library):
        vm = make_vm(vm_id=0, cores=3.0)
        assert np.allclose(
            library.slot_demand(vm, 1), library.slot_trace(vm, 1) * 3.0
        )

    def test_demand_matrix_alignment(self, library):
        """``slot_demand_many`` rows are the stacked ``slot_demand``s."""
        # More VMs than recorded rows, so ids wrap; cores differ per VM.
        vms = [make_vm(vm_id=i, cores=1.0 + i) for i in range(6)]
        for slot in (0, 5):  # slot 5 wraps the recorded day
            matrix = library.slot_demand_many(vms, slot)
            stacked = np.stack([library.slot_demand(vm, slot) for vm in vms])
            assert matrix.shape == (6, 30)
            assert np.array_equal(matrix, stacked)

    def test_demand_matrix_empty(self, library):
        assert library.slot_demand_many([], 0).shape == (0, 30)

    def test_validation(self, matrix):
        with pytest.raises(ValueError, match="multiple"):
            RecordedTraceLibrary(matrix, steps_per_slot=50)
        with pytest.raises(ValueError, match="non-empty"):
            RecordedTraceLibrary(np.zeros((0, 0)), steps_per_slot=1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RecordedTraceLibrary(matrix * 2.0, steps_per_slot=30)


class TestWeekExtension:
    def test_extension_multiplies_length(self, library):
        week = library.extend_days(7)
        assert week.recorded_slots == 4 * 7

    def test_day_zero_preserved(self, library, matrix):
        week = library.extend_days(3)
        assert np.array_equal(week.utilization[:, :120], matrix)

    def test_same_mean_other_days(self, library):
        week = library.extend_days(5, extension_sigma=0.02, seed=3)
        day0 = week.utilization[:, :120]
        day3 = week.utilization[:, 3 * 120 : 4 * 120]
        assert day3.mean() == pytest.approx(day0.mean(), abs=0.01)
        assert not np.array_equal(day0, day3)

    def test_days_validated(self, library):
        with pytest.raises(ValueError):
            library.extend_days(0)


class TestEngineIntegration:
    def test_engine_runs_on_recorded_traces(self):
        rng = np.random.default_rng(9)
        config = scaled_config("tiny").with_horizon(4)
        recording = TracePack(
            name="recording",
            source=RecordedTraceSource(
                utilization=rng.uniform(
                    0.05, 0.95, size=(8, config.steps_per_slot * 2)
                ),
                steps_per_slot=config.steps_per_slot,
                extend_days=2,
            ),
        )
        engine = SimulationEngine(
            config,
            PriAwarePolicy(),
            materialization=build_materialization(config, recording),
        )
        result = engine.run()
        assert result.total_facility_energy_joules() > 0.0
        assert result.horizon == 4
