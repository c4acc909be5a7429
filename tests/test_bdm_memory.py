"""Tests for GlobalArray: access semantics, charging, hazard detection."""

import numpy as np
import pytest

from repro.bdm import GlobalArray, Machine
from repro.machines import CM5, IDEAL
from repro.utils.errors import HazardError, ValidationError


@pytest.fixture
def machine():
    return Machine(4, IDEAL)


class TestStructure:
    def test_uniform_lengths(self, machine):
        arr = GlobalArray(machine, 10)
        assert arr.p == 4
        assert all(arr.block_length(i) == 10 for i in range(4))
        assert arr.total_length() == 40

    def test_per_proc_lengths(self, machine):
        arr = GlobalArray(machine, [1, 0, 3, 2])
        assert [arr.block_length(i) for i in range(4)] == [1, 0, 3, 2]

    def test_length_count_mismatch(self, machine):
        with pytest.raises(ValidationError):
            GlobalArray(machine, [1, 2])

    def test_negative_length(self, machine):
        with pytest.raises(ValidationError):
            GlobalArray(machine, [1, -1, 2, 3])

    def test_initial_zeros(self, machine):
        arr = GlobalArray(machine, 5)
        assert not arr.local(2).any()


class TestReadWrite:
    def test_roundtrip_local(self, machine):
        arr = GlobalArray(machine, 4)
        proc = machine.procs[1]
        arr.write(proc, 1, [5, 6, 7, 8])
        assert np.array_equal(arr.read(proc, 1), [5, 6, 7, 8])

    def test_read_returns_copy(self, machine):
        arr = GlobalArray(machine, 4)
        proc = machine.procs[0]
        arr.write(proc, 0, [1, 2, 3, 4])
        got = arr.read(proc, 0)
        got[:] = 0
        assert np.array_equal(arr.read(proc, 0), [1, 2, 3, 4])

    def test_partial_write_offset(self, machine):
        arr = GlobalArray(machine, 6)
        proc = machine.procs[0]
        arr.write(proc, 0, [9, 9], start=2)
        assert np.array_equal(arr.local(0), [0, 0, 9, 9, 0, 0])

    def test_out_of_bounds(self, machine):
        arr = GlobalArray(machine, 4)
        proc = machine.procs[0]
        with pytest.raises(ValidationError):
            arr.read(proc, 0, 2, 6)
        with pytest.raises(ValidationError):
            arr.write(proc, 0, [1, 2, 3], start=2)
        with pytest.raises(ValidationError):
            arr.read(proc, 7)

    def test_local_view_is_readonly(self, machine):
        arr = GlobalArray(machine, 4)
        view = arr.local(0)
        with pytest.raises(ValueError):
            view[0] = 1

    def test_read_indices(self, machine):
        arr = GlobalArray(machine, 6)
        proc = machine.procs[0]
        arr.write(proc, 2, np.arange(6))
        got = arr.read_indices(proc, 2, np.array([0, 2, 5]))
        assert np.array_equal(got, [0, 2, 5])

    def test_write_indices(self, machine):
        arr = GlobalArray(machine, 6)
        proc = machine.procs[0]
        arr.write_indices(proc, 0, np.array([1, 3]), [7, 8])
        assert np.array_equal(arr.local(0), [0, 7, 0, 8, 0, 0])

    def test_write_indices_shape_mismatch(self, machine):
        arr = GlobalArray(machine, 6)
        with pytest.raises(ValidationError):
            arr.write_indices(machine.procs[0], 0, np.array([1, 3]), [7])


class TestCharging:
    def test_local_access_free(self):
        machine = Machine(4, CM5)
        arr = GlobalArray(machine, 8)
        proc = machine.procs[0]
        with machine.phase("x"):
            arr.write(proc, 0, np.arange(8))
            arr.read(proc, 0)
        assert proc.cost.comm_s == 0.0
        assert proc.cost.words_moved == 0

    def test_remote_read_charges_reader_and_server(self):
        machine = Machine(4, CM5)
        arr = GlobalArray(machine, 8)
        reader = machine.procs[1]
        with machine.phase("x"):
            arr.read(reader, 0)
        assert reader.cost.comm_s == pytest.approx(CM5.latency_s + 8 * CM5.word_time_s())
        assert reader.cost.words_moved == 8
        # Owner's send port was occupied (no latency on its side).
        owner = machine.procs[0]
        assert owner.cost.serve_s == pytest.approx(8 * CM5.word_time_s())
        assert owner.cost.words_served == 8

    def test_batched_reads_single_latency(self):
        machine = Machine(4, CM5)
        arr = GlobalArray(machine, 8)
        proc = machine.procs[0]
        with machine.phase("x"):
            with proc.prefetch_batch():
                arr.read(proc, 1)
                arr.read(proc, 2)
                arr.read(proc, 3)
        expected = CM5.latency_s + 24 * CM5.word_time_s()
        assert proc.cost.comm_s == pytest.approx(expected)
        assert proc.cost.messages == 1

    def test_unbatched_reads_pay_latency_each(self):
        machine = Machine(4, CM5)
        arr = GlobalArray(machine, 8)
        proc = machine.procs[0]
        with machine.phase("x"):
            arr.read(proc, 1)
            arr.read(proc, 2)
        assert proc.cost.messages == 2

    def test_read_indices_charges_word_count(self):
        machine = Machine(4, CM5)
        arr = GlobalArray(machine, 100)
        proc = machine.procs[1]
        with machine.phase("x"):
            arr.read_indices(proc, 0, np.array([0, 50, 99]))
        assert proc.cost.words_moved == 3


class TestHazards:
    def test_same_phase_remote_read_after_write(self):
        machine = Machine(2, IDEAL, check_hazards=True)
        arr = GlobalArray(machine, 4)
        with pytest.raises(HazardError):
            with machine.phase("bad"):
                arr.write(machine.procs[0], 0, [1, 2, 3, 4])
                arr.read(machine.procs[1], 0)

    def test_disjoint_ranges_allowed(self, machine):
        arr = GlobalArray(machine, 8)
        with machine.phase("ok"):
            arr.write(machine.procs[0], 0, [1, 2], start=0)
            got = arr.read(machine.procs[1], 0, 4, 8)
        assert np.array_equal(got, [0, 0, 0, 0])

    def test_barrier_clears_hazard(self, machine):
        arr = GlobalArray(machine, 4)
        with machine.phase("write"):
            arr.write(machine.procs[0], 0, [1, 2, 3, 4])
        with machine.phase("read"):
            got = arr.read(machine.procs[1], 0)
        assert np.array_equal(got, [1, 2, 3, 4])

    def test_checker_can_be_disabled(self):
        machine = Machine(2, IDEAL, check_hazards=False)
        arr = GlobalArray(machine, 4)
        with machine.phase("racy"):
            arr.write(machine.procs[0], 0, [1, 2, 3, 4])
            got = arr.read(machine.procs[1], 0)
        assert np.array_equal(got, [1, 2, 3, 4])

    def test_own_writes_visible_same_phase(self, machine):
        arr = GlobalArray(machine, 4)
        with machine.phase("local"):
            arr.write(machine.procs[0], 0, [1, 2, 3, 4])
            got = arr.read(machine.procs[0], 0)
        assert np.array_equal(got, [1, 2, 3, 4])

    def test_remote_write_then_write_conflict(self, machine):
        arr = GlobalArray(machine, 4)
        with pytest.raises(HazardError):
            with machine.phase("bad"):
                arr.write(machine.procs[0], 0, [1, 2, 3, 4])
                arr.write(machine.procs[1], 0, [5, 6], start=1)


class TestBulkHelpers:
    def test_scatter_gather_roundtrip(self, machine):
        arr = GlobalArray(machine, 3)
        mat = np.arange(12).reshape(4, 3)
        arr.scatter_rows(mat)
        assert np.array_equal(arr.gather_rows(), mat)

    def test_scatter_shape_check(self, machine):
        arr = GlobalArray(machine, 3)
        with pytest.raises(ValidationError):
            arr.scatter_rows(np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            arr.scatter_rows(np.zeros((4, 2)))

    def test_gather_requires_equal_lengths(self, machine):
        arr = GlobalArray(machine, [1, 2, 3, 4])
        with pytest.raises(ValidationError):
            arr.gather_rows()

    def test_place_unequal_blocks(self, machine):
        values = [[1], [2, 3], [], [4, 5, 6]]
        arr = GlobalArray(machine, [len(v) for v in values])
        for pid, v in enumerate(values):
            arr.place(pid, v)
        assert np.array_equal(arr.local(3), [4, 5, 6])
        assert machine.report().phases == []  # placement is free
        with pytest.raises(ValidationError):
            arr.place(1, [7])
