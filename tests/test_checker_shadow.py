"""Tests for the per-word shadow-memory race detector.

Covers the precision gains over the seed's covering-interval log: exact
scattered-index checking (no false positives on disjoint strided
accesses, no misses on true scattered conflicts), the three hazard
classes with dedicated messages, full provenance on the structured
record, and the escape hatches.
"""

import numpy as np
import pytest

from repro.bdm import GlobalArray, Machine
from repro.checker.shadow import Hazard, compress_ranges
from repro.machines import IDEAL
from repro.utils.errors import HazardError, ValidationError


@pytest.fixture
def machine():
    return Machine(4, IDEAL)


class TestScatteredPrecision:
    def test_disjoint_strided_writers_allowed(self, machine):
        """Regression: the seed's covering-interval check rejected this.

        Two processors write interleaved even/odd words of the same
        block: covering intervals [0,8) overlap, the actual index sets
        are disjoint.
        """
        arr = GlobalArray(machine, 8, name="A")
        with machine.phase("interleave"):
            arr.write_indices(machine.procs[1], 0, np.array([0, 2, 4, 6]), [1] * 4)
            arr.write_indices(machine.procs[2], 0, np.array([1, 3, 5, 7]), [2] * 4)
        assert np.array_equal(arr.local(0), [1, 2, 1, 2, 1, 2, 1, 2])

    def test_scattered_read_disjoint_from_scattered_write_allowed(self, machine):
        """Regression: covering [0,11) used to shadow the lone read of 5."""
        arr = GlobalArray(machine, 12, name="A")
        with machine.phase("sparse"):
            arr.write_indices(machine.procs[0], 0, np.array([0, 10]), [7, 7])
            got = arr.read_indices(machine.procs[1], 0, np.array([5]))
        assert got.tolist() == [0]

    def test_overlapping_scattered_writers_conflict(self, machine):
        arr = GlobalArray(machine, 8, name="A")
        with pytest.raises(HazardError, match="write-after-write"):
            with machine.phase("clash"):
                arr.write_indices(machine.procs[1], 0, np.array([0, 3, 6]), [1] * 3)
                arr.write_indices(machine.procs[2], 0, np.array([2, 3]), [2] * 2)

    def test_local_write_over_remote_scattered_write_detected(self, machine):
        """A true race the seed missed: local writes were never checked."""
        arr = GlobalArray(machine, 8, name="A")
        with pytest.raises(HazardError, match="write-after-write"):
            with machine.phase("clash"):
                arr.write_indices(machine.procs[1], 0, np.array([0, 2]), [1, 1])
                arr.write(machine.procs[0], 0, [9], start=2)

    def test_write_after_remote_read_detected(self, machine):
        """A true race the seed missed entirely: reads were not logged."""
        arr = GlobalArray(machine, 8, name="A")
        with pytest.raises(HazardError, match="write-after-read"):
            with machine.phase("clash"):
                arr.read_indices(machine.procs[1], 0, np.array([1, 3]))
                arr.write_indices(machine.procs[2], 0, np.array([3]), [5])

    def test_same_pid_scattered_repeats_allowed(self, machine):
        """One processor's accesses are internally ordered: no self-race."""
        arr = GlobalArray(machine, 8, name="A")
        with machine.phase("self"):
            arr.write_indices(machine.procs[1], 0, np.array([1, 3]), [4, 4])
            arr.write_indices(machine.procs[1], 0, np.array([3, 5]), [6, 6])
            arr.write(machine.procs[0], 0, [8], start=7)  # disjoint word is fine


class TestHazardClasses:
    def test_read_after_write_message(self, machine):
        arr = GlobalArray(machine, 4, name="A")
        with pytest.raises(HazardError, match="read-after-write"):
            with machine.phase("raw"):
                arr.write(machine.procs[0], 0, [1, 2, 3, 4])
                arr.read(machine.procs[1], 0)

    def test_write_after_write_not_reported_as_read(self, machine):
        """The seed called every conflict a 'remote read ... overlaps'."""
        arr = GlobalArray(machine, 4, name="A")
        with pytest.raises(HazardError) as exc:
            with machine.phase("waw"):
                arr.write(machine.procs[0], 0, [1, 2, 3, 4])
                arr.write(machine.procs[1], 0, [5, 6], start=1)
        assert "write-after-write" in str(exc.value)
        assert "read" not in str(exc.value).split("hazard")[0]

    def test_read_read_never_conflicts(self, machine):
        arr = GlobalArray(machine, 4, name="A")
        with machine.phase("rr"):
            arr.read(machine.procs[1], 0)
            arr.read(machine.procs[2], 0)
            arr.read(machine.procs[1], 0)

    def test_write_after_multiple_readers(self, machine):
        arr = GlobalArray(machine, 4, name="A")
        with pytest.raises(HazardError, match="multiple processors"):
            with machine.phase("war"):
                arr.read(machine.procs[1], 0)
                arr.read(machine.procs[2], 0)
                arr.write(machine.procs[3], 0, [9], start=0)


class TestProvenance:
    def test_structured_record(self, machine):
        arr = GlobalArray(machine, 8, name="labels")
        with pytest.raises(HazardError) as exc:
            with machine.phase("cc:m0:update"):
                arr.write(machine.procs[0], 2, [1, 2, 3, 4], start=2)
                arr.read(machine.procs[3], 2, 4, 8)
        hz = exc.value.hazard
        assert isinstance(hz, Hazard)
        assert hz.kind == "read-after-write"
        assert hz.array == "labels"
        assert hz.owner == 2
        assert hz.accessor == 3
        assert hz.others == (0,)
        assert hz.phase == "cc:m0:update"
        assert hz.ranges == ((4, 6),)  # only the overlapping words

    def test_message_carries_context(self, machine):
        arr = GlobalArray(machine, 8, name="labels")
        with pytest.raises(HazardError) as exc:
            with machine.phase("merge"):
                arr.write(machine.procs[0], 1, np.arange(8))
                arr.read(machine.procs[2], 1, 0, 4)
        msg = str(exc.value)
        assert "labels[1]" in msg
        assert "pid 2" in msg
        assert "'merge'" in msg
        assert "barrier" in msg

    def test_compress_ranges(self):
        assert compress_ranges(np.array([5])) == ((5, 6),)
        assert compress_ranges(np.array([1, 2, 3, 7, 9, 10])) == (
            (1, 4),
            (7, 8),
            (9, 11),
        )
        assert compress_ranges(np.array([], dtype=np.int64)) == ()


class TestDuplicateIndices:
    def test_duplicate_write_indices_rejected(self, machine):
        """Silent last-writer-wins is now an explicit error."""
        arr = GlobalArray(machine, 8, name="A")
        with pytest.raises(ValidationError, match="duplicate"):
            arr.write_indices(machine.procs[0], 0, np.array([1, 3, 1]), [1, 2, 3])

    def test_duplicate_read_indices_fine(self, machine):
        arr = GlobalArray(machine, 8, name="A")
        got = arr.read_indices(machine.procs[1], 0, np.array([2, 2, 5]))
        assert got.shape == (3,)


class TestEscapeHatches:
    def test_check_hazards_false_allows_scattered_race(self):
        machine = Machine(2, IDEAL, check_hazards=False)
        arr = GlobalArray(machine, 8, name="A")
        with machine.phase("racy"):
            arr.write_indices(machine.procs[0], 0, np.array([0, 3]), [1, 1])
            arr.write_indices(machine.procs[1], 0, np.array([3, 5]), [2, 2])
        assert arr.local(0)[3] == 2  # last writer wins, unchecked

    def test_outside_phase_untracked(self, machine):
        arr = GlobalArray(machine, 4, name="A")
        arr.write(machine.procs[0], 0, [1, 2, 3, 4])
        assert np.array_equal(arr.read(machine.procs[1], 0), [1, 2, 3, 4])

    def test_barrier_clears_shadow(self, machine):
        arr = GlobalArray(machine, 4, name="A")
        with machine.phase("w"):
            arr.write_indices(machine.procs[0], 0, np.array([1, 2]), [5, 6])
        with machine.phase("r"):
            got = arr.read_indices(machine.procs[1], 0, np.array([1, 2]))
        assert got.tolist() == [5, 6]

