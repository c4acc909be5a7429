"""Tests for the process-parallel runtime: shared memory + the shmem engine.

The process-parallel histogram and components are
:func:`repro.darray.darray_histogram` / :func:`repro.darray.darray_components`
over the ``shmem`` transport; the "serial" engine they are checked
against is the kernel registry's whole-image kernel.
"""

import threading

import numpy as np
import pytest

from repro.baselines import sequential_components, sequential_histogram
from repro.darray import darray_components, darray_histogram
from repro.images import binary_test_image, darpa_like, random_greyscale
from repro.kernels import get as get_kernel
from repro.runtime import SharedNDArray
from repro.runtime.shmem import ShmDescriptor
from repro.utils.errors import ValidationError

SHMEM = dict(transport="shmem")


class TestSharedNDArray:
    def test_create_and_write(self):
        with SharedNDArray.create((4, 4), np.int64) as shm:
            shm.array[:] = 7
            assert (shm.array == 7).all()

    def test_from_array_copies(self):
        src = np.arange(12).reshape(3, 4)
        with SharedNDArray.from_array(src) as shm:
            assert np.array_equal(shm.array, src)
            src[0, 0] = 99
            assert shm.array[0, 0] == 0

    def test_attach_sees_owner_writes(self):
        owner = SharedNDArray.create((8,), np.float64)
        try:
            owner.array[:] = np.arange(8)
            desc = ShmDescriptor.for_array(owner.name, owner.array)
            other = SharedNDArray.attach_descriptor(desc)
            assert np.array_equal(other.array, np.arange(8))
            other.close()
        finally:
            owner.close()
            owner.unlink()

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SharedNDArray.create((0,), np.int64)


class TestAttachLeavesTrackerAlone:
    """Attaching never touches the resource tracker.

    Forked workers share one tracker daemon; an attach that registered
    and then unregistered let two workers attaching one shard interleave
    as REG, REG, UNREG, UNREG, and the second UNREG raised ``KeyError``
    inside the daemon.
    """

    def test_attach_neither_registers_nor_unregisters(self, monkeypatch):
        from multiprocessing import resource_tracker

        owner = SharedNDArray.create((8,), np.int64)
        try:
            desc = ShmDescriptor.for_array(owner.name, owner.array)
            calls = []
            monkeypatch.setattr(
                resource_tracker, "register",
                lambda name, rtype: calls.append(("register", name)),
            )
            monkeypatch.setattr(
                resource_tracker, "unregister",
                lambda name, rtype: calls.append(("unregister", name)),
            )
            other = SharedNDArray.attach_descriptor(desc)
            other.close()
            monkeypatch.undo()
            assert calls == []
        finally:
            owner.close()
            owner.unlink()

    def test_other_threads_still_register(self, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.runtime import shmem

        calls = []
        monkeypatch.setattr(
            resource_tracker, "register", lambda name, rtype: calls.append(name)
        )

        class SegmentWithoutTrackKeyword:
            """The Python < 3.13 ``SharedMemory`` signature and behaviour."""

            def __init__(self, name):
                creator = threading.Thread(
                    target=resource_tracker.register, args=("created", "shared_memory")
                )
                creator.start()
                creator.join()
                resource_tracker.register(name, "shared_memory")

        monkeypatch.setattr(shmem.shared_memory, "SharedMemory", SegmentWithoutTrackKeyword)
        shmem._attach_segment("attached")
        assert calls == ["created"]


class TestHistogramBackends:
    def test_serial_matches_sequential(self, small_grey):
        out = get_kernel("histogram")(small_grey, 8)
        assert np.array_equal(out, sequential_histogram(small_grey, 8))

    def test_process_matches_sequential(self, small_grey):
        out = darray_histogram(small_grey, 8, p=4, **SHMEM)
        assert np.array_equal(out, sequential_histogram(small_grey, 8))

    def test_rectangular_image(self):
        img = random_greyscale(32, 16, seed=0)[:16, :]
        out = darray_histogram(img, 16, p=2, **SHMEM)
        assert np.array_equal(out, sequential_histogram(img, 16))

    def test_level_validation(self):
        img = np.full((4, 4), 8, dtype=np.int32)
        with pytest.raises(ValidationError):
            darray_histogram(img, 8, p=4, **SHMEM)

    def test_bad_backend(self, small_grey):
        with pytest.raises(ValidationError, match="unknown transport"):
            darray_histogram(small_grey, 8, transport="gpu")


class TestComponentsBackends:
    def test_serial_matches_sequential(self, small_binary):
        out = get_kernel("tile_label")(small_binary)
        assert np.array_equal(out, sequential_components(small_binary))

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_process_binary(self, workers, small_binary):
        out = darray_components(small_binary, p=workers, **SHMEM).labels
        assert np.array_equal(out, sequential_components(small_binary))

    def test_process_grey(self):
        img = darpa_like(64, 16, seed=12)
        out = darray_components(img, grey=True, p=4, **SHMEM).labels
        assert np.array_equal(out, sequential_components(img, grey=True))

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_connectivity(self, connectivity):
        img = binary_test_image(9, 64)
        out = darray_components(img, connectivity=connectivity, p=4, **SHMEM).labels
        assert np.array_equal(
            out, sequential_components(img, connectivity=connectivity)
        )

    def test_single_tile_needs_no_merge(self, small_binary):
        out = darray_components(small_binary, p=1, **SHMEM).labels
        assert np.array_equal(out, sequential_components(small_binary))

    def test_indivisible_size_uses_balanced_tiles(self):
        """n=36 with 8 tiles: a 2x4 grid of 18x9 tiles, no fallback."""
        rng = np.random.default_rng(0)
        img = (rng.random((36, 36)) < 0.5).astype(np.int32)
        res = darray_components(img, p=8, **SHMEM)
        assert res.grid.p == 8
        assert np.array_equal(res.labels, sequential_components(img))
