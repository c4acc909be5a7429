"""Tests for the process-parallel runtime: shared memory + the shmem engine.

The process-parallel histogram and components are
:func:`repro.darray.darray_histogram` / :func:`repro.darray.darray_components`
over the ``shmem`` transport; the "serial" engine they are checked
against is the kernel registry's whole-image kernel.
"""

import os

import numpy as np
import pytest

from repro.baselines import sequential_components, sequential_histogram
from repro.darray import darray_components, darray_histogram
from repro.images import binary_test_image, darpa_like, random_greyscale
from repro.kernels import get as get_kernel
from repro.runtime import ShmArena, share_array
from repro.utils.errors import ValidationError

SHMEM = dict(transport="shmem")


class TestShareArray:
    """:func:`share_array` writes an array into a memfd of this process;
    a reader opens it by its descriptor and copies it out."""

    def test_round_trip(self):
        src = np.arange(12, dtype=np.int64).reshape(3, 4)
        desc = share_array(src)
        try:
            out = desc.read()
            assert out.dtype == src.dtype and np.array_equal(out, src)
        finally:
            os.close(desc.fd)

    def test_share_copies(self):
        src = np.arange(12).reshape(3, 4)
        desc = share_array(src)
        try:
            src[0, 0] = 99
            assert desc.read()[0, 0] == 0
        finally:
            os.close(desc.fd)

    def test_reader_sees_producer_writes(self):
        desc = share_array(np.zeros(8, dtype=np.float64))
        try:
            os.pwrite(desc.fd, np.arange(8, dtype=np.float64).tobytes(), 0)
            assert np.array_equal(desc.read(), np.arange(8))
        finally:
            os.close(desc.fd)


class TestAttachLeavesTrackerAlone:
    """Sharing never touches the resource tracker: a memfd needs no
    cleanup after a crash, so nothing registers or unregisters it."""

    def test_attach_neither_registers_nor_unregisters(self, monkeypatch):
        from multiprocessing import resource_tracker

        calls = []
        monkeypatch.setattr(
            resource_tracker, "register",
            lambda name, rtype: calls.append(("register", name)),
        )
        monkeypatch.setattr(
            resource_tracker, "unregister",
            lambda name, rtype: calls.append(("unregister", name)),
        )
        with ShmArena() as arena:
            desc = arena.mint(np.arange(8, dtype=np.int64))
            assert np.array_equal(desc.read(), np.arange(8))
            arena.release(desc.inode)
        assert calls == []


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
