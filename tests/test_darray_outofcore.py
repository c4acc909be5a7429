"""Out-of-core contract of the mmap transport.

The paper's communication structure (border-only merges, hook-based
final update) means labeling memory is bounded by the resident-tile
budget, not the image: these tests pin the enforced working set, the
spill accounting, the memmap result surface, and spill-file hygiene.
"""

import os

import numpy as np
import pytest

from repro.baselines.sequential import sequential_components
from repro.core.tiles import ProcessorGrid
from repro.darray import darray_components, darray_histogram, open_transport
from repro.images import binary_test_image
from repro.images.io import write_pgm

N = 64
P = 16  # 4x4 grid: a budget of 1 is a 16x ratio


@pytest.fixture(scope="module")
def image():
    return binary_test_image(4, N)


@pytest.fixture(scope="module")
def serial_labels(image):
    return sequential_components(image, connectivity=8)


@pytest.fixture(scope="module")
def image_path(tmp_path_factory, image):
    path = tmp_path_factory.mktemp("ooc") / "img.pgm"
    write_pgm(path, image)
    return str(path)


class TestWorkingSet:
    def test_highwater_never_exceeds_budget(self, image_path, serial_labels):
        for budget in (1, 2, 5):
            res = darray_components(
                image_path, p=P, transport="mmap", resident_tiles=budget
            )
            assert np.array_equal(np.asarray(res.labels), serial_labels)
            assert 0 < res.stats.resident_highwater <= budget

    def test_sixteen_x_ratio(self, image_path, serial_labels):
        # 16 tiles through a 1-tile budget: the image is 16x larger
        # than the enforced label working set.
        res = darray_components(
            image_path, p=P, transport="mmap", resident_tiles=1
        )
        assert np.array_equal(np.asarray(res.labels), serial_labels)
        assert res.stats.resident_highwater == 1
        assert P // res.stats.resident_highwater >= 16

    def test_spills_counted(self, image_path):
        res = darray_components(
            image_path, p=P, transport="mmap", resident_tiles=1
        )
        # Every tile spills exactly once (the last one labeled is
        # evicted when finalize loads the first) and is read back once
        # for finalize, which writes it into labels.bin, never to spill.
        assert res.stats.spill_writes == P
        assert res.stats.spill_reads == P

    def test_generous_budget_never_spills(self, image_path):
        res = darray_components(
            image_path, p=P, transport="mmap", resident_tiles=P
        )
        assert res.stats.resident_highwater == P
        assert res.stats.spill_reads == res.stats.spill_writes == 0

    def test_rejects_non_positive_budget(self, image_path):
        from repro.utils.errors import ReproError

        with pytest.raises(ReproError):
            darray_components(
                image_path, p=P, transport="mmap", resident_tiles=0
            )


class TestResultSurface:
    def test_labels_are_read_only_memmap(self, image_path):
        res = darray_components(image_path, p=P, transport="mmap")
        assert isinstance(res.labels, np.memmap)
        assert not res.labels.flags.writeable

    def test_streaming_count_matches_unique(self, image_path):
        res = darray_components(image_path, p=P, transport="mmap")
        lab = np.asarray(res.labels)
        assert res.n_components == int(np.unique(lab[lab != 0]).size)


class TestSpillHygiene:
    def test_owned_spill_dir_removed(self, image_path):
        import repro.darray.mmap_transport as mt

        created = []
        original = mt.tempfile.mkdtemp

        def spy(**kw):
            path = original(**kw)
            created.append(path)
            return path

        mt.tempfile.mkdtemp = spy
        try:
            res = darray_components(image_path, p=P, transport="mmap")
        finally:
            mt.tempfile.mkdtemp = original
        assert len(created) == 1
        # The result memmap is gone with the directory: the transport
        # owns the spill dir, so close() removed everything.
        assert not os.path.exists(created[0])
        assert res.stats.spill_writes > 0

    def test_caller_spill_dir_keeps_labels_only(self, tmp_path, image_path):
        spill = tmp_path / "spill"
        res = darray_components(
            image_path, p=P, transport="mmap", spill_dir=str(spill)
        )
        left = sorted(p.name for p in spill.iterdir())
        assert left == ["labels.bin"]  # tile shards cleaned up
        assert np.asarray(res.labels).shape == (N, N)

    def test_ndarray_input_staged_and_cleaned(self, tmp_path, image, serial_labels):
        spill = tmp_path / "spill"
        res = darray_components(
            image, p=P, transport="mmap", spill_dir=str(spill)
        )
        assert np.array_equal(np.asarray(res.labels), serial_labels)
        assert not (spill / "image.pgm").exists()

    def test_ascii_pgm_staged(self, tmp_path, image, serial_labels):
        # A non-P5 file cannot be mapped; the transport decodes and
        # stages it, and the result is still bit-identical.
        path = tmp_path / "ascii.pgm"
        write_pgm(path, image, binary=False)
        res = darray_components(str(path), p=P, transport="mmap")
        assert np.array_equal(np.asarray(res.labels), serial_labels)


class TestFailedOpen:
    """A transport that fails to open leaves nothing behind."""

    @pytest.fixture
    def created(self, monkeypatch):
        import repro.darray.mmap_transport as mt

        created = []
        original = mt.tempfile.mkdtemp

        def spy(**kw):
            path = original(**kw)
            created.append(path)
            return path

        monkeypatch.setattr(mt.tempfile, "mkdtemp", spy)
        return created

    def test_truncated_payload_removes_owned_dir(self, tmp_path, image_path, created):
        from repro.utils.errors import ValidationError

        data = open(image_path, "rb").read()
        truncated = tmp_path / "truncated.pgm"
        truncated.write_bytes(data[:-10])
        grid = ProcessorGrid(P, (N, N), strict=False)
        with pytest.raises(ValidationError, match="truncated"):
            open_transport("mmap", grid, str(truncated))
        assert len(created) == 1
        assert not os.path.exists(created[0])

    def test_shape_mismatch_removes_owned_dir(self, image, created):
        from repro.utils.errors import ValidationError

        grid = ProcessorGrid(P, (2 * N, N), strict=False)
        with pytest.raises(ValidationError, match="does not match"):
            open_transport("mmap", grid, image)
        assert len(created) == 1
        assert not os.path.exists(created[0])  # staged image.pgm included

    def test_shape_mismatch_keeps_callers_files(self, tmp_path, image, created):
        from repro.utils.errors import ValidationError

        spill = tmp_path / "spill"
        spill.mkdir()
        (spill / "notes.txt").write_text("the caller's")
        grid = ProcessorGrid(P, (2 * N, N), strict=False)
        with pytest.raises(ValidationError, match="does not match"):
            open_transport("mmap", grid, image, spill_dir=str(spill))
        assert created == []
        # Only the staged image.pgm goes; the directory and its other
        # files stay.
        assert sorted(p.name for p in spill.iterdir()) == ["notes.txt"]

    def test_mapped_source_in_spill_dir_survives_close(self, tmp_path, image):
        # A binary PGM is mapped, never staged, so close() leaves it be
        # even when it sits in the spill directory under the staging name.
        spill = tmp_path / "spill"
        spill.mkdir()
        write_pgm(spill / "image.pgm", image)
        res = darray_components(
            str(spill / "image.pgm"), p=P, transport="mmap", spill_dir=str(spill)
        )
        assert res.n_components > 0
        assert sorted(p.name for p in spill.iterdir()) == ["image.pgm", "labels.bin"]


class TestHistogramOutOfCore:
    def test_parity(self, image_path, image):
        expect = np.bincount(image.ravel(), minlength=2).astype(np.int64)
        got = darray_histogram(image_path, 2, p=P, transport="mmap")
        assert np.array_equal(got, expect)
