"""Tests for PNM (PBM/PGM) image I/O."""

import numpy as np
import pytest

from repro.images import binary_test_image, darpa_like
from repro.images.io import pnm_info, read_pnm, write_pbm, write_pgm
from repro.utils.errors import ValidationError


class TestRoundtrips:
    @pytest.mark.parametrize("binary", [True, False])
    def test_pgm(self, tmp_path, binary):
        img = darpa_like(32, 16, seed=1)
        path = tmp_path / "img.pgm"
        write_pgm(path, img, binary=binary)
        assert np.array_equal(read_pnm(path), img)

    @pytest.mark.parametrize("binary", [True, False])
    def test_pbm(self, tmp_path, binary):
        img = binary_test_image(9, 33)  # odd width exercises bit packing
        path = tmp_path / "img.pbm"
        write_pbm(path, img, binary=binary)
        assert np.array_equal(read_pnm(path), img)

    @pytest.mark.parametrize("binary", [True, False])
    def test_pgm_full_8bit_range(self, tmp_path, binary):
        img = np.arange(256, dtype=np.int32).reshape(16, 16)
        path = tmp_path / "full.pgm"
        write_pgm(path, img, binary=binary)
        assert np.array_equal(read_pnm(path), img)

    @pytest.mark.parametrize("binary", [True, False])
    def test_pgm_all_zero(self, tmp_path, binary):
        # maxval floors at 1 even for an all-background image.
        img = np.zeros((4, 4), dtype=np.int32)
        path = tmp_path / "zero.pgm"
        write_pgm(path, img, binary=binary)
        assert np.array_equal(read_pnm(path), img)

    def test_rectangular(self, tmp_path):
        img = np.arange(12, dtype=np.int32).reshape(3, 4)
        path = tmp_path / "rect.pgm"
        write_pgm(path, img, binary=False)
        got = read_pnm(path)
        assert got.shape == (3, 4)
        assert np.array_equal(got, img)


class TestDecodedDtype:
    """Binary files decode to one byte per pixel, as stored; ASCII ones
    to int32."""

    @pytest.mark.parametrize("binary", [True, False])
    def test_pgm(self, tmp_path, binary):
        img = darpa_like(32, 256, seed=3)
        path = tmp_path / "img.pgm"
        write_pgm(path, img, binary=binary)
        got = read_pnm(path)
        assert got.dtype == (np.uint8 if binary else np.int32)
        assert np.array_equal(got, img)
        got[0, 0] = 7  # writable, unlike the mmap=True view
        assert got[0, 0] == 7

    @pytest.mark.parametrize("width", [32, 33])  # with and without row padding
    @pytest.mark.parametrize("binary", [True, False])
    def test_pbm(self, tmp_path, binary, width):
        img = binary_test_image(9, width)
        path = tmp_path / "img.pbm"
        write_pbm(path, img, binary=binary)
        got = read_pnm(path)
        assert got.dtype == (np.uint8 if binary else np.int32)
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got, img)


class TestParsing:
    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# a comment\n2 2 # trailing\n255\n1 2\n3 4\n")
        assert np.array_equal(read_pnm(path), [[1, 2], [3, 4]])

    def test_p1_digits_run_together(self, tmp_path):
        path = tmp_path / "d.pbm"
        path.write_text("P1\n4 2\n0110\n1001\n")
        assert np.array_equal(read_pnm(path), [[0, 1, 1, 0], [1, 0, 0, 1]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValidationError):
            read_pnm(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2\n4")
        with pytest.raises(ValidationError):
            read_pnm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "t2.pgm"
        path.write_text("P2\n3 3\n255\n1 2 3\n")
        with pytest.raises(ValidationError):
            read_pnm(path)

    def test_bad_dimensions(self, tmp_path):
        path = tmp_path / "z.pgm"
        path.write_text("P2\n0 3\n255\n")
        with pytest.raises(ValidationError):
            read_pnm(path)

    @pytest.mark.parametrize("maxval", [256, 65535, 70000])
    def test_maxval_too_deep(self, tmp_path, maxval):
        path = tmp_path / "deep.pgm"
        path.write_text(f"P2\n2 2\n{maxval}\n1 2\n3 4\n")
        with pytest.raises(ValidationError, match="maxval"):
            read_pnm(path)

    @pytest.mark.parametrize("maxval", [0, -1])
    def test_maxval_non_positive(self, tmp_path, maxval):
        path = tmp_path / "np.pgm"
        path.write_text(f"P2\n2 2\n{maxval}\n1 2\n3 4\n")
        with pytest.raises(ValidationError, match="maxval"):
            read_pnm(path)

    def test_maxval_not_an_integer(self, tmp_path):
        path = tmp_path / "nan.pgm"
        path.write_text("P2\n2 2\nxyz\n1 2\n3 4\n")
        with pytest.raises(ValidationError, match="maxval"):
            read_pnm(path)


class TestWriterValidation:
    def test_pbm_rejects_grey(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pbm(tmp_path / "x.pbm", np.full((2, 2), 5, dtype=np.int32))

    @pytest.mark.parametrize("value", [256, 70000])
    def test_pgm_rejects_too_deep(self, tmp_path, value):
        # The writer and reader agree on the 8-bit boundary: anything the
        # writer refuses here, the reader would refuse too.
        with pytest.raises(ValidationError):
            write_pgm(tmp_path / "x.pgm", np.full((2, 2), value, dtype=np.int64))

    def test_pgm_rejects_negative(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pgm(tmp_path / "x.pgm", np.full((2, 2), -1, dtype=np.int32))


class TestPnmInfo:
    """Header-only probe: never touches pixel data."""

    def test_p5(self, tmp_path):
        img = darpa_like(32, 16, seed=2)
        path = tmp_path / "a.pgm"
        write_pgm(path, img, binary=True)
        info = pnm_info(path)
        assert (info.magic, info.shape) == ("P5", (32, 32))
        assert info.binary
        assert info.payload_bytes == 32 * 32
        assert info.maxval == int(img.max())

    def test_p2(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm(path, np.arange(12).reshape(3, 4), binary=False)
        info = pnm_info(path)
        assert (info.magic, info.shape) == ("P2", (3, 4))
        assert not info.binary
        assert info.payload_bytes is None

    def test_p4_row_padding(self, tmp_path):
        img = binary_test_image(9, 33)
        path = tmp_path / "a.pbm"
        write_pbm(path, img, binary=True)
        info = pnm_info(path)
        assert (info.magic, info.shape) == ("P4", (33, 33))
        assert info.payload_bytes == 5 * 33  # ceil(33/8) bytes per row

    def test_p1(self, tmp_path):
        path = tmp_path / "a.pbm"
        write_pbm(path, np.eye(4, dtype=np.int32), binary=False)
        info = pnm_info(path)
        assert (info.magic, info.shape, info.maxval) == ("P1", (4, 4), 1)

    def test_offset_points_at_payload(self, tmp_path):
        img = darpa_like(16, 16, seed=0)
        path = tmp_path / "a.pgm"
        write_pgm(path, img, binary=True)
        info = pnm_info(path)
        raw = path.read_bytes()[info.data_offset :]
        assert np.array_equal(
            np.frombuffer(raw, dtype=np.uint8).reshape(16, 16), img
        )

    def test_reads_header_only(self, tmp_path):
        # A header followed by a payload-sized hole: the probe must not
        # care that the pixels are missing.
        path = tmp_path / "hollow.pgm"
        path.write_bytes(b"P5\n100 100\n255\n")
        info = pnm_info(path)
        assert info.shape == (100, 100)


class TestPayloadValidation:
    """read_pnm rejects files whose payload size disagrees with the header."""

    def _p5(self, tmp_path, payload: bytes) -> str:
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + payload)
        return str(path)

    def test_p5_truncated(self, tmp_path):
        with pytest.raises(ValidationError, match="truncated P5 payload"):
            read_pnm(self._p5(tmp_path, b"\x01" * 15))

    def test_p5_oversized(self, tmp_path):
        with pytest.raises(ValidationError, match="oversized P5 payload"):
            read_pnm(self._p5(tmp_path, b"\x01" * 17))

    def test_p5_exact_passes(self, tmp_path):
        img = read_pnm(self._p5(tmp_path, bytes(range(16))))
        assert np.array_equal(img.ravel(), np.arange(16))

    def test_p4_truncated(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P4\n16 4\n" + b"\xff" * 7)  # needs 8 bytes
        with pytest.raises(ValidationError, match="truncated P4 payload"):
            read_pnm(path)

    def test_p4_oversized(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P4\n16 4\n" + b"\xff" * 9)
        with pytest.raises(ValidationError, match="oversized P4 payload"):
            read_pnm(path)

    def test_p2_truncated(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n4 4\n255\n" + " ".join(["7"] * 15) + "\n")
        with pytest.raises(ValidationError, match="truncated P2 payload"):
            read_pnm(path)

    def test_p2_oversized(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n4 4\n255\n" + " ".join(["7"] * 17) + "\n")
        with pytest.raises(ValidationError, match="oversized P2 payload"):
            read_pnm(path)

    def test_p1_truncated(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_text("P1\n4 4\n" + "0110" * 3 + "\n")
        with pytest.raises(ValidationError, match="truncated P1 payload"):
            read_pnm(path)

    def test_p1_oversized(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_text("P1\n4 4\n" + "0110" * 5 + "\n")
        with pytest.raises(ValidationError, match="oversized P1 payload"):
            read_pnm(path)


class TestMmapIngestion:
    def test_parity_with_regular_read(self, tmp_path):
        img = darpa_like(48, 256, seed=4)
        path = tmp_path / "a.pgm"
        write_pgm(path, img, binary=True)
        mapped = read_pnm(path, mmap=True)
        assert isinstance(mapped, np.memmap)
        assert mapped.dtype == np.uint8
        assert np.array_equal(np.asarray(mapped, dtype=np.int32), read_pnm(path))

    def test_read_only(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm(path, np.ones((4, 4), dtype=np.int32), binary=True)
        mapped = read_pnm(path, mmap=True)
        with pytest.raises((ValueError, TypeError)):
            mapped[0, 0] = 3

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm(path, np.ones((4, 4), dtype=np.int32), binary=False)
        with pytest.raises(ValidationError, match="requires a binary PGM"):
            read_pnm(path, mmap=True)

    def test_rejects_pbm(self, tmp_path):
        path = tmp_path / "a.pbm"
        write_pbm(path, np.eye(4, dtype=np.int32), binary=True)
        with pytest.raises(ValidationError, match="requires a binary PGM"):
            read_pnm(path, mmap=True)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n8 8\n255\n" + b"\x01" * 63)
        with pytest.raises(ValidationError, match="truncated P5 payload"):
            read_pnm(path, mmap=True)
