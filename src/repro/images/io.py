"""Portable anymap (PNM) image I/O: PBM and PGM, ASCII and binary.

The DARPA benchmark image and most early-90s vision datasets ship as
PGM; this dependency-free reader/writer lets users run the library on
real files.  Supported formats:

* ``P1``/``P4`` -- PBM bitmaps (read as 0/1 images; note PBM's "1 =
  black" is mapped to foreground 1);
* ``P2``/``P5`` -- PGM greymaps, 8-bit (``0 < maxval <= 255``).

Deeper-than-8-bit greymaps are rejected on both read and write: the
engines' grey-level pipeline is defined over <= 256 levels, and a file
the writer can produce must always be one the reader accepts.

Three entry points:

* :func:`pnm_info` -- a header-only probe (magic, dimensions, maxval,
  payload offset) that never touches pixel data, so callers can size
  buffers and pick a grid before committing to a read;
* :func:`read_pnm` -- the full reader.  Payload size is validated
  against the header: a truncated *or* padded file raises a typed
  :class:`~repro.utils.errors.ValidationError` instead of silently
  mis-shaping (truncation) or dropping bytes (padding);
* ``read_pnm(path, mmap=True)`` -- streaming ingestion for binary PGM
  (``P5``): returns a read-only ``numpy.memmap`` over the payload, so
  a gigapixel image costs address space, not RAM.  This is what the
  :mod:`repro.darray` out-of-core transport feeds on.

.. note:: **Compatibility break in 1.1.0.** Version 1.0.0 read and
   wrote 16-bit PGMs (``maxval`` up to 65535, big-endian samples).
   Those files never worked with the histogram/components pipeline
   (which requires < 256 grey levels), so 1.1.0 rejects them at the
   format layer with a clear :class:`ValidationError` instead of
   letting them fail deeper in the stack.  A 16-bit PGM written by
   1.0.0's ``write_pgm`` must be requantized to 8 bits (e.g. with
   ``pamdepth``/``convert``) before 1.1.0 can read it.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ValidationError
from repro.utils.validation import check_image

#: How much of a file the header probe reads; PNM headers are a few
#: dozen bytes plus comments, so this is generous.
_HEADER_PROBE_BYTES = 64 << 10


def _read_tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    pos = 0
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            start = pos
            while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
                pos += 1
            yield data[start:pos], pos


@dataclass(frozen=True)
class PnmInfo:
    """Header facts of a PNM file, as :func:`pnm_info` probes them.

    ``data_offset`` is the byte offset of the first payload byte for the
    binary formats (``P4``/``P5``: one whitespace past the last header
    token); for the ASCII formats it marks where the sample tokens
    begin.  ``payload_bytes`` is the exact payload size the header
    implies for a binary file (``None`` for ASCII, whose payload size
    depends on formatting).
    """

    magic: str
    width: int
    height: int
    maxval: int
    data_offset: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.height, self.width

    @property
    def binary(self) -> bool:
        return self.magic in ("P4", "P5")

    @property
    def payload_bytes(self) -> int | None:
        if self.magic == "P5":
            return self.width * self.height
        if self.magic == "P4":
            return (self.width + 7) // 8 * self.height
        return None


def _parse_header(data: bytes, path) -> PnmInfo:
    """Parse the PNM header at the front of ``data``."""
    tokens = _read_tokens(data)

    def next_token() -> tuple[bytes, int]:
        try:
            return next(tokens)
        except StopIteration:
            raise ValidationError(f"truncated PNM header in {path}") from None

    magic, _ = next_token()
    if magic not in (b"P1", b"P2", b"P4", b"P5"):
        raise ValidationError(f"unsupported PNM magic {magic!r} (PBM/PGM only)")
    width_tok, _ = next_token()
    height_tok, pos = next_token()
    try:
        width, height = int(width_tok), int(height_tok)
    except ValueError:
        raise ValidationError(
            f"bad PNM dimensions {width_tok!r}x{height_tok!r} in {path}"
        ) from None
    if width <= 0 or height <= 0:
        raise ValidationError(f"bad PNM dimensions {width}x{height}")

    if magic in (b"P2", b"P5"):
        maxval_tok, pos = next_token()
        try:
            maxval = int(maxval_tok)
        except ValueError:
            raise ValidationError(
                f"bad PGM maxval {maxval_tok!r}: not an integer"
            ) from None
        if maxval <= 0:
            raise ValidationError(f"bad PGM maxval {maxval}: must be positive")
        if maxval > 255:
            raise ValidationError(
                f"bad PGM maxval {maxval}: only 8-bit greymaps (maxval <= 255) "
                f"are supported (16-bit PGM support was removed in 1.1.0; "
                f"requantize the file to 8 bits first)"
            )
    else:
        maxval = 1

    # Binary payloads start exactly one whitespace byte past the last
    # header token; ASCII payloads are a token stream from here on.
    offset = pos + 1 if magic in (b"P4", b"P5") else pos
    return PnmInfo(
        magic=magic.decode("ascii"),
        width=width,
        height=height,
        maxval=maxval,
        data_offset=offset,
    )


def pnm_info(path) -> PnmInfo:
    """Header-only probe of a PBM/PGM file.

    Reads at most the first 64 KiB; pixel data is never touched, so the
    probe is O(1) in image size -- cheap enough to size a processor
    grid or a shard budget before deciding how to ingest the file.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_PROBE_BYTES)
    return _parse_header(head, path)


def _check_payload(info: PnmInfo, found: int, path) -> None:
    """Reject a payload whose size disagrees with the header."""
    expected = info.payload_bytes
    if found != expected:
        kind = "truncated" if found < expected else "oversized"
        raise ValidationError(
            f"{kind} {info.magic} payload in {path}: header "
            f"{info.width}x{info.height} implies {expected} bytes, "
            f"found {found}"
        )


def read_pnm(path, *, mmap: bool = False) -> np.ndarray:
    """Read a PBM/PGM file into an image array.

    A binary file (``P4``/``P5``) decodes to a writable ``uint8`` array,
    one byte per pixel as in the file; an ASCII one (``P1``/``P2``) to
    ``int32``.  With ``mmap=True`` the file must be a binary PGM
    (``P5``); the payload is returned as a read-only ``numpy.memmap`` of
    ``uint8`` with the image's shape -- pixels stream from the page
    cache on access instead of being materialized up front.
    """
    if mmap:
        return _read_pnm_mmap(path)
    data = pathlib.Path(path).read_bytes()
    info = _parse_header(data, path)
    magic, width, height, pos = info.magic, info.width, info.height, info.data_offset

    if magic == "P1":
        values = []
        rest = data[pos:].split()
        for chunk in rest:
            # P1 digits may run together ("0110"); split per character.
            try:
                values.extend(int(ch) for ch in chunk.decode("ascii"))
            except (UnicodeDecodeError, ValueError):
                raise ValidationError(
                    f"bad P1 sample {chunk!r} in {path}"
                ) from None
        if len(values) != width * height:
            raise ValidationError(
                f"{'truncated' if len(values) < width * height else 'oversized'} "
                f"P1 payload in {path}: header {width}x{height} implies "
                f"{width * height} samples, found {len(values)}"
            )
        img = np.array(values, dtype=np.int32)
    elif magic == "P2":
        try:
            values = [int(tok) for tok in data[pos:].split()]
        except ValueError:
            raise ValidationError(f"non-integer P2 sample in {path}") from None
        if len(values) != width * height:
            raise ValidationError(
                f"{'truncated' if len(values) < width * height else 'oversized'} "
                f"P2 payload in {path}: header {width}x{height} implies "
                f"{width * height} samples, found {len(values)}"
            )
        img = np.array(values, dtype=np.int32)
    elif magic == "P4":
        _check_payload(info, len(data) - pos, path)
        row_bytes = (width + 7) // 8
        raw = np.frombuffer(data[pos:], dtype=np.uint8)
        img = np.unpackbits(raw.reshape(height, row_bytes), axis=1)[:, :width].ravel()
    else:  # P5
        _check_payload(info, len(data) - pos, path)
        img = np.frombuffer(data, dtype=np.uint8, offset=pos).copy()

    if img.size != width * height:
        raise ValidationError(f"truncated PNM pixel data in {path}")
    return img.reshape(height, width)


def _read_pnm_mmap(path) -> np.ndarray:
    """Memory-map a binary PGM's payload (read-only ``uint8`` view)."""
    info = pnm_info(path)
    if info.magic != "P5":
        raise ValidationError(
            f"mmap ingestion requires a binary PGM (P5), got {info.magic} "
            f"in {path}; re-encode the file or read it without mmap"
        )
    size = pathlib.Path(path).stat().st_size
    _check_payload(info, size - info.data_offset, path)
    return np.memmap(
        path,
        dtype=np.uint8,
        mode="r",
        offset=info.data_offset,
        shape=info.shape,
    )


def write_pgm(path, image: np.ndarray, *, binary: bool = True) -> None:
    """Write an 8-bit integer image as PGM (P5 binary or P2 ASCII)."""
    image = check_image(np.asarray(image), square=False)
    maxval = int(image.max(initial=0))
    if maxval > 255:
        raise ValidationError(
            f"PGM maxval limit exceeded: {maxval} (only 8-bit greymaps, "
            f"maxval <= 255, are supported)"
        )
    maxval = max(maxval, 1)
    height, width = image.shape
    path = pathlib.Path(path)
    if binary:
        header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
        path.write_bytes(header + image.astype(np.uint8).tobytes())
    else:
        lines = [f"P2\n{width} {height}\n{maxval}"]
        for row in image:
            lines.append(" ".join(str(int(v)) for v in row))
        path.write_text("\n".join(lines) + "\n")


def write_pbm(path, image: np.ndarray, *, binary: bool = True) -> None:
    """Write a 0/1 image as PBM (P4 binary or P1 ASCII)."""
    image = check_image(np.asarray(image), square=False)
    if image.max(initial=0) > 1:
        raise ValidationError("PBM requires a 0/1 image")
    height, width = image.shape
    path = pathlib.Path(path)
    if binary:
        header = f"P4\n{width} {height}\n".encode("ascii")
        bits = np.packbits(image.astype(np.uint8), axis=1)
        path.write_bytes(header + bits.tobytes())
    else:
        lines = [f"P1\n{width} {height}"]
        for row in image:
            lines.append(" ".join(str(int(v)) for v in row))
        path.write_text("\n".join(lines) + "\n")
