"""Logical processor grid and image tiling (Section 3 of the paper).

For ``p = 2^d`` processors the paper arranges a ``v x w`` logical grid
with ``v = 2^floor(d/2)`` rows and ``w = 2^ceil(d/2)`` columns (square
when ``d`` is even, twice as wide as tall when odd).  Processors are
assigned to grid positions in row-major order.  An ``n x n`` image is
split into tiles of ``q x r = n/v x n/w`` pixels; processor at grid
position ``(I, J)`` owns the tile whose top-left global pixel is
``(I q, J r)``.

Two extensions beyond the paper's setting:

* an explicit grid ``shape=(v, w)`` overrides the near-square split
  (degenerate ``1 x p`` / ``p x 1`` strips included), and
* ``strict=False`` accepts images the grid does not divide evenly --
  tiles then follow the *balanced* partition ``rows*I//v .. rows*(I+1)//v``
  (heights differing by at most one pixel), which reduces exactly to
  the uniform tiling whenever the grid divides the image.  Non-uniform
  grids have no single ``q``/``r``; per-tile shapes come from
  :meth:`ProcessorGrid.tile_shape`, which is what the
  :mod:`repro.darray` shards rely on.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_image, ilog2


class ProcessorGrid:
    """The ``v x w`` logical grid of ``p`` processors over an image.

    The paper's setting is an ``n x n`` image (pass an int); rectangular
    ``rows x cols`` images are supported as an extension (pass a
    ``(rows, cols)`` tuple) -- the grid shape only depends on ``p``, and
    tiles become ``rows/v x cols/w``.

    Attributes
    ----------
    p:
        Processor count (power of two).
    rows, cols:
        Image dimensions; ``n`` is an alias for ``rows`` on square
        images (reading it on a rectangular grid raises).
    v, w:
        Grid rows and columns (``v * w == p``; ``w in (v, 2v)`` unless
        an explicit ``shape`` was given).
    q, r:
        Tile height ``rows/v`` and width ``cols/w`` in pixels.  Only
        defined on a uniform tiling; reading them on a non-dividing
        ``strict=False`` grid raises (use :meth:`tile_shape`).
    uniform:
        Whether every tile has the same ``q x r`` shape.

    Parameters
    ----------
    strict:
        ``True`` (default) rejects images the grid does not divide --
        the historical contract every simulator-era caller relies on.
        ``False`` accepts them with the balanced partition described in
        the module docstring.
    shape:
        Optional explicit ``(v, w)`` grid shape with ``v * w == p``;
        ``None`` picks the paper's near-square split.
    """

    def __init__(self, p: int, n, *, strict: bool = True, shape=None):
        if not isinstance(p, (int, np.integer)) or p <= 0 or (p & (p - 1)) != 0:
            raise ConfigurationError(f"p must be a power of two, got {p!r}")
        if isinstance(n, (int, np.integer)):
            rows = cols = int(n)
        else:
            try:
                rows, cols = (int(x) for x in n)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"n must be an int or a (rows, cols) pair, got {n!r}"
                ) from None
        if rows <= 0 or cols <= 0:
            raise ConfigurationError(f"image dimensions must be positive, got {rows}x{cols}")
        d = ilog2(p)
        self.p = p
        self.rows = rows
        self.cols = cols
        if shape is None:
            self.v = 1 << (d // 2)
            self.w = 1 << (d - d // 2)
        else:
            try:
                v, w = (int(x) for x in shape)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"shape must be a (v, w) pair, got {shape!r}"
                ) from None
            if v <= 0 or w <= 0 or v * w != p:
                raise ConfigurationError(
                    f"grid shape {v}x{w} does not factor p={p}"
                )
            self.v = v
            self.w = w
        if rows % self.v != 0 or cols % self.w != 0:
            if strict:
                raise ConfigurationError(
                    f"grid {self.v}x{self.w} does not divide image {rows}x{cols}"
                )
            if self.v > rows or self.w > cols:
                raise ConfigurationError(
                    f"grid {self.v}x{self.w} exceeds image {rows}x{cols}: "
                    f"some tiles would be empty"
                )
            self.uniform = False
            self._q = None
            self._r = None
        else:
            self.uniform = True
            self._q = rows // self.v
            self._r = cols // self.w
        if p > rows * cols:
            raise ConfigurationError(f"p={p} exceeds pixel count {rows * cols}")

    @property
    def n(self) -> int:
        """Image side for square images (the paper's ``n``)."""
        if self.rows != self.cols:
            raise ConfigurationError(
                f"grid covers a rectangular {self.rows}x{self.cols} image; use "
                ".rows/.cols"
            )
        return self.rows

    @property
    def q(self) -> int:
        """Uniform tile height (raises on a non-uniform tiling)."""
        if self._q is None:
            raise ConfigurationError(
                f"grid {self.v}x{self.w} tiles {self.rows}x{self.cols} "
                f"non-uniformly; use tile_shape(pid)"
            )
        return self._q

    @property
    def r(self) -> int:
        """Uniform tile width (raises on a non-uniform tiling)."""
        if self._r is None:
            raise ConfigurationError(
                f"grid {self.v}x{self.w} tiles {self.rows}x{self.cols} "
                f"non-uniformly; use tile_shape(pid)"
            )
        return self._r

    # -- coordinates -------------------------------------------------------

    def coords(self, pid: int) -> tuple[int, int]:
        """Grid position ``(I, J)`` of processor ``pid`` (row-major)."""
        if not (0 <= pid < self.p):
            raise ConfigurationError(f"pid {pid} out of range [0, {self.p})")
        return pid // self.w, pid % self.w

    def pid_at(self, I: int, J: int) -> int:
        """Processor at grid position ``(I, J)``."""
        if not (0 <= I < self.v and 0 <= J < self.w):
            raise ConfigurationError(
                f"grid position ({I}, {J}) out of range {self.v}x{self.w}"
            )
        return I * self.w + J

    def row_bounds(self, I: int) -> tuple[int, int]:
        """Global row interval ``[start, stop)`` of grid row ``I``."""
        if not (0 <= I < self.v):
            raise ConfigurationError(f"grid row {I} out of range [0, {self.v})")
        return self.rows * I // self.v, self.rows * (I + 1) // self.v

    def col_bounds(self, J: int) -> tuple[int, int]:
        """Global column interval ``[start, stop)`` of grid column ``J``."""
        if not (0 <= J < self.w):
            raise ConfigurationError(f"grid column {J} out of range [0, {self.w})")
        return self.cols * J // self.w, self.cols * (J + 1) // self.w

    def tile_origin(self, pid: int) -> tuple[int, int]:
        """Global pixel coordinates of the tile's top-left corner."""
        I, J = self.coords(pid)
        return self.row_bounds(I)[0], self.col_bounds(J)[0]

    def tile_shape(self, pid: int) -> tuple[int, int]:
        """Exact ``(height, width)`` of processor ``pid``'s tile.

        Equals ``(q, r)`` on a uniform tiling; on a balanced non-uniform
        tiling heights/widths differ by at most one pixel between tiles.
        """
        I, J = self.coords(pid)
        r0, r1 = self.row_bounds(I)
        c0, c1 = self.col_bounds(J)
        return r1 - r0, c1 - c0

    def tile_slices(self, pid: int) -> tuple[slice, slice]:
        """Row/column slices selecting processor ``pid``'s tile."""
        I, J = self.coords(pid)
        r0, r1 = self.row_bounds(I)
        c0, c1 = self.col_bounds(J)
        return slice(r0, r1), slice(c0, c1)

    # -- data movement (initial placement / final collection) --------------

    def scatter(self, image: np.ndarray) -> list[np.ndarray]:
        """Split an image into the per-processor tiles (copies).

        This is the *initial data placement* the BDM model allows for
        free; it is not communication.
        """
        image = check_image(image, square=False)
        if image.shape != (self.rows, self.cols):
            raise ConfigurationError(
                f"image shape {image.shape} does not match grid "
                f"{self.rows}x{self.cols}"
            )
        return [image[self.tile_slices(pid)].copy() for pid in range(self.p)]

    def gather(self, tiles: list[np.ndarray], dtype=None) -> np.ndarray:
        """Reassemble per-processor tiles into a full image (diagnostic)."""
        if len(tiles) != self.p:
            raise ConfigurationError(
                f"expected {self.p} tiles, got {len(tiles)}"
            )
        dtype = dtype if dtype is not None else np.asarray(tiles[0]).dtype
        out = np.empty((self.rows, self.cols), dtype=dtype)
        for pid, tile in enumerate(tiles):
            tile = np.asarray(tile)
            if tile.shape != self.tile_shape(pid):
                raise ConfigurationError(
                    f"tile {pid} has shape {tile.shape}, expected {self.tile_shape(pid)}"
                )
            out[self.tile_slices(pid)] = tile
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tile = f"{self._q}x{self._r}" if self.uniform else "balanced"
        return (
            f"ProcessorGrid(p={self.p}, image={self.rows}x{self.cols}, "
            f"grid={self.v}x{self.w}, tile={tile})"
        )


# -- tile border helpers -------------------------------------------------


def edge_indices(q: int, r: int, edge: str) -> np.ndarray:
    """Flat (row-major) indices of one edge of a ``q x r`` tile.

    ``edge`` is one of ``"top"``, ``"bottom"``, ``"left"``, ``"right"``.
    Indices run left-to-right for horizontal edges and top-to-bottom for
    vertical ones, so concatenating one edge across a stack of tiles
    yields the border in global scan order.
    """
    if edge == "top":
        return np.arange(r, dtype=np.int64)
    if edge == "bottom":
        return np.arange(r, dtype=np.int64) + (q - 1) * r
    if edge == "left":
        return np.arange(q, dtype=np.int64) * r
    if edge == "right":
        return np.arange(q, dtype=np.int64) * r + (r - 1)
    raise ConfigurationError(f"unknown edge {edge!r}")


@functools.lru_cache(maxsize=64)
def perimeter_indices(q: int, r: int) -> np.ndarray:
    """Flat indices of all border pixels of a ``q x r`` tile (sorted, unique).

    Cached and read-only: every caller only indexes with it.  Read off a
    border mask rather than deduplicated with ``np.unique``, whose lazy
    ``numpy.ma`` import would cost a fresh pool worker its first task.
    """
    mask = np.zeros((q, r), dtype=bool)
    mask[[0, -1], :] = True
    mask[:, [0, -1]] = True
    perim = np.flatnonzero(mask).astype(np.int64, copy=False)
    perim.setflags(write=False)
    return perim
