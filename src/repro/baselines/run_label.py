"""Run-length connected component labeling: the numpy ``tile_runs``.

The row-major two-pass run labeling of Gupta et al. (arXiv:1606.05973),
vectorized.  :func:`tile_runs` is registered as the ``numpy`` backend of
the ``tile_runs`` kernel, and :func:`run_label` -- ``tile_runs`` plus
:meth:`TileRuns.paint` -- as the ``numpy`` ``tile_label``
(:mod:`repro.kernels.numpy_backend`), so every engine's per-tile
labeling runs through it:

1. **Runs** -- :func:`extract_runs` compresses each image row into
   maximal horizontal *runs* of foreground (binary) or of one constant
   non-zero level (grey-scale).
2. **Run pairs** -- runs in consecutive rows touch when their column
   ranges overlap (with one column of dilation under 8-connectivity).
   Two ``searchsorted`` calls over the whole image find, for every
   run, the contiguous range of touching runs in the row above.
3. **Union** -- the pairs go through
   :meth:`~repro.baselines.union_find.UnionFind.union_edges`
   (vectorized hook-and-shortcut), whose representatives are set
   minima.  Runs are numbered in row-major order, so each component's
   root is its first run, and that run's start pixel is the component's
   seed.  Every run gets its seed's label ``label_base + (row_offset +
   i) * stride + (col_offset + j)``, exactly the label
   :func:`~repro.baselines.bfs_label.bfs_label` produces.  The result
   is a :class:`TileRuns`: the run table (labels, lengths and starts),
   the tile's perimeter labels and its component count.
4. **Paint** -- :meth:`TileRuns.paint` writes every pixel of the tile
   with one ``np.repeat`` over the runs and the background gaps between
   them.

The distributed engines keep the run table from the initial labeling
to the final update: the hooks rename run labels, not pixels, and each
final label is painted once (:mod:`repro.core.hooks`).  The python
reference backend reaches the same table through :func:`runs_adapter`,
which compresses its painted ``tile_label`` output into runs.

Every step is NumPy-vectorized: no Python loop runs per pixel, run or
run pair.

Stored labels are 32-bit (:data:`LABEL_DTYPE`), as the paper's keys
are (Section 5.3 sorts them in four one-byte radix passes): the run
tables and every darray result.  A label is at most the image's pixel
count, so an image must have fewer than :data:`MAX_LABEL_PIXELS`
(2**31) pixels; :func:`check_label_capacity` rejects a larger one.
:func:`run_label` (the ``tile_label`` kernel) still paints int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.union_find import UnionFind
from repro.utils.errors import ValidationError
from repro.utils.validation import check_image, check_seed_labels

#: The dtype of every stored label: run tables, the darray results,
#: ``labels.bin`` and the label area of a ``shmem`` job file.
LABEL_DTYPE = np.dtype(np.int32)

#: Labels run up to the pixel count, so an image of this many pixels or
#: more has labels that :data:`LABEL_DTYPE` cannot hold: 2**31.
MAX_LABEL_PIXELS = int(np.iinfo(LABEL_DTYPE).max) + 1


def check_label_capacity(shape: tuple[int, ...]) -> None:
    """Reject an image shape whose labels :data:`LABEL_DTYPE` cannot hold."""
    pixels = math.prod(shape)
    if pixels >= MAX_LABEL_PIXELS:
        raise ValidationError(
            f"a {'x'.join(map(str, shape))} image has {pixels:,} pixels; labels "
            f"are {LABEL_DTYPE}, so an image must have fewer than 2**31 = "
            f"{MAX_LABEL_PIXELS:,} pixels"
        )


@dataclass
class Runs:
    """Maximal horizontal runs of an image, in row-major order.

    ``stop`` is exclusive; ``color`` is the run's grey level (any
    non-zero value for binary runs that span several levels).
    """

    row: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    color: np.ndarray
    shape: tuple[int, int]

    def __len__(self) -> int:
        return len(self.row)


@dataclass
class TileRuns:
    """A labeled tile kept as its run table.

    ``labels[k]``, ``lengths[k]`` and ``starts[k]`` are the label, pixel
    count and flat row-major offset in the tile of the tile's k-th run,
    in row-major order, all :data:`LABEL_DTYPE`.  ``perimeter`` holds
    the labels of the tile's border pixels in
    :func:`~repro.core.tiles.perimeter_indices` order (0 = background;
    int64, as the merge rounds keep them), and ``n_components`` the
    number of tile components.  (The :func:`runs_adapter` count is exact
    whenever distinct pixels get distinct seed labels -- ``label_stride``
    at least the tile width -- as in every engine.)

    The final update (:mod:`repro.core.hooks`) renames ``labels`` in
    place from ``perimeter``; :meth:`paint` then writes each final label
    once.  At 12 bytes per run and at most one run per pixel, a table
    never takes more than three times the bytes of its int32 label tile.
    """

    labels: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray
    perimeter: np.ndarray
    n_components: int
    shape: tuple[int, int]

    def paint(self, out: np.ndarray) -> None:
        """Write every pixel of the tile into ``out``: run labels, 0 between.

        One ``np.repeat`` over the runs and the background gaps around
        them, so ``out`` needs no zeroing.  ``out`` may be a strided
        view, such as one tile of a global label array.
        """
        if out.shape != self.shape:
            raise ValidationError(
                f"cannot paint a {self.shape} run table into {out.shape}"
            )
        n = len(self.labels)
        # Run k spans [edges[2k+1], edges[2k+2]); the gaps fill the rest.
        edges = np.empty(2 * n + 2, dtype=np.intp)
        edges[0] = 0
        edges[1:-1:2] = self.starts
        edges[2:-1:2] = self.starts + self.lengths
        edges[-1] = self.shape[0] * self.shape[1]
        values = np.zeros(2 * n + 1, dtype=self.labels.dtype)
        values[1::2] = self.labels
        out[...] = np.repeat(values, np.diff(edges)).reshape(self.shape)


def extract_runs(image: np.ndarray, *, grey: bool = False) -> Runs:
    """Extract maximal horizontal runs (foreground or constant-level)."""
    return _extract_runs(check_image(image, square=False), grey)


def _extract_runs(image: np.ndarray, grey: bool) -> Runs:
    """:func:`extract_runs` of an image already validated.

    One pass: each row is padded with a zero column on both sides, so
    every run starts and stops at a change between neighbours, and one
    ``!=`` and one ``flatnonzero`` find every change.  In the binary
    mask the changes alternate start, stop; among grey levels a run
    starts at a change to a non-zero level and stops at the next change,
    which the padding keeps in the same row.
    """
    rows, cols = image.shape
    if grey:
        padded = np.zeros((rows, cols + 2), dtype=image.dtype)
        padded[:, 1:-1] = image
    else:
        padded = np.zeros((rows, cols + 2), dtype=bool)
        np.not_equal(image, 0, out=padded[:, 1:-1])
    changes = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    # A change between padded columns c and c + 1 of a row is at image
    # column c, the first pixel after it.
    row, col = np.divmod(changes, cols + 1)
    if grey:
        level = padded.ravel()[changes + row + 1]
        first = np.flatnonzero(level)
        return Runs(
            row=row[first], start=col[first], stop=col[first + 1],
            color=level[first], shape=(rows, cols),
        )
    row, start = row[0::2], col[0::2]
    return Runs(
        row=row, start=start, stop=col[1::2], color=image[row, start], shape=(rows, cols)
    )


def _adjacent_run_pairs(runs: Runs, dilate: int, grey: bool) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(a, b)`` of touching runs, run ``a`` in the row above ``b``.

    ``a`` touches ``b`` iff ``start_a < stop_b + dilate`` and
    ``stop_a > start_b - dilate``.  Runs in a row are disjoint and
    sorted, so the ``a`` of each ``b`` form a contiguous index range,
    found for all runs at once by binary search over the keys
    ``row * (cols + 2) + col``.  The two spare columns per row keep a
    dilated bound from reaching a neighbouring row, so each range lies
    within the row above (it is empty for the first row).
    """
    width = runs.shape[1] + 2
    key = runs.row * width
    above = key - width
    lo = np.searchsorted(key + runs.stop, above + runs.start - dilate, side="right")
    hi = np.searchsorted(key + runs.start, above + runs.stop + dilate, side="left")
    # Expand the ranges [lo, hi) into explicit pairs, ordered by b.
    counts = hi - lo
    first = np.cumsum(counts) - counts  # position of b's first pair
    a = np.arange(int(counts.sum())) + np.repeat(lo - first, counts)
    b = np.repeat(np.arange(len(runs)), counts)
    if grey:
        same = runs.color[a] == runs.color[b]
        a, b = a[same], b[same]
    return a, b


def _run_table(image: np.ndarray, runs: Runs, labels: np.ndarray, n_components: int) -> TileRuns:
    """Assemble the :class:`TileRuns` of labeled runs.

    The perimeter is read off the runs in O(runs + perimeter): the first
    and last rows through their foreground masks, the side columns from
    the runs that start at column 0 or stop at the last column.  Raises
    :class:`ValidationError` if a label does not fit :data:`LABEL_DTYPE`.
    """
    rows, cols = image.shape
    row = runs.row
    info = np.iinfo(LABEL_DTYPE)
    if labels.size and (labels.min() < info.min or labels.max() > info.max):
        raise ValidationError(
            f"labels {labels.min()}..{labels.max()} do not fit {LABEL_DTYPE}; "
            "use label_base/offsets that keep them in range"
        )
    labels = labels.astype(LABEL_DTYPE)

    def edge_row(i: int) -> np.ndarray:
        lo, hi = np.searchsorted(row, [i, i + 1])
        out = np.zeros(cols, dtype=np.int64)
        out[image[i] != 0] = np.repeat(labels[lo:hi], runs.stop[lo:hi] - runs.start[lo:hi])
        return out

    def edge_col(at_edge: np.ndarray) -> np.ndarray:
        out = np.zeros(rows, dtype=np.int64)
        out[row[at_edge]] = labels[at_edge]
        return out

    if rows == 1:
        perimeter = edge_row(0)
    elif cols == 1:
        perimeter = edge_col(runs.start == 0)
    else:
        left = edge_col(runs.start == 0)[1:-1]
        right = edge_col(runs.stop == cols)[1:-1]
        perimeter = np.concatenate(
            [edge_row(0), np.column_stack([left, right]).ravel(), edge_row(rows - 1)]
        )
    return TileRuns(
        labels=labels,
        lengths=(runs.stop - runs.start).astype(LABEL_DTYPE),
        starts=(row * cols + runs.start).astype(LABEL_DTYPE),
        perimeter=perimeter,
        n_components=n_components,
        shape=(rows, cols),
    )


def _seed_labels(
    runs: Runs, seed_row, seed_col, label_base, label_stride, row_offset, col_offset
) -> np.ndarray:
    """The seed labels of pixels ``(seed_row, seed_col)`` of the runs' image."""
    stride = runs.shape[1] if label_stride is None else int(label_stride)
    return label_base + (row_offset + seed_row) * stride + (col_offset + seed_col)


def tile_runs(
    image: np.ndarray,
    *,
    connectivity: int = 8,
    grey: bool = False,
    label_base: int = 1,
    label_stride: int | None = None,
    row_offset: int = 0,
    col_offset: int = 0,
) -> TileRuns:
    """Label connected components as a run table; ``bfs_label``'s signature.

    Painting the result (:meth:`TileRuns.paint`) gives exactly
    ``bfs_label``'s labels.  No step passes over a painted tile.
    """
    image = check_image(image, square=False)
    if connectivity not in (4, 8):
        raise ValidationError(f"connectivity must be 4 or 8, got {connectivity}")
    runs = _extract_runs(image, grey)
    uf = UnionFind(len(runs))
    if len(runs):
        uf.union_edges(*_adjacent_run_pairs(runs, int(connectivity == 8), grey))
    roots = uf.roots()
    # The root run of each component is its first run in row-major
    # order, and that run's start pixel is the seed.
    seed_row = runs.row[roots]
    seed_col = runs.start[roots]
    labels = _seed_labels(
        runs, seed_row, seed_col, label_base, label_stride, row_offset, col_offset
    )
    check_seed_labels(labels, seed_row, seed_col)
    n_components = int(np.count_nonzero(roots == np.arange(len(runs))))
    return _run_table(image, runs, labels, n_components)


def run_label(
    image: np.ndarray,
    *,
    connectivity: int = 8,
    grey: bool = False,
    label_base: int = 1,
    label_stride: int | None = None,
    row_offset: int = 0,
    col_offset: int = 0,
) -> np.ndarray:
    """Label connected components; same signature and int64 output as
    ``bfs_label``: the run table painted whole into a fresh array."""
    runs = tile_runs(
        image,
        connectivity=connectivity,
        grey=grey,
        label_base=label_base,
        label_stride=label_stride,
        row_offset=row_offset,
        col_offset=col_offset,
    )
    labels = np.empty(runs.shape, dtype=np.int64)
    runs.paint(labels)
    return labels


def runs_adapter(tile_label: Callable[..., np.ndarray]) -> Callable[..., TileRuns]:
    """A ``tile_runs`` kernel from a ``tile_label`` kernel.

    The python reference backend labels per pixel; the adapter
    compresses its painted tile into its run table, reading one label
    per run.
    """

    def tile_runs_from_labels(
        image: np.ndarray,
        *,
        connectivity: int = 8,
        grey: bool = False,
        label_base: int = 1,
        label_stride: int | None = None,
        row_offset: int = 0,
        col_offset: int = 0,
    ) -> TileRuns:
        painted = tile_label(
            image,
            connectivity=connectivity,
            grey=grey,
            label_base=label_base,
            label_stride=label_stride,
            row_offset=row_offset,
            col_offset=col_offset,
        )
        # ``tile_label`` validated the image.
        runs = _extract_runs(np.asarray(image), grey)
        labels = painted[runs.row, runs.start]
        # A component is counted at its seed run, the one run whose
        # label is its own start pixel's seed label.
        own = _seed_labels(
            runs, runs.row, runs.start, label_base, label_stride, row_offset, col_offset
        )
        return _run_table(image, runs, labels, int(np.count_nonzero(labels == own)))

    return tile_runs_from_labels
