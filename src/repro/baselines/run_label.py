"""Run-length connected component labeling: the numpy ``tile_label``.

The row-major two-pass run labeling of Gupta et al. (arXiv:1606.05973),
vectorized.  It is registered as the ``numpy`` backend of the
``tile_label`` kernel (:mod:`repro.kernels.numpy_backend`), so every
engine's per-tile labeling step runs through it:

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
   seed.
4. **Paint** -- every pixel gets its seed's label ``label_base +
   (row_offset + i) * stride + (col_offset + j)``, exactly the label
   :func:`~repro.baselines.bfs_label.bfs_label` produces.

Every step is NumPy-vectorized: no Python loop runs per pixel, run or
run pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.union_find import UnionFind
from repro.utils.errors import ValidationError
from repro.utils.validation import check_image, check_seed_labels


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


def extract_runs(image: np.ndarray, *, grey: bool = False) -> Runs:
    """Extract maximal horizontal runs (foreground or constant-level)."""
    image = check_image(image, square=False)
    rows, cols = image.shape
    fg = image != 0
    if grey:
        start_mask = fg.copy()
        start_mask[:, 1:] = fg[:, 1:] & (image[:, 1:] != image[:, :-1])
        end_mask = fg.copy()
        end_mask[:, :-1] = fg[:, :-1] & (image[:, :-1] != image[:, 1:])
    else:
        start_mask = fg.copy()
        start_mask[:, 1:] = fg[:, 1:] & ~fg[:, :-1]
        end_mask = fg.copy()
        end_mask[:, :-1] = fg[:, :-1] & ~fg[:, 1:]
    starts = np.flatnonzero(start_mask.ravel())
    ends = np.flatnonzero(end_mask.ravel())
    return Runs(
        row=starts // cols,
        start=starts % cols,
        stop=ends % cols + 1,
        color=image.ravel()[starts],
        shape=(rows, cols),
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
    """Label connected components; same signature/output as ``bfs_label``."""
    image = check_image(image, square=False)
    if connectivity not in (4, 8):
        raise ValidationError(f"connectivity must be 4 or 8, got {connectivity}")
    rows, cols = image.shape
    stride = cols if label_stride is None else int(label_stride)
    labels = np.zeros((rows, cols), dtype=np.int64)

    runs = extract_runs(image, grey=grey)
    if len(runs) == 0:
        return labels

    uf = UnionFind(len(runs))
    uf.union_edges(*_adjacent_run_pairs(runs, int(connectivity == 8), grey))
    roots = uf.roots()

    # The root run of each component is its first run in row-major
    # order, and that run's start pixel is the seed.
    seed_row = runs.row[roots]
    seed_col = runs.start[roots]
    run_labels = label_base + (row_offset + seed_row) * stride + (col_offset + seed_col)
    check_seed_labels(run_labels, seed_row, seed_col)

    # Paint: the runs cover the foreground pixels in row-major order.
    labels[image != 0] = np.repeat(run_labels, runs.stop - runs.start)
    return labels
