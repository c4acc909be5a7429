"""Pure-Python reference kernels (``backend="python"``).

These are the paper's procedures exactly as written, executed per
pixel by the interpreter: the Section 5.1 row-major BFS for tile
labeling (``tile_runs`` compresses its output into runs through
:func:`~repro.baselines.run_label.runs_adapter`), the scalar tally loop
:func:`~repro.baselines.sequential.sequential_histogram_loop` for
histogramming, per-pixel border
walks, and a per-label binary search for the change-array relabel.
They define the semantics; the numpy backend must match them bit for
bit (enforced by the differential property suite).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.baselines.bfs_label import bfs_label
from repro.baselines.run_label import runs_adapter
from repro.baselines.sequential import sequential_histogram_loop
from repro.kernels.registry import register
from repro.utils.errors import ValidationError


register("histogram", "python")(sequential_histogram_loop)


@register("tile_label", "python")
def tile_label(
    image: np.ndarray,
    *,
    connectivity: int = 8,
    grey: bool = False,
    label_base: int = 1,
    label_stride: int | None = None,
    row_offset: int = 0,
    col_offset: int = 0,
) -> np.ndarray:
    """Label a tile by per-pixel row-major BFS (the Section 5.1 procedure)."""
    return bfs_label(
        image,
        connectivity=connectivity,
        grey=grey,
        label_base=label_base,
        label_stride=label_stride,
        row_offset=row_offset,
        col_offset=col_offset,
    )


register("tile_runs", "python")(runs_adapter(tile_label))


def _edge_coords(rows: int, cols: int, edge: str) -> list[tuple[int, int]]:
    if edge == "top":
        return [(0, j) for j in range(cols)]
    if edge == "bottom":
        return [(rows - 1, j) for j in range(cols)]
    if edge == "left":
        return [(i, 0) for i in range(rows)]
    if edge == "right":
        return [(i, cols - 1) for i in range(rows)]
    raise ValidationError(f"unknown edge {edge!r}")


@register("border_extract", "python")
def border_extract(tile: np.ndarray, edge: str) -> np.ndarray:
    """Walk one tile edge pixel by pixel, in global scan order."""
    tile = np.asarray(tile)
    if tile.ndim != 2:
        raise ValidationError(f"tile must be 2-D, got shape {tile.shape}")
    rows, cols = tile.shape
    values = [tile[i, j] for i, j in _edge_coords(rows, cols, edge)]
    return np.array(values, dtype=tile.dtype)


@register("relabel", "python")
def relabel(labels: np.ndarray, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Per-label binary search of the sorted change array (Procedure 1 use).

    ``alphas`` must be sorted and unique; labels found in it are renamed
    to the matching beta, all others pass through unchanged.
    """
    labels = np.asarray(labels, dtype=np.int64)
    alpha_list = [int(a) for a in np.asarray(alphas).tolist()]
    beta_list = [int(b) for b in np.asarray(betas).tolist()]
    if len(alpha_list) != len(beta_list):
        raise ValidationError("alphas and betas must have equal length")
    out = labels.copy()
    if not alpha_list:
        return out
    flat = out.ravel()
    for pos, value in enumerate(flat.tolist()):
        at = bisect_left(alpha_list, value)
        if at < len(alpha_list) and alpha_list[at] == value:
            flat[pos] = beta_list[at]
    return out
