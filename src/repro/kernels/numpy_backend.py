"""NumPy-vectorized kernels (``backend="numpy"``).

Bit-identical, array-at-a-time versions of the python reference
kernels.  The tile labeler is
:func:`~repro.baselines.run_label.tile_runs`, registered as-is as
``tile_runs``: run extraction, ``searchsorted`` discovery of touching
runs in adjacent rows, and vectorized hook-and-shortcut
(:meth:`~repro.baselines.union_find.UnionFind.union_edges`) over those
run pairs.  The union-find keeps minimum representatives and runs are
numbered in row-major order, so each component's root is its first run,
whose start pixel is the seed of
:func:`~repro.baselines.bfs_label.bfs_label`; every run carries that
seed's ``label_base + (row_offset + i) * stride + (col_offset + j)``
label -- the paper's ``(Iq + i) n + (Jr + j) + 1`` convention, bit for
bit.  ``tile_label`` is :func:`~repro.baselines.run_label.run_label`,
the same table painted, and ``histogram`` is
:func:`~repro.baselines.sequential.sequential_histogram`'s
``np.bincount`` tally.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.run_label import run_label, tile_runs
from repro.baselines.sequential import sequential_histogram
from repro.kernels.registry import register
from repro.utils.errors import ValidationError


register("histogram", "numpy")(sequential_histogram)
register("tile_label", "numpy")(run_label)
register("tile_runs", "numpy")(tile_runs)


@register("border_extract", "numpy")
def border_extract(tile: np.ndarray, edge: str) -> np.ndarray:
    """Slice one tile edge, in global scan order (left-to-right /
    top-to-bottom, matching :func:`repro.core.tiles.edge_indices`)."""
    tile = np.asarray(tile)
    if tile.ndim != 2:
        raise ValidationError(f"tile must be 2-D, got shape {tile.shape}")
    if edge == "top":
        return tile[0, :].copy()
    if edge == "bottom":
        return tile[-1, :].copy()
    if edge == "left":
        return tile[:, 0].copy()
    if edge == "right":
        return tile[:, -1].copy()
    raise ValidationError(f"unknown edge {edge!r}")


@register("relabel", "numpy")
def relabel(labels: np.ndarray, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Bulk binary search of the sorted change array (``searchsorted``)."""
    labels = np.asarray(labels, dtype=np.int64)
    alphas = np.asarray(alphas, dtype=np.int64)
    betas = np.asarray(betas, dtype=np.int64)
    if alphas.shape != betas.shape or alphas.ndim != 1:
        raise ValidationError("alphas and betas must be equal-length vectors")
    out = labels.copy()
    if alphas.size == 0:
        return out
    pos = np.searchsorted(alphas, labels)
    pos_clipped = np.minimum(pos, len(alphas) - 1)
    hit = alphas[pos_clipped] == labels
    out[hit] = betas[pos_clipped[hit]]
    return out
