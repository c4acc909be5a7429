"""Shiloach-Vishkin connected components (vectorized hook + shortcut).

The classic PRAM CC algorithm -- the baseline behind several Table 2
entries of the paper (e.g. Hummel's NYU Ultracomputer implementation is
annotated "Shiloach/Vishkin alg.").  Each iteration hooks tree roots
onto smaller-indexed neighbors and flattens the trees by pointer
jumping, each a constant number of vectorized passes over the edge
list.  That loop is :meth:`~repro.baselines.union_find.UnionFind.union_edges`,
which every union-find consumer in the package shares; this module
adds the pixel-level edge list of :func:`shiloach_vishkin_image`, the
Table 2 baseline.

Hooks go to the *smaller* root, so the final representative of every
component is its minimum vertex index -- the same convention the other
engines use.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.union_find import UnionFind
from repro.utils.errors import ValidationError
from repro.utils.validation import check_image, check_seed_labels


def shiloach_vishkin(n_vertices: int, edges_u: np.ndarray, edges_v: np.ndarray) -> np.ndarray:
    """Component representative (minimum vertex index) of every vertex.

    Parameters
    ----------
    n_vertices:
        Number of vertices ``0 .. n_vertices - 1``.
    edges_u, edges_v:
        Endpoint arrays of the (undirected) edge list: integers in
        ``[0, n_vertices)``.
    """
    uf = UnionFind(n_vertices)
    uf.union_edges(edges_u, edges_v)
    return uf.roots()


def shiloach_vishkin_image(
    image: np.ndarray,
    *,
    connectivity: int = 8,
    grey: bool = False,
    label_base: int = 1,
    label_stride: int | None = None,
    row_offset: int = 0,
    col_offset: int = 0,
) -> np.ndarray:
    """Label an image's components with SV; same output as ``bfs_label``."""
    image = check_image(image, square=False)
    rows, cols = image.shape
    stride = cols if label_stride is None else int(label_stride)

    fg = image != 0
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)

    if connectivity == 8:
        shifts = ((0, 1), (1, 0), (1, 1), (1, -1))
    elif connectivity == 4:
        shifts = ((0, 1), (1, 0))
    else:
        raise ValidationError(f"connectivity must be 4 or 8, got {connectivity}")

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for di, dj in shifts:
        src_i = slice(0, rows - di)
        dst_i = slice(di, rows)
        if dj >= 0:
            src_j = slice(0, cols - dj)
            dst_j = slice(dj, cols)
        else:
            src_j = slice(-dj, cols)
            dst_j = slice(0, cols + dj)
        connect = fg[src_i, src_j] & fg[dst_i, dst_j]
        if grey:
            connect &= image[src_i, src_j] == image[dst_i, dst_j]
        us.append(idx[src_i, src_j][connect])
        vs.append(idx[dst_i, dst_j][connect])

    u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    parent = shiloach_vishkin(rows * cols, u, v)

    flat_fg = fg.ravel()
    seed_i = parent // cols
    seed_j = parent % cols
    flat_labels = label_base + (row_offset + seed_i) * stride + (col_offset + seed_j)
    check_seed_labels(flat_labels[flat_fg], seed_i[flat_fg], seed_j[flat_fg])
    labels = np.where(flat_fg, flat_labels, 0).reshape(rows, cols)
    return labels.astype(np.int64)
