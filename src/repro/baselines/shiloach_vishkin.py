"""Shiloach-Vishkin connected components (vectorized hook + shortcut).

The classic PRAM CC algorithm -- the baseline behind several Table 2
entries of the paper (e.g. Hummel's NYU Ultracomputer implementation is
annotated "Shiloach/Vishkin alg.").  Each iteration hooks tree roots
onto smaller-indexed neighbors and halves tree heights by pointer
jumping; it converges in ``O(log V)`` iterations, each a constant
number of vectorized passes over the edge list.

We keep the "hook to the *smaller* endpoint" orientation so that the
final representative of every component is its minimum vertex index --
the same convention the other engines use.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError
from repro.utils.validation import check_image, check_seed_labels


def shiloach_vishkin(n_vertices: int, edges_u: np.ndarray, edges_v: np.ndarray) -> np.ndarray:
    """Component representative (minimum vertex index) of every vertex.

    Parameters
    ----------
    n_vertices:
        Number of vertices ``0 .. n_vertices - 1``.
    edges_u, edges_v:
        Endpoint arrays of the (undirected) edge list.
    """
    if n_vertices < 0:
        raise ValidationError("n_vertices must be non-negative")
    u = np.asarray(edges_u, dtype=np.int64)
    v = np.asarray(edges_v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValidationError("edge endpoint arrays must have equal shape")
    if u.size and (u.min() < 0 or v.min() < 0 or u.max() >= n_vertices or v.max() >= n_vertices):
        raise ValidationError("edge endpoints out of range")

    parent = np.arange(n_vertices, dtype=np.int64)
    if u.size == 0:
        return parent

    while True:
        pu = parent[u]
        pv = parent[v]
        # Hook: for an edge whose endpoints have different parents, point
        # the larger parent at the smaller one.  np.minimum.at resolves
        # conflicting hooks of one round to the smallest candidate.
        hi = np.maximum(pu, pv)
        lo = np.minimum(pu, pv)
        mask = hi != lo
        if not mask.any():
            break
        np.minimum.at(parent, hi[mask], lo[mask])
        # Shortcut: pointer jumping until the forest is flat.
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent


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
