"""Classic two-pass (raster scan + union-find) component labeling.

The Rosenfeld-Pfaltz style labeler that most sequential vision systems
of the paper's era used: a first raster pass assigns provisional labels
and records equivalences between neighboring labels; a second pass
resolves every pixel through the equivalence forest.  Included as a
fourth interchangeable engine -- historically *the* standard sequential
algorithm, and a useful differential-testing partner for the BFS and
run-length engines.

Output follows the shared convention (component label = 1 + row-major
index of its first pixel): provisional labels are created in raster
order, the union-find keeps minimum representatives, and the minimum
provisional label of a component belongs to its first-scanned pixel.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.union_find import UnionFind
from repro.utils.errors import ValidationError
from repro.utils.validation import check_image, check_seed_labels


def two_pass_label(
    image: np.ndarray,
    *,
    connectivity: int = 8,
    grey: bool = False,
    label_base: int = 1,
    label_stride: int | None = None,
    row_offset: int = 0,
    col_offset: int = 0,
) -> np.ndarray:
    """Label components with the two-pass algorithm; same output as
    :func:`repro.baselines.bfs_label.bfs_label`."""
    image = check_image(image, square=False)
    if connectivity == 8:
        back_nbrs = ((-1, -1), (-1, 0), (-1, 1), (0, -1))
    elif connectivity == 4:
        back_nbrs = ((-1, 0), (0, -1))
    else:
        raise ValidationError(f"connectivity must be 4 or 8, got {connectivity}")

    rows, cols = image.shape
    stride = cols if label_stride is None else int(label_stride)
    provisional = np.full((rows, cols), -1, dtype=np.int64)
    seeds: list[int] = []  # flat pixel index that created each provisional label
    parents: list[int] = []

    # Pass 1: provisional labels + equivalences.
    img = image
    for i in range(rows):
        for j in range(cols):
            color = img[i, j]
            if color == 0:
                continue
            best = -1
            for di, dj in back_nbrs:
                ni, nj = i + di, j + dj
                if ni < 0 or nj < 0 or nj >= cols:
                    continue
                if img[ni, nj] == 0 or (grey and img[ni, nj] != color):
                    continue
                lbl = provisional[ni, nj]
                if lbl >= 0:
                    best = lbl if best < 0 else min(best, lbl)
            if best < 0:
                new = len(seeds)
                seeds.append(i * cols + j)
                parents.append(new)
                provisional[i, j] = new
            else:
                provisional[i, j] = best
            # Record equivalences among all matching back-neighbors.
            cur = provisional[i, j]
            for di, dj in back_nbrs:
                ni, nj = i + di, j + dj
                if ni < 0 or nj < 0 or nj >= cols:
                    continue
                if img[ni, nj] == 0 or (grey and img[ni, nj] != color):
                    continue
                other = provisional[ni, nj]
                if other >= 0 and other != cur:
                    _union(parents, cur, other)

    if not seeds:
        return np.zeros((rows, cols), dtype=np.int64)

    # Pass 2: resolve each provisional label to its component's root, and
    # the root to the final pixel-index label.
    uf = UnionFind(len(parents))
    uf.parent = np.asarray(parents, dtype=np.int64)
    seed = np.asarray(seeds, dtype=np.int64)[uf.roots()]
    seed_i, seed_j = seed // cols, seed % cols
    final_of_prov = label_base + (row_offset + seed_i) * stride + (col_offset + seed_j)
    check_seed_labels(final_of_prov, seed_i, seed_j)
    out = np.zeros((rows, cols), dtype=np.int64)
    fg = provisional >= 0
    out[fg] = final_of_prov[provisional[fg]]
    return out


def _union(parents: list[int], a: int, b: int) -> None:
    """Union with path compression over a plain list (pass-1 helper)."""
    ra = a
    while parents[ra] != ra:
        parents[ra] = parents[parents[ra]]
        ra = parents[ra]
    rb = b
    while parents[rb] != rb:
        parents[rb] = parents[parents[rb]]
        rb = parents[rb]
    if ra == rb:
        return
    if rb < ra:
        ra, rb = rb, ra
    parents[rb] = ra
