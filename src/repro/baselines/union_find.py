"""Array-based union-find (disjoint set forest).

Used by the run-length labeling engine, by the border-graph solver and
by Shiloach-Vishkin.  Union by smaller *root index* (not by rank): the
algorithms in this package rely on the invariant that a set's
representative is its minimum member, which makes the final component
label (the minimum row-major pixel index) fall out of the structure
directly.

Two ways in, one forest.  The scalar :meth:`UnionFind.find` /
:meth:`UnionFind.union` (path halving) are the reference.  The bulk
:meth:`UnionFind.union_edges` is vectorized hook-and-shortcut over a
whole edge list, the min-label shape analysed by Liu and Tarjan
(arXiv:1812.06177): each round hooks every root that has a smaller
neighbouring root onto the smallest such root, then pointer-jumps
until the forest is flat and contracts the edges onto their roots.
Every hook points a root at a smaller one, so ``parent[x] <= x``
always holds and each root ends as its set's minimum.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError


def _compress(parent: np.ndarray) -> np.ndarray:
    """Pointer-jump until every element points at its root."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _check_endpoints(x: np.ndarray, n: int) -> np.ndarray:
    """``x`` as int64, or ``ValidationError`` unless integer and in ``[0, n)``."""
    if x.size == 0:
        return x.astype(np.int64)
    if x.dtype.kind not in "iu":
        raise ValidationError(f"edge endpoints must be integers, got dtype {x.dtype}")
    lo, hi = x.min(), x.max()
    if lo < 0 or hi >= n:
        raise ValidationError(f"edge endpoints out of range [0, {n}): min {lo}, max {hi}")
    return x.astype(np.int64, copy=False)


class UnionFind:
    """Disjoint sets over ``0 .. n-1`` with minimum-root representatives."""

    def __init__(self, n: int):
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n}")
        self.parent = np.arange(n, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.parent)

    def find(self, x: int) -> int:
        """Representative (minimum member) of ``x``'s set, with path halving."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra

    def union_edges(self, a: np.ndarray, b: np.ndarray) -> None:
        """Union each pair ``(a[i], b[i])``; leaves the forest flat.

        The endpoints must be integers in ``[0, n)``.  The sets and their
        roots come out as if :meth:`union` were called on every pair.
        """
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            raise ValidationError("edge endpoint arrays must have equal shape")
        a, b = _check_endpoints(a, len(self)), _check_endpoints(b, len(self))
        # Hook only roots: repointing an inner node of a tree left by
        # earlier scalar unions would cut its subtree out of the set.
        parent = _compress(self.parent)
        while True:
            ra, rb = parent[a], parent[b]
            live = ra != rb
            if not live.any():
                break
            # Edges inside one set stay inside it; the rest move onto
            # their roots (Liu-Tarjan "alter"), so each round only reads
            # the edges still joining two sets.
            a, b = ra[live], rb[live]
            # np.minimum.at resolves a root's competing hooks of one
            # round to the smallest candidate.
            np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
            parent = _compress(parent)
        self.parent = parent

    def roots(self) -> np.ndarray:
        """Fully-compressed root of every element (vectorized pointer jumping)."""
        self.parent = _compress(self.parent)  # keep the compression
        return self.parent.copy()

    def n_sets(self) -> int:
        """Number of disjoint sets."""
        roots = self.roots()
        return int(np.unique(roots).size)
