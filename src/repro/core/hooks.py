"""Tile hooks (Procedure 2 of the paper, Figure 5).

A *hook* records, for each component of a tile that touches the tile
border, the component's initial label and the flat offset of one of its
border pixels.  During the merge iterations only border pixels are
relabeled ("drastically limited updating"); when all merges are done,
each hook is consulted: if the label currently stored at the hook's
offset differs from the hook's recorded initial label, the whole
component must be renamed to the current label.

Procedure 2 builds the hooks by scanning the tile border, radix-sorting
the (label, offset) pairs by label and keeping one pair per unique
label.  The final renaming is Section 5.3's interior update: the paper
re-runs a BFS from each changed hook; because every pixel of a tile
component still carries the component's unique initial label, renaming
"all pixels whose label equals the hook's initial label" touches
exactly the same pixels (a BFS-faithful reference mode is available for
testing).

:func:`apply_hooks` performs that renaming in place.  A tile is one of
two things:

* a :class:`~repro.baselines.run_label.TileRuns` -- the run table the
  ``tile_runs`` kernel returns, which the in-process and out-of-core
  transports keep from the initial labeling to the final update.  The
  current labels at the hooks are read from the table's perimeter
  vector (the merge rounds relabel it), and one ``searchsorted`` over
  the runs renames the changed run labels.  The caller then paints the
  table once (:meth:`~repro.baselines.run_label.TileRuns.paint`), so
  each final label is written exactly once and no pixel pass is spent
  on the hooks.
* a 2-D label array -- the caller's tile, which may be a strided view
  such as one tile of a global label array, and is never copied.  Its
  cost follows the number of *changed* hooks, not the number of hooks:
  with at most :data:`MAX_MASKED_RENAMES` changed hooks, each changed
  label is renamed through one ``tile == old`` mask; with more, one
  ``searchsorted`` of the tile against the sorted changed labels
  renames them all in a single pass.

A changed hook's new label is never the initial label of another
changed hook of the same tile: a component's final label is the seed of
one of its own pixels, and if that pixel lies in this tile, the tile
component holding it keeps its label.  So the renames commute, every
branch gives the same tile, and applying the update twice equals
applying it once -- which a retried final-update task relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.run_label import TileRuns
from repro.core.tiles import perimeter_indices
from repro.sorting.hybrid import hybrid_argsort
from repro.utils.errors import ValidationError

#: Changed hooks per tile up to which :func:`apply_hooks` renames each
#: changed label through its own ``tile == old`` mask; above it, one
#: ``searchsorted`` pass renames them all.  On 512x512 strided tiles
#: (2-CPU x86 host) a mask costs about 0.25 ms per label and the
#: ``searchsorted`` pass 2.5-3.9 ms per tile.
MAX_MASKED_RENAMES = 8


@dataclass
class TileHooks:
    """Sorted hook arrays of one tile.

    ``labels[i]`` is the initial label of the i-th border-touching
    component (strictly increasing); ``offsets[i]`` is the flat
    (row-major) tile offset of one border pixel of that component.
    """

    labels: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def create_tile_hooks(tile: TileRuns | np.ndarray) -> TileHooks:
    """Procedure 2: one ``(label, offset)`` hook per border component.

    Parameters
    ----------
    tile:
        The tile's initial labels (0 = background): its run table, whose
        perimeter vector is read, or its 2-D label array.
    """
    if isinstance(tile, TileRuns):
        border = perimeter_indices(*tile.shape)
        border_labels = tile.perimeter
    else:
        tile_labels = np.asarray(tile)
        if tile_labels.ndim != 2:
            raise ValidationError(f"tile_labels must be 2-D, got {tile_labels.shape}")
        border = perimeter_indices(*tile_labels.shape)
        border_labels = tile_labels.ravel()[border]
    colored = border_labels != 0
    border = border[colored]
    border_labels = border_labels[colored]
    if border_labels.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return TileHooks(labels=empty, offsets=empty)
    order = hybrid_argsort(border_labels)
    sorted_labels = border_labels[order]
    sorted_offsets = border[order]
    keep = np.ones(len(sorted_labels), dtype=bool)
    keep[1:] = sorted_labels[1:] != sorted_labels[:-1]
    return TileHooks(
        labels=sorted_labels[keep].astype(np.int64),
        offsets=sorted_offsets[keep].astype(np.int64),
    )


def hook_ops(q: int, r: int) -> int:
    """Border pixel count of a ``q x r`` tile (for cost charging)."""
    if q <= 0 or r <= 0:
        return 0
    if q == 1:
        return r
    if r == 1:
        return q
    return 2 * (q + r) - 4


def apply_hooks(tile: TileRuns | np.ndarray, hooks: TileHooks) -> None:
    """Final interior update, in place: rename components whose hooks changed.

    ``tile`` holds the tile's labels after the last merge step: border
    labels current, interior labels still initial.  For each hook whose
    pixel now carries a different label, everything still holding the
    hook's initial label is renamed to the current one.

    On a :class:`~repro.baselines.run_label.TileRuns` the border labels
    are its perimeter vector and the run labels are renamed.  A label
    array must be writable and 2-D; it may be a strided view.
    """
    if isinstance(tile, TileRuns):
        at = np.searchsorted(perimeter_indices(*tile.shape), hooks.offsets)
        current = tile.perimeter[at]
    else:
        _check_tile(tile)
        current = tile[np.divmod(hooks.offsets, tile.shape[1])]
    changed = current != hooks.labels
    n_changed = int(np.count_nonzero(changed))
    if n_changed == 0:
        return
    old = hooks.labels[changed]
    new = current[changed]
    if isinstance(tile, TileRuns):
        _rename(tile.labels, old, new)
    elif n_changed <= MAX_MASKED_RENAMES:
        for initial, final in zip(old.tolist(), new.tolist()):
            tile[tile == initial] = final
    else:
        _rename(tile, old, new)


def _rename(labels: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
    """Rename ``old[i]`` to ``new[i]`` in place with one ``searchsorted``.

    ``old`` is sorted.  A label above every changed label lands at
    ``len(old)``; padding with ``old[-1]`` makes that slot a sure miss.
    """
    pos = np.searchsorted(old, labels)
    hit = np.take(np.append(old, old[-1]), pos) == labels
    labels[hit] = new[pos[hit]]


def apply_hooks_isolated(
    tile: TileRuns | np.ndarray, hooks: TileHooks, border_labels: np.ndarray
) -> None:
    """Final interior update of a tile processed in isolation, in place.

    The out-of-core path (:mod:`repro.darray`'s ``mmap`` transport)
    spills a tile to disk right after initial labeling and keeps only
    its perimeter labels resident through the merge rounds.  The
    spilled tile therefore holds *initial* labels everywhere -- border
    included -- unlike the all-resident path, where the merge rounds
    have already brought the border up to date.

    ``border_labels`` holds the tile's post-merge perimeter labels in
    :func:`~repro.core.tiles.perimeter_indices` order.  They replace a
    run table's perimeter vector, or are written back onto a label
    array's border pixels; either restores exactly the state
    :func:`apply_hooks` expects, so the two paths produce identical
    tiles (tested).
    """
    if not isinstance(tile, TileRuns):
        _check_tile(tile)
    q, r = tile.shape
    border = perimeter_indices(q, r)
    border_labels = np.asarray(border_labels, dtype=np.int64)
    if border_labels.shape != border.shape:
        raise ValidationError(
            f"border_labels has {border_labels.size} entries, expected "
            f"{border.size} for a {q}x{r} tile"
        )
    if isinstance(tile, TileRuns):
        tile.perimeter = border_labels
    else:
        tile[np.divmod(border, r)] = border_labels
    apply_hooks(tile, hooks)


def _check_tile(tile_labels) -> None:
    """Reject what an in-place update cannot write through."""
    if not isinstance(tile_labels, np.ndarray) or tile_labels.ndim != 2:
        raise ValidationError(
            f"tile_labels must be a 2-D ndarray, got {type(tile_labels).__name__} "
            f"of shape {np.shape(tile_labels)}"
        )
    if not tile_labels.flags.writeable:
        raise ValidationError("tile_labels is read-only; the update runs in place")


def apply_hooks_bfs(tile_labels: np.ndarray, hooks: TileHooks, *, connectivity: int = 8) -> np.ndarray:
    """Paper-faithful interior update: BFS relabel from each changed hook.

    Reference implementation of Section 5.3's final step; produces the
    same result as :func:`apply_hooks` (tested), at pure-Python speed.
    """
    from collections import deque

    tile_labels = np.asarray(tile_labels)
    q, r = tile_labels.shape
    out = tile_labels.copy()
    if connectivity == 8:
        nbrs = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
    elif connectivity == 4:
        nbrs = ((-1, 0), (0, -1), (0, 1), (1, 0))
    else:
        raise ValidationError(f"connectivity must be 4 or 8, got {connectivity}")
    for initial, offset in zip(hooks.labels.tolist(), hooks.offsets.tolist()):
        new = int(out.ravel()[offset])
        if new == initial:
            continue
        # BFS over pixels still holding the initial label.  The hook
        # pixel itself was already renamed (it is a border pixel), so
        # start from its neighbors.
        si, sj = divmod(offset, r)
        queue = deque([(si, sj)])
        while queue:
            ci, cj = queue.popleft()
            for di, dj in nbrs:
                ni, nj = ci + di, cj + dj
                if 0 <= ni < q and 0 <= nj < r and out[ni, nj] == initial:
                    out[ni, nj] = new
                    queue.append((ni, nj))
        # Disconnected remnants cannot exist: all pixels labeled
        # `initial` form one tile component by construction, but border
        # pixels along the way may already carry `new`, splitting the
        # BFS frontier; sweep any stragglers.
        remaining = out == initial
        if remaining.any():
            out[remaining] = new
    return out
