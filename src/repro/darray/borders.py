"""Merge-round primitives shared across the transports.

These helpers are the concrete data movements behind the transport
contract's verbs 2 and 3: assemble every border side of a merge round
from the resident perimeter vectors of the ``local`` and ``mmap``
transports; the perimeter and edge-position tables the ``shmem``
transport's pool workers and those vectors are indexed with; pick a
round's publishing groups; and the border and change traffic byte
counts every transport reports.

:func:`perimeter_round` takes the ``border_extract`` kernel as an
argument rather than looking it up itself -- the transports own their
kernel lookups.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.border_graph import BorderSide
from repro.core.change_array import ChangeArray
from repro.core.merge import MergeStep
from repro.core.tiles import ProcessorGrid, edge_indices, perimeter_indices
from repro.utils.errors import ValidationError


def perimeter_round(
    perimeters,
    image: np.ndarray,
    grid: ProcessorGrid,
    step: MergeStep,
    extract,
) -> list[tuple[BorderSide, BorderSide]]:
    """Both sides of every border of ``step``, in group order, from
    resident perimeter label vectors.

    ``perimeters`` maps each tile id to its labels in
    :func:`~repro.core.tiles.perimeter_indices` order; a side's colors
    are the image pixels of the same edges, read by the
    ``border_extract`` kernel ``extract``.  Tile shapes come from the
    grid, so uniform and balanced tilings both work.
    """

    def side(pids, edge: str) -> BorderSide:
        labels = []
        colors = []
        for pid in pids:
            h, w = grid.tile_shape(pid)
            labels.append(perimeters[pid][edge_positions(h, w, edge)])
            colors.append(np.asarray(extract(image[grid.tile_slices(pid)], edge)))
        return BorderSide(np.concatenate(labels), np.concatenate(colors))

    edge_a, edge_b = step.edge_names
    return [
        (side(group.side_a_pids, edge_a), side(group.side_b_pids, edge_b))
        for group in step.groups
    ]


def publishing_groups(
    step: MergeStep, changes
) -> list[tuple[int, tuple[int, ...], ChangeArray]]:
    """``(group index, region, change array)`` of each publishing group.

    ``changes`` holds one change array per group of ``step``, in group
    order; a group whose array is empty publishes nothing, so it is
    left out.
    """
    if len(changes) != len(step.groups):
        raise ValidationError(
            f"merge round has {len(step.groups)} groups but "
            f"{len(changes)} change arrays"
        )
    return [
        (gi, group.region, change)
        for gi, (group, change) in enumerate(zip(step.groups, changes))
        if len(change)
    ]


@functools.lru_cache(maxsize=64)
def perimeter_coords(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column coordinates of a ``h x w`` tile's perimeter (cached)."""
    rows, cols = np.unravel_index(perimeter_indices(h, w), (h, w))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@functools.lru_cache(maxsize=256)
def edge_positions(h: int, w: int, edge: str) -> np.ndarray:
    """Positions of one edge *within* the sorted perimeter ordering.

    Lets a caller that keeps only perimeter-ordered label vectors
    resident (the out-of-core transport) slice an edge out of them in
    scan order: ``perimeter_labels[edge_positions(h, w, edge)]``.
    """
    perim = perimeter_indices(h, w)
    pos = np.searchsorted(perim, edge_indices(h, w, edge))
    pos.setflags(write=False)
    return pos


def border_nbytes(sides) -> int:
    """Byte size of a round's fetched border sides (labels + colors)."""
    return sum(
        int(side.labels.nbytes + side.colors.nbytes) for pair in sides for side in pair
    )


def change_nbytes(published) -> int:
    """Bytes of a round's change arrays fanned out, times receiving tiles.

    ``published`` is :func:`publishing_groups`'s list.
    """
    return sum(
        int(change.alphas.nbytes + change.betas.nbytes) * len(region)
        for _gi, region, change in published
    )
