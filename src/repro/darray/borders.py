"""Border-exchange primitives shared across the transports.

These helpers are the concrete data movements behind the transport
contract's verb 2: assemble one side of a merge border from the
resident perimeter vectors of the ``local`` and ``mmap`` transports;
the perimeter and edge-position tables the ``shmem`` transport's pool
workers and those vectors are indexed with; and the border-traffic
byte count every transport reports.

:func:`perimeter_side` takes the ``border_extract`` kernel as an
argument rather than resolving a backend itself -- backend policy
belongs to the callers.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.border_graph import BorderSide
from repro.core.tiles import ProcessorGrid, edge_indices, perimeter_indices


def perimeter_side(
    perimeters,
    image: np.ndarray,
    grid: ProcessorGrid,
    pids,
    edge: str,
    extract,
) -> BorderSide:
    """One border side from resident perimeter label vectors.

    ``perimeters`` holds each tile's labels in
    :func:`~repro.core.tiles.perimeter_indices` order, aligned with
    ``pids``, which list the side's tiles in scan order; the colors are
    the image pixels of the same edge, read by the ``border_extract``
    kernel ``extract``.  Tile shapes come from the grid, so uniform and
    balanced tilings both work.
    """
    lab_parts = []
    col_parts = []
    for perimeter, pid in zip(perimeters, pids):
        h, w = grid.tile_shape(pid)
        lab_parts.append(perimeter[edge_positions(h, w, edge)])
        col_parts.append(np.asarray(extract(image[grid.tile_slices(pid)], edge)))
    return BorderSide(np.concatenate(lab_parts), np.concatenate(col_parts))


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


def side_nbytes(side: BorderSide) -> int:
    """Byte size of one fetched border side (labels + colors)."""
    return int(side.labels.nbytes + side.colors.nbytes)
