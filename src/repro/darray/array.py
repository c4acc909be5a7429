"""DistributedArray: a tile-sharded 2-D array behind a transport.

The user-facing handle of the subsystem.  A :class:`DistributedArray`
pairs a :class:`~repro.core.tiles.ProcessorGrid` with a
:class:`~repro.darray.transport.Transport` instance and exposes the
three verbs plus shard introspection; the engine
(:mod:`repro.darray.engine`) drives it through the paper's schedule,
one :meth:`~DistributedArray.border` and one
:meth:`~DistributedArray.publish` call per merge round.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.border_graph import BorderSide
from repro.core.change_array import ChangeArray
from repro.core.hooks import TileHooks
from repro.core.merge import MergeStep
from repro.core.tiles import ProcessorGrid
from repro.darray.transport import Transport, TransportStats, open_transport


class DistributedArray:
    """A ``v x w`` grid of tile shards owned by a transport."""

    def __init__(self, grid: ProcessorGrid, transport: Transport):
        self.grid = grid
        self.transport = transport

    @classmethod
    def open(cls, name: str, grid: ProcessorGrid, image, **opts) -> "DistributedArray":
        """Open a registered transport over ``grid`` and ``image``."""
        return cls(grid, open_transport(name, grid, image, **opts))

    # -- shard introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.grid.rows, self.grid.cols)

    @property
    def stats(self) -> TransportStats:
        return self.transport.stats

    @property
    def merged_rounds(self) -> int:
        """Merge rounds the transport's :meth:`label` runs itself."""
        return self.transport.merged_rounds

    # -- the three verbs, delegated -----------------------------------------

    def label(self) -> tuple[dict[int, TileHooks], int]:
        return self.transport.label()

    def finalize(self, hooks: dict[int, TileHooks]) -> None:
        self.transport.finalize(hooks)

    def histogram(self, k: int) -> np.ndarray:
        return self.transport.histogram(k)

    def border(
        self, step_index: int, step: MergeStep
    ) -> list[tuple[BorderSide, BorderSide]]:
        return self.transport.border(step_index, step)

    def publish(
        self, step_index: int, step: MergeStep, changes: Sequence[ChangeArray]
    ) -> None:
        self.transport.publish(step_index, step, changes)

    # -- collection / lifecycle --------------------------------------------

    def gather(self) -> np.ndarray:
        return self.transport.gather()

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "DistributedArray":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
