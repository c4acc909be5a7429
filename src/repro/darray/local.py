"""In-process transport: tiles keep their run tables until finalize.

Today's single-address-space behavior, expressed through the transport
contract.  The label verb keeps each tile's run table
(:class:`~repro.baselines.run_label.TileRuns`); the merge rounds read
and relabel only the perimeter vector each table carries, and finalize
renames the run labels from it and paints every pixel of every tile
once into the global int32 label array
(:data:`~repro.baselines.run_label.LABEL_DTYPE`), which therefore starts
unfilled.  This is the reference the other transports must match
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.run_label import LABEL_DTYPE, TileRuns
from repro.core.border_graph import BorderSide
from repro.core.hooks import TileHooks, apply_hooks, create_tile_hooks
from repro.core.tiles import ProcessorGrid
from repro.darray.borders import (
    border_nbytes,
    change_nbytes,
    perimeter_round,
    publishing_groups,
)
from repro.darray.transport import Transport
from repro.kernels import get as get_kernel
from repro.utils.validation import check_image


class LocalTransport(Transport):
    """Tile run tables in process, painted into one label array."""

    name = "local"

    def __init__(
        self,
        grid: ProcessorGrid,
        image: np.ndarray,
        *,
        connectivity: int = 8,
        grey: bool = False,
    ):
        super().__init__(grid)
        # A memmap (or any integer 2-D array) is acceptable; the local
        # transport materializes whole-tile slices anyway.
        self.image = check_image(np.asarray(image), square=False)
        self.connectivity = connectivity
        self.grey = grey
        self._label_kernel = get_kernel("tile_runs")
        self._extract = get_kernel("border_extract")
        self._relabel = get_kernel("relabel")
        self._runs: dict[int, TileRuns] = {}
        self._labels: np.ndarray | None = None

    # -- verb 1: tile-local compute ---------------------------------------

    def label(self) -> tuple[dict[int, TileHooks], int]:
        hooks: dict[int, TileHooks] = {}
        n_components = 0
        for pid in range(self.grid.p):
            r0, c0 = self.grid.tile_origin(pid)
            runs = self._label_kernel(
                self.image[self.grid.tile_slices(pid)],
                connectivity=self.connectivity,
                grey=self.grey,
                label_base=1,
                label_stride=self.grid.cols,
                row_offset=r0,
                col_offset=c0,
            )
            self._runs[pid] = runs
            hooks[pid] = create_tile_hooks(runs)
            n_components += runs.n_components
        return hooks, n_components

    def finalize(self, hooks: dict[int, TileHooks]) -> None:
        """Rename each table's runs, then paint it once into the result."""
        self._labels = np.empty((self.grid.rows, self.grid.cols), dtype=LABEL_DTYPE)
        for pid in range(self.grid.p):
            runs = self._runs.pop(pid)
            apply_hooks(runs, hooks[pid])
            runs.paint(self._labels[self.grid.tile_slices(pid)])

    def histogram(self, k: int) -> np.ndarray:
        tally = get_kernel("histogram")
        out = np.zeros(k, dtype=np.int64)
        for pid in range(self.grid.p):
            out += tally(self.image[self.grid.tile_slices(pid)], k)
        return out

    # -- verb 2: border exchange -------------------------------------------

    def border(self, step_index, step) -> list[tuple[BorderSide, BorderSide]]:
        sides = perimeter_round(
            {pid: runs.perimeter for pid, runs in self._runs.items()},
            self.image, self.grid, step, self._extract,
        )
        self.stats.border_bytes += border_nbytes(sides)
        return sides

    # -- verb 3: change publish/fetch --------------------------------------

    def publish(self, step_index, step, changes) -> None:
        published = publishing_groups(step, changes)
        for _gi, region, change in published:
            for pid in region:
                runs = self._runs[pid]
                runs.perimeter = self._relabel(
                    runs.perimeter, change.alphas, change.betas
                )
        self.stats.change_bytes += change_nbytes(published)

    # -- collection ----------------------------------------------------------

    def gather(self) -> np.ndarray:
        """The global label array :meth:`finalize` painted: no copy."""
        return self._labels
