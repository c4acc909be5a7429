"""In-process transport: shards are slices of ordinary ndarrays.

Today's single-address-space behavior, expressed through the transport
contract: the label array is one global ndarray and each shard is its
tile slice, so verb implementations are direct array operations through
the shared border helpers (:mod:`repro.darray.borders`).  This is the
reference the other transports must match bit-for-bit, and the tile
store the BDM simulator uses for its free initial placement.
"""

from __future__ import annotations

import numpy as np

from repro.core.border_graph import BorderSide
from repro.core.hooks import TileHooks, apply_hooks, create_tile_hooks
from repro.core.tiles import ProcessorGrid
from repro.darray.borders import collect_side, relabel_perimeters, side_nbytes
from repro.darray.transport import Transport
from repro.kernels import get as get_kernel, resolve_backend
from repro.utils.validation import check_image


class LocalTransport(Transport):
    """Tile shards as views into one in-process label array."""

    name = "local"

    def __init__(
        self,
        grid: ProcessorGrid,
        image: np.ndarray,
        *,
        connectivity: int = 8,
        grey: bool = False,
        kernel: str | None = None,
        **_ignored,
    ):
        super().__init__(grid)
        # A memmap (or any integer 2-D array) is acceptable; the local
        # transport materializes whole-tile slices anyway.
        self.image = check_image(np.asarray(image), square=False)
        self.connectivity = connectivity
        self.grey = grey
        self.kernel = resolve_backend(kernel)
        self._label_kernel = get_kernel("tile_label", backend=self.kernel)
        self._extract = get_kernel("border_extract", backend=self.kernel)
        self._relabel = get_kernel("relabel", backend=self.kernel)
        self._labels = np.zeros((grid.rows, grid.cols), dtype=np.int64)

    # -- verb 1: tile-local compute ---------------------------------------

    def label(self) -> dict[int, TileHooks]:
        hooks: dict[int, TileHooks] = {}
        for pid in range(self.grid.p):
            sl = self.grid.tile_slices(pid)
            r0, c0 = self.grid.tile_origin(pid)
            lab = self._label_kernel(
                self.image[sl],
                connectivity=self.connectivity,
                grey=self.grey,
                label_base=1,
                label_stride=self.grid.cols,
                row_offset=r0,
                col_offset=c0,
            )
            self._labels[sl] = lab
            hooks[pid] = create_tile_hooks(lab)
        return hooks

    def finalize(self, hooks: dict[int, TileHooks]) -> None:
        for pid in range(self.grid.p):
            apply_hooks(self._labels[self.grid.tile_slices(pid)], hooks[pid])

    def histogram(self, k: int) -> np.ndarray:
        tally = get_kernel("histogram", backend=self.kernel)
        out = np.zeros(k, dtype=np.int64)
        for pid in range(self.grid.p):
            out += tally(self.image[self.grid.tile_slices(pid)], k)
        return out

    # -- verb 2: border exchange -------------------------------------------

    def border(self, step_index, group_index, pids, edge) -> BorderSide:
        side = collect_side(
            self._labels, self.image, self.grid, pids, edge, self._extract
        )
        self.stats.border_bytes += side_nbytes(side)
        return side

    # -- verb 3: change publish/fetch --------------------------------------

    def publish(self, step_index, group_index, pids, alphas, betas) -> None:
        relabel_perimeters(
            self._labels, self.grid, pids, alphas, betas, self._relabel
        )
        self.stats.change_bytes += int(
            (alphas.nbytes + betas.nbytes) * len(pids)
        )

    # -- collection / tile store -------------------------------------------

    def gather(self) -> np.ndarray:
        """The global label array itself: the result needs no copy."""
        return self._labels

    def tile(self, pid: int) -> np.ndarray:
        """Shard-local *image* tile (the simulator's free placement)."""
        return self.image[self.grid.tile_slices(pid)]
