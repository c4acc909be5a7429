"""Out-of-core transport: memory-mapped pixels, spilled run tables.

Pixels stream from a memory-mapped binary PGM (``read_pnm(path,
mmap=True)``).  Each tile's labels live as its run table
(:class:`~repro.baselines.run_label.TileRuns`): the run labels, lengths
and starts -- 12 bytes per run, never more than three times an int32
label tile -- pass through a bounded resident set (an LRU of at most
``resident_tiles`` tables) and spill to raw files in a spill directory.
The paper's communication structure is what makes this work: after the
initial labeling pass, the ``log p`` merge rounds need only each tile's
*perimeter labels* -- O(n) bytes total -- so the transport keeps
exactly those resident and never touches a spilled table again until
the final hook-based update, which streams tables through the working
set one at a time (:func:`~repro.core.hooks.apply_hooks_isolated`) and
paints every pixel of each tile once, straight into ``labels.bin`` in
the spill directory (int32,
:data:`~repro.baselines.run_label.LABEL_DTYPE`), through a writable
file-backed ``numpy.memmap``.  A final table is never spilled.

Peak residency is therefore ``resident_tiles`` run tables plus the
borders, independent of image size; ``stats.resident_highwater``
records the enforced maximum and the CI smoke asserts it under an RSS
cap.  :meth:`MmapTransport.gather` only maps ``labels.bin`` read-only,
so even the output never materializes in RAM.

A transport-owned spill directory is deleted on :meth:`close` (every
path out -- the leak scans assert no stray spill files), and so is one
whose transport failed to open; a caller-provided ``spill_dir`` keeps
its assembled ``labels.bin`` for inspection and loses only what the
transport put there.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
from collections import OrderedDict

import numpy as np

from repro.baselines.run_label import LABEL_DTYPE, TileRuns
from repro.core.border_graph import BorderSide
from repro.core.hooks import TileHooks, apply_hooks_isolated, create_tile_hooks
from repro.core.tiles import ProcessorGrid
from repro.darray.borders import (
    border_nbytes,
    change_nbytes,
    perimeter_round,
    publishing_groups,
)
from repro.darray.transport import Transport
from repro.kernels import get as get_kernel
from repro.utils.errors import ValidationError
from repro.utils.validation import check_positive


class MmapTransport(Transport):
    """Bounded-working-set shards over a memory-mapped image."""

    name = "mmap"

    def __init__(
        self,
        grid: ProcessorGrid,
        image,
        *,
        connectivity: int = 8,
        grey: bool = False,
        spill_dir=None,
        resident_tiles: int = 1,
    ):
        super().__init__(grid)
        self.connectivity = connectivity
        self.grey = grey
        self._budget = check_positive("resident_tiles", resident_tiles)
        self._own_spill = spill_dir is None
        self._spill = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-darray-") if self._own_spill else spill_dir
        )
        self._staged: pathlib.Path | None = None
        try:
            self._spill.mkdir(parents=True, exist_ok=True)
            self.image = self._open_image(image)
            if self.image.shape != (grid.rows, grid.cols):
                raise ValidationError(
                    f"image shape {self.image.shape} does not match grid "
                    f"{grid.rows}x{grid.cols}"
                )
        except BaseException:
            self.image = None
            self._remove_spill()
            raise
        # Every tile's run table; the body (labels, lengths, starts) of
        # one that is not resident lives in its spill file.
        self._tables: dict[int, TileRuns] = {}
        self._resident: OrderedDict[int, None] = OrderedDict()
        self._dirty: set[int] = set()
        self._borders: dict[int, np.ndarray] = {}
        self._closed = False

    def _open_image(self, image) -> np.ndarray:
        """Memory-map the pixel source, staging non-P5 inputs first."""
        from repro.images.io import read_pnm, write_pgm

        if isinstance(image, (str, pathlib.Path)):
            try:
                return read_pnm(image, mmap=True)
            except ValidationError:
                # Not a binary PGM: decode once, stage as P5, then map.
                image = read_pnm(image)
        image = np.asarray(image)
        self._staged = self._spill / "image.pgm"
        write_pgm(self._staged, image)
        return read_pnm(self._staged, mmap=True)

    def _remove_spill(self) -> None:
        """Remove what this transport put in the spill directory."""
        if self._own_spill:
            shutil.rmtree(self._spill, ignore_errors=True)
            return
        # Caller-owned directory: remove our run tables and staged
        # image, keep the assembled labels for inspection.
        for path in self._spill.glob("tile-*.bin"):
            path.unlink(missing_ok=True)
        if self._staged is not None:
            self._staged.unlink(missing_ok=True)

    # -- residency ---------------------------------------------------------

    def _tile_path(self, pid: int) -> pathlib.Path:
        return self._spill / f"tile-{pid:05d}.bin"

    def _labels_path(self) -> pathlib.Path:
        return self._spill / "labels.bin"

    def _evict_one(self) -> None:
        pid, _ = self._resident.popitem(last=False)
        runs = self._tables[pid]
        if pid in self._dirty:
            with open(self._tile_path(pid), "wb") as f:
                runs.labels.tofile(f)
                runs.lengths.tofile(f)
                runs.starts.tofile(f)
            self._dirty.discard(pid)
            self.stats.spill_writes += 1
        # The body lives in its spill file.
        runs.labels = runs.lengths = runs.starts = None

    def _admit(self, pid: int, *, dirty: bool) -> None:
        """Make a table's body resident, evicting to stay within the budget."""
        while len(self._resident) >= self._budget:
            self._evict_one()
        self._resident[pid] = None
        if dirty:
            self._dirty.add(pid)
        self.stats.resident_highwater = max(
            self.stats.resident_highwater, len(self._resident)
        )

    def _checkout(self, pid: int) -> TileRuns:
        """Run table of ``pid`` with its body loaded from spill if needed."""
        runs = self._tables[pid]
        if pid in self._resident:
            self._resident.move_to_end(pid)
            return runs
        body = np.fromfile(self._tile_path(pid), dtype=LABEL_DTYPE)
        runs.labels, runs.lengths, runs.starts = body.reshape(3, -1)
        self.stats.spill_reads += 1
        self._admit(pid, dirty=False)
        return runs

    def _image_tile(self, pid: int) -> np.ndarray:
        """One image tile, copied contiguous from the mapped pixels in
        their own dtype (``uint8``), so the kernels scan a quarter of the
        bytes an int32 copy would take."""
        return np.ascontiguousarray(self.image[self.grid.tile_slices(pid)])

    # -- verb 1: tile-local compute ---------------------------------------

    def label(self) -> tuple[dict[int, TileHooks], int]:
        label_kernel = get_kernel("tile_runs")
        hooks: dict[int, TileHooks] = {}
        n_components = 0
        for pid in range(self.grid.p):
            r0, c0 = self.grid.tile_origin(pid)
            runs = label_kernel(
                self._image_tile(pid),
                connectivity=self.connectivity,
                grey=self.grey,
                label_base=1,
                label_stride=self.grid.cols,
                row_offset=r0,
                col_offset=c0,
            )
            hooks[pid] = create_tile_hooks(runs)
            n_components += runs.n_components
            self._borders[pid] = runs.perimeter
            self._tables[pid] = runs
            self._admit(pid, dirty=True)
        return hooks, n_components

    def finalize(self, hooks: dict[int, TileHooks]) -> None:
        """Rename each table's runs and paint it into ``labels.bin``.

        The writable map is file-backed, so it counts against neither
        the resident budget nor the heap; a finalized table leaves the
        working set without a spill write.  No flush: the pages reach
        :meth:`gather`'s read-only map through the page cache.
        """
        out = np.memmap(
            self._labels_path(), dtype=LABEL_DTYPE, mode="w+",
            shape=(self.grid.rows, self.grid.cols),
        )
        for pid in range(self.grid.p):
            runs = self._checkout(pid)
            apply_hooks_isolated(runs, hooks[pid], self._borders[pid])
            runs.paint(out[self.grid.tile_slices(pid)])
            del self._resident[pid], self._tables[pid]
            self._dirty.discard(pid)

    def histogram(self, k: int) -> np.ndarray:
        tally = get_kernel("histogram")
        out = np.zeros(k, dtype=np.int64)
        for pid in range(self.grid.p):
            out += tally(self._image_tile(pid), k)
        return out

    # -- verb 2: border exchange -------------------------------------------

    def border(self, step_index, step) -> list[tuple[BorderSide, BorderSide]]:
        sides = perimeter_round(
            self._borders, self.image, self.grid, step, get_kernel("border_extract")
        )
        self.stats.border_bytes += border_nbytes(sides)
        return sides

    # -- verb 3: change publish/fetch --------------------------------------

    def publish(self, step_index, step, changes) -> None:
        relabel = get_kernel("relabel")
        published = publishing_groups(step, changes)
        for _gi, region, change in published:
            for pid in region:
                self._borders[pid] = relabel(
                    self._borders[pid], change.alphas, change.betas
                )
        self.stats.change_bytes += change_nbytes(published)

    # -- collection / lifecycle --------------------------------------------

    def gather(self) -> np.ndarray:
        """The labels :meth:`finalize` wrote, as a read-only memmap."""
        return np.memmap(
            self._labels_path(), dtype=LABEL_DTYPE, mode="r",
            shape=(self.grid.rows, self.grid.cols),
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._tables.clear()
        self._resident.clear()
        self._dirty.clear()
        self._borders.clear()
        # The image memmap holds the staged file open; drop it first.
        self.image = None
        self._remove_spill()
