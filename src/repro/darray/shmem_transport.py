"""Multiprocess transport: one shared image and label array, dispatched verbs.

The image is copied once into an anonymous shared mapping and the int64
label array lives in a second, zero-filled one.  Both are made before
the pool first forks and reach the workers as initializer arguments,
which fork inherits instead of pickling, so every worker -- and every
pool a respawn rebuilds -- shares the parent's pages with nothing to
attach or unlink, and a tile is a pair of ``grid.tile_slices`` views.
Spawn would pickle each worker a private copy, so without fork the
transport raises :class:`~repro.utils.errors.ConfigurationError`.
:meth:`ShmemTransport.gather` returns the label array without a copy;
the image mapping is freed with the transport, the label mapping with
the result.

Every verb call that reads or writes the arrays is one pool round trip
on a :class:`~repro.runtime.dispatch.PoolSupervisor`, through the
deadline/retry/respawn dispatcher: it sends one task per worker, and
each task carries a contiguous block of the call's items, in order --
tiles for label, final and hist, border sides for border.  This
mirrors the paper's cost model, which charges a merge round's latency
once because a processor pipelines its prefetches.  Every item fires
its own fault site:

* ``darray:label`` / ``darray:final`` / ``darray:hist`` fire in a
  tile's item (``task`` = tile id);
* ``darray:border`` fires in a border side's item; a ``corrupt`` spec
  damages the fetched labels, which validation converts into the
  retryable :class:`~repro.utils.errors.CorruptPayloadError`;
* ``darray:fetch`` fires where a published change array is applied
  (its ``round``/``group``).

:meth:`ShmemTransport.publish` does not dispatch: it records the
round's change arrays, and the next verb that reads applies them.  The
next round's border item for a side first relabels, through the change
array of the region that side lies in, every tile perimeter of that
region -- the merge schedule puts each region of a round on exactly one
side of the next -- and the final item of a tile relabels its own
perimeter through the last round's array before its hooks.  A job
therefore makes ``1 + log p + 1`` round trips: label, one border
dispatch per round, final.

A fault fails its whole block, and the dispatcher retries the block.
That is safe because every item is idempotent: the label item repaints
the same values into a zero-filled mapping, the border item only reads
once its change array is applied, the change-array relabel is
idempotent (one solve's alpha and beta sets are disjoint), and applying
a tile's hooks twice equals applying them once.  A round's regions are
disjoint, so no two items of one call write the same tile.  Fetch,
solve and publish stay apart: the driver solves between dispatches, so
a relabel always runs from a change array the driver holds, never from
borders that a killed task left half relabeled.
"""

from __future__ import annotations

import math
import mmap
import os
from typing import NamedTuple

import numpy as np

from repro.core.border_graph import BorderSide
from repro.core.hooks import TileHooks, apply_hooks, create_tile_hooks
from repro.core.tiles import ProcessorGrid
from repro.darray.borders import (
    border_nbytes,
    change_nbytes,
    perimeter_coords,
    publishing_groups,
)
from repro.darray.transport import Transport
from repro.faults.inject import corrupt_labels, fire, install_plan, validate_border_labels
from repro.faults.plan import FaultPlan
from repro.kernels import get as get_kernel, resolve_backend
from repro.obs import trace as _trace
from repro.runtime.dispatch import PoolSupervisor, _pool_context, run_tasks
from repro.utils.errors import CorruptPayloadError
from repro.utils.validation import check_image, check_positive

#: Worker-side grid, shared arrays and options (set by the initializer).
_SHARD: dict = {}


class _Fetch(NamedTuple):
    """One published change array and the region whose perimeters take it."""

    step_index: int
    group_index: int
    region: tuple[int, ...]
    alphas: np.ndarray
    betas: np.ndarray


def _shared_zeros(shape: tuple[int, int], dtype) -> np.ndarray:
    """A zero-filled array in an anonymous ``MAP_SHARED`` mapping.

    Processes forked after it is made share its pages; the mapping is
    unmapped when the last array over it is freed.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(-1, nbytes))


def _shard_init(grid, image, labels, opts, plan: FaultPlan | None = None) -> None:
    """Pool initializer: keep the inherited arrays, install the plan."""
    install_plan(plan)
    _SHARD.update(grid=grid, image=image, labels=labels, opts=opts)


def _tile(pid: int) -> tuple[np.ndarray, np.ndarray]:
    """Tile ``pid`` of the shared image and label arrays (views)."""
    sl = _SHARD["grid"].tile_slices(pid)
    return _SHARD["image"][sl], _SHARD["labels"][sl]


def _blocks(items: list, n: int) -> list[list]:
    """``items`` cut into at most ``n`` contiguous, near-equal blocks."""
    k = min(n, len(items))
    return [items[i * len(items) // k : (i + 1) * len(items) // k] for i in range(k)]


def _shard_block(arg):
    """One pool task: a block of one verb call's items, run in order.

    ``item`` is the verb's item function; ``shared`` is what every item
    of the call reads (sent once per block).
    """
    (item, items, shared), attempt = arg
    return [item(payload, shared, attempt) for payload in items]


def _label_item(pid, _shared, attempt):
    """Verb 1: label one tile in place; return its hooks and component count.

    The kernel's run table is painted straight into the label tile.  The
    mapping starts zero-filled and a retried attempt paints the same
    values, so painting the foreground is enough.
    """
    fire("darray:label", task=pid, attempt=attempt)
    with _trace.traced_span(f"darray:label:t{pid}"):
        opts = _SHARD["opts"]
        grid = _SHARD["grid"]
        img, lab = _tile(pid)
        r0, c0 = grid.tile_origin(pid)
        runs = get_kernel("tile_runs", backend=opts["kernel"])(
            img,
            connectivity=opts["connectivity"],
            grey=opts["grey"],
            label_base=1,
            label_stride=grid.cols,
            row_offset=r0,
            col_offset=c0,
        )
        runs.paint(lab, img != 0)
        return pid, create_tile_hooks(runs), runs.n_components


def _apply_fetch(fetch: _Fetch, pids, attempt: int) -> None:
    """Verb 3, applied: relabel the perimeters of tiles ``pids`` through
    one published change array."""
    fire("darray:fetch", round=fetch.step_index, group=fetch.group_index, attempt=attempt)
    with _trace.traced_span(f"darray:fetch:s{fetch.step_index}g{fetch.group_index}"):
        relabel = get_kernel("relabel", backend=_SHARD["opts"]["kernel"])
        for pid in pids:
            _img, lab = _tile(pid)
            rows, cols = perimeter_coords(*lab.shape)
            lab[rows, cols] = relabel(lab[rows, cols], fetch.alphas, fetch.betas)


def _border_item(side, _shared, attempt):
    """Verb 2: extract one border side from the owning tiles.

    ``fetch`` is the previous round's change array of the region the
    side lies in (or ``None``): it is applied to that region's
    perimeters first, so the side is read current.
    """
    step_index, group_index, pids, edge, fetch = side
    spec = fire("darray:border", round=step_index, group=group_index, attempt=attempt)
    if fetch is not None:
        _apply_fetch(fetch, fetch.region, attempt)
    with _trace.traced_span(f"darray:border:s{step_index}g{group_index}:{edge}"):
        extract = get_kernel("border_extract", backend=_SHARD["opts"]["kernel"])
        lab_parts = []
        col_parts = []
        for pid in pids:
            img, lab = _tile(pid)
            lab_parts.append(extract(lab, edge))
            col_parts.append(extract(img, edge))
        labels = np.concatenate(lab_parts)
        colors = np.concatenate(col_parts)
        if spec is not None:
            labels = corrupt_labels(labels)
        try:
            validate_border_labels(labels, site="darray:border")
        except CorruptPayloadError:
            _trace.instant(
                "fault:corrupt-detected", round=step_index, group=group_index
            )
            raise
        return labels, colors


def _final_item(tile, fetches, attempt):
    """Verb 1: the last round's change array on one tile's perimeter,
    then the tile's hook-based interior relabel."""
    pid, hooks = tile
    fire("darray:final", task=pid, attempt=attempt)
    with _trace.traced_span(f"darray:final:t{pid}"):
        for fetch in fetches:
            if pid in fetch.region:
                _apply_fetch(fetch, (pid,), attempt)
        _img, lab = _tile(pid)
        apply_hooks(lab, hooks)
        return pid


def _hist_item(pid, k, attempt):
    """Verb 1: grey-level tally of one tile."""
    fire("darray:hist", task=pid, attempt=attempt)
    with _trace.traced_span(f"darray:hist:t{pid}"):
        img, _lab = _tile(pid)
        return get_kernel("histogram", backend=_SHARD["opts"]["kernel"])(img, k)


class ShmemTransport(Transport):
    """A shared image and label array served by a supervised worker pool."""

    name = "shmem"

    def __init__(
        self,
        grid: ProcessorGrid,
        image: np.ndarray,
        *,
        connectivity: int = 8,
        grey: bool = False,
        kernel: str | None = None,
        fault_plan: FaultPlan | None = None,
        timeout: float | None = None,
        max_retries: int | None = None,
        workers: int | None = None,
        **_ignored,
    ):
        super().__init__(grid)
        ctx = _pool_context()
        image = check_image(np.asarray(image), square=False)
        self.kernel = resolve_backend(kernel)
        self._dispatch = dict(timeout=timeout, max_retries=max_retries)
        shared_image = _shared_zeros(image.shape, image.dtype)
        shared_image[...] = image
        self._labels = _shared_zeros(image.shape, np.int64)
        opts = {"connectivity": connectivity, "grey": grey, "kernel": self.kernel}
        if workers is None:
            workers = min(grid.p, max(1, os.cpu_count() or 1), 16)
        # Checked here: a dispatch cut into no blocks would send nothing.
        self._workers = check_positive("workers", workers)
        #: The last published round's change arrays, not yet applied.
        self._fetches: list[_Fetch] = []
        # Built before the pool first forks, so every worker inherits both.
        self._pool = PoolSupervisor(
            ctx,
            workers,
            initializer=_shard_init,
            initargs=(grid, shared_image, self._labels, opts, fault_plan),
        )

    def _run(self, item, items: list, site: str, shared=None) -> list:
        """One pool round trip: a block of ``items`` per worker, run by
        ``item``; the items' results, in order."""
        blocks = run_tasks(
            self._pool, _shard_block,
            [(item, block, shared) for block in _blocks(items, self._workers)],
            site=site, **self._dispatch,
        )
        return [result for block in blocks for result in block]

    # -- verb 1: tile-local compute ---------------------------------------

    def label(self) -> tuple[dict[int, TileHooks], int]:
        results = self._run(_label_item, list(range(self.grid.p)), "darray:label")
        hooks = {pid: tile_hooks for pid, tile_hooks, _n in results}
        return hooks, sum(n for _pid, _hooks, n in results)

    def finalize(self, hooks: dict[int, TileHooks]) -> None:
        """Every tile's hooks, after the last round's change arrays."""
        fetches, self._fetches = self._fetches, []
        self._run(
            _final_item, [(pid, hooks[pid]) for pid in range(self.grid.p)],
            "darray:final", fetches,
        )

    def histogram(self, k: int) -> np.ndarray:
        partials = self._run(_hist_item, list(range(self.grid.p)), "darray:hist", k)
        return np.sum(partials, axis=0, dtype=np.int64)

    # -- verb 2: border exchange -------------------------------------------

    def border(self, step_index, step) -> list[tuple[BorderSide, BorderSide]]:
        """Every border side of the round in one round trip.  A side's
        item carries the previous round's change array of its region."""
        edge_a, edge_b = step.edge_names
        fetches, self._fetches = self._fetches, []
        fetch_of = {pid: fetch for fetch in fetches for pid in fetch.region}
        sides = [
            (step_index, gi, pids, edge, fetch_of.get(pids[0]))
            for gi, group in enumerate(step.groups)
            for pids, edge in ((group.side_a_pids, edge_a), (group.side_b_pids, edge_b))
        ]
        fetched = [
            BorderSide(labels, colors)
            for labels, colors in self._run(_border_item, sides, "darray:border")
        ]
        pairs = list(zip(fetched[0::2], fetched[1::2]))
        self.stats.border_bytes += border_nbytes(pairs)
        return pairs

    # -- verb 3: change publish/fetch --------------------------------------

    def publish(self, step_index, step, changes) -> None:
        """Record the round's non-empty change arrays; the next border
        or finalize call applies them, so publishing sends nothing."""
        published = publishing_groups(step, changes)
        self._fetches = [
            _Fetch(step_index, gi, region, change.alphas, change.betas)
            for gi, region, change in published
        ]
        self.stats.change_bytes += change_nbytes(published)

    # -- collection / lifecycle --------------------------------------------

    def gather(self) -> np.ndarray:
        """The shared label array the workers wrote: no copy."""
        return self._labels

    def close(self) -> None:
        self._pool.close()
