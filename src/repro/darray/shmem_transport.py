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

The verbs run as tasks on a
:class:`~repro.runtime.dispatch.PoolSupervisor` through the
deadline/retry/respawn dispatcher, so a crashed, hung, or corrupted
verb is recovered exactly like any other pool task.  Every task kind
fires its own fault site:

* ``darray:label`` / ``darray:final`` / ``darray:hist`` fire in the
  tile-local compute tasks (``task`` = tile id);
* ``darray:border`` fires in a border-exchange task; a ``corrupt`` spec
  damages the fetched labels, which validation converts into the
  retryable :class:`~repro.utils.errors.CorruptPayloadError`;
* ``darray:fetch`` fires in a change-array fetch/apply task (the
  region's shards fetching the published change list).

A merge round costs at most two pool round trips, mirroring the paper,
where a round's group managers fetch their borders together and its
clients then fetch their change lists together: one ``run_tasks`` call
carries a task per border side of every group of the round, and one
more a task per group with a non-empty change array (none when the
round changes nothing).  Each task fires its site with its own ``round``/``group``
selectors, and a corrupt border payload fails and retries only its own
task.

Faults fire at task entry -- before any label write -- so a retried
attempt always starts from a consistent view, and the change-array
relabel is idempotent besides (one solve's alpha and beta sets are
disjoint).  This is why fetch, solve and publish stay separate tasks:
a border task only reads, and a publish task relabels from change
arrays the driver holds, so either is safe to re-run after being killed
mid-way.  A fused per-group task killed while relabeling would, on
retry, re-solve over half-relabeled borders.
"""

from __future__ import annotations

import math
import mmap
import os

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
from repro.utils.validation import check_image

#: Worker-side grid, shared arrays and options (set by the initializer).
_SHARD: dict = {}


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


def _shard_label(arg):
    """Verb 1: label one tile in place; return its hooks and component count.

    The kernel's run table is painted straight into the label tile.  The
    mapping starts zero-filled and a retried attempt paints the same
    values, so painting the foreground is enough.
    """
    pid, attempt = arg
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


def _shard_border(arg):
    """Verb 2: extract one border side from the owning tiles."""
    (step_index, group_index, pids, edge), attempt = arg
    spec = fire("darray:border", round=step_index, group=group_index, attempt=attempt)
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


def _shard_fetch_changes(arg):
    """Verb 3: fetch the change array and relabel the region perimeters."""
    (step_index, group_index, pids, alphas, betas), attempt = arg
    fire("darray:fetch", round=step_index, group=group_index, attempt=attempt)
    with _trace.traced_span(f"darray:fetch:s{step_index}g{group_index}"):
        relabel = get_kernel("relabel", backend=_SHARD["opts"]["kernel"])
        for pid in pids:
            _img, lab = _tile(pid)
            rows, cols = perimeter_coords(*lab.shape)
            lab[rows, cols] = relabel(lab[rows, cols], alphas, betas)
        return len(pids)


def _shard_final(arg):
    """Verb 1: hook-based final interior relabel of one tile."""
    (pid, hooks), attempt = arg
    fire("darray:final", task=pid, attempt=attempt)
    with _trace.traced_span(f"darray:final:t{pid}"):
        _img, lab = _tile(pid)
        apply_hooks(lab, hooks)
        return pid


def _shard_hist(arg):
    """Verb 1: grey-level tally of one tile."""
    (pid, k), attempt = arg
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
        # Built before the pool first forks, so every worker inherits both.
        self._pool = PoolSupervisor(
            ctx,
            workers,
            initializer=_shard_init,
            initargs=(grid, shared_image, self._labels, opts, fault_plan),
        )

    # -- verb 1: tile-local compute ---------------------------------------

    def label(self) -> tuple[dict[int, TileHooks], int]:
        results = run_tasks(
            self._pool, _shard_label, range(self.grid.p),
            site="darray:label", **self._dispatch,
        )
        hooks = {pid: tile_hooks for pid, tile_hooks, _n in results}
        return hooks, sum(n for _pid, _hooks, n in results)

    def finalize(self, hooks: dict[int, TileHooks]) -> None:
        run_tasks(
            self._pool, _shard_final,
            [(pid, hooks[pid]) for pid in range(self.grid.p)],
            site="darray:final", **self._dispatch,
        )

    def histogram(self, k: int) -> np.ndarray:
        partials = run_tasks(
            self._pool, _shard_hist, [(pid, k) for pid in range(self.grid.p)],
            site="darray:hist", **self._dispatch,
        )
        return np.sum(partials, axis=0, dtype=np.int64)

    # -- verb 2: border exchange -------------------------------------------

    def border(self, step_index, step) -> list[tuple[BorderSide, BorderSide]]:
        """Every border side of the round as one task, all in one dispatch."""
        edge_a, edge_b = step.edge_names
        payloads = [
            (step_index, gi, pids, edge)
            for gi, group in enumerate(step.groups)
            for pids, edge in ((group.side_a_pids, edge_a), (group.side_b_pids, edge_b))
        ]
        fetched = [
            BorderSide(labels, colors)
            for labels, colors in run_tasks(
                self._pool, _shard_border, payloads,
                site="darray:border", **self._dispatch,
            )
        ]
        sides = list(zip(fetched[0::2], fetched[1::2]))
        self.stats.border_bytes += border_nbytes(sides)
        return sides

    # -- verb 3: change publish/fetch --------------------------------------

    def publish(self, step_index, step, changes) -> None:
        """Every publishing group as one task, all in one dispatch (none
        for a round without changes)."""
        published = publishing_groups(step, changes)
        if published:
            run_tasks(
                self._pool, _shard_fetch_changes,
                [
                    (step_index, gi, region, change.alphas, change.betas)
                    for gi, region, change in published
                ],
                site="darray:fetch", **self._dispatch,
            )
        self.stats.change_bytes += change_nbytes(published)

    # -- collection / lifecycle --------------------------------------------

    def gather(self) -> np.ndarray:
        """The shared label array the workers wrote: no copy."""
        return self._labels

    def close(self) -> None:
        self._pool.close()
