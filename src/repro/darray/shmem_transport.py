"""Multiprocess transport: one memfd per job, served by the warm worker pool.

Each job keeps its arrays in one ``os.memfd_create`` file
(:func:`~repro.runtime.dispatch.job_file`), made at the job's first
dispatch: the int32 label array
(:data:`~repro.baselines.run_label.LABEL_DTYPE`), then the validated
image, written in with ``os.pwrite``.  The image is therefore read at
the first dispatch, and the caller must not change it before then.  The
driver maps only the labels, through
:class:`~repro.runtime.dispatch.SharedMapping`, which holds no fd --
:meth:`ShmemTransport.gather` returns them without a copy, the mapping
is freed with the result, and :meth:`ShmemTransport.close` closes the
file's only fd -- and never the image: a copy through a fresh mapping
faults every page in first (on a 2-CPU VM, 4 MiB took 4.28 ms mapped
against 1.69 ms with ``pwrite``).  A task opens the file as
``/proc/<driver pid>/fd/<n>`` through
:func:`~repro.runtime.shmem.open_memfd`, which checks that its inode is
the job's, so it never maps a file that reused the fd number, and maps
it the same way only while it runs: an idle pool holds no job pages,
and a retried block maps the file again.  A tile is a pair of
``grid.tile_slices`` views.  Nothing is unlinked, and no ``/dev/shm``
entry is made.

The workers are the process's warm pool
(:func:`~repro.runtime.dispatch.borrow_pool`).  A job borrows it at its
first dispatch and returns it at :meth:`ShmemTransport.close`, so the
jobs of a process fork their workers once, and a transport opened and
closed unused forks nothing.  A job whose dispatch raised closes the
pool instead, so no task of a failed job outlives it.  A warm worker
holds no job's state, so every task carries its job's: where the file
is, the grid, the options, the number of block-local rounds and the
fault plan, which the task installs (``None`` for a clean job), and
whether the job is traced, which decides whether the task forwards its
events to the pool's queue.  The pool forks its workers, so without the
fork start method the transport raises
:class:`~repro.utils.errors.ConfigurationError`.

Every verb call that reads or writes the arrays is one pool round trip
through the deadline/retry/respawn dispatcher: it sends one task per
worker, and each task carries a contiguous block of the call's items,
in order -- blocks of tiles for label, tiles for final and hist, border
sides for border.  This mirrors the paper's cost model, which charges a
merge round's latency once because a processor pipelines its
prefetches.

The label verb also merges.  Each of its tasks gets one block of whole
round-``L`` merge regions (``L`` from :func:`block_local_rounds`),
labels and paints their tiles, then runs merge rounds ``0 .. L-1`` for
the groups inside the block on the tiles' private perimeter vectors --
fetch, solve and relabel, with the code ``local`` runs
(:func:`~repro.darray.borders.perimeter_round`,
:func:`~repro.core.border_graph.solve_border_merge`, the ``relabel``
kernel) -- and writes the merged perimeters into the label array.  It
returns the block's hooks, its component count (the tiles' counts minus
the block's alphas) and its border and change bytes.  The transport
exposes ``L`` as :attr:`ShmemTransport.merged_rounds`, and the driver
dispatches only the cross-block rounds.  Every item fires its own
fault site:

* ``darray:label`` / ``darray:final`` / ``darray:hist`` fire in a
  tile's item (``task`` = tile id);
* ``darray:border`` fires once per border side, in a dispatched
  round's border item or inside a block; a ``corrupt`` spec damages
  the fetched labels, which validation converts into the retryable
  :class:`~repro.utils.errors.CorruptPayloadError`;
* ``darray:fetch`` fires where a published change array is applied
  (its ``round``/``group``).

:meth:`ShmemTransport.publish` does not dispatch: it records the
round's change arrays, and the next verb that reads applies them.  The
next round's border item for a side first relabels, through the change
array of the region that side lies in, every tile perimeter of that
region -- the merge schedule puts each region of a round on exactly one
side of the next -- and the final item of a tile relabels its own
perimeter through the last round's array before its hooks.  A job
therefore makes ``2 + log p - L`` round trips: label, one border
dispatch per cross-block round, final.

A fault fails its whole block, and the dispatcher retries the block.
That is safe because every write an item makes is one it makes again
on a retry.  A label block repaints its tiles from the image before it
reads a border, solves from its own perimeter vectors and writes
perimeters merged from nothing but the image, so a retried, killed or
respawned block rewrites the same values; the border item only reads
once its change array is applied, the change-array relabel is
idempotent (one solve's alpha and beta sets are disjoint), and applying
a tile's hooks twice equals applying them once.  A round's regions, and
so a call's blocks, are disjoint, so no two items of one call write the
same tile.  Across blocks, fetch, solve and publish stay apart: the
driver solves between dispatches, so a dispatched relabel always runs
from a change array the driver holds, never from borders that a killed
task left half relabeled.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from repro.baselines.run_label import LABEL_DTYPE
from repro.core.border_graph import BorderSide, solve_border_merge
from repro.core.hooks import TileHooks, apply_hooks, create_tile_hooks
from repro.core.merge import MergeStep, merge_schedule
from repro.core.tiles import ProcessorGrid
from repro.darray.borders import (
    border_nbytes,
    change_nbytes,
    perimeter_coords,
    perimeter_round,
    publishing_groups,
)
from repro.darray.transport import Transport
from repro.faults.inject import corrupt_labels, fire, install_plan, validate_border_labels
from repro.faults.plan import FaultPlan
from repro.kernels import get as get_kernel
from repro.obs import trace as _trace
from repro.obs.events import CAT_ROUND
from repro.obs.runtime import record_worker_lanes, trace_task
from repro.runtime.dispatch import (
    SharedMapping,
    _pool_context,
    borrow_pool,
    job_file,
    return_pool,
    run_tasks,
)
from repro.runtime.shmem import open_memfd, pwrite_array
from repro.utils.errors import CorruptPayloadError, ValidationError
from repro.utils.validation import check_image, check_positive, ilog2

#: How far above ``p / workers`` tiles a label block may grow before
#: :func:`block_local_rounds` settles for smaller regions.
_BLOCK_SLACK = 1.25


class _Job(NamedTuple):
    """What every task of a job carries: where its arrays are -- memfd
    ``fd`` of process ``pid``, with the labels first and the image at
    ``image_offset`` -- and the job's state."""

    pid: int
    fd: int
    inode: int
    dtype: str
    image_offset: int
    grid: ProcessorGrid
    opts: dict
    #: How many merge rounds the label blocks run (``L``).
    rounds: int
    plan: FaultPlan | None

    @property
    def steps(self) -> list[MergeStep]:
        """The block-local merge rounds.  They travel as their count:
        pickled whole they would cost a task ten times the rest of the
        job, and the schedule is computed once per grid shape."""
        return merge_schedule(self.grid)[: self.rounds]


class _Shard(NamedTuple):
    """A task's job and its image and label array, mapped for the task."""

    job: _Job
    image: np.ndarray
    labels: np.ndarray

    def tile(self, pid: int) -> tuple[np.ndarray, np.ndarray]:
        """Tile ``pid`` of the image and the label array (views)."""
        sl = self.job.grid.tile_slices(pid)
        return self.image[sl], self.labels[sl]


class _Fetch(NamedTuple):
    """One published change array and the region whose perimeters take it."""

    step_index: int
    group_index: int
    region: tuple[int, ...]
    alphas: np.ndarray
    betas: np.ndarray


def block_local_rounds(p: int, workers: int) -> int:
    """The merge rounds each label block runs inside itself: ``L``.

    The largest ``L`` whose round-``L`` regions (``2**L`` tiles each),
    cut into at most ``workers`` contiguous near-equal blocks, leave no
    block more than 25% above ``p / workers`` tiles; 0 if none does.
    At a power-of-two ``workers`` below ``p`` this is
    ``log2 p - log2 workers``, and it is 0 once ``workers >= p``.
    """
    best = 0
    for rounds in range(ilog2(p) + 1):
        regions = p >> rounds
        largest = -(-regions // min(workers, regions)) << rounds
        if largest * workers <= _BLOCK_SLACK * p:
            best = rounds
    return best


def _map_job(job: _Job) -> _Shard:
    """Map the job's file through the driver's fd; unmapped when the
    returned views are freed.

    Raises :class:`ValidationError` if the fd now names another file.
    """
    shape = (job.grid.rows, job.grid.cols)
    nbytes = job.image_offset + math.prod(shape) * np.dtype(job.dtype).itemsize
    fd = open_memfd(job.pid, job.fd, job.inode, nbytes, writable=True)
    try:
        buf = np.asarray(SharedMapping(fd, nbytes))
    finally:
        os.close(fd)
    labels = np.ndarray(shape, LABEL_DTYPE, buffer=buf)
    image = np.ndarray(shape, np.dtype(job.dtype), buffer=buf, offset=job.image_offset)
    return _Shard(job, image, labels)


def _blocks(items: list, n: int) -> list[list]:
    """``items`` cut into at most ``n`` contiguous, near-equal blocks."""
    k = min(n, len(items))
    return [items[i * len(items) // k : (i + 1) * len(items) // k] for i in range(k)]


def _shard_block(arg):
    """One pool task: a block of one verb call's items, run in order.

    The task installs its job's fault plan and tracing, then maps the
    job's file for as long as it runs.  ``item`` is the verb's item
    function; ``shared`` is what every item of the call reads (sent
    once per block).
    """
    (job, traced, item, items, shared), attempt = arg
    install_plan(job.plan)
    trace_task(traced)
    shard = _map_job(job)
    return [item(shard, payload, shared, attempt) for payload in items]


def _checked(labels, spec, step_index: int, group_index: int) -> None:
    """Validate one fetched side's labels, corrupted first if ``spec``
    (a fired ``darray:border`` fault) says so."""
    if spec is not None:
        labels = corrupt_labels(labels)
    try:
        validate_border_labels(labels, site="darray:border")
    except CorruptPayloadError:
        _trace.instant("fault:corrupt-detected", round=step_index, group=group_index)
        raise


def _label_block(shard: _Shard, pids, _shared, attempt):
    """Verb 1 and the block-local merge rounds over one block of tiles.

    ``pids`` covers whole round-``L`` regions.  Each tile's run table is
    painted straight into its label tile, every pixel of it, so a
    retried attempt paints the same values.  The rounds then run on the
    tables' perimeter vectors, and the tiles they relabeled get their
    merged perimeters written back.  Returns ``(hooks, n_components, border_bytes,
    change_bytes)`` of the block.
    """
    opts = shard.job.opts
    grid = shard.job.grid
    tile_runs = get_kernel("tile_runs")
    hooks: dict[int, TileHooks] = {}
    perimeters: dict[int, np.ndarray] = {}
    n_components = 0
    for pid in pids:
        fire("darray:label", task=pid, attempt=attempt)
        with _trace.traced_span(f"darray:label:t{pid}"):
            img, lab = shard.tile(pid)
            r0, c0 = grid.tile_origin(pid)
            runs = tile_runs(
                img,
                connectivity=opts["connectivity"],
                grey=opts["grey"],
                label_base=1,
                label_stride=grid.cols,
                row_offset=r0,
                col_offset=c0,
            )
            runs.paint(lab)
            hooks[pid] = create_tile_hooks(runs)
            perimeters[pid] = runs.perimeter
            n_components += runs.n_components
    members = set(pids)
    extract = get_kernel("border_extract")
    relabel = get_kernel("relabel")
    border_bytes = change_bytes = 0
    merged: set[int] = set()
    for si, step in enumerate(shard.job.steps):
        with _trace.traced_span(f"darray:merge:r{step.t}", cat=CAT_ROUND):
            inside = [gi for gi, group in enumerate(step.groups) if group.manager in members]
            mine = MergeStep(step.t, step.orientation, tuple(step.groups[gi] for gi in inside))
            sides = perimeter_round(perimeters, shard.image, grid, mine, extract)
            changes = []
            for gi, (side_a, side_b) in zip(inside, sides):
                for side in (side_a, side_b):
                    spec = fire("darray:border", round=si, group=gi, attempt=attempt)
                    _checked(side.labels, spec, si, gi)
                changes.append(solve_border_merge(
                    side_a, side_b, connectivity=opts["connectivity"], grey=opts["grey"]
                ).changes)
            published = publishing_groups(mine, changes)
            for li, region, change in published:
                fire("darray:fetch", round=si, group=inside[li], attempt=attempt)
                for pid in region:
                    perimeters[pid] = relabel(perimeters[pid], change.alphas, change.betas)
                merged.update(region)
            # Each alpha is one component merged away, exactly once.
            n_components -= sum(len(c) for c in changes)
            border_bytes += border_nbytes(sides)
            change_bytes += change_nbytes(published)
    for pid in merged:
        _img, lab = shard.tile(pid)
        lab[perimeter_coords(*lab.shape)] = perimeters[pid]
    return hooks, n_components, border_bytes, change_bytes


def _apply_fetch(shard: _Shard, fetch: _Fetch, pids, attempt: int) -> None:
    """Verb 3, applied: relabel the perimeters of tiles ``pids`` through
    one published change array."""
    fire("darray:fetch", round=fetch.step_index, group=fetch.group_index, attempt=attempt)
    with _trace.traced_span(f"darray:fetch:s{fetch.step_index}g{fetch.group_index}"):
        relabel = get_kernel("relabel")
        for pid in pids:
            _img, lab = shard.tile(pid)
            rows, cols = perimeter_coords(*lab.shape)
            lab[rows, cols] = relabel(lab[rows, cols], fetch.alphas, fetch.betas)


def _border_item(shard: _Shard, side, _shared, attempt):
    """Verb 2: extract one border side from the owning tiles.

    ``fetch`` is the previous round's change array of the region the
    side lies in (or ``None``): it is applied to that region's
    perimeters first, so the side is read current.
    """
    step_index, group_index, pids, edge, fetch = side
    spec = fire("darray:border", round=step_index, group=group_index, attempt=attempt)
    if fetch is not None:
        _apply_fetch(shard, fetch, fetch.region, attempt)
    with _trace.traced_span(f"darray:border:s{step_index}g{group_index}:{edge}"):
        extract = get_kernel("border_extract")
        lab_parts = []
        col_parts = []
        for pid in pids:
            img, lab = shard.tile(pid)
            lab_parts.append(extract(lab, edge))
            col_parts.append(extract(img, edge))
        labels = np.concatenate(lab_parts)
        _checked(labels, spec, step_index, group_index)
        return labels, np.concatenate(col_parts)


def _final_item(shard: _Shard, tile, fetches, attempt):
    """Verb 1: the last round's change array on one tile's perimeter,
    then the tile's hook-based interior relabel."""
    pid, hooks = tile
    fire("darray:final", task=pid, attempt=attempt)
    with _trace.traced_span(f"darray:final:t{pid}"):
        for fetch in fetches:
            if pid in fetch.region:
                _apply_fetch(shard, fetch, (pid,), attempt)
        _img, lab = shard.tile(pid)
        apply_hooks(lab, hooks)
        return pid


def _hist_item(shard: _Shard, pid, k, attempt):
    """Verb 1: grey-level tally of one tile."""
    fire("darray:hist", task=pid, attempt=attempt)
    with _trace.traced_span(f"darray:hist:t{pid}"):
        img, _lab = shard.tile(pid)
        return get_kernel("histogram")(img, k)


class ShmemTransport(Transport):
    """A job's image and label array in one memfd, served by the warm
    worker pool, whose label blocks merge their own first rounds."""

    name = "shmem"

    def __init__(
        self,
        grid: ProcessorGrid,
        image: np.ndarray,
        *,
        connectivity: int = 8,
        grey: bool = False,
        fault_plan: FaultPlan | None = None,
        timeout: float | None = None,
        max_retries: int | None = None,
        workers: int | None = None,
    ):
        super().__init__(grid)
        _pool_context()  # without fork, fail at open, not at the first dispatch
        #: Read at the first dispatch, which writes it into the job's file.
        self._image = check_image(np.asarray(image), square=False)
        self._dispatch = dict(timeout=timeout, max_retries=max_retries)
        if workers is None:
            workers = min(grid.p, max(1, os.cpu_count() or 1), 16)
        # Checked here: a dispatch cut into no blocks would send nothing.
        self._workers = check_positive("workers", workers)
        self.merged_rounds = block_local_rounds(grid.p, self._workers)
        schedule = merge_schedule(grid)
        regions = (
            [group.region for group in schedule[self.merged_rounds - 1].groups]
            if self.merged_rounds
            else [(pid,) for pid in range(grid.p)]
        )
        #: The label dispatch's items: one block of whole regions per task.
        self._label_blocks = [
            sum(block, ()) for block in _blocks(regions, self._workers)
        ]
        #: The job's state that every task carries besides its file.
        self._state = dict(
            grid=grid,
            opts={"connectivity": connectivity, "grey": grey},
            rounds=self.merged_rounds,
            plan=fault_plan,
        )
        #: The last published round's change arrays, not yet applied.
        self._fetches: list[_Fetch] = []
        # Made at the first dispatch (the file) and borrowed there (the pool).
        self._fd: int | None = None
        self._labels: np.ndarray | None = None
        self._job: _Job | None = None
        self._pool = None
        self._failed = False

    def _file(self) -> _Job:
        """The job's memfd: made on first use, with the labels mapped and
        the image written in."""
        if self._job is None:
            image = np.ascontiguousarray(self._image)
            labels_nbytes = image.size * LABEL_DTYPE.itemsize
            self._fd = fd = job_file(labels_nbytes + image.nbytes)
            pwrite_array(fd, image, labels_nbytes)
            self._labels = (
                np.asarray(SharedMapping(fd, labels_nbytes))
                .view(LABEL_DTYPE).reshape(image.shape)
            )
            self._job = _Job(
                os.getpid(), fd, os.fstat(fd).st_ino, image.dtype.str, labels_nbytes,
                **self._state,
            )
            self._image = None
        return self._job

    def _run(self, item, items: list, site: str, shared=None) -> list:
        """One pool round trip: a block of ``items`` per worker, run by
        ``item``; the items' results, in order.  The first one borrows
        the pool."""
        job = self._file()
        traced = _trace.sink() is not None
        if self._pool is None:
            self._pool = borrow_pool(self._workers)
            if traced:
                record_worker_lanes(self._pool.worker_pids())
        try:
            blocks = run_tasks(
                self._pool, _shard_block,
                [(job, traced, item, block, shared) for block in _blocks(items, self._workers)],
                site=site, **self._dispatch,
            )
        except BaseException:
            self._failed = True
            raise
        return [result for block in blocks for result in block]

    def _check_dispatched(self, step_index: int) -> None:
        if step_index < self.merged_rounds:
            raise ValidationError(
                f"merge round {step_index} runs inside the label blocks "
                f"(the first {self.merged_rounds} rounds are block-local)"
            )

    # -- verb 1: tile-local compute ---------------------------------------

    def label(self) -> tuple[dict[int, TileHooks], int]:
        """Every tile, and the block-local rounds, in one round trip."""
        hooks: dict[int, TileHooks] = {}
        n_components = 0
        for block_hooks, n, border_bytes, change_bytes in self._run(
            _label_block, self._label_blocks, "darray:label"
        ):
            hooks.update(block_hooks)
            n_components += n
            self.stats.border_bytes += border_bytes
            self.stats.change_bytes += change_bytes
        return hooks, n_components

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
        """Every border side of a cross-block round in one round trip.  A
        side's item carries the previous round's change array of its
        region."""
        self._check_dispatched(step_index)
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
        self._check_dispatched(step_index)
        published = publishing_groups(step, changes)
        self._fetches = [
            _Fetch(step_index, gi, region, change.alphas, change.betas)
            for gi, region, change in published
        ]
        self.stats.change_bytes += change_nbytes(published)

    # -- collection / lifecycle --------------------------------------------

    def gather(self) -> np.ndarray:
        """The label array the workers wrote, mapped from the job's file:
        no copy."""
        self._file()
        return self._labels

    def close(self) -> None:
        """Return the pool -- or close it, if a dispatch raised -- and
        close the job's file; the labels stay mapped for the result,
        which holds no fd."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            return_pool(pool, warm=not self._failed)
        if self._fd is not None:
            fd, self._fd = self._fd, None
            os.close(fd)
