"""Multiprocess transport: an inherited image, one shared label array, dispatched verbs.

The int64 label array lives in an anonymous, zero-filled ``MAP_SHARED``
mapping made before the pool first forks.  It reaches the workers as an
initializer argument together with the validated image, which fork
inherits instead of pickling, so every worker -- and every pool a
respawn rebuilds -- reads the parent's image pages and shares its label
pages with nothing to attach or unlink, and a tile is a pair of
``grid.tile_slices`` views.  The workers only read the image; a
respawned pool forks from it again, so the caller must not change the
image while the transport is open.  Spawn would pickle each worker a
private copy, so without fork the transport raises
:class:`~repro.utils.errors.ConfigurationError`.
:meth:`ShmemTransport.gather` returns the label array without a copy;
the label mapping is freed with the result.

Every verb call that reads or writes the arrays is one pool round trip
on a :class:`~repro.runtime.dispatch.PoolSupervisor`, through the
deadline/retry/respawn dispatcher: it sends one task per worker, and
each task carries a contiguous block of the call's items, in order --
blocks of tiles for label, tiles for final and hist, border sides for
border.  This mirrors the paper's cost model, which charges a merge
round's latency once because a processor pipelines its prefetches.

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
import mmap
import os
from typing import NamedTuple

import numpy as np

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
from repro.runtime.dispatch import PoolSupervisor, _pool_context, run_tasks
from repro.utils.errors import CorruptPayloadError, ValidationError
from repro.utils.validation import check_image, check_positive, ilog2

#: Worker-side grid, arrays, options and block-local rounds (set by the
#: initializer).
_SHARD: dict = {}

#: How far above ``p / workers`` tiles a label block may grow before
#: :func:`block_local_rounds` settles for smaller regions.
_BLOCK_SLACK = 1.25


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


def _shared_zeros(shape: tuple[int, int], dtype) -> np.ndarray:
    """A zero-filled array in an anonymous ``MAP_SHARED`` mapping.

    Processes forked after it is made share its pages; the mapping is
    unmapped when the last array over it is freed.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(-1, nbytes))


def _shard_init(grid, image, labels, opts, steps, plan: FaultPlan | None = None) -> None:
    """Pool initializer: keep the inherited arrays and the block-local
    rounds, install the plan."""
    install_plan(plan)
    _SHARD.update(grid=grid, image=image, labels=labels, opts=opts, steps=steps)


def _tile(pid: int) -> tuple[np.ndarray, np.ndarray]:
    """Tile ``pid`` of the image and the shared label array (views)."""
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


def _label_block(pids, _shared, attempt):
    """Verb 1 and the block-local merge rounds over one block of tiles.

    ``pids`` covers whole round-``L`` regions.  Each tile's run table is
    painted straight into its label tile; the mapping starts zero-filled
    and a retried attempt paints the same values, so painting the
    foreground is enough.  The rounds then run on the tables' perimeter
    vectors, and the tiles they relabeled get their merged perimeters
    written back.  Returns ``(hooks, n_components, border_bytes,
    change_bytes)`` of the block.
    """
    opts = _SHARD["opts"]
    grid = _SHARD["grid"]
    tile_runs = get_kernel("tile_runs")
    hooks: dict[int, TileHooks] = {}
    perimeters: dict[int, np.ndarray] = {}
    n_components = 0
    for pid in pids:
        fire("darray:label", task=pid, attempt=attempt)
        with _trace.traced_span(f"darray:label:t{pid}"):
            img, lab = _tile(pid)
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
            runs.paint(lab, img != 0)
            hooks[pid] = create_tile_hooks(runs)
            perimeters[pid] = runs.perimeter
            n_components += runs.n_components
    members = set(pids)
    extract = get_kernel("border_extract")
    relabel = get_kernel("relabel")
    border_bytes = change_bytes = 0
    merged: set[int] = set()
    for si, step in enumerate(_SHARD["steps"]):
        with _trace.traced_span(f"darray:merge:r{step.t}", cat=CAT_ROUND):
            inside = [gi for gi, group in enumerate(step.groups) if group.manager in members]
            mine = MergeStep(step.t, step.orientation, tuple(step.groups[gi] for gi in inside))
            sides = perimeter_round(perimeters, _SHARD["image"], grid, mine, extract)
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
        _img, lab = _tile(pid)
        lab[perimeter_coords(*lab.shape)] = perimeters[pid]
    return hooks, n_components, border_bytes, change_bytes


def _apply_fetch(fetch: _Fetch, pids, attempt: int) -> None:
    """Verb 3, applied: relabel the perimeters of tiles ``pids`` through
    one published change array."""
    fire("darray:fetch", round=fetch.step_index, group=fetch.group_index, attempt=attempt)
    with _trace.traced_span(f"darray:fetch:s{fetch.step_index}g{fetch.group_index}"):
        relabel = get_kernel("relabel")
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
        extract = get_kernel("border_extract")
        lab_parts = []
        col_parts = []
        for pid in pids:
            img, lab = _tile(pid)
            lab_parts.append(extract(lab, edge))
            col_parts.append(extract(img, edge))
        labels = np.concatenate(lab_parts)
        _checked(labels, spec, step_index, group_index)
        return labels, np.concatenate(col_parts)


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
        return get_kernel("histogram")(img, k)


class ShmemTransport(Transport):
    """An inherited image and a shared label array served by a supervised
    worker pool whose label blocks merge their own first rounds."""

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
        ctx = _pool_context()
        image = check_image(np.asarray(image), square=False)
        self._dispatch = dict(timeout=timeout, max_retries=max_retries)
        self._labels = _shared_zeros(image.shape, np.int64)
        opts = {"connectivity": connectivity, "grey": grey}
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
        #: The last published round's change arrays, not yet applied.
        self._fetches: list[_Fetch] = []
        # Built before the pool first forks, so every worker inherits
        # the image and the label array.
        self._pool = PoolSupervisor(
            ctx,
            workers,
            initializer=_shard_init,
            initargs=(
                grid, image, self._labels, opts,
                schedule[: self.merged_rounds], fault_plan,
            ),
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
        """The shared label array the workers wrote: no copy."""
        return self._labels

    def close(self) -> None:
        self._pool.close()
