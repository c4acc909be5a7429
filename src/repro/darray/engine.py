"""Transport-independent drivers: the paper's schedule over a DistributedArray.

:func:`label_components` is the one connected-components driver:
initial tile-local labeling, ``log p`` merge rounds, hook-based final
interior update.  Each merge round fetches both sides of every border
of the round in one verb call, solves each group's border graph in the
driver, and publishes every group's change array to its merged region
in one more.  A transport whose workers each hold whole regions of the
first rounds (``shmem``) merges those inside its label verb, and the
driver starts at its ``merged_rounds``.  The component count falls out
of the same schedule: the tiles' counts minus one per published alpha.
The *only* transport-facing operations are the three verbs, so the
same driver labels an in-process array, an image and a shared label
array served by a supervised pool, an out-of-core spill set over a
memory-mapped image -- bit-identically -- or the simulated BDM machine
of :func:`~repro.core.parallel_components`.

Observability: a ``recorder`` is installed as the sink
(:mod:`repro.obs.trace`) for the length of the call.  The driver wraps
the phases in ``darray:label`` / ``darray:merge:r<t>`` /
``darray:final`` spans, under which the pool dispatches and kernels
record their own (a block-local round's ``darray:merge:r<t>`` comes
from each label block, on its worker's lane), and republishes the
transport's traffic counters (border bytes, change bytes, spill
reads/writes, resident-tile highwater) as ``darray:*`` counts.

Fault handling: the ``shmem`` transport's pool tasks retry, respawn
and time out under :mod:`repro.runtime.dispatch`; an unrecoverable
:class:`~repro.utils.errors.FaultError` out of a transport degrades to
the serial kernel engine (``DegradedRunWarning`` + ``fault:degrade``
instant, bit-identical result) unless ``degrade=False``.
"""

from __future__ import annotations

import pathlib
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.baselines.run_label import LABEL_DTYPE, check_label_capacity
from repro.core.border_graph import solve_border_merge
from repro.core.merge import merge_schedule
from repro.core.tiles import ProcessorGrid
from repro.darray.array import DistributedArray
from repro.darray.transport import TransportStats
from repro.kernels import get as get_kernel
from repro.obs import trace as _trace
from repro.obs.events import (
    CAT_ROUND,
    DARRAY_BORDER_BYTES,
    DARRAY_CHANGE_BYTES,
    DARRAY_FINAL,
    DARRAY_LABEL,
    DARRAY_RESIDENT_HIGHWATER,
    DARRAY_SPILL_READS,
    DARRAY_SPILL_WRITES,
    FAULT_DEGRADE,
)
from repro.obs.runtime import WallRecorder
from repro.utils.errors import DegradedRunWarning, FaultError, ValidationError
from repro.utils.validation import check_image, check_power_of_two

#: Row-block size (in pixels) for the streaming component count.
_COUNT_BLOCK = 1 << 20


@dataclass
class DarrayResult:
    """Labeling result plus the transport's traffic accounting.

    ``labels`` is int32 (:data:`~repro.baselines.run_label.LABEL_DTYPE`)
    on every path: an ordinary ndarray for the in-memory transports (for
    ``shmem``, the shared array the workers wrote, freed with the
    result), a read-only ``numpy.memmap`` for ``mmap`` (the result
    never materializes in RAM), and the serial run table painted whole
    on a degraded run.  ``n_components`` comes from the merges, not
    from the labels: the sum of the per-tile component counts minus the
    total length of the published change arrays, since each alpha is
    one component merged away exactly once.  A degraded run takes the
    serial table's count instead.
    """

    labels: np.ndarray
    n_components: int
    stats: TransportStats
    grid: ProcessorGrid


def count_components(labels: np.ndarray) -> int:
    """Number of components, streamed in O(1) memory over any label array.

    The test oracle of the merge identity :func:`darray_components`
    counts by.

    Exploits the seed-label convention: every component's final label
    is the globally-offset seed ``row * cols + col + 1`` of one of its
    own pixels, so counting pixels whose label equals their own seed
    counts components -- one row block at a time, which never pages a
    memory-mapped result in wholesale.
    """
    flat = labels.reshape(-1)
    total = 0
    for lo in range(0, flat.shape[0], _COUNT_BLOCK):
        block = np.asarray(flat[lo : lo + _COUNT_BLOCK])
        total += int(
            np.count_nonzero(
                block == np.arange(lo + 1, lo + 1 + block.shape[0], dtype=np.int64)
            )
        )
    return total


def _source_shape(source) -> tuple[int, ...]:
    """The shape of an image source, reading at most a PNM header."""
    if isinstance(source, (str, pathlib.Path)):
        from repro.images.io import pnm_info

        return pnm_info(source).shape
    return np.shape(source)


def _resolve_source(source, transport: str):
    """Split an image source into (shape, transport argument).

    A file path stays a path for ``mmap`` (the transport maps or stages
    it; only the header is read here) and is decoded for the in-memory
    transports.  An array is validated and passed through.
    """
    if isinstance(source, (str, pathlib.Path)):
        from repro.images.io import pnm_info, read_pnm

        if transport == "mmap":
            return pnm_info(source).shape, source
        image = read_pnm(source)
        return image.shape, image
    image = check_image(np.asarray(source), square=False)
    return image.shape, image


def _emit_stats(stats: TransportStats) -> None:
    _trace.count(DARRAY_BORDER_BYTES, stats.border_bytes)
    _trace.count(DARRAY_CHANGE_BYTES, stats.change_bytes)
    _trace.count(DARRAY_SPILL_READS, stats.spill_reads)
    _trace.count(DARRAY_SPILL_WRITES, stats.spill_writes)
    _trace.count(DARRAY_RESIDENT_HIGHWATER, stats.resident_highwater)


def label_components(
    da: DistributedArray, *, connectivity: int, grey: bool
) -> tuple[np.ndarray, int]:
    """Run the paper's schedule over ``da``: ``(labels, n_components)``.

    ``n_components`` is the tiles' component count minus the total
    length of the published change arrays.  The rounds the transport
    merges inside its label verb (``da.merged_rounds``, whose alphas
    its count already excludes) are skipped here.
    """
    with _trace.traced_span(DARRAY_LABEL, cat=CAT_ROUND):
        hooks, n_components = da.label()
    schedule = merge_schedule(da.grid)
    for si in range(da.merged_rounds, len(schedule)):
        step = schedule[si]
        with _trace.traced_span(f"darray:merge:r{step.t}", cat=CAT_ROUND):
            changes = [
                solve_border_merge(side_a, side_b, connectivity=connectivity, grey=grey).changes
                for side_a, side_b in da.border(si, step)
            ]
            # Each alpha is one component merged away, exactly once.
            n_components -= sum(len(c) for c in changes)
            da.publish(si, step, changes)
    with _trace.traced_span(DARRAY_FINAL, cat=CAT_ROUND):
        da.finalize(hooks)
    return da.gather(), n_components


def _open_and_run(
    what: str,
    verb: Callable[[DistributedArray], Any],
    serial: Callable[[np.ndarray, ProcessorGrid], Any],
    source,
    *,
    p: int,
    transport: str,
    shape: tuple[int, int] | None,
    recorder: WallRecorder | None,
    degrade: bool,
    **opts,
):
    """Open ``source`` over ``transport`` and run ``verb(da)`` on it.

    The one open-and-degrade path of :func:`darray_components` and
    :func:`darray_histogram`: the source is resolved, the balanced grid
    built and ``recorder`` installed for the call.  On an unrecoverable
    :class:`FaultError` the transport is already closed; the call then
    warns, records a ``fault:degrade`` instant and returns
    ``serial(image, grid)`` on the decoded image, unless ``degrade`` is
    false.
    """
    image_shape, image = _resolve_source(source, transport)
    grid = ProcessorGrid(p, image_shape, strict=False, shape=shape)
    with _trace.install(recorder):
        try:
            with DistributedArray.open(transport, grid, image, **opts) as da:
                result = verb(da)
                stats = da.stats
        except FaultError as exc:
            if not degrade:
                raise
            warnings.warn(
                DegradedRunWarning(
                    f"darray {what} degraded to the serial engine after "
                    f"unrecoverable fault: {exc}"
                ),
                stacklevel=3,
            )
            _trace.instant(
                FAULT_DEGRADE, what=what, error=type(exc).__name__, detail=str(exc)
            )
            if isinstance(image, (str, pathlib.Path)):
                from repro.images.io import read_pnm

                image = read_pnm(image)
            return serial(image, grid)
        _emit_stats(stats)
    return result


def darray_components(
    source,
    *,
    p: int = 4,
    transport: str = "local",
    connectivity: int = 8,
    grey: bool = False,
    shape: tuple[int, int] | None = None,
    recorder: WallRecorder | None = None,
    fault_plan=None,
    timeout: float | None = None,
    max_retries: int | None = None,
    workers: int | None = None,
    spill_dir=None,
    resident_tiles: int = 1,
    degrade: bool = True,
) -> DarrayResult:
    """Connected components of ``source`` over a DistributedArray.

    ``source`` is a 2-D image array or a PNM file path; with
    ``transport="mmap"`` a binary-PGM path is memory-mapped and never
    read whole.  The grid uses the balanced (non-strict) partition, so
    any image at least ``v x w`` pixels works; ``shape`` forces an
    explicit ``(v, w)`` grid (e.g. ``(1, p)`` for strip tiling).

    ``fault_plan`` / ``timeout`` / ``max_retries`` / ``workers`` apply
    to the dispatched (``shmem``) transport; ``spill_dir`` /
    ``resident_tiles`` to the out-of-core one.  On an unrecoverable
    fault the call degrades to the serial kernel engine unless
    ``degrade=False`` (then the :class:`FaultError` propagates after
    transport teardown -- no pool worker or spill file outlives it).

    Labels are int32 on every path, so an image of 2**31 pixels or more
    (:data:`~repro.baselines.run_label.MAX_LABEL_PIXELS`) raises
    :class:`ValidationError` before any transport opens.
    """
    check_label_capacity(_source_shape(source))

    def verb(da: DistributedArray) -> DarrayResult:
        labels, n_components = label_components(da, connectivity=connectivity, grey=grey)
        return DarrayResult(labels, n_components, da.stats, da.grid)

    def serial(image: np.ndarray, grid: ProcessorGrid) -> DarrayResult:
        runs = get_kernel("tile_runs")(image, connectivity=connectivity, grey=grey)
        labels = np.empty(runs.shape, dtype=LABEL_DTYPE)
        runs.paint(labels)
        return DarrayResult(labels, runs.n_components, TransportStats(), grid)

    return _open_and_run(
        "components", verb, serial, source,
        p=p, transport=transport, shape=shape, recorder=recorder, degrade=degrade,
        connectivity=connectivity, grey=grey, fault_plan=fault_plan,
        timeout=timeout, max_retries=max_retries, workers=workers,
        spill_dir=spill_dir, resident_tiles=resident_tiles,
    )


def darray_histogram(
    source,
    k: int,
    *,
    p: int = 4,
    transport: str = "local",
    shape: tuple[int, int] | None = None,
    recorder: WallRecorder | None = None,
    fault_plan=None,
    timeout: float | None = None,
    max_retries: int | None = None,
    workers: int | None = None,
    spill_dir=None,
    resident_tiles: int = 1,
    degrade: bool = True,
) -> np.ndarray:
    """Grey-level histogram of ``source`` via per-shard tallies (verb 1)."""
    check_power_of_two("k", k)

    def verb(da: DistributedArray) -> np.ndarray:
        with _trace.traced_span("darray:hist", cat=CAT_ROUND):
            hist = da.histogram(k)
        hist = np.asarray(hist, dtype=np.int64)
        if int(hist.sum()) != da.grid.rows * da.grid.cols:
            raise ValidationError(
                f"histogram mass {int(hist.sum())} != pixel count "
                f"{da.grid.rows * da.grid.cols}"
            )
        return hist

    def serial(image: np.ndarray, grid: ProcessorGrid) -> np.ndarray:
        return get_kernel("histogram")(np.asarray(image), k)

    return _open_and_run(
        "histogram", verb, serial, source,
        p=p, transport=transport, shape=shape, recorder=recorder, degrade=degrade,
        fault_plan=fault_plan, timeout=timeout, max_retries=max_retries,
        workers=workers, spill_dir=spill_dir, resident_tiles=resident_tiles,
    )
