"""The transport contract: three verbs move a distributed tile array.

A :class:`Transport` owns the physical placement of a
:class:`~repro.core.tiles.ProcessorGrid`'s tile shards -- in-process
arrays, shared-memory mappings, or spill files behind a memory-mapped
image.  The algorithm layer (:mod:`repro.darray.engine`) never touches
placement; everything it may ask of a transport is one of:

1. **tile-local compute** -- run a named local step (initial labeling,
   hook-based final relabel, histogram tally) on shards, where the
   shards live;
2. **border exchange** -- fetch both sides of every border of one merge
   round (labels + colors, in scan order) out of the owning shards;
3. **change publish/fetch** -- fan each group's solved change array of
   one merge round out to that group's merged region, whose shards
   relabel their perimeters.

Verbs 2 and 3 take a whole round, as the paper's group managers fetch
their borders together and its clients then fetch their change lists
together (Sections 5.2--5.3).  A publish takes effect before the next
verb that reads: a transport may apply it at once (``local``,
``mmap``) or carry the change arrays into its next border or finalize
call, so a dispatched transport (``shmem``) moves a whole round --
the previous round's change arrays and this round's borders -- in one
pool round trip.  A round's group regions are disjoint, so doing its
groups in any order gives the same labels.

A transport may also run the first :attr:`Transport.merged_rounds`
rounds inside verb 1, where each of its workers holds whole regions of
those rounds (``shmem``'s label blocks): its label count is then net of
those rounds' alphas and its stats include their traffic, and the
engine runs verbs 2 and 3 only for the rounds after them.

Everything else (the merge schedule, the border-graph solve, hook
bookkeeping) is transport-independent and lives in the engine.  The
verbs are deliberately those of the paper: the merge rounds move only
border pixels and change arrays, which is what makes the out-of-core
and multi-process placements drop-in.

Transports accumulate :class:`TransportStats`; the engine republishes
them as ``darray:*`` obs counters.
"""

from __future__ import annotations

import abc
import importlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.border_graph import BorderSide
from repro.core.change_array import ChangeArray
from repro.core.hooks import TileHooks
from repro.core.merge import MergeStep
from repro.core.tiles import ProcessorGrid
from repro.utils.errors import ValidationError

#: Registered transports: name -> ("module:Class", the keyword options
#: its constructor takes).  The class resolves lazily, so importing
#: repro.darray does not drag in the multiprocessing runtime; the option
#: names are spelled here so that checking one needs no import.
TRANSPORTS = {
    "local": ("repro.darray.local:LocalTransport", ("connectivity", "grey")),
    "shmem": (
        "repro.darray.shmem_transport:ShmemTransport",
        ("connectivity", "grey", "fault_plan", "timeout", "max_retries", "workers"),
    ),
    "mmap": (
        "repro.darray.mmap_transport:MmapTransport",
        ("connectivity", "grey", "spill_dir", "resident_tiles"),
    ),
}


@dataclass
class TransportStats:
    """Traffic and working-set accounting of one transport lifetime.

    ``border_bytes`` counts every byte of border labels+colors fetched
    (verb 2); ``change_bytes`` every byte of non-empty change array
    fanned out (verb 3, bytes x receiving tiles).  ``spill_reads`` /
    ``spill_writes`` count whole run-table transfers between residency
    and the spill directory (out-of-core transport only);
    ``resident_highwater`` is the maximum number of run tables ever
    resident at once.
    """

    border_bytes: int = 0
    change_bytes: int = 0
    spill_reads: int = 0
    spill_writes: int = 0
    resident_highwater: int = 0


class Transport(abc.ABC):
    """Abstract placement of a grid's tile shards behind the three verbs.

    Concrete transports are constructed by :func:`open_transport` with
    the grid, the image source, and the algorithm options; they are
    context managers (``close`` must release every memfd, spill file,
    and pool on *every* path out).
    """

    #: Registry name, overridden by each implementation.
    name = "abstract"

    #: Merge rounds :meth:`label` runs itself; :meth:`border` and
    #: :meth:`publish` take only the later ones.
    merged_rounds = 0

    def __init__(self, grid: ProcessorGrid):
        self.grid = grid
        self.stats = TransportStats()

    # -- verb 1: tile-local compute ---------------------------------------

    @abc.abstractmethod
    def label(self) -> tuple[dict[int, TileHooks], int]:
        """Initial per-tile labeling on every shard.

        Each shard's labels use the paper's globally-offset convention
        ``(Iq + i) * cols + (Jr + j) + 1``; the transport stores them
        shard-locally -- as a run table or a label tile -- and returns
        one :class:`TileHooks` per tile plus the sum of the tiles'
        component counts, less the alphas of the first
        :attr:`merged_rounds` rounds, which it merges itself.
        """

    @abc.abstractmethod
    def finalize(self, hooks: dict[int, TileHooks]) -> None:
        """Hook-based final interior relabel, tile-local on every shard.

        Every tile's final labels are written once, where
        :meth:`gather` reads them.
        """

    @abc.abstractmethod
    def histogram(self, k: int) -> np.ndarray:
        """Per-shard grey-level tallies, reduced to one ``k``-bin vector."""

    # -- verb 2: border exchange -------------------------------------------

    @abc.abstractmethod
    def border(
        self, step_index: int, step: MergeStep
    ) -> list[tuple[BorderSide, BorderSide]]:
        """Fetch both sides of every border of merge round ``step``.

        Returns one ``(side_a, side_b)`` pair per group of ``step``, in
        group order; each side concatenates the labels and colors of
        its tiles' facing edges in scan order.
        """

    # -- verb 3: change-array publish/fetch --------------------------------

    @abc.abstractmethod
    def publish(
        self, step_index: int, step: MergeStep, changes: Sequence[ChangeArray]
    ) -> None:
        """Fan each group's change array out to that group's region.

        ``changes`` holds one :class:`ChangeArray` per group of
        ``step``, in group order.  Every shard of a group with a
        non-empty array relabels its tile perimeter through the sorted
        ``(alpha, beta)`` pairs -- the paper's drastically limited
        updating; a group with an empty array publishes nothing.  The
        relabel takes effect before the next :meth:`border` or
        :meth:`finalize` reads a shard, possibly inside that call.
        """

    # -- collection / lifecycle --------------------------------------------

    @abc.abstractmethod
    def gather(self) -> np.ndarray:
        """Assemble the full label array (diagnostic / result surface).

        The out-of-core transport returns a read-only ``numpy.memmap``
        so gathering does not materialize the image in RAM.
        """

    def close(self) -> None:
        """Release every resource; idempotent."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_transport(name: str, grid: ProcessorGrid, image, **opts) -> Transport:
    """Instantiate a registered transport over ``grid`` and ``image``.

    ``image`` is a 2-D array (any transport) or a PNM file path (the
    ``mmap`` transport streams it; the others read it up front).  The
    transport receives only the options it takes; an option that only
    another transport takes is accepted and unused, so one call site
    can configure the whole matrix.  An option that no transport takes
    raises :class:`ValidationError`.
    """
    try:
        target, takes = TRANSPORTS[name]
    except KeyError:
        raise ValidationError(
            f"unknown transport {name!r}; known: {sorted(TRANSPORTS)}"
        ) from None
    known = {key for _, keys in TRANSPORTS.values() for key in keys}
    unknown = sorted(set(opts) - known)
    if unknown:
        raise ValidationError(
            f"unknown transport option(s) {unknown}; known: {sorted(known)}"
        )
    module_name, _, class_name = target.partition(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    return cls(grid, image, **{key: opts[key] for key in takes if key in opts})
