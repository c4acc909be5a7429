"""Distributed global arrays for the BDM simulator.

A :class:`GlobalArray` owns one local NumPy block per processor (blocks
may differ in length and even in shape).  All access goes through
``read``/``write`` so the accessing processor can be charged for remote
traffic and so the simulator can detect same-phase read/write hazards.

Hazard discipline
-----------------
The simulator executes a phase's per-processor programs sequentially,
so a remote read could observe data written *within the same phase* --
something a real SPMD machine would only guarantee after the next
barrier.  To keep simulations faithful, every access is recorded in a
per-word shadow memory (:class:`repro.checker.shadow.ShadowMemory`)
and same-phase conflicts raise
:class:`~repro.utils.errors.HazardError` when checking is enabled:
read-after-write (a remote read of words another processor wrote),
write-after-write (two processors writing the same word), and
write-after-read (a write landing on words another processor already
read).  Scattered :meth:`read_indices`/:meth:`write_indices` accesses
are checked on their exact index sets, not a covering interval, so
disjoint strided accesses from different processors are allowed.
Local reads of one's own memory are always allowed (a processor sees
its own writes immediately on a real machine too), and any processor's
repeated accesses to the same words never conflict with themselves.
"""

from __future__ import annotations

import numpy as np

from repro.checker.shadow import ShadowMemory
from repro.utils.errors import HazardError, ValidationError


class GlobalArray:
    """An array distributed over the ``p`` processors of a machine.

    Parameters
    ----------
    machine:
        The owning :class:`~repro.bdm.machine.Machine`; traffic is
        charged through its processors.
    shape_per_proc:
        Either an int (every processor owns a 1-D block of that length)
        or a sequence of per-processor lengths.
    dtype:
        NumPy dtype of the elements; must be an integer or float type.
    name:
        Optional debugging name.
    """

    def __init__(self, machine, shape_per_proc, dtype=np.int64, name: str = ""):
        self._machine = machine
        p = machine.p
        if isinstance(shape_per_proc, (int, np.integer)):
            lengths = [int(shape_per_proc)] * p
        else:
            lengths = [int(s) for s in shape_per_proc]
            if len(lengths) != p:
                raise ValidationError(
                    f"need one block length per processor ({p}), got {len(lengths)}"
                )
        if any(length < 0 for length in lengths):
            raise ValidationError("block lengths must be non-negative")
        self._blocks = [np.zeros(length, dtype=dtype) for length in lengths]
        self.name = name or f"garray@{id(self):x}"
        self.dtype = np.dtype(dtype)
        # Per-word same-phase access log (writer/reader pids).
        self._shadow = ShadowMemory(self.name, lengths)
        machine._register_array(self)

    # -- structure -------------------------------------------------------

    @property
    def p(self) -> int:
        return len(self._blocks)

    def block_length(self, owner: int) -> int:
        """Number of elements held by processor ``owner``."""
        return len(self._blocks[owner])

    def total_length(self) -> int:
        return sum(len(b) for b in self._blocks)

    # -- phase bookkeeping ------------------------------------------------

    def _clear_phase_writes(self) -> None:
        self._shadow.clear()

    @property
    def _checking(self) -> bool:
        """Shadow tracking applies inside a phase with checking enabled."""
        return self._machine.check_hazards and self._machine.in_phase

    def _shadow_read(self, owner: int, sel, pid: int) -> None:
        try:
            self._shadow.record_read(owner, sel, pid, self._machine.phase_name)
        except HazardError as exc:
            # Land the provenance in the event stream before raising.
            self._machine._note_hazard(getattr(exc, "hazard", None))
            raise

    def _shadow_write(self, owner: int, sel, pid: int) -> None:
        try:
            self._shadow.record_write(owner, sel, pid, self._machine.phase_name)
        except HazardError as exc:
            self._machine._note_hazard(getattr(exc, "hazard", None))
            raise

    # -- access ------------------------------------------------------------

    def read(self, proc, owner: int, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Read ``[start:stop)`` of ``owner``'s block on behalf of ``proc``.

        Remote reads (``owner != proc.pid``) are charged to ``proc`` as a
        block prefetch of ``stop - start`` words and are hazard-checked.
        Returns a copy (remote data lands in local memory on a real
        machine; local reads also copy, for uniform semantics).
        """
        if not (0 <= owner < self.p):
            raise ValidationError(f"owner {owner} out of range [0, {self.p})")
        block = self._blocks[owner]
        if stop is None:
            stop = len(block)
        self._validate_range(owner, start, stop)
        if owner != proc.pid:
            if self._checking:
                self._shadow_read(owner, slice(start, stop), proc.pid)
            proc._charge_comm(stop - start, from_pid=owner)
            self._machine._charge_server(owner, stop - start)
        return block[start:stop].copy()

    def write(self, proc, owner: int, values, start: int = 0) -> None:
        """Write ``values`` into ``owner``'s block at offset ``start``.

        Remote writes are charged like remote reads (one-sided put).
        """
        values = np.asarray(values, dtype=self.dtype)
        if values.ndim != 1:
            values = values.ravel()
        stop = start + len(values)
        self._validate_range(owner, start, stop)
        if owner != proc.pid:
            proc._charge_comm(len(values), from_pid=owner)
            self._machine._charge_server(owner, len(values))
        if self._checking:
            self._shadow_write(owner, slice(start, stop), proc.pid)
        self._blocks[owner][start:stop] = values

    def read_indices(self, proc, owner: int, indices: np.ndarray) -> np.ndarray:
        """Read scattered elements of ``owner``'s block on behalf of ``proc``.

        Used for tile-edge pixels, whose flat offsets are strided.  The
        BDM model prices ``l`` pipelined word prefetches at ``tau + l``,
        so the charge equals an ``len(indices)``-word block read.
        Hazard checking is performed on the exact index set.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.empty(0, dtype=self.dtype)
        self._validate_range(owner, int(indices.min()), int(indices.max()) + 1)
        if owner != proc.pid:
            if self._checking:
                self._shadow_read(owner, indices, proc.pid)
            proc._charge_comm(len(indices), from_pid=owner)
            self._machine._charge_server(owner, len(indices))
        return self._blocks[owner][indices].copy()

    def write_indices(self, proc, owner: int, indices: np.ndarray, values) -> None:
        """Write scattered elements into ``owner``'s block.

        ``indices`` must be duplicate-free: with a repeated index the
        store would silently keep the last value (NumPy fancy-assignment
        order), which on a real machine is an unordered self-race.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=self.dtype).ravel()
        if indices.shape != values.shape:
            raise ValidationError("indices and values must have equal length")
        if indices.size == 0:
            return
        if np.unique(indices).size != indices.size:
            raise ValidationError(
                f"write_indices to {self.name}[{owner}] has duplicate "
                "indices; the winning value would be arbitrary"
            )
        self._validate_range(owner, int(indices.min()), int(indices.max()) + 1)
        if owner != proc.pid:
            proc._charge_comm(len(values), from_pid=owner)
            self._machine._charge_server(owner, len(values))
        if self._checking:
            self._shadow_write(owner, indices, proc.pid)
        self._blocks[owner][indices] = values

    def local(self, pid: int) -> np.ndarray:
        """Direct *read-only* view of a processor's block.

        For write access use :meth:`write` (so hazards are tracked);
        this view is handy for cheap local scans that need no charging
        beyond what the algorithm accounts for explicitly.
        """
        view = self._blocks[pid].view()
        view.flags.writeable = False
        return view

    def place(self, pid: int, values) -> None:
        """Load ``values`` into ``pid``'s whole block, free of charge.

        *Initial data placement*: the BDM model (like every BSP-style
        experimental study) charges only traffic between processors,
        not loading the input before timed phases begin.  This is the
        one sanctioned way to seed a block directly -- the cost linter
        (COST401) flags any other ``._blocks`` access outside this
        module as unaccounted traffic.
        """
        if not (0 <= pid < self.p):
            raise ValidationError(f"pid {pid} out of range [0, {self.p})")
        block = self._blocks[pid]
        flat = np.asarray(values, dtype=self.dtype).ravel()
        if flat.shape != block.shape:
            raise ValidationError(
                f"placement of {flat.shape[0]} element(s) into block of "
                f"{block.shape[0]} on processor {pid}"
            )
        block[:] = flat

    def scatter_rows(self, matrix: np.ndarray) -> None:
        """Initialize from a ``p x q`` matrix: row ``i`` -> processor ``i``.

        This is *initial data placement* (allowed free of charge by the
        BDM model), not communication.
        """
        matrix = np.asarray(matrix)
        if matrix.shape[0] != self.p:
            raise ValidationError(
                f"matrix has {matrix.shape[0]} rows, machine has {self.p} processors"
            )
        for i in range(self.p):
            row = np.asarray(matrix[i], dtype=self.dtype).ravel()
            if len(row) != len(self._blocks[i]):
                raise ValidationError(
                    f"row {i} has {len(row)} elements, block holds "
                    f"{len(self._blocks[i])}"
                )
            self._blocks[i][:] = row

    def gather_rows(self) -> np.ndarray:
        """Collect all blocks into a ``p x q`` matrix (equal lengths only).

        Diagnostic counterpart of :meth:`scatter_rows`; free of charge.
        """
        lengths = {len(b) for b in self._blocks}
        if len(lengths) != 1:
            raise ValidationError("gather_rows requires equal block lengths")
        return np.stack([b.copy() for b in self._blocks])

    # -- internals ---------------------------------------------------------

    def _validate_range(self, owner: int, start: int, stop: int) -> None:
        if not (0 <= owner < self.p):
            raise ValidationError(f"owner {owner} out of range [0, {self.p})")
        n = len(self._blocks[owner])
        if not (0 <= start <= stop <= n):
            raise ValidationError(
                f"range [{start}:{stop}) out of bounds for block of length {n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lengths = [len(b) for b in self._blocks]
        return f"GlobalArray({self.name!r}, p={self.p}, lengths={lengths})"

