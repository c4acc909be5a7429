"""Matrix transposition on the BDM machine (Algorithm 1 of the paper).

The ``q x p`` matrix ``A`` is stored column-major across processors:
processor ``i`` owns column ``i`` (``q`` elements).  The transpose
rearranges the data so that processor ``t`` ends up with rows
``t*q/p .. (t+1)*q/p - 1`` from *every* column, i.e. each processor
ends with ``q`` elements again, laid out as ``p`` contiguous slots of
``q/p`` (slot ``r`` holding the piece fetched from processor ``r``).

Processor ``i`` executes ``p`` rounds; in round ``loop`` it prefetches
the block of ``q/p`` elements it needs from processor
``r = (i + loop) mod p`` (round 0 is the local block).  Since the
``p - 1`` remote prefetches are pipelined, the communication cost is
``tau + (q - q/p)`` word-times -- equation (1) of the paper, whose
closed form is :func:`repro.analysis.complexity.predict_transpose`.

A *truncated* variant handles ``q < p`` (used by histogramming when the
number of grey levels ``k`` is smaller than ``p``): only the first
``q`` processors receive data -- processor ``i < q`` collects element
``i`` of every column, ending with ``p`` elements.
"""

from __future__ import annotations

import numpy as np

from repro.bdm.machine import Machine
from repro.bdm.memory import GlobalArray
from repro.utils.errors import ValidationError


def transpose(machine: Machine, A: GlobalArray, *, phase_name: str = "transpose") -> GlobalArray:
    """Transpose the distributed ``q x p`` matrix ``A``.

    Dispatches to the blocked transpose when ``p`` divides ``q`` and to
    the truncated transpose when ``q < p``.  Returns a new
    :class:`GlobalArray` holding the transposed layout.
    """
    p = machine.p
    q = A.block_length(0)
    for owner in range(p):
        if A.block_length(owner) != q:
            raise ValidationError("transpose requires equal block lengths")
    if q >= p:
        if q % p != 0:
            raise ValidationError(f"p={p} must divide q={q} for the blocked transpose")
        return _blocked_transpose(machine, A, q, phase_name)
    return _truncated_transpose(machine, A, q, phase_name)


def _blocked_transpose(machine: Machine, A: GlobalArray, q: int, phase_name: str) -> GlobalArray:
    p = machine.p
    size = q // p
    AT = GlobalArray(machine, q, dtype=A.dtype, name=f"{A.name}^T")
    with machine.phase(phase_name):
        for proc in machine.procs:
            i = proc.pid
            with proc.prefetch_batch():
                for loop in range(p):
                    r = (i + loop) % p
                    block = A.read(proc, r, i * size, (i + 1) * size)
                    AT.write(proc, i, block, start=r * size)
            proc.charge_copy(q)  # local placement of q elements
    return AT


def _truncated_transpose(machine: Machine, A: GlobalArray, q: int, phase_name: str) -> GlobalArray:
    """``q < p``: row ``i`` of the matrix is gathered onto processor ``i``."""
    p = machine.p
    lengths = [p if i < q else 0 for i in range(p)]
    AT = GlobalArray(machine, lengths, dtype=A.dtype, name=f"{A.name}^T")
    with machine.phase(phase_name):
        for proc in machine.procs:
            i = proc.pid
            if i >= q:
                continue
            with proc.prefetch_batch():
                for loop in range(p):
                    r = (i + loop) % p
                    element = A.read(proc, r, i, i + 1)
                    AT.write(proc, i, element, start=r)
            proc.charge_copy(p)
    return AT


def gather_to(machine: Machine, A: GlobalArray, root: int = 0, *, phase_name: str = "gather") -> np.ndarray:
    """Collect every processor's block onto ``root`` (circular prefetch).

    Used by the histogramming algorithm's final step, where ``P0``
    prefetches the per-processor histogram slices.  Returns the
    concatenation ``block_0 | block_1 | ... | block_{p-1}`` as a plain
    array held by ``root``.
    """
    p = machine.p
    parts: list[np.ndarray] = [None] * p  # type: ignore[list-item]
    with machine.phase(phase_name):
        proc = machine.procs[root]
        with proc.prefetch_batch():
            for loop in range(p):
                r = (root + loop) % p
                parts[r] = A.read(proc, r)
        proc.charge_copy(A.total_length())
    return np.concatenate(parts) if parts else np.empty(0, dtype=A.dtype)

