"""Broadcast on the BDM machine (Algorithm 2 of the paper).

``q`` elements held by processor 0 are delivered to all ``p``
processors using *two* matrix transpositions:

1. a blocked transpose spreads processor 0's data so that processor
   ``i`` holds the slice ``i*q/p .. (i+1)*q/p - 1`` (it lands in slot 0
   of the transposed layout, the slot fetched from processor 0);
2. a second, *specialized* transpose in which every processor
   prefetches just that first slot from every other processor, leaving
   each processor with a full copy of all ``q`` elements.

Total communication cost: ``2(tau + q - q/p)`` -- equation (2), whose
closed form is :func:`repro.analysis.complexity.predict_broadcast`.
"""

from __future__ import annotations

from repro.bdm.machine import Machine
from repro.bdm.memory import GlobalArray
from repro.bdm.transpose import transpose
from repro.utils.errors import ValidationError


def broadcast(
    machine: Machine,
    A: GlobalArray,
    *,
    root: int = 0,
    phase_name: str = "broadcast",
) -> GlobalArray:
    """Broadcast ``root``'s block of ``A`` to every processor.

    ``A`` must have equal block lengths ``q`` with ``p | q`` (pad the
    payload if needed); only ``root``'s block is read.  Returns a new
    :class:`GlobalArray` where every processor holds a copy of the ``q``
    elements.
    """
    p = machine.p
    q = A.block_length(root)
    if q % p != 0:
        raise ValidationError(f"p={p} must divide q={q}; pad the payload")
    size = q // p

    # Step 1-2: blocked transpose; processor i's slot `root` afterwards
    # holds root's elements [i*size, (i+1)*size).
    AT = transpose(machine, A, phase_name=f"{phase_name}:spread")

    # Step 3-4: specialized transpose -- prefetch only slot `root` (the
    # valid data) from every processor.
    out = GlobalArray(machine, q, dtype=A.dtype, name=f"bcast({A.name})")
    with machine.phase(f"{phase_name}:collect"):
        for proc in machine.procs:
            i = proc.pid
            with proc.prefetch_batch():
                for loop in range(p):
                    r = (i + loop) % p
                    piece = AT.read(proc, r, root * size, (root + 1) * size)
                    out.write(proc, i, piece, start=r * size)
            proc.charge_copy(q)
    return out

