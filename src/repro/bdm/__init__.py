"""Block Distributed Memory (BDM) machine simulator.

The BDM model (JaJa & Ryu) is the computation model the paper uses: a
single address space over ``p`` distributed memories, where a remote
access to a block of ``b`` words costs ``tau + b`` time units and ``l``
pipelined prefetches cost ``tau + l``.  This package provides

* :class:`~repro.bdm.machine.Machine` -- ``p`` virtual processors with
  per-phase cost accounting (simulated communication and computation
  time per processor, global elapsed time),
* :class:`~repro.bdm.memory.GlobalArray` -- an array distributed across
  the processors' memories, with remote reads/writes charged to the
  accessing processor and an optional same-phase hazard checker,
* the two data-movement primitives of Section 2:
  :func:`~repro.bdm.transpose.transpose` (Algorithm 1) and
  :func:`~repro.bdm.broadcast.broadcast` (Algorithm 2).

Algorithms are written phase-style: within ``with machine.phase(...):``
every processor's program for that phase runs to completion (processor
order is irrelevant by the hazard discipline), and a barrier separates
phases, exactly like the ``barrier()``-separated supersteps of the
paper's Split-C programs.
"""

from repro.bdm.cost import CostCounter, PhaseRecord, MachineReport
from repro.bdm.memory import GlobalArray, distribute_sequence
from repro.bdm.machine import Machine, Processor
from repro.bdm.transpose import transpose, transpose_cost_model, gather_to
from repro.bdm.broadcast import broadcast, broadcast_cost_model
from repro.bdm.spmd import run_spmd, SpmdContext, Handle
from repro.bdm.collectives import (
    allgather,
    allreduce,
    prefix_sum,
    reduce_cost_model,
    reduce_to,
    scatter_from,
)

__all__ = [
    "CostCounter",
    "PhaseRecord",
    "MachineReport",
    "GlobalArray",
    "distribute_sequence",
    "Machine",
    "Processor",
    "transpose",
    "transpose_cost_model",
    "gather_to",
    "broadcast",
    "broadcast_cost_model",
    "allgather",
    "allreduce",
    "prefix_sum",
    "reduce_cost_model",
    "reduce_to",
    "scatter_from",
    "run_spmd",
    "SpmdContext",
    "Handle",
]
