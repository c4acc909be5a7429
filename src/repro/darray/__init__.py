"""repro.darray: a distributed tile array with pluggable transports.

The paper's connected-components algorithm is already shaped for
distributed tiles: after the initial per-tile labeling, the only
communication in its ``log p`` merge rounds is (a) border pixels and
labels and (b) the sorted change arrays the group managers publish.
This subsystem makes that structure explicit: a
:class:`DistributedArray` owns the ``v x w`` grid of tile shards behind
a :class:`Transport` whose *only* verbs are tile-local compute, border
exchange, and change-array publish/fetch.

Three registered transports implement the contract, all driven by
:func:`label_components` (see ``docs/DARRAY.md``):

* ``local`` -- shards are in-process run tables, painted once into one
  ndarray at finalize;
* ``shmem`` -- tiles are views into one image and one label array in
  one memfd per job, which the process's warm pool maps task by task,
  and every verb call that reads is one dispatch of one task per
  worker with deadline/retry/respawn recovery and ``darray:border`` /
  ``darray:fetch`` fault sites;
* ``mmap`` -- out-of-core: pixels stream from a memory-mapped binary
  PGM, run tables spill to disk, and only the perimeter labels stay
  resident through the merge rounds, so peak memory is one run table
  plus O(n) borders regardless of image size.

The engines (:func:`darray_components`, :func:`darray_histogram`)
produce labels bit-identical to the serial reference on every
transport (tested).  The simulator's unregistered
:class:`~repro.core.connected_components.BdmTransport` runs the same
driver and charges a simulated machine.
"""

from repro.darray.array import DistributedArray
from repro.darray.engine import (
    DarrayResult,
    count_components,
    darray_components,
    darray_histogram,
    label_components,
)
from repro.darray.transport import (
    TRANSPORTS,
    Transport,
    TransportStats,
    open_transport,
)

__all__ = [
    "DistributedArray",
    "DarrayResult",
    "Transport",
    "TransportStats",
    "TRANSPORTS",
    "open_transport",
    "count_components",
    "darray_components",
    "darray_histogram",
    "label_components",
]
